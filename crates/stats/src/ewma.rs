//! Exponentially weighted moving averages.
//!
//! Two of the paper's secondary performance indicators are EWMAs of
//! request/reply timing gaps ("Ack EWMA" and "Send EWMA", §4.1, borrowed from
//! the ASCAR congestion-control work). This small utility implements the
//! filter used by the monitoring layer of the simulator.

use capes_persist::{Persist, PersistError, Reader, Writer};

/// An exponentially weighted moving average filter.
///
/// `value ← value·(1−α) + sample·α`, seeded with the first sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a filter with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Feeds one sample and returns the updated average.
    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => prev * (1.0 - self.alpha) + sample * self.alpha,
        };
        self.value = Some(v);
        v
    }

    /// Current value, or `default` if no sample has been seen yet.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

impl Persist for Ewma {
    const MIN_SIZE: usize = 9; // alpha + Option tag

    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.alpha);
        self.value.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let alpha = r.get_f64()?;
        // Enforce the constructor's invariant so a corrupt snapshot cannot
        // smuggle in a filter `Ewma::new` would have rejected.
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(PersistError::BadValue {
                what: "EWMA alpha outside (0, 1]",
            });
        }
        let value = Option::<f64>::decode(r)?;
        Ok(Ewma { alpha, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_the_filter() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value, None);
        assert_eq!(e.value_or(7.0), 7.0);
        assert_eq!(e.update(42.0), 42.0);
        assert_eq!(e.value, Some(42.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        e.update(0.0);
        let mut last = 0.0;
        for _ in 0..200 {
            last = e.update(10.0);
        }
        assert!((last - 10.0).abs() < 1e-6);
    }

    #[test]
    fn smaller_alpha_reacts_more_slowly() {
        let mut fast = Ewma::new(0.5);
        let mut slow = Ewma::new(0.05);
        fast.update(0.0);
        slow.update(0.0);
        let f = fast.update(100.0);
        let s = slow.update(100.0);
        assert!(f > s);
        assert_eq!(f, 50.0);
        assert_eq!(s, 5.0);
    }

    #[test]
    fn stays_within_input_range() {
        let mut e = Ewma::new(0.3);
        for i in 0..100 {
            let x = if i % 2 == 0 { -5.0 } else { 5.0 };
            let v = e.update(x);
            assert!((-5.0..=5.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = Ewma::new(0.0);
    }
}
