//! The tunable parameters of the target system and their valid ranges.
//!
//! The paper tunes two parameters on every Lustre client (§4.1):
//!
//! 1. `max_rpcs_in_flight` — the congestion window of each Object Storage
//!    Client, and
//! 2. the I/O rate limit — how many outgoing I/O requests a client may issue
//!    per second.
//!
//! All clients share the same values ("All clients use the same parameter
//! values for all connections").

/// Description of one tunable parameter: its valid range and tuning step, as
//  configured in the paper's `conf.py` (§3.7: "The valid range and tuning step
/// size are customizable for each target system").
#[derive(Debug, Clone, Copy, PartialEq)]
// capes-check: allow(dead-pub) -- the element type of the public `TunableParams::specs`
pub struct ParamSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Smallest allowed value.
    pub min: f64,
    /// Largest allowed value.
    pub max: f64,
    /// Amount added or subtracted by one tuning action.
    pub step: f64,
    /// Default (untuned) value — what the baseline measurement uses.
    pub default: f64,
}

impl ParamSpec {
    /// Clamps `value` into the parameter's valid range.
    pub(crate) fn clamp(&self, value: f64) -> f64 {
        value.clamp(self.min, self.max)
    }

    /// `true` if `value` lies inside the valid range.
    pub fn contains(&self, value: f64) -> bool {
        (self.min..=self.max).contains(&value)
    }
}

/// The current values of the two tunable parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunableParams {
    /// Lustre congestion window (`max_rpcs_in_flight`) per OSC.
    pub congestion_window: f64,
    /// Outgoing I/O requests allowed per second per client.
    pub io_rate_limit: f64,
}

impl TunableParams {
    /// Specification of the congestion-window parameter.
    ///
    /// Lustre's default is 8; the artifact notes that values below 8 are known
    /// to be bad, and the client patch allows up to 256.
    pub(crate) fn congestion_window_spec() -> ParamSpec {
        ParamSpec {
            name: "max_rpcs_in_flight",
            min: 1.0,
            max: 256.0,
            step: 2.0,
            default: 8.0,
        }
    }

    /// Specification of the I/O rate-limit parameter (requests per second per
    /// client). The default is effectively "no limit" for the evaluation
    /// cluster, matching stock Lustre which has no client rate limiting.
    pub(crate) fn io_rate_limit_spec() -> ParamSpec {
        ParamSpec {
            name: "io_rate_limit",
            min: 50.0,
            max: 2000.0,
            step: 50.0,
            default: 2000.0,
        }
    }

    /// Both parameter specifications, in the order used by the action space.
    pub fn specs() -> Vec<ParamSpec> {
        vec![Self::congestion_window_spec(), Self::io_rate_limit_spec()]
    }

    /// The untuned defaults (the baseline configuration of every figure).
    pub(crate) fn defaults() -> Self {
        TunableParams {
            congestion_window: Self::congestion_window_spec().default,
            io_rate_limit: Self::io_rate_limit_spec().default,
        }
    }

    /// Returns the parameters as a vector ordered like [`TunableParams::specs`].
    pub fn as_vec(&self) -> Vec<f64> {
        vec![self.congestion_window, self.io_rate_limit]
    }

    /// Builds parameters from a vector ordered like [`TunableParams::specs`],
    /// clamping each value into its valid range.
    pub fn from_vec(values: &[f64]) -> Self {
        assert_eq!(values.len(), 2, "expected two parameter values");
        TunableParams {
            congestion_window: Self::congestion_window_spec().clamp(values[0]),
            io_rate_limit: Self::io_rate_limit_spec().clamp(values[1]),
        }
    }
}

impl Default for TunableParams {
    fn default() -> Self {
        Self::defaults()
    }
}

impl capes_persist::Persist for TunableParams {
    const MIN_SIZE: usize = 16;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.congestion_window);
        w.put_f64(self.io_rate_limit);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let congestion_window = r.get_f64()?;
        let io_rate_limit = r.get_f64()?;
        // Live parameters are always inside their specs (NaN fails `contains`).
        if !Self::congestion_window_spec().contains(congestion_window)
            || !Self::io_rate_limit_spec().contains(io_rate_limit)
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "tunable parameter outside its valid range",
            });
        }
        Ok(TunableParams {
            congestion_window,
            io_rate_limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_lustre() {
        let p = TunableParams::defaults();
        assert_eq!(p.congestion_window, 8.0);
        assert_eq!(p.io_rate_limit, 2000.0);
        assert!(TunableParams::congestion_window_spec().contains(p.congestion_window));
    }

    #[test]
    fn clamp_and_contains() {
        let spec = TunableParams::congestion_window_spec();
        assert_eq!(spec.clamp(0.0), 1.0);
        assert_eq!(spec.clamp(300.0), 256.0);
        assert_eq!(spec.clamp(16.0), 16.0);
        assert!(!spec.contains(0.5));
    }

    #[test]
    fn vector_round_trip() {
        let p = TunableParams {
            congestion_window: 24.0,
            io_rate_limit: 600.0,
        };
        let v = p.as_vec();
        let q = TunableParams::from_vec(&v);
        assert_eq!(p, q);
        // Out-of-range values are clamped on the way in.
        let clamped = TunableParams::from_vec(&[1000.0, 1.0]);
        assert_eq!(clamped.congestion_window, 256.0);
        assert_eq!(clamped.io_rate_limit, 50.0);
    }
}
