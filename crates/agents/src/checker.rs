//! Action Checker: vetoes egregiously bad actions before they reach the
//! target system (paper §3.7 and Figure 1).
//!
//! The checker is optional (the paper did not enable it in its evaluation) but
//! is the component the paper points at for mission-critical deployments: the
//! operator encodes what the system "should never do" and the checker shields
//! those actions regardless of what the DNN suggests.

/// Result of checking one proposed parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CheckOutcome {
    /// The action is allowed through unchanged.
    Allowed,
    /// The action was rejected; the string names the violated rule.
    Rejected(String),
}

/// A per-parameter bound enforced by the checker.
#[derive(Debug, Clone, Copy, PartialEq)]
// capes-check: allow(dead-pub) -- the bound list of the public `ActionChecker::new`, which the floor test action_checker_keeps_vetoed_regions_untouched in tests/end_to_end.rs builds
pub struct ParamBound {
    /// Parameter name (for error messages).
    pub name: &'static str,
    /// Smallest value the checker will let through.
    pub min: f64,
    /// Largest value the checker will let through.
    pub max: f64,
}

/// The Action Checker.
#[derive(Debug)]
pub struct ActionChecker {
    bounds: Vec<ParamBound>,
}

impl ActionChecker {
    /// Creates a checker that rejects any action with a value outside the
    /// given per-parameter bounds.
    pub fn new(bounds: Vec<ParamBound>) -> Self {
        for b in &bounds {
            assert!(b.min <= b.max, "bound for {} is inverted", b.name);
        }
        ActionChecker { bounds }
    }

    /// A checker that allows everything (the paper's evaluation configuration).
    pub fn permissive() -> Self {
        ActionChecker::new(Vec::new())
    }

    /// Checks a proposed parameter vector.
    pub(crate) fn check(&self, proposed: &[f64]) -> CheckOutcome {
        if self.bounds.is_empty() {
            return CheckOutcome::Allowed;
        }
        if proposed.len() != self.bounds.len() {
            return CheckOutcome::Rejected(format!(
                "expected {} parameters, got {}",
                self.bounds.len(),
                proposed.len()
            ));
        }
        let mut violation = None;
        for (&value, bound) in proposed.iter().zip(&self.bounds) {
            if value < bound.min || value > bound.max {
                violation = Some(format!(
                    "{} = {value} outside [{}, {}]",
                    bound.name, bound.min, bound.max
                ));
            }
        }
        violation.map_or(CheckOutcome::Allowed, CheckOutcome::Rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lustre_bounds() -> Vec<ParamBound> {
        vec![
            ParamBound {
                // Appendix A.4: the window "should not be smaller than eight".
                name: "max_rpcs_in_flight",
                min: 8.0,
                max: 256.0,
            },
            ParamBound {
                name: "io_rate_limit",
                min: 50.0,
                max: 2000.0,
            },
        ]
    }

    #[test]
    fn permissive_checker_allows_everything() {
        let checker = ActionChecker::permissive();
        assert_eq!(checker.check(&[0.0, -5.0, 1e9]), CheckOutcome::Allowed);
    }

    #[test]
    fn in_range_values_pass() {
        let checker = ActionChecker::new(lustre_bounds());
        let outcome = checker.check(&[16.0, 500.0]);
        assert_eq!(outcome, CheckOutcome::Allowed);
    }

    #[test]
    fn out_of_range_values_are_rejected_with_reason() {
        let checker = ActionChecker::new(lustre_bounds());
        match checker.check(&[4.0, 500.0]) {
            CheckOutcome::Rejected(reason) => {
                assert!(reason.contains("max_rpcs_in_flight"));
                assert!(reason.contains('4'));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn wrong_arity_rejected() {
        let checker = ActionChecker::new(lustre_bounds());
        assert!(matches!(checker.check(&[16.0]), CheckOutcome::Rejected(_)));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_bounds_rejected() {
        let _ = ActionChecker::new(vec![ParamBound {
            name: "x",
            min: 10.0,
            max: 1.0,
        }]);
    }
}
