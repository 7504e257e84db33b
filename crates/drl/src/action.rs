//! The discrete action space (paper §3.7).
//!
//! At every action tick CAPES either increases or decreases exactly one
//! tunable parameter by that parameter's step size, or does nothing (the NULL
//! action). With `P` tunable parameters this yields `2 P + 1` actions.

/// A decoded action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Do not change any parameter this tick.
    Null,
    /// Increase parameter `param` by one step.
    Increase {
        /// Index of the parameter to change.
        param: usize,
    },
    /// Decrease parameter `param` by one step.
    Decrease {
        /// Index of the parameter to change.
        param: usize,
    },
}

/// Maps between action indices (the Q-network's output neurons) and decoded
/// [`Action`]s.
///
/// Index layout: `0` is NULL, then for parameter `p` the pair
/// `(1 + 2p, 2 + 2p)` is (increase, decrease).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionSpace {
    num_params: usize,
}

impl ActionSpace {
    /// Action space for `num_params` tunable parameters.
    ///
    /// # Panics
    /// Panics if `num_params == 0`.
    pub fn new(num_params: usize) -> Self {
        assert!(num_params > 0, "need at least one tunable parameter");
        ActionSpace { num_params }
    }

    /// Total number of actions: `2 × num_params + 1`.
    pub fn len(&self) -> usize {
        2 * self.num_params + 1
    }

    /// Action spaces are never empty (NULL always exists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decodes an action index.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub(crate) fn decode(&self, index: usize) -> Action {
        assert!(index < self.len(), "action index {index} out of range");
        if index == 0 {
            return Action::Null;
        }
        let param = (index - 1) / 2;
        if (index - 1).is_multiple_of(2) {
            Action::Increase { param }
        } else {
            Action::Decrease { param }
        }
    }

    /// Encodes an [`Action`] back to its index.
    pub(crate) fn encode(&self, action: Action) -> usize {
        match action {
            Action::Null => 0,
            Action::Increase { param } => {
                assert!(param < self.num_params, "parameter index out of range");
                1 + 2 * param
            }
            Action::Decrease { param } => {
                assert!(param < self.num_params, "parameter index out of range");
                2 + 2 * param
            }
        }
    }

    /// Applies the action with index `index` to a parameter vector, returning
    /// the signed step direction per parameter (`+1`, `-1`, or `0`), which the
    /// caller combines with each parameter's step size and valid range.
    pub fn direction_vector(&self, index: usize) -> Vec<f64> {
        let mut dirs = vec![0.0; self.num_params];
        match self.decode(index) {
            Action::Null => {}
            Action::Increase { param } => dirs[param] = 1.0,
            Action::Decrease { param } => dirs[param] = -1.0,
        }
        dirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_follows_paper_formula() {
        // Paper: 2 × number_of_tunable_parameters + 1.
        assert_eq!(ActionSpace::new(1).len(), 3);
        assert_eq!(ActionSpace::new(2).len(), 5);
        assert_eq!(ActionSpace::new(10).len(), 21);
    }

    #[test]
    fn encode_decode_round_trip() {
        let space = ActionSpace::new(3);
        for idx in 0..space.len() {
            let action = space.decode(idx);
            assert_eq!(space.encode(action), idx);
        }
    }

    #[test]
    fn index_zero_is_null() {
        let space = ActionSpace::new(2);
        assert_eq!(space.decode(0), Action::Null);
        assert_eq!(space.direction_vector(0), vec![0.0, 0.0]);
    }

    #[test]
    fn direction_vectors_touch_exactly_one_parameter() {
        let space = ActionSpace::new(2);
        for idx in 1..space.len() {
            let dirs = space.direction_vector(idx);
            let nonzero = dirs.iter().filter(|&&d| d != 0.0).count();
            assert_eq!(nonzero, 1, "action {idx} must change exactly one parameter");
            assert!(dirs.iter().all(|&d| d == 0.0 || d.abs() == 1.0));
        }
        assert_eq!(space.direction_vector(1), vec![1.0, 0.0]);
        assert_eq!(space.direction_vector(2), vec![-1.0, 0.0]);
        assert_eq!(space.direction_vector(3), vec![0.0, 1.0]);
        assert_eq!(space.direction_vector(4), vec![0.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = ActionSpace::new(2).decode(5);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_params_rejected() {
        let _ = ActionSpace::new(0);
    }
}
