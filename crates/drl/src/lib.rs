//! # capes-drl
//!
//! The deep reinforcement-learning engine of CAPES (paper §3.4–§3.6): a deep
//! Q-network with experience replay, a slowly-updated target network, and
//! ε-greedy exploration with linear annealing.
//!
//! The engine is generic over the target system: it consumes flattened
//! observations from the [`capes_replay`] database and produces action
//! indices; mapping action indices to parameter changes is handled by
//! [`action::ActionSpace`], which implements the paper's
//! `2 × number_of_tunable_parameters + 1` scheme (an increase and a decrease
//! action per parameter plus a NULL action).

#![forbid(unsafe_code)]

pub mod action;
pub mod agent;
pub mod checkpoint;
pub mod epsilon;
pub mod qnet;
pub mod trainer;

pub use action::{Action, ActionSpace};
pub use agent::{ActionDecision, DqnAgent, DqnAgentConfig};
pub use epsilon::EpsilonSchedule;
pub use qnet::{best_action_in_row, QNetwork};
pub use trainer::{Trainer, TrainerConfig};
