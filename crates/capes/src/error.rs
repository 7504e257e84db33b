//! Typed errors for the orchestration layer.
//!
//! Historically the constructors panicked on bad input
//! (`hyperparams.validate()` asserted, and an empty tunable-spec list hit an
//! `assert!`). The builder-first API surfaces those conditions as values so
//! callers embedding CAPES in larger systems can recover.
//!
//! The workspace has no crates.io access, so the `Display`/`Error` impls are
//! hand-written instead of derived with `thiserror`; the error surface is the
//! same.

use std::fmt;

/// Everything that can go wrong while assembling or driving a CAPES system.
#[derive(Debug)]
pub enum CapesError {
    /// A hyperparameter failed validation; `name` identifies the field and
    /// `reason` states the violated constraint.
    InvalidHyperparameter {
        /// Field name of the offending hyperparameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The target system exposed no tunable parameters, so there is nothing
    /// to tune (the action space would be empty).
    NoTunableParameters,
    /// A checkpoint operation was requested on an engine that has no
    /// persistable model (e.g. the search comparators).
    EngineUnsupported {
        /// Name of the engine that rejected the operation.
        engine: String,
        /// The operation that was attempted.
        operation: &'static str,
    },
    /// A checkpoint could not be written, read or decoded.
    Checkpoint(capes_persist::PersistError),
    /// A restored checkpoint does not fit the assembled system (e.g. it was
    /// trained for a different observation width).
    CheckpointMismatch {
        /// Description of the incompatibility.
        reason: String,
    },
    /// An externally-supplied replay store (an arena stripe) was configured
    /// for a different geometry than the one the target system needs.
    ReplayConfigMismatch {
        /// Description of the mismatch (expected vs provided configuration).
        reason: String,
    },
}

impl fmt::Display for CapesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapesError::InvalidHyperparameter { name, reason } => {
                write!(f, "invalid hyperparameter `{name}`: {reason}")
            }
            CapesError::NoTunableParameters => {
                write!(f, "target system has no tunable parameters")
            }
            CapesError::EngineUnsupported { engine, operation } => {
                write!(f, "engine `{engine}` does not support {operation}")
            }
            CapesError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            CapesError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint incompatible with this system: {reason}")
            }
            CapesError::ReplayConfigMismatch { reason } => {
                write!(f, "replay store incompatible with this system: {reason}")
            }
        }
    }
}

impl std::error::Error for CapesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CapesError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<capes_persist::PersistError> for CapesError {
    fn from(e: capes_persist::PersistError) -> Self {
        CapesError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CapesError::InvalidHyperparameter {
            name: "discount_rate",
            reason: "must lie in [0, 1)".into(),
        };
        assert!(e.to_string().contains("discount_rate"));
        assert!(CapesError::NoTunableParameters
            .to_string()
            .contains("tunable"));
        let e = CapesError::EngineUnsupported {
            engine: "random search".into(),
            operation: "checkpointing",
        };
        assert!(e.to_string().contains("random search"));
    }

    #[test]
    fn persist_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: CapesError = capes_persist::PersistError::Io(io).into();
        assert!(matches!(e, CapesError::Checkpoint(_)));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
