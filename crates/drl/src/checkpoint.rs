//! The model checkpoint (paper Appendix A.4): the prototype "checkpoints and
//! stores the trained model when being stopped, and loads the saved model
//! when being started next time", and Fig. 4 reuses one such model across
//! three sessions.
//!
//! The file is a `capes-persist` snapshot container (magic, version, length
//! and CRC verified before any payload byte is interpreted; written through a
//! temporary file, fsync, rename and directory fsync) whose payload is
//!
//! ```text
//! model := kind[8]="DQNMODEL" format:u32 DqnAgentConfig online:QNetwork
//!          target:QNetwork training_steps:u64
//! ```
//!
//! Unlike an agent inside a fleet snapshot, which resumes bit-identically, a
//! loaded model starts a *new* session with what the old one learned: weights
//! and step count are kept, while the RNG is seeded by the caller, the ε
//! schedule restarts from the configuration and Adam's moments start at zero.

use crate::agent::{DqnAgent, DqnAgentConfig};
use crate::qnet::QNetwork;
use crate::trainer::Trainer;
use capes_persist::{Persist, PersistError, SnapshotFile, SnapshotWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// First eight payload bytes of a model checkpoint; tells it apart from the
/// other snapshot kinds sharing the container.
// capes-check: allow(dead-pub) -- the header check of tests/model_checkpoint.rs
pub const MODEL_KIND: [u8; 8] = *b"DQNMODEL";

/// Model payload format written and accepted by this build.
// capes-check: allow(dead-pub) -- the header check of tests/model_checkpoint.rs
pub const MODEL_FORMAT_VERSION: u32 = 1;

impl DqnAgent {
    /// Writes the agent's model to `path`, atomically replacing what was
    /// there. `Ok` means the file is durable.
    pub fn save_checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let mut w = SnapshotWriter::create(path.as_ref())?;
        w.put_raw(&MODEL_KIND);
        w.put_u32(MODEL_FORMAT_VERSION);
        self.config().encode(&mut w);
        self.q_network().encode(&mut w);
        self.target_network().encode(&mut w);
        w.put_u64(self.training_steps());
        w.finish()?;
        Ok(())
    }

    /// Builds an agent around the model [`DqnAgent::save_checkpoint`] wrote
    /// to `path`, exploring from an RNG seeded with `seed`. Anything wrong
    /// with the file — torn, bit-flipped, another kind of snapshot, networks
    /// that disagree with the stored configuration — is a typed error.
    pub fn load_checkpoint<P: AsRef<Path>>(path: P, seed: u64) -> Result<Self, PersistError> {
        let mut file = SnapshotFile::open(path.as_ref())?;
        let mut r = file.reader()?;
        let mut kind = [0u8; 8];
        // Cannot panic: `take(8)` yields exactly eight bytes or an error.
        kind.copy_from_slice(r.take(8)?);
        if kind != MODEL_KIND {
            return Err(PersistError::BadMagic {
                expected: MODEL_KIND,
                found: kind,
            });
        }
        let version = r.get_u32()?;
        if version != MODEL_FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: MODEL_FORMAT_VERSION,
            });
        }
        let config = DqnAgentConfig::decode(&mut r)?;
        let online = QNetwork::decode(&mut r)?;
        let target = QNetwork::decode(&mut r)?;
        let training_steps = r.get_u64()?;
        r.finish()?;
        config.check_network(&online)?;
        if target.mlp().parameter_shapes() != online.mlp().parameter_shapes() {
            return Err(PersistError::BadValue {
                what: "model target network shape disagrees with the online network",
            });
        }
        let trainer = Trainer::resume(online, target, config.trainer, training_steps);
        Ok(DqnAgent::from_parts(
            config,
            trainer,
            StdRng::seed_from_u64(seed),
        ))
    }
}
