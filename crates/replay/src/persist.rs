//! Replay-database persistence.
//!
//! The paper's prototype keeps the replay database in a SQLite file (about
//! 0.5 GB on disk for 250 k records, Table 2) and caches it in memory during
//! training. The reproduction keeps the authoritative copy in memory and
//! provides JSON save/load so that a database can be carried across sessions
//! — the same role the SQLite file plays in the original.

use crate::db::ReplayDb;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Errors from saving or loading a replay database.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file exists but could not be parsed.
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "replay DB I/O error: {e}"),
            PersistError::Corrupt(e) => write!(f, "corrupt replay DB file: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl ReplayDb {
    /// Serialises the database to `path` as JSON (atomically, via a temporary
    /// file and rename).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let json = serde_json::to_string(self)
            .map_err(|e| PersistError::Corrupt(format!("serialisation failed: {e}")))?;
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, &json)?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a database previously written by [`ReplayDb::save`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<ReplayDb, PersistError> {
        let data = fs::read_to_string(path)?;
        serde_json::from_str(&data).map_err(|e| PersistError::Corrupt(e.to_string()))
    }

    /// Size the database would occupy on disk if saved now, in bytes. Reported
    /// in the Table-2 reproduction ("total size of the Replay DB on disk").
    pub fn disk_size_estimate(&self) -> usize {
        serde_json::to_string(self).map(|s| s.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ReplayConfig;
    use crate::minibatch::ReplayBatch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("capes-replay-test-{}-{}", std::process::id(), name));
        p
    }

    fn small_db() -> ReplayDb {
        let mut db = ReplayDb::new(ReplayConfig {
            num_nodes: 2,
            pis_per_node: 3,
            ticks_per_observation: 4,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 1000,
        });
        for t in 0..50u64 {
            for n in 0..2 {
                db.insert_snapshot(t, n, vec![t as f64, n as f64, 1.0]);
            }
            db.insert_objective(t, t as f64);
            db.insert_action(t, (t % 3) as usize);
        }
        db
    }

    #[test]
    fn save_load_round_trip_preserves_sampling() {
        let db = small_db();
        let path = tmp_path("roundtrip.json");
        db.save(&path).unwrap();
        let loaded = ReplayDb::load(&path).unwrap();
        assert_eq!(loaded.len(), db.len());
        assert_eq!(loaded.action_at(10), db.action_at(10));
        assert_eq!(loaded.objective_at(20), db.objective_at(20));
        // The loaded DB must produce identical observations.
        let a = db.observation_at(30).unwrap();
        let b = loaded.observation_at(30).unwrap();
        assert_eq!(a, b);
        // And support minibatch sampling.
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = ReplayBatch::new(8, loaded.config().observation_size());
        assert!(loaded
            .construct_minibatch_into(&mut batch, &mut rng)
            .is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_size_grows_with_contents() {
        let empty = ReplayDb::new(ReplayConfig {
            num_nodes: 2,
            pis_per_node: 3,
            ticks_per_observation: 4,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 1000,
        });
        let full = small_db();
        assert!(full.disk_size_estimate() > empty.disk_size_estimate());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            ReplayDb::load("/nonexistent/replay.json").unwrap_err(),
            PersistError::Io(_)
        ));
    }

    #[test]
    fn load_corrupt_file_errors() {
        let path = tmp_path("corrupt.json");
        std::fs::write(&path, "{{{{").unwrap();
        assert!(matches!(
            ReplayDb::load(&path).unwrap_err(),
            PersistError::Corrupt(_)
        ));
        std::fs::remove_file(&path).ok();
    }
}
