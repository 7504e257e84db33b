//! Snapshot-format compatibility against a committed v1 fixture.
//!
//! `fixtures/fleet2_v1.snap` was written by `FleetDaemon::checkpoint` at
//! commit 4626d7a — the last one with the byte-at-a-time CRC, the
//! per-element codec and the copy-into-container snapshot path — from the
//! fleet `fixture_fleet()` builds, after 40 `tick_all(PhaseKind::Train)`
//! ticks (72 training steps in, so Adam moments, replay rows and RNG streams
//! are all live). It is never regenerated: a build that cannot restore it, or
//! that re-checkpoints it to different bytes, has changed the v1 format.

use capes::{Hyperparameters, Transport};
use capes_fleet::{Fleet, FleetDaemon, ScenarioSpec};
use capes_simstore::Workload;
use std::path::{Path, PathBuf};

fn fixture_fleet(seed: u64) -> FleetDaemon {
    let hp = Hyperparameters {
        sampling_ticks_per_observation: 2,
        exploration_period_ticks: 300,
        adam_learning_rate: 2e-3,
        ..Hyperparameters::quick_test()
    };
    Fleet::builder()
        .hyperparams(hp)
        .seed(seed)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(1),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(1),
        ])
        .build()
        .expect("valid fleet")
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fleet2_v1.snap")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("capes-fleet-test-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn parent_written_fixture_restores_and_re_checkpoints_identically() {
    let golden = std::fs::read(fixture_path()).expect("committed fixture");
    // A different seed than the fixture's: restore must overwrite all of it.
    let mut fleet = fixture_fleet(99);
    fleet.restore(&fixture_path()).expect("restore v1 fixture");
    assert_eq!(fleet.tick(), 40);
    assert_eq!(fleet.agent_for(0).training_steps(), 72);

    // Twice: the second snapshot takes the pre-sized-buffer path.
    for round in 0..2 {
        let out = temp_path("re-checkpoint.snap");
        fleet.checkpoint(&out).expect("re-checkpoint");
        let bytes = std::fs::read(&out).unwrap();
        assert!(
            bytes == golden,
            "round {round}: re-checkpoint differs from the v1 fixture \
             ({} vs {} bytes)",
            bytes.len(),
            golden.len()
        );
        let _ = std::fs::remove_file(&out);
    }
}
