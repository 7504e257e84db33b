//! The daemon's snapshot slot: checkpoints to one path recycle the previous
//! generation's file (`<path>.tmp`) without changing a byte, and the daemon
//! leaves no `.tmp` or `.old` behind once it checkpoints elsewhere or is
//! dropped.

use capes::{Hyperparameters, PhaseKind, Transport};
use capes_fleet::{Fleet, FleetDaemon, ScenarioSpec};
use capes_simstore::Workload;
use std::path::{Path, PathBuf};

fn fleet(seed: u64) -> FleetDaemon {
    let hp = Hyperparameters {
        sampling_ticks_per_observation: 3,
        exploration_period_ticks: 300,
        adam_learning_rate: 2e-3,
        ..Hyperparameters::quick_test()
    };
    Fleet::builder()
        .hyperparams(hp)
        .seed(seed)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .expect("valid fleet")
}

/// A fresh directory per test: tests run on parallel threads.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("capes-fleet-test-slot-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

fn assert_no_leftovers(path: &Path) {
    for suffix in [".tmp", ".old"] {
        let leftover = sibling(path, suffix);
        assert!(
            std::fs::symlink_metadata(&leftover).is_err(),
            "{} left behind",
            leftover.display()
        );
    }
}

/// Five auto-checkpoints to one path write, round by round, the bytes a
/// twin fleet's first checkpoint to a fresh path writes for the same state
/// — a write into a new file, as a one-shot `SnapshotWriter` makes.
#[test]
fn five_auto_checkpoints_match_a_fresh_file_write() {
    let dir = scratch_dir("auto");
    let auto = dir.join("auto.snap");
    let mut fleet_a = fleet(17);
    let mut twin = fleet(17);
    fleet_a.auto_checkpoint_every(6, &auto);
    for round in 1..=5 {
        for _ in 0..6 {
            fleet_a.tick_all(PhaseKind::Train);
            twin.tick_all(PhaseKind::Train);
        }
        let fresh = dir.join(format!("fresh-{round}.snap"));
        twin.checkpoint(&fresh).expect("twin checkpoint");
        let written = std::fs::read(&auto).expect("auto-checkpoint written");
        assert!(
            written == std::fs::read(&fresh).unwrap(),
            "round {round}: the recycled file holds different bytes"
        );
        // From the second round on, the previous generation is the spare.
        assert_eq!(sibling(&auto, ".tmp").exists(), round >= 2, "round {round}");
    }
    assert_eq!(fleet_a.persist_report().auto_checkpoints, 5);
    assert_eq!(fleet_a.persist_report().auto_checkpoint_failures, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `checkpoint → restore → checkpoint` is byte-identical when the second
/// checkpoint overwrites a spare, in the same fleet and in a fresh one.
#[test]
fn checkpoint_restore_checkpoint_is_byte_identical_over_a_reused_spare() {
    let dir = scratch_dir("restore");
    let path = dir.join("fleet.snap");
    let mut original = fleet(23);
    for _ in 0..3 {
        for _ in 0..10 {
            original.tick_all(PhaseKind::Train);
        }
        original.checkpoint(&path).expect("checkpoint");
    }
    assert!(sibling(&path, ".tmp").exists(), "no spare to reuse");
    let before = std::fs::read(&path).unwrap();

    original.restore(&path).expect("restore");
    original
        .checkpoint(&path)
        .expect("checkpoint over the spare");
    assert!(std::fs::read(&path).unwrap() == before, "same fleet");

    let mut resumed = fleet(99);
    resumed.restore(&path).expect("restore into a fresh fleet");
    let other = dir.join("resumed.snap");
    for _ in 0..3 {
        resumed.checkpoint(&other).expect("checkpoint");
        assert!(std::fs::read(&other).unwrap() == before, "fresh fleet");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The spare outlives `disable_auto_checkpoint`, goes when the daemon
/// checkpoints to another path, and goes with the daemon.
#[test]
fn no_spare_is_left_after_a_repoint_or_a_drop() {
    let dir = scratch_dir("cleanup");
    let first = dir.join("first.snap");
    let second = dir.join("second.snap");
    let mut daemon = fleet(31);
    daemon.auto_checkpoint_every(2, &first);
    for _ in 0..4 {
        daemon.tick_all(PhaseKind::Train);
    }
    daemon.disable_auto_checkpoint();
    assert!(
        sibling(&first, ".tmp").exists(),
        "disabling dropped the spare"
    );

    daemon.checkpoint(&second).expect("checkpoint elsewhere");
    assert_no_leftovers(&first);
    daemon.checkpoint(&second).expect("checkpoint again");
    assert!(sibling(&second, ".tmp").exists());

    drop(daemon);
    assert_no_leftovers(&second);
    for path in [&first, &second] {
        assert!(capes_persist::SnapshotFile::open(path).is_ok());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
