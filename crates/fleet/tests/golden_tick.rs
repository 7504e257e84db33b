//! Tick behaviour pinned across commits.
//!
//! `golden_snapshot.rs` proves the snapshot *format* is stable, and
//! `parallel_determinism.rs` proves worker counts agree with each other
//! within one build. Neither notices a change that moves every worker count
//! the same way. This file does: the five-cluster, two-profile fleet of
//! `parallel_determinism.rs` runs 6 baseline + 36 train + 6 tuned ticks on
//! the wire transport, and the CRC-32 of its final checkpoint must equal a
//! committed literal, at 1 and at 2 workers, with experience sharing off and
//! on.
//!
//! The literals depend on the GEMM arm: the scalar kernels round every
//! multiply and add, while the vector arms contract them into FMAs (both
//! vector levels are bit-identical to each other). So each case carries one
//! literal for `SimdLevel::Scalar` (the `CAPES_SIMD=off` pass) and one for
//! the FMA levels.

use capes::{Hyperparameters, PhaseKind, Transport};
use capes_fleet::{ExperienceSharing, Fleet, FleetDaemon, ScenarioSpec};
use capes_simstore::Workload;
use capes_tensor::simd::{active_level, SimdLevel};
use std::path::PathBuf;

/// CRC-32 of the final checkpoint without experience sharing:
/// (scalar, FMA levels).
const GOLDEN_UNSHARED: (u32, u32) = (0xa82e_2544, 0xbe2e_98b1);

/// CRC-32 of the final checkpoint with profile 0 sharing uniformly and
/// profile 1 self-biased (2 : 1): (scalar, FMA levels).
const GOLDEN_SHARED: (u32, u32) = (0x8b83_d515, 0xaf68_2344);

fn quick_hp() -> Hyperparameters {
    Hyperparameters {
        sampling_ticks_per_observation: 3,
        exploration_period_ticks: 300,
        adam_learning_rate: 2e-3,
        ..Hyperparameters::quick_test()
    }
}

fn fleet(workers: usize) -> FleetDaemon {
    Fleet::builder()
        .hyperparams(quick_hp())
        .seed(23)
        .transport(Transport::Wire)
        .workers(workers)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
            ScenarioSpec::new("f", Workload::fileserver()).clients(2),
            ScenarioSpec::new("s", Workload::sequential_write()).clients(3),
            ScenarioSpec::new("m", Workload::fileserver()).clients(3),
        ])
        .build()
        .expect("valid fleet")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("capes-fleet-test-golden-tick");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Ticks a `workers`-wide fleet through the schedule and returns the CRC-32
/// of its final checkpoint: the checksum the file carries in its last four
/// bytes, recomputed over everything before them. (The CRC of a whole file
/// that ends in its own CRC is a constant residue, so it would pin nothing.)
fn final_checkpoint_crc(workers: usize, sharing: bool) -> u32 {
    let mut daemon = fleet(workers);
    if sharing {
        daemon.set_profile_sharing(0, ExperienceSharing::Uniform);
        daemon.set_profile_sharing(
            1,
            ExperienceSharing::SelfBiased {
                own: 2.0,
                peers: 1.0,
            },
        );
    }
    for _ in 0..6 {
        daemon.tick_all(PhaseKind::Baseline);
    }
    for _ in 0..36 {
        daemon.tick_all(PhaseKind::Train);
    }
    for _ in 0..6 {
        daemon.tick_all(PhaseKind::Tuned);
    }
    let path = temp_path(&format!("w{workers}-sharing-{sharing}.snap"));
    daemon.checkpoint(&path).expect("final checkpoint");
    let bytes = std::fs::read(&path).expect("checkpoint readable");
    let _ = std::fs::remove_file(&path);
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let crc = capes_persist::crc32(body);
    assert_eq!(trailer, crc.to_le_bytes(), "the file carries its own CRC");
    crc
}

fn assert_golden(sharing: bool, (scalar, fma): (u32, u32)) {
    let level = active_level();
    let want = if level == SimdLevel::Scalar {
        scalar
    } else {
        fma
    };
    for workers in [1, 2] {
        let got = final_checkpoint_crc(workers, sharing);
        assert_eq!(
            got, want,
            "sharing={sharing}, {workers} worker(s), {level}: final checkpoint CRC \
             {got:#010x}, golden {want:#010x}"
        );
    }
}

#[test]
fn wire_fleet_ticks_to_the_golden_checkpoint() {
    assert_golden(false, GOLDEN_UNSHARED);
}

#[test]
fn sharing_fleet_ticks_to_the_golden_checkpoint() {
    assert_golden(true, GOLDEN_SHARED);
}
