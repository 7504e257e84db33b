//! Multi-core fleet determinism suite (ISSUE 9).
//!
//! The hard requirement of the parallel tick: a multi-worker fleet must be
//! **bit-identical** to the sequential fleet on every transport — same RNG
//! consumption, same arena contents, same reports, same final weights. The
//! proof instrument is the PR 7 snapshot compare: two fleets that differ only
//! in worker count run the same baseline → train → tuned schedule and must
//! produce byte-identical checkpoint files (which cover every weight, Adam
//! moment, RNG stream, replay row and tick counter). Worker counts 2, 4 and 8
//! all oversubscribe the partitioning differently (8 workers on 5 clusters
//! exercises the chunk-capping path), and the sharing variant keeps the
//! weighted cross-stripe sampling on the overlapped training path.

use capes::{Hyperparameters, PhaseKind, Transport};
use capes_fleet::{ExperienceSharing, Fleet, FleetDaemon, ScenarioSpec};
use capes_simstore::Workload;
use std::path::PathBuf;

fn quick_hp() -> Hyperparameters {
    Hyperparameters {
        sampling_ticks_per_observation: 3,
        exploration_period_ticks: 300,
        adam_learning_rate: 2e-3,
        ..Hyperparameters::quick_test()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("capes-fleet-test-parallel");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A heterogeneous five-cluster fleet spanning two profiles, so training
/// ticks exercise the member/non-member partition of the overlapped apply.
fn fleet(transport: Transport, workers: usize) -> FleetDaemon {
    Fleet::builder()
        .hyperparams(quick_hp())
        .seed(23)
        .transport(transport)
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

/// Ticks `daemon` through a baseline → train → tuned schedule and returns
/// the bytes of its final checkpoint.
fn run_and_checkpoint(mut daemon: FleetDaemon, sharing: bool, tag: &str) -> Vec<u8> {
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
    let path = temp_path(tag);
    daemon.checkpoint(&path).expect("final checkpoint");
    let bytes = std::fs::read(&path).expect("checkpoint readable");
    let _ = std::fs::remove_file(&path);
    bytes
}

fn assert_workers_bit_identical(transport: Transport, sharing: bool, tag: &str) {
    let sequential = run_and_checkpoint(fleet(transport, 1), sharing, &format!("{tag}-w1.snap"));
    for workers in [2, 4, 8] {
        let parallel = run_and_checkpoint(
            fleet(transport, workers),
            sharing,
            &format!("{tag}-w{workers}.snap"),
        );
        assert!(
            sequential == parallel,
            "{tag}: {workers}-worker run diverged from the sequential fleet \
             (checkpoint bytes differ)"
        );
    }
}

#[test]
fn wire_fleet_is_bit_identical_across_worker_counts() {
    assert_workers_bit_identical(Transport::Wire, false, "wire");
}

#[test]
fn sharing_fleet_is_bit_identical_across_worker_counts() {
    // Experience sharing keeps the trained profile sampling across member
    // stripes while non-member applies overlap the training step.
    assert_workers_bit_identical(Transport::Wire, true, "wire-sharing");
}

#[test]
fn socket_fleet_is_bit_identical_across_worker_counts() {
    assert_workers_bit_identical(Transport::Socket, false, "socket");
}

#[test]
fn socket_sharing_fleet_is_bit_identical_across_worker_counts() {
    assert_workers_bit_identical(Transport::Socket, true, "socket-sharing");
}

#[test]
fn plan_workers_knob_is_bit_identical_to_sequential_run() {
    // The FleetPlan knob drives the same pool: a plan pinned to 4 workers
    // must reproduce the 1-worker plan's report and checkpoint exactly.
    use capes::Phase;
    use capes_fleet::FleetPlan;

    let plan = |workers: usize| {
        FleetPlan::new()
            .phase(Phase::Baseline { ticks: 5 })
            .phase(Phase::Train { ticks: 20 })
            .phase(Phase::Tuned {
                ticks: 5,
                label: "tuned".into(),
            })
            .share(0, ExperienceSharing::Uniform)
            .workers(workers)
    };
    let mut seq = fleet(Transport::Wire, 1);
    let mut par = fleet(Transport::Wire, 1);
    let report_seq = seq.run(&plan(1));
    let report_par = par.run(&plan(4));
    assert_eq!(par.workers(), 4, "the plan resized the pool");
    // Reports carry timing fields; compare the result payloads.
    for (a, b) in report_seq.clusters.iter().zip(&report_par.clusters) {
        assert_eq!(a.report.to_json(), b.report.to_json());
    }
    let pa = temp_path("plan-w1.snap");
    let pb = temp_path("plan-w4.snap");
    seq.checkpoint(&pa).unwrap();
    par.checkpoint(&pb).unwrap();
    let same = std::fs::read(&pa).unwrap() == std::fs::read(&pb).unwrap();
    let _ = std::fs::remove_file(&pa);
    let _ = std::fs::remove_file(&pb);
    assert!(same, "plan-driven 4-worker run diverged from sequential");
}
