//! Durable checkpoint/restore equivalence and fault-injection suite
//! (ISSUE 7).
//!
//! The gold standard mirrors the repo's other equivalence tests: a fleet
//! checkpointed at tick T and restored into a fresh daemon must continue
//! **bit-identically** to the uninterrupted original — proven by comparing
//! the byte content of the two fleets' *final* checkpoint files, which cover
//! every weight, RNG stream, replay row and counter. On top of that,
//! restore must reject configuration skew and arbitrarily corrupted files
//! with typed errors, leaving the daemon untouched, and never panic.

use capes::{Hyperparameters, Phase, PhaseKind, Transport};
use capes_fleet::{ExperienceSharing, Fleet, FleetDaemon, FleetError, ScenarioSpec};
use capes_simstore::Workload;
use proptest::prelude::*;
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
    let dir = std::env::temp_dir().join("capes-fleet-test-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn two_cluster_fleet(transport: Transport, seed: u64) -> FleetDaemon {
    Fleet::builder()
        .hyperparams(quick_hp())
        .seed(seed)
        .transport(transport)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .expect("valid fleet")
}

/// Runs the checkpoint-at-T / restore / continue protocol on `transport`
/// and asserts the restored fleet's future is byte-identical to the
/// uninterrupted original's.
fn assert_restore_resumes_bit_identically(transport: Transport, tag: &str) {
    let mid = temp_path(&format!("{tag}-mid.snap"));
    let end_a = temp_path(&format!("{tag}-end-a.snap"));
    let end_b = temp_path(&format!("{tag}-end-b.snap"));

    // Uninterrupted run: 30 ticks, mid-flight checkpoint, 30 more ticks.
    let mut original = two_cluster_fleet(transport, 11);
    for _ in 0..30 {
        original.tick_all(PhaseKind::Train);
    }
    original.checkpoint(&mid).expect("mid-run checkpoint");
    for _ in 0..30 {
        original.tick_all(PhaseKind::Train);
    }
    original.checkpoint(&end_a).expect("final checkpoint");

    // Fresh-process resume: a newly built fleet restores the mid-run
    // snapshot and runs the same remaining 30 ticks.
    let mut resumed = two_cluster_fleet(transport, 11);
    resumed.restore(&mid).expect("restore mid-run snapshot");
    assert_eq!(resumed.tick(), 30);
    assert_eq!(resumed.persist_report().restores, 1);
    for _ in 0..30 {
        resumed.tick_all(PhaseKind::Train);
    }
    resumed.checkpoint(&end_b).expect("final checkpoint");

    // Bit-identity: every weight, Adam moment, RNG stream, replay row and
    // tick counter agrees, or these files differ.
    let bytes_a = std::fs::read(&end_a).unwrap();
    let bytes_b = std::fs::read(&end_b).unwrap();
    assert!(
        bytes_a == bytes_b,
        "{tag}: resumed fleet diverged from the uninterrupted run \
         ({} vs {} bytes)",
        bytes_a.len(),
        bytes_b.len()
    );
    // Spot checks on live state, independent of the snapshot encoding.
    for cluster in 0..2 {
        assert_eq!(
            original.system(cluster).current_params(),
            resumed.system(cluster).current_params()
        );
    }
    assert_eq!(
        original.agent_for(0).training_steps(),
        resumed.agent_for(0).training_steps()
    );
    assert_eq!(original.tick(), resumed.tick());
    for path in [&mid, &end_a, &end_b] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn wire_restore_resumes_bit_identically() {
    assert_restore_resumes_bit_identically(Transport::Wire, "wire");
}

#[test]
fn socket_restore_resumes_bit_identically() {
    assert_restore_resumes_bit_identically(Transport::Socket, "socket");
}

#[test]
fn restore_rejects_geometry_skew_untouched() {
    let snap = temp_path("skew.snap");
    let mut original = two_cluster_fleet(Transport::Wire, 7);
    for _ in 0..12 {
        original.tick_all(PhaseKind::Train);
    }
    original.checkpoint(&snap).expect("checkpoint");

    // Wrong cluster count.
    let mut three = Fleet::builder()
        .hyperparams(quick_hp())
        .seed(7)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
            ScenarioSpec::new("x", Workload::fileserver()).clients(2),
        ])
        .build()
        .unwrap();
    let err = three
        .restore(&snap)
        .expect_err("cluster count must mismatch");
    assert!(
        matches!(
            err,
            FleetError::Capes(capes::CapesError::CheckpointMismatch { .. })
        ),
        "unexpected error: {err}"
    );
    assert_eq!(
        three.tick(),
        0,
        "failed restore must leave the fleet untouched"
    );
    assert_eq!(three.persist_report().restores, 0);

    // Wrong observation width (different client count → different PI
    // vector width per observation).
    let mut wide = Fleet::builder()
        .hyperparams(quick_hp())
        .seed(7)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(3),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(3),
        ])
        .build()
        .unwrap();
    let err = wide
        .restore(&snap)
        .expect_err("observation width must mismatch");
    assert!(
        matches!(
            err,
            FleetError::Capes(capes::CapesError::CheckpointMismatch { .. })
        ),
        "unexpected error: {err}"
    );
    assert_eq!(wide.tick(), 0);

    // Wrong transport.
    let mut socket = two_cluster_fleet(Transport::Socket, 7);
    let err = socket.restore(&snap).expect_err("transport must mismatch");
    assert!(
        format!("{err}").contains("transport"),
        "unexpected error: {err}"
    );
    assert_eq!(socket.tick(), 0);

    // Mismatched replay configuration: same geometry, smaller arena stripes.
    let mut small = Fleet::builder()
        .hyperparams(Hyperparameters {
            replay_capacity_ticks: 50,
            ..quick_hp()
        })
        .seed(7)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .unwrap();
    let err = small
        .restore(&snap)
        .expect_err("replay config must mismatch");
    assert!(
        matches!(
            err,
            FleetError::Capes(capes::CapesError::ReplayConfigMismatch { .. })
        ),
        "unexpected error: {err}"
    );
    assert_eq!(small.tick(), 0);
    let inserted: u64 = small.arena().stats().iter().map(|s| s.total_inserted).sum();
    assert_eq!(inserted, 0, "failed restore must not overlay arena stripes");

    let _ = std::fs::remove_file(&snap);
}

/// A mismatch in the payload's last section — the last cluster's name,
/// after every agent and arena stripe — is still caught before anything is
/// overwritten: the fleet's next checkpoint is byte-identical to the one it
/// took before the failed restore.
#[test]
fn restore_rejects_a_late_mismatch_untouched() {
    let snap = temp_path("late-skew.snap");
    let before = temp_path("late-skew-before.snap");
    let after = temp_path("late-skew-after.snap");
    let mut original = two_cluster_fleet(Transport::Wire, 7);
    for _ in 0..12 {
        original.tick_all(PhaseKind::Train);
    }
    original.checkpoint(&snap).expect("checkpoint");

    // Same geometry, seeds and replay configuration; only the last
    // cluster's name differs. Its own few ticks give it state of its own.
    let mut renamed = Fleet::builder()
        .hyperparams(quick_hp())
        .seed(7)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r2", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .unwrap();
    for _ in 0..5 {
        renamed.tick_all(PhaseKind::Train);
    }
    renamed.checkpoint(&before).expect("checkpoint before");
    let err = renamed
        .restore(&snap)
        .expect_err("the last cluster's name must mismatch");
    assert!(
        matches!(
            err,
            FleetError::Capes(capes::CapesError::CheckpointMismatch { .. })
        ) && err.to_string().contains("r2"),
        "unexpected error: {err}"
    );
    assert_eq!(renamed.tick(), 5);
    assert_eq!(renamed.persist_report().restores, 0);
    renamed.checkpoint(&after).expect("checkpoint after");
    assert!(
        std::fs::read(&before).unwrap() == std::fs::read(&after).unwrap(),
        "the failed restore changed the fleet"
    );
    for path in [&snap, &before, &after] {
        let _ = std::fs::remove_file(path);
    }
}

/// Where the last member blob's engine-agent tag sits in a fleet snapshot
/// payload: behind every profile, arena stripe and earlier member, then
/// inside the blob behind the member's target, monitors, reserved byte,
/// outbox and phase record.
fn last_engine_tag_offset(payload: &[u8]) -> usize {
    use capes_persist::{Persist, Reader};
    let mut r = Reader::new(payload);
    r.get_u8().unwrap();
    for _ in 0..3 {
        r.get_u64().unwrap();
    }
    Vec::<ExperienceSharing>::decode(&mut r).unwrap();
    for _ in 0..r.get_usize().unwrap() {
        r.get_usize().unwrap();
        r.get_usize().unwrap();
        Vec::<usize>::decode(&mut r).unwrap();
        capes_drl::DqnAgent::decode(&mut r).unwrap();
    }
    for _ in 0..r.get_usize().unwrap() {
        capes_replay::ReplayDb::decode(&mut r).unwrap();
    }
    let mut blob_start = 0;
    for _ in 0..r.get_usize().unwrap() {
        r.get_str().unwrap();
        Vec::<f64>::decode(&mut r).unwrap();
        r.get_usize().unwrap();
        let len = r.get_count(1).unwrap();
        blob_start = payload.len() - r.remaining();
        r.take(len).unwrap();
    }
    let blob = &payload[blob_start..];
    let mut b = Reader::new(blob);
    b.get_u8().unwrap();
    b.get_u64().unwrap();
    capes::SimulatedLustre::decode(&mut b).unwrap();
    Vec::<capes_agents::MonitoringAgent>::decode(&mut b).unwrap();
    b.get_u8().unwrap();
    for _ in 0..b.get_usize().unwrap() {
        b.get_bytes().unwrap();
    }
    Vec::<f64>::decode(&mut b).unwrap();
    for _ in 0..b.get_usize().unwrap() {
        b.get_u64().unwrap();
        b.get_f64().unwrap();
    }
    blob_start + blob.len() - b.remaining()
}

/// A payload that passes the CRC but fails inside the last member's state
/// blob — an engine-agent tag that is neither 0 nor 1 — is caught by the
/// check pass, which walks every blob: restore returns a typed error before
/// anything is overwritten, and the fleet's next checkpoint is
/// byte-identical to the one it took before.
#[test]
fn restore_rejects_a_crafted_member_blob_untouched() {
    let snap = temp_path("crafted-blob.snap");
    let crafted_path = temp_path("crafted-blob-crafted.snap");
    let before = temp_path("crafted-blob-before.snap");
    let after = temp_path("crafted-blob-after.snap");
    let mut original = two_cluster_fleet(Transport::Wire, 7);
    for _ in 0..12 {
        original.tick_all(PhaseKind::Train);
    }
    original.checkpoint(&snap).expect("checkpoint");
    let payload = capes_persist::read_snapshot_file(&snap).expect("valid snapshot");
    let at = last_engine_tag_offset(&payload);
    assert_eq!(payload[at], 0, "members run without an agent of their own");
    let mut crafted = payload;
    crafted[at] = 2;
    capes_persist::write_atomic(&crafted_path, &capes_persist::encode_snapshot(&crafted)).unwrap();

    // Same configuration, its own few ticks: every section the snapshot
    // would overwrite differs from the stored one.
    let mut fleet = two_cluster_fleet(Transport::Wire, 7);
    for _ in 0..5 {
        fleet.tick_all(PhaseKind::Train);
    }
    fleet.checkpoint(&before).expect("checkpoint before");
    let err = fleet
        .restore(&crafted_path)
        .expect_err("the crafted engine-agent tag must be rejected");
    assert!(
        matches!(
            err,
            FleetError::Persist(capes_persist::PersistError::BadValue { .. })
        ) && err.to_string().contains("engine-agent tag"),
        "unexpected error: {err}"
    );
    assert_eq!(fleet.tick(), 5);
    assert_eq!(fleet.persist_report().restores, 0);
    fleet.checkpoint(&after).expect("checkpoint after");
    assert!(
        std::fs::read(&before).unwrap() == std::fs::read(&after).unwrap(),
        "the failed restore changed the fleet"
    );
    for path in [&snap, &crafted_path, &before, &after] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn auto_checkpoint_fires_on_the_interval() {
    let snap = temp_path("auto.snap");
    let mut fleet = two_cluster_fleet(Transport::Wire, 23);
    fleet.auto_checkpoint_every(5, &snap);
    for _ in 0..12 {
        fleet.tick_all(PhaseKind::Train);
    }
    let persist = fleet.persist_report();
    assert_eq!(persist.auto_checkpoints, 2, "ticks 5 and 10 checkpoint");
    assert_eq!(persist.checkpoints_written, 2);
    assert_eq!(persist.auto_checkpoint_failures, 0);

    // The file on disk is the tick-10 snapshot, atomically replacing the
    // tick-5 one.
    let mut restored = two_cluster_fleet(Transport::Wire, 23);
    restored.restore(&snap).expect("auto snapshot restores");
    assert_eq!(restored.tick(), 10);

    // Disabling stops the interval.
    fleet.disable_auto_checkpoint();
    for _ in 0..10 {
        fleet.tick_all(PhaseKind::Train);
    }
    assert_eq!(fleet.persist_report().auto_checkpoints, 2);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn snapshots_stop_growing_once_the_replay_ring_is_full() {
    // Every member's phase record moves into the run's report when its
    // phase ends, so once the replay ring has wrapped, another run of the
    // same plan leaves a snapshot of the same size.
    let mut fleet = Fleet::builder()
        .hyperparams(Hyperparameters {
            replay_capacity_ticks: 40,
            ..quick_hp()
        })
        .seed(31)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .expect("valid fleet");
    let phases = [
        Phase::Baseline { ticks: 20 },
        Phase::Train { ticks: 60 },
        Phase::Tuned {
            ticks: 20,
            label: "tuned".into(),
        },
    ];
    let snap = temp_path("plateau.snap");
    let mut sizes = Vec::new();
    for _ in 0..2 {
        let report = fleet.run(&phases);
        assert!(!report.clusters[0].report.sessions[1]
            .prediction_errors
            .is_empty());
        for cluster in 0..fleet.num_clusters() {
            assert!(fleet.system(cluster).prediction_errors().is_empty());
        }
        fleet.checkpoint(&snap).expect("checkpoint");
        sizes.push(std::fs::metadata(&snap).unwrap().len());
    }
    assert_eq!(
        sizes[1], sizes[0],
        "a second run of the same plan grew the snapshot"
    );
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn record_without_socket_transport_is_rejected() {
    let mut fleet = two_cluster_fleet(Transport::Wire, 3);
    let err = fleet
        .record_to(&temp_path("never.log"))
        .expect_err("wire fleets move no socket traffic");
    assert!(matches!(err, FleetError::RecordUnsupported));
    assert_eq!(fleet.stop_recording().unwrap(), 0, "no recording active");
}

#[test]
fn record_to_finishes_the_open_log_before_starting_another() {
    let first = temp_path("first.log");
    let second = temp_path("second.log");
    let mut fleet = two_cluster_fleet(Transport::Socket, 37);
    fleet.record_to(&first).expect("start the first log");
    for _ in 0..3 {
        fleet.tick_all(PhaseKind::Train);
    }
    fleet
        .record_to(&second)
        .expect("finish the first, start the second");
    let recorded = fleet.persist_report().records_appended;
    assert!(recorded > 0);
    // The first log is complete on disk without a `stop_recording`.
    let mut offline = two_cluster_fleet(Transport::Wire, 37);
    assert_eq!(offline.replay_traffic(&first).unwrap(), recorded);

    // `/dev/full` opens and buffers the header, then fails the flush: a
    // log that cannot be finished surfaces its error, and the next log is
    // not started in its place.
    fleet
        .record_to(std::path::Path::new("/dev/full"))
        .expect("finish the second, open /dev/full");
    let err = fleet
        .record_to(&first)
        .expect_err("the open log cannot be finished");
    assert!(
        matches!(err, FleetError::Persist(_)),
        "unexpected error: {err}"
    );
    assert_eq!(fleet.stop_recording().unwrap(), 0, "no recording active");
    for path in [&first, &second] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn recorded_socket_traffic_replays_to_the_same_monitoring_state() {
    let log = temp_path("traffic.log");
    let mut live = two_cluster_fleet(Transport::Socket, 31);
    live.record_to(&log).expect("start recording");
    for _ in 0..20 {
        live.tick_all(PhaseKind::Train);
    }
    let records = live.stop_recording().expect("finish log");
    // Two messages (report + objective) per monitor per tick.
    let per_tick: u64 = (0..2)
        .map(|c| 2 * live.system(c).num_monitors() as u64)
        .sum();
    assert_eq!(records, 20 * per_tick);
    assert_eq!(live.persist_report().records_appended, records);
    assert_eq!(live.persist_report().record_failures, 0);

    // An offline fleet replays the log through the same ingest path and
    // rebuilds the same stored monitoring state — observations and
    // objectives per tick — without a socket in the loop. (Actions are not
    // wire-uplink traffic: the live fleet inserts them locally, so they are
    // deliberately absent from the replayed store.)
    let mut offline = two_cluster_fleet(Transport::Wire, 31);
    let delivered = offline.replay_traffic(&log).expect("replay traffic");
    assert_eq!(delivered, records);
    for cluster in 0..2 {
        live.system(cluster).replay_db().with_read(|live_db| {
            offline.system(cluster).replay_db().with_read(|replayed| {
                assert_eq!(
                    live_db.len(),
                    replayed.len(),
                    "cluster {cluster} tick count"
                );
                let (lo, hi) = live_db.sampleable_range().expect("live store has data");
                for tick in lo..=hi {
                    assert_eq!(
                        live_db.objective_at(tick),
                        replayed.objective_at(tick),
                        "cluster {cluster} objective at tick {tick}"
                    );
                    assert_eq!(
                        live_db.observation_at(tick).map(|o| o.features),
                        replayed.observation_at(tick).map(|o| o.features),
                        "cluster {cluster} observation at tick {tick}"
                    );
                }
            });
        });
    }
    let _ = std::fs::remove_file(&log);
}

/// A one-cluster fleet (so its only profile has one member) sharing
/// the weights `{ own: 2, peers: 1 }`, checkpointed after a few ticks. Returns
/// the snapshot's payload, whose first sharing tag sits at offset 33 (after
/// the transport tag, tick, train cursor, cluster ticks and the mode count),
/// with `own` at 34..42 and `peers` at 42..50.
fn self_biased_payload() -> Vec<u8> {
    let snap = temp_path(&format!("sharing-base-{}.snap", std::process::id()));
    let mut fleet = solo_fleet();
    fleet.set_profile_sharing(
        0,
        ExperienceSharing {
            own: 2.0,
            peers: 1.0,
        },
    );
    for _ in 0..8 {
        fleet.tick_all(PhaseKind::Train);
    }
    fleet.checkpoint(&snap).expect("checkpoint");
    let payload = capes_persist::read_snapshot_file(&snap).expect("valid snapshot");
    let _ = std::fs::remove_file(&snap);
    assert_eq!(payload[25..33], 1u64.to_le_bytes(), "one sharing mode");
    assert_eq!(payload[33], 2, "the weight-pair tag");
    assert_eq!(payload[34..42], 2.0f64.to_le_bytes());
    assert_eq!(payload[42..50], 1.0f64.to_le_bytes());
    payload
}

fn solo_fleet() -> FleetDaemon {
    Fleet::builder()
        .hyperparams(quick_hp())
        .seed(5)
        .scenarios([ScenarioSpec::new("solo", Workload::random_rw(0.1)).clients(2)])
        .build()
        .unwrap()
}

#[test]
fn restore_rejects_invalid_sharing_modes_untouched() {
    let payload = self_biased_payload();
    // The unpatched snapshot restores, so each case below fails on its patch.
    let path = temp_path(&format!("sharing-ok-{}.snap", std::process::id()));
    capes_persist::write_atomic(&path, &capes_persist::encode_snapshot(&payload)).unwrap();
    let mut fleet = solo_fleet();
    fleet.restore(&path).expect("honest snapshot restores");
    assert_eq!(fleet.tick(), 8);
    let _ = std::fs::remove_file(&path);

    // (case, sharing tag, own, peers), patched over tag 2 and its weights.
    let cases = [
        ("nan-own", 2, f64::NAN, 1.0),
        ("negative-peers", 2, 1.0, -1.0f64),
        ("both-zero", 2, 0.0, 0.0),
        ("zero-own-solo", 2, 0.0, 1.0),
        ("tag-3", 3, 1.0, 1.0),
    ];
    for (name, tag, own, peers) in cases {
        let mut crafted = payload.clone();
        crafted[33] = tag;
        crafted[34..42].copy_from_slice(&own.to_le_bytes());
        crafted[42..50].copy_from_slice(&peers.to_le_bytes());
        let path = temp_path(&format!("sharing-{name}-{}.snap", std::process::id()));
        capes_persist::write_atomic(&path, &capes_persist::encode_snapshot(&crafted)).unwrap();
        let mut fleet = solo_fleet();
        let err = fleet.restore(&path).expect_err(name);
        assert!(
            matches!(
                err,
                FleetError::Persist(capes_persist::PersistError::BadValue { .. })
            ),
            "{name}: unexpected error: {err}"
        );
        assert_eq!(fleet.tick(), 0, "{name}: failed restore moved the tick");
        assert_eq!(fleet.persist_report().restores, 0);
        let inserted: u64 = fleet.arena().stats().iter().map(|s| s.total_inserted).sum();
        assert_eq!(inserted, 0, "{name}: failed restore overlaid the arena");
        assert_eq!(fleet.profile_sharing(0), ExperienceSharing::Disabled);
        let _ = std::fs::remove_file(&path);
    }
}

/// Where a fleet snapshot payload's arena stripe count sits: after the
/// header, the sharing modes and every profile's geometry and agent.
fn stripe_count_offset(payload: &[u8]) -> usize {
    use capes_persist::{Persist, Reader};
    let mut r = Reader::new(payload);
    r.get_u8().unwrap();
    for _ in 0..3 {
        r.get_u64().unwrap();
    }
    Vec::<ExperienceSharing>::decode(&mut r).unwrap();
    for _ in 0..r.get_usize().unwrap() {
        r.get_usize().unwrap();
        r.get_usize().unwrap();
        Vec::<usize>::decode(&mut r).unwrap();
        capes_drl::DqnAgent::decode(&mut r).unwrap();
    }
    payload.len() - r.remaining()
}

/// An honest snapshot's arena stripe count always agrees once its profiles'
/// stripe members do, so only a crafted payload reaches that check: a count
/// of 0, or one more than the fleet has, is a replay-configuration mismatch
/// that leaves the fleet untouched.
#[test]
fn restore_rejects_a_wrong_arena_stripe_count_untouched() {
    let payload = self_biased_payload();
    let at = stripe_count_offset(&payload);
    let stripes = solo_fleet().arena().num_stripes();
    assert_eq!(payload[at..at + 8], (stripes as u64).to_le_bytes());
    for count in [0, stripes + 1] {
        let mut crafted = payload.clone();
        crafted[at..at + 8].copy_from_slice(&(count as u64).to_le_bytes());
        let path = temp_path(&format!("stripes-{count}-{}.snap", std::process::id()));
        capes_persist::write_atomic(&path, &capes_persist::encode_snapshot(&crafted)).unwrap();
        let mut fleet = solo_fleet();
        let err = fleet.restore(&path).expect_err("wrong stripe count");
        assert!(
            matches!(
                err,
                FleetError::Capes(capes::CapesError::ReplayConfigMismatch { .. })
            ) && err.to_string().contains("arena stripes"),
            "{count} stripes: unexpected error: {err}"
        );
        assert_eq!(fleet.tick(), 0, "{count} stripes: the tick moved");
        assert_eq!(fleet.persist_report().restores, 0);
        let inserted: u64 = fleet.arena().stats().iter().map(|s| s.total_inserted).sum();
        assert_eq!(inserted, 0, "{count} stripes: the arena was overlaid");
        assert_eq!(fleet.profile_sharing(0), ExperienceSharing::Disabled);
        let _ = std::fs::remove_file(&path);
    }
}

fn small_snapshot_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let snap = temp_path(&format!("fault-base-{}.snap", std::process::id()));
        let mut fleet = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(5)
            .scenarios([ScenarioSpec::new("solo", Workload::random_rw(0.1)).clients(2)])
            .build()
            .unwrap();
        for _ in 0..8 {
            fleet.tick_all(PhaseKind::Train);
        }
        fleet.checkpoint(&snap).expect("checkpoint");
        let bytes = std::fs::read(&snap).unwrap();
        let _ = std::fs::remove_file(&snap);
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 1: a snapshot file truncated at any byte offset is a typed
    /// error — never a panic, never a partial restore.
    #[test]
    fn truncated_snapshots_never_restore(cut_frac in 0.0f64..1.0) {
        let bytes = small_snapshot_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let path = temp_path(&format!("fault-trunc-{cut}.snap"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut fleet = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(5)
            .scenarios([ScenarioSpec::new("solo", Workload::random_rw(0.1)).clients(2)])
            .build()
            .unwrap();
        let err = fleet.restore(&path).expect_err("truncated snapshot accepted");
        prop_assert!(matches!(err, FleetError::Persist(_)), "got: {err}");
        prop_assert_eq!(fleet.tick(), 0);
        prop_assert_eq!(fleet.persist_report().restores, 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite 1: a single flipped bit anywhere in the snapshot file is a
    /// typed error, caught by the container CRC before any state moves.
    #[test]
    fn bit_flipped_snapshots_never_restore(byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = small_snapshot_bytes().to_vec();
        let byte = (((bytes.len() - 1) as f64) * byte_frac) as usize;
        bytes[byte] ^= 1 << bit;
        let path = temp_path(&format!("fault-flip-{byte}-{bit}.snap"));
        std::fs::write(&path, &bytes).unwrap();
        let mut fleet = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(5)
            .scenarios([ScenarioSpec::new("solo", Workload::random_rw(0.1)).clients(2)])
            .build()
            .unwrap();
        let err = fleet.restore(&path).expect_err("corrupt snapshot accepted");
        prop_assert!(matches!(err, FleetError::Persist(_)), "got: {err}");
        prop_assert_eq!(fleet.tick(), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite 1: corrupting a record log either truncates replay at a
    /// record boundary (clean shorter log) or fails typed — never panics,
    /// never replays a damaged record.
    #[test]
    fn corrupted_record_logs_never_panic(cut_frac in 0.0f64..1.0, flip in 0u8..2, bit in 0u8..8) {
        use capes_persist::RecordLogWriter;
        let path = temp_path("fault-record-base.log");
        let mut w = RecordLogWriter::create(&path).unwrap();
        for tick in 0..6u64 {
            let frame = capes_agents::wire::encode_message(&capes_agents::Message::Objective {
                tick,
                node: 0,
                value: 100.0 + tick as f64,
            });
            w.append(tick, (tick % 2) as u32, &frame).unwrap();
        }
        let total = w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        bytes.truncate(cut.max(1));
        if flip == 1 && !bytes.is_empty() {
            let at = bytes.len() - 1;
            bytes[at] ^= 1 << bit;
        }
        let corrupt = temp_path("fault-record-corrupt.log");
        std::fs::write(&corrupt, &bytes).unwrap();
        let mut fleet = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(5)
            .scenarios([
                ScenarioSpec::new("a", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("b", Workload::random_rw(0.9)).clients(2),
            ])
            .build()
            .unwrap();
        match fleet.replay_traffic(&corrupt) {
            Ok(delivered) => prop_assert!(delivered <= total, "replayed {delivered} of {total}"),
            Err(FleetError::Persist(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
        let _ = std::fs::remove_file(&corrupt);
    }
}
