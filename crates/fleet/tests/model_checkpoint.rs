//! Hostile model checkpoints through `CapesSystem::restore_checkpoint`, and
//! the two snapshot kinds handed to each other's loaders.
//!
//! Both files share the `capes-persist` container, so each loader must tell
//! its own kind from the other's as well as reject torn and bit-flipped
//! files — always with a typed error, never a panic, and with the agent (or
//! fleet) it was about to replace left exactly as it was. The inputs are the
//! two committed fixtures: `capes-drl`'s `model_v1.ckpt` (a 6-input,
//! 2-parameter model) and this crate's `fleet2_v1.snap`.

use capes::prelude::*;
use capes::{CapesError, CapesSystem, Transport};
use capes_drl::{best_action_in_row, DqnAgent, DqnAgentConfig};
use capes_fleet::{Fleet, FleetDaemon, FleetError, ScenarioSpec};
use capes_nn::Workspace;
use capes_persist::PersistError;
use capes_simstore::Workload;
use capes_tensor::Matrix;
use std::path::{Path, PathBuf};

/// One node, three indicators, two knobs: with two sampling ticks per
/// observation, the geometry `model_v1.ckpt` was trained for.
struct TwoKnobs {
    knobs: [f64; 2],
}

impl TargetSystem for TwoKnobs {
    fn num_nodes(&self) -> usize {
        1
    }

    fn pis_per_node(&self) -> usize {
        3
    }

    fn tunable_specs(&self) -> Vec<TunableSpec> {
        ["a", "b"]
            .map(|name| TunableSpec {
                name: name.into(),
                min: 0.0,
                max: 100.0,
                step: 2.0,
                default: 10.0,
            })
            .to_vec()
    }

    fn current_params(&self) -> Vec<f64> {
        self.knobs.to_vec()
    }

    fn apply_params(&mut self, values: &[f64]) {
        self.knobs = [values[0], values[1]];
    }

    fn step(&mut self) -> TargetTick {
        let [a, b] = self.knobs;
        let throughput = (100.0 - 0.05 * (a - 60.0).powi(2) - 0.02 * (b - 30.0).powi(2)).max(1.0);
        TargetTick {
            per_node_pis: vec![vec![a / 100.0, b / 100.0, throughput / 100.0]],
            throughput_mbps: throughput,
            latency_ms: 10.0,
        }
    }
}

/// A two-knob system a few dozen training ticks in, so its agent is neither
/// fresh nor the fixture's.
fn trained_system() -> CapesSystem<TwoKnobs> {
    let mut system = Capes::builder(TwoKnobs { knobs: [10.0; 2] })
        .hyperparams(Hyperparameters {
            sampling_ticks_per_observation: 2,
            ..Hyperparameters::quick_test()
        })
        .seed(3)
        .build()
        .expect("valid configuration");
    for _ in 0..60 {
        system.training_tick();
    }
    system
}

/// What a failed restore must leave alone: a greedy decision and the
/// training-step count.
fn fingerprint(agent: &DqnAgent) -> (usize, u64) {
    let width = agent.config().observation_size;
    let features: Vec<f64> = (0..width).map(|i| (i as f64 * 0.37).sin()).collect();
    let q = agent.q_network();
    let mut ws = Workspace::new_inference(q.mlp(), 1);
    let greedy = best_action_in_row(q.q_values_into(&Matrix::row_vector(&features), &mut ws), 0);
    (greedy, agent.training_steps())
}

fn model_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../drl/tests/fixtures/model_v1.ckpt")
}

fn fleet_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fleet2_v1.snap")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("capes-fleet-test-model");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Hands `bytes` to `restore_checkpoint` as a file and returns the error it
/// must produce, having checked that the system's agent did not change.
fn rejected(system: &mut CapesSystem<TwoKnobs>, bytes: &[u8], what: &str) -> CapesError {
    let before = fingerprint(system.dqn_agent().unwrap());
    // Tests run on parallel threads: one file each.
    let path = temp_path(&format!("hostile-{:?}.ckpt", std::thread::current().id()));
    std::fs::write(&path, bytes).unwrap();
    let err = system
        .restore_checkpoint(&path, 1)
        .expect_err(&format!("{what}: restore must fail"));
    assert_eq!(
        fingerprint(system.dqn_agent().unwrap()),
        before,
        "{what}: a failed restore changed the agent"
    );
    err
}

#[test]
fn the_fixture_itself_restores() {
    let mut system = trained_system();
    let before = fingerprint(system.dqn_agent().unwrap());
    system.restore_checkpoint(model_fixture(), 1).unwrap();
    assert_eq!(system.dqn_agent().unwrap().training_steps(), 5);
    assert_ne!(fingerprint(system.dqn_agent().unwrap()).1, before.1);
}

#[test]
fn torn_and_bit_flipped_model_files_are_typed_errors() {
    let golden = std::fs::read(model_fixture()).unwrap();
    let mut system = trained_system();
    for len in 0..golden.len() {
        let err = rejected(&mut system, &golden[..len], &format!("cut at {len}"));
        assert!(
            matches!(err, CapesError::Checkpoint(_)),
            "cut at {len}: {err}"
        );
    }
    // One flipped bit in the container header, in the payload, in the CRC.
    for at in [9, 13, golden.len() / 2, golden.len() - 1] {
        let mut bytes = golden.clone();
        bytes[at] ^= 0x10;
        let err = rejected(&mut system, &bytes, &format!("flip at {at}"));
        assert!(
            matches!(err, CapesError::Checkpoint(_)),
            "flip at {at}: {err}"
        );
    }
    let mut longer = golden.clone();
    longer.push(0);
    assert!(matches!(
        rejected(&mut system, &longer, "one byte appended"),
        CapesError::Checkpoint(PersistError::CorruptLength { .. })
    ));
}

#[test]
fn other_kinds_and_versions_are_told_apart() {
    let golden = std::fs::read(model_fixture()).unwrap();
    let payload = capes_persist::decode_snapshot(&golden).unwrap();
    let mut system = trained_system();

    // Valid containers (the CRC is recomputed), wrong contents.
    let mut wrong_kind = payload.to_vec();
    wrong_kind[..8].copy_from_slice(b"DQNMODEM");
    let err = rejected(
        &mut system,
        &capes_persist::encode_snapshot(&wrong_kind),
        "wrong kind marker",
    );
    assert!(
        matches!(err, CapesError::Checkpoint(PersistError::BadMagic { .. })),
        "{err}"
    );
    let mut future = payload.to_vec();
    future[8..12].copy_from_slice(&2u32.to_le_bytes());
    let err = rejected(
        &mut system,
        &capes_persist::encode_snapshot(&future),
        "future model format",
    );
    assert!(
        matches!(
            err,
            CapesError::Checkpoint(PersistError::UnsupportedVersion { found: 2, .. })
        ),
        "{err}"
    );

    // A fleet snapshot is a valid container of another kind.
    let fleet_snapshot = std::fs::read(fleet_fixture()).unwrap();
    let err = rejected(&mut system, &fleet_snapshot, "fleet snapshot");
    assert!(
        matches!(err, CapesError::Checkpoint(PersistError::BadMagic { .. })),
        "{err}"
    );
}

#[test]
fn a_model_for_another_parameter_count_is_a_mismatch() {
    // Same observation width, three parameters instead of two: installed, its
    // extra actions would map onto no knob.
    let path = temp_path("three-params.ckpt");
    DqnAgent::new(DqnAgentConfig::paper_default(6, 3), 1)
        .save_checkpoint(&path)
        .unwrap();
    let mut system = trained_system();
    let err = rejected(&mut system, &std::fs::read(&path).unwrap(), "3-param model");
    assert!(
        matches!(err, CapesError::CheckpointMismatch { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("3 parameters"), "{err}");
}

fn fixture_fleet() -> FleetDaemon {
    // The fleet `golden_snapshot.rs` restores `fleet2_v1.snap` into.
    Fleet::builder()
        .hyperparams(Hyperparameters {
            sampling_ticks_per_observation: 2,
            exploration_period_ticks: 300,
            adam_learning_rate: 2e-3,
            ..Hyperparameters::quick_test()
        })
        .seed(99)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(1),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(1),
        ])
        .build()
        .expect("valid fleet")
}

#[test]
fn a_model_file_is_not_a_fleet_snapshot() {
    let mut fleet = fixture_fleet();
    fleet.restore(&fleet_fixture()).expect("restore v1 fixture");
    let before = (fleet.tick(), fingerprint(fleet.agent_for(0)));
    let err = fleet.restore(&model_fixture()).unwrap_err();
    // The kind marker's first byte sits where a fleet snapshot keeps its
    // transport tag, and is none of them.
    assert!(
        matches!(
            err,
            FleetError::Capes(CapesError::CheckpointMismatch { .. })
        ),
        "{err}"
    );
    assert_eq!((fleet.tick(), fingerprint(fleet.agent_for(0))), before);
}
