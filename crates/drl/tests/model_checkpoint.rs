//! The model checkpoint: format compatibility against a committed v1 fixture,
//! and what a restore keeps versus resets (the Figure 4 protocol).
//!
//! `fixtures/model_v1.ckpt` was written by `DqnAgent::save_checkpoint` at the
//! commit that introduced the format, from `trained_agent()` below — a
//! 6-input, 2-parameter agent five training steps in, so online and target
//! networks have already drifted apart. Its weights came from a scalar GEMM
//! arm that rounded every multiply and add separately; no SIMD level
//! computes that arm any more, so `trained_agent()` no longer re-derives
//! them and the fixture pins the format only. It is never regenerated: a
//! build that cannot load it, or that re-saves it to different bytes, has
//! changed the v1 model format.

use capes_drl::{DqnAgent, DqnAgentConfig, EpsilonSchedule, TrainerConfig};
use capes_persist::{Persist, PersistError, Writer};
use capes_replay::{Observation, ReplayArena, ReplayConfig};
use capes_tensor::Matrix;
use std::path::{Path, PathBuf};

fn config() -> DqnAgentConfig {
    DqnAgentConfig {
        observation_size: 6,
        num_params: 2,
        minibatch_size: 8,
        trainer: TrainerConfig::default(),
        epsilon: EpsilonSchedule::new(1.0, 0.05, 100),
    }
}

fn trained_agent() -> DqnAgent {
    let arena = ReplayArena::single(ReplayConfig {
        num_nodes: 2,
        pis_per_node: 3,
        ticks_per_observation: 1,
        missing_entry_tolerance: 0.2,
        capacity_ticks: 1000,
    });
    let db = arena.stripe(0);
    for t in 0..200u64 {
        for n in 0..2 {
            db.insert_snapshot(t, n, vec![0.1 * (t % 10) as f64, n as f64, 0.5]);
        }
        db.insert_objective(t, 100.0 + (t % 7) as f64);
        db.insert_action(t, (t % 5) as usize);
    }
    let mut agent = DqnAgent::new(config(), 2017);
    for _ in 0..5 {
        agent.train_from_db(&db).unwrap().expect("trains");
    }
    agent
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/model_v1.ckpt")
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("capes-drl-test-model");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn bytes_of(value: &impl Persist) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_vec()
}

/// The optimizer's part of an agent's `Persist` encoding, which lays out
/// `config | online | target | optimizer | trainer config | steps | ε | rng`.
fn optimizer_bytes(agent: &DqnAgent) -> Vec<u8> {
    let all = bytes_of(agent);
    let head = bytes_of(agent.config()).len() + 2 * bytes_of(agent.q_network()).len();
    let tail =
        bytes_of(&agent.config().trainer).len() + 8 + bytes_of(&agent.config().epsilon).len() + 32;
    all[head..all.len() - tail].to_vec()
}

#[test]
fn golden_model_loads_and_re_saves_identically() {
    let golden = std::fs::read(fixture_path()).expect("committed fixture");
    let agent = DqnAgent::load_checkpoint(fixture_path(), 1).expect("load v1 fixture");
    assert_eq!(*agent.config(), config());
    assert_eq!(agent.training_steps(), 5);
    assert!(
        agent
            .q_network()
            .mlp()
            .parameter_distance(agent.target_network().mlp())
            > 0.0
    );

    let out = temp_path("re-save.ckpt");
    agent.save_checkpoint(&out).expect("re-save");
    assert!(
        std::fs::read(&out).unwrap() == golden,
        "re-saved model differs from the v1 fixture"
    );
    // Nothing but the destination is left behind.
    assert!(!temp_path("re-save.ckpt.tmp").exists());
    let _ = std::fs::remove_file(&out);
}

#[test]
fn load_keeps_the_model_and_starts_a_fresh_session() {
    let mut original = trained_agent();
    // Session state the file must not carry: a live ε bump.
    original.notify_workload_change(10_000, 500);
    let path = temp_path("semantics.ckpt");
    original.save_checkpoint(&path).unwrap();
    let mut loaded = DqnAgent::load_checkpoint(&path, 7).unwrap();

    // Kept: both networks bit for bit, and the step count.
    assert_eq!(bytes_of(loaded.q_network()), bytes_of(original.q_network()));
    assert_eq!(
        bytes_of(loaded.target_network()),
        bytes_of(original.target_network())
    );
    assert_eq!(loaded.training_steps(), 5);

    // Reset: ε follows the configured schedule again …
    let o = Observation {
        tick: 0,
        features: Matrix::from_vec(1, 6, vec![0.3, 0.6, -0.4, 0.2, 0.0, 0.8]),
    };
    assert!(original.decide(Some(&o), 10_100, false).epsilon > 0.05);
    assert_eq!(loaded.decide(Some(&o), 10_100, false).epsilon, 0.05);
    // … and Adam starts over, as in a never-trained agent.
    let fresh = optimizer_bytes(&DqnAgent::new(config(), 0));
    assert_ne!(optimizer_bytes(&original), fresh);
    assert_eq!(optimizer_bytes(&loaded), fresh);

    // The RNG is the caller's seed: same seed, same exploration; another
    // seed, another.
    let explore = |seed: u64| {
        let mut agent = DqnAgent::load_checkpoint(&path, seed).unwrap();
        (0..64)
            .map(|_| {
                let d = agent.decide(Some(&o), 50, false);
                (d.action, d.explored)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(explore(7), explore(7));
    assert_ne!(explore(7), explore(8));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_network_that_disagrees_with_the_stored_configuration_is_rejected() {
    // A well-formed container whose payload pairs a 2-parameter configuration
    // with 3-parameter networks: only the loader's cross-check can catch it.
    let wide = DqnAgent::new(
        DqnAgentConfig {
            num_params: 3,
            ..config()
        },
        1,
    );
    let path = temp_path("skewed.ckpt");
    let mut w = capes_persist::SnapshotWriter::create(&path).unwrap();
    w.put_raw(&capes_drl::checkpoint::MODEL_KIND);
    w.put_u32(capes_drl::checkpoint::MODEL_FORMAT_VERSION);
    config().encode(&mut w);
    wide.q_network().encode(&mut w);
    wide.target_network().encode(&mut w);
    w.put_u64(0);
    w.finish().unwrap();
    let err = DqnAgent::load_checkpoint(&path, 1).unwrap_err();
    assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
    assert!(matches!(
        DqnAgent::load_checkpoint(temp_path("missing.ckpt"), 1).unwrap_err(),
        PersistError::Io(_)
    ));
    let _ = std::fs::remove_file(&path);
}
