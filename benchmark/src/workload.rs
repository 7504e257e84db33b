//! The four workloads: which fleet each builds and how much work one round
//! carries. The *why* strings are the ones `BENCHMARK.json` records.

use capes::{Hyperparameters, Transport};
use capes_fleet::{ExperienceSharing, Fleet, FleetDaemon, FleetError, ScenarioSpec};
use capes_simstore::Workload as IoWorkload;

/// Warm-up train ticks that end set-up: enough for every arena stripe to
/// yield a minibatch, and a multiple of every workload's train-block length
/// so round-robin training and periodic work start each round aligned.
pub const WARMUP_TICKS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fleet8MixSocket,
    Fleet64SharedSocket,
    Table2Wire,
    Fleet8MixDurable,
}

/// One benchmark workload. A round is `train_ticks` × `tick_all(Train)` then
/// `tuned_ticks` × `tick_all(Tuned)`; both are multiples of the round-robin
/// period of the fleet, so every round carries identical work.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    pub train_ticks: usize,
    pub tuned_ticks: usize,
    /// Wall time of one round on the sizing host, used only to turn
    /// `--seconds` into a fixed round count.
    pub nominal_round_ms: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::Fleet8MixSocket,
        name: "fleet8_mix_socket",
        why: "8 clusters, 5 geometries over loopback TCP: tuned tick is per-tick fixed cost (syscalls, codec, reactor handoffs); net/agents/fleet work shows, tensor work should not",
        train_ticks: 8,
        tuned_ticks: 32,
        nominal_round_ms: 110.0,
    },
    Workload {
        kind: Kind::Fleet64SharedSocket,
        name: "fleet64_shared_socket",
        why: "64 same-geometry clusters sharing one agent: 64 connections of ingest, one 64-row decide_batch, weighted sampling over 64 stripes, sched sharding does real work",
        train_ticks: 4,
        tuned_ticks: 8,
        nominal_round_ms: 150.0,
    },
    Workload {
        kind: Kind::Table2Wire,
        name: "table2_600_wire",
        why: "one cluster with the 600-wide Table 2 network on the in-process wire: a train tick is one DQN step, so tensor/nn/drl own it and net is bypassed",
        train_ticks: 8,
        tuned_ticks: 128,
        nominal_round_ms: 115.0,
    },
    Workload {
        kind: Kind::Fleet8MixDurable,
        name: "fleet8_mix_durable",
        why: "fleet8_mix_socket plus a record append per frame and one snapshot per train block: persist writes inside the loop; minus fleet8_mix_socket isolates durability cost",
        train_ticks: 8,
        tuned_ticks: 32,
        nominal_round_ms: 230.0,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn transport(&self) -> Transport {
        match self.kind {
            Kind::Table2Wire => Transport::Wire,
            _ => Transport::Socket,
        }
    }

    /// Records every uplink frame and snapshots once per train block.
    pub fn durable(&self) -> bool {
        self.kind == Kind::Fleet8MixDurable
    }

    pub fn hyperparams(&self) -> Hyperparameters {
        match self.kind {
            // 5 clients × 12 PIs × 10 sampling ticks = the 600-wide network.
            Kind::Table2Wire => Hyperparameters {
                sampling_ticks_per_observation: 10,
                train_steps_per_tick: 1,
                ..Hyperparameters::quick_test()
            },
            // A replay ring that is full when warm-up ends: every round's
            // snapshot then has the same size, so rounds stay identical work.
            Kind::Fleet8MixDurable => Hyperparameters {
                replay_capacity_ticks: WARMUP_TICKS,
                ..Hyperparameters::quick_test()
            },
            _ => Hyperparameters::quick_test(),
        }
    }

    pub fn scenarios(&self) -> Vec<ScenarioSpec> {
        match self.kind {
            Kind::Fleet8MixSocket | Kind::Fleet8MixDurable => ScenarioSpec::heterogeneous_mix(8),
            Kind::Fleet64SharedSocket => (0..64)
                .map(|i| {
                    let read_share = 0.1 * (1 + i % 9) as f64;
                    ScenarioSpec::new(format!("c{i:02}"), IoWorkload::random_rw(read_share))
                })
                .collect(),
            Kind::Table2Wire => {
                vec![ScenarioSpec::new("table2", IoWorkload::random_rw(0.1))]
            }
        }
    }

    /// Fleet worker threads: `Some` only where the workload pins them.
    pub fn workers(&self, nproc: usize) -> Option<usize> {
        (self.kind == Kind::Fleet64SharedSocket).then(|| nproc.clamp(1, 4))
    }

    /// Rounds a run of `seconds` measures: fixed work, so the final state is
    /// the same on a fast and a slow host.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        ((seconds as f64 * 1000.0 / self.nominal_round_ms).round() as usize).max(4)
    }

    /// Builds the fleet cold; `seed` feeds the fleet builder and nothing else.
    pub fn build(&self, seed: u64, nproc: usize) -> Result<FleetDaemon, FleetError> {
        let mut builder = Fleet::builder()
            .hyperparams(self.hyperparams())
            .seed(seed)
            .transport(self.transport())
            .scenarios(self.scenarios());
        if let Some(workers) = self.workers(nproc) {
            builder = builder.workers(workers);
        }
        let mut daemon = builder.build()?;
        if self.kind == Kind::Fleet64SharedSocket {
            daemon.set_profile_sharing(0, ExperienceSharing::Uniform);
        }
        Ok(daemon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_carry_identical_work() {
        for w in WORKLOADS {
            // Round-robin training walks the clusters; a train block must
            // cover whole cycles unless every member trains identically
            // (one shared agent over uniformly weighted stripes).
            let clusters = w.scenarios().len();
            if w.kind != Kind::Fleet64SharedSocket {
                assert_eq!(w.train_ticks % clusters, 0, "{}", w.name);
                assert_eq!(WARMUP_TICKS % clusters, 0, "{}", w.name);
            }
            // The durable workload snapshots every `train_ticks` ticks while
            // a train block runs: block ends must land on multiples.
            assert_eq!(WARMUP_TICKS % w.train_ticks.max(1), 0, "{}", w.name);
            if w.durable() {
                assert_eq!(w.tuned_ticks % w.train_ticks, 0, "{}", w.name);
            }
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn geometries_match_the_issue() {
        let hp = by_name("table2_600_wire").unwrap().hyperparams();
        let spec = &by_name("table2_600_wire").unwrap().scenarios()[0];
        assert_eq!(spec.observation_size(&hp), 600);
        assert_eq!(
            by_name("fleet64_shared_socket").unwrap().scenarios().len(),
            64
        );
        assert!(by_name("nope").is_none());
        assert_eq!(by_name("fleet8_mix_socket").unwrap().rounds_for(11), 100);
    }
}
