//! Cross-crate pipeline tests that exercise the component boundaries directly
//! (wire protocol → interface daemon → replay DB → DRL engine) without the
//! full system orchestration.

use capes::{step_params, SimulatedLustre, TargetSystem};
use capes_agents::{encode_message, ActionChecker, InterfaceDaemon, Message, MonitoringAgent};
use capes_drl::{ActionSpace, DqnAgent, DqnAgentConfig, EpsilonSchedule, TrainerConfig};
use capes_replay::{ReplayConfig, SharedReplayDb};
use capes_simstore::{Cluster, ClusterConfig, TunableParams, Workload};

#[test]
fn simulator_pis_flow_through_wire_daemon_and_replay_into_the_dqn() {
    // 1. A simulated cluster produces PIs.
    let config = ClusterConfig::default();
    let mut cluster = Cluster::new(config.clone(), Workload::random_rw(0.2), 7);

    // 2. Monitoring agents encode them as wire frames; the daemon decodes and
    //    stores them.
    let replay_config = ReplayConfig {
        num_nodes: config.num_clients,
        pis_per_node: capes_simstore::pis_per_client(config.pi_mode, config.oscs_per_client()),
        ticks_per_observation: 4,
        missing_entry_tolerance: 0.2,
        capacity_ticks: 10_000,
    };
    let db = SharedReplayDb::new(replay_config);
    let mut daemon =
        InterfaceDaemon::new(db.clone(), config.num_clients, ActionChecker::permissive());
    let mut monitors: Vec<MonitoringAgent> =
        (0..config.num_clients).map(MonitoringAgent::new).collect();

    let ticks = 60u64;
    for tick in 0..ticks {
        let stats = cluster.step();
        for (node, monitor) in monitors.iter_mut().enumerate() {
            let pis = cluster.normalized_indicators(node);
            let frame = encode_message(&Message::Report(monitor.sample(tick, &pis)));
            daemon.ingest_frame(&frame).expect("valid frame");
            let frame = encode_message(&Message::Objective {
                tick,
                node,
                value: stats.aggregate_throughput() / config.num_clients as f64,
            });
            daemon.ingest_frame(&frame).expect("valid frame");
        }
        db.insert_action(tick, (tick % 5) as usize);
    }

    assert_eq!(db.len(), ticks as usize);

    // 3. The DRL agent can build observations and train from what was stored.
    let observation_size = db.with_read(|d| d.config().observation_size());
    let mut agent = DqnAgent::new(
        DqnAgentConfig {
            observation_size,
            num_params: 2,
            minibatch_size: 16,
            trainer: TrainerConfig::default(),
            epsilon: EpsilonSchedule::paper_default(),
        },
        1,
    );
    let report = agent
        .train_from_db(&db)
        .expect("sampling must not error")
        .expect("db has enough data to train");
    assert!(report.loss.is_finite());
    assert!(report.prediction_error >= 0.0);

    // 4. And it can select an action for the latest observation.
    let latest = db.with_read(|db| db.latest_tick()).unwrap();
    let obs = db.observation_at(latest).expect("observation available");
    let decision = agent.decide(Some(&obs), 100_000, false);
    assert!(decision.action < 5);
}

#[test]
fn wire_values_survive_the_f32_round_trip_well_enough_for_observations() {
    // The wire format carries PIs as f32; verify the reconstruction error is
    // negligible relative to the normalised PI scale.
    let config = ClusterConfig::default();
    let mut cluster = Cluster::new(config.clone(), Workload::fileserver(), 3);
    cluster.step();
    let pis = cluster.normalized_indicators(0);

    let mut monitor = MonitoringAgent::new(0);
    let report = monitor.sample(0, &pis);
    let frame = encode_message(&Message::Report(report));
    let decoded = capes_agents::decode_message(&frame).unwrap();
    if let Message::Report(r) = decoded {
        assert_eq!(
            r.changed.len(),
            pis.len(),
            "first report carries everything"
        );
        for (index, value) in r.changed {
            let err = (value - pis[index as usize]).abs();
            assert!(err < 1e-3, "PI {index} error {err} too large");
        }
    } else {
        panic!("expected a report");
    }
}

#[test]
fn cluster_objective_reward_matches_paper_definition() {
    // The reward of an action at tick t is the objective at t+1. Drive the
    // full loop manually and verify the replay DB hands the DQN exactly that.
    let db = SharedReplayDb::new(ReplayConfig {
        num_nodes: 1,
        pis_per_node: 3,
        ticks_per_observation: 2,
        missing_entry_tolerance: 0.0,
        capacity_ticks: 100,
    });
    for t in 0..20u64 {
        db.insert_snapshot(t, 0, vec![t as f64, 0.0, 1.0]);
        db.insert_objective(t, 1000.0 + t as f64);
        db.insert_action(t, 0);
    }
    db.with_read(|d| {
        for t in 2..18u64 {
            assert_eq!(d.reward_at(t), Some(1000.0 + (t + 1) as f64));
        }
    });
}

#[test]
fn tunable_params_round_trip_through_the_action_pipeline() {
    // Every action index the DQN can choose, each held long enough to drive
    // its knob into the end of its range, goes through the production path
    // (`step_params`, then the adapter's `apply_params`); the simulator must
    // only ever hold values inside the ranges it accepts.
    let mut target = SimulatedLustre::builder()
        .workload(Workload::sequential_write())
        .seed(9)
        .build();
    let specs = target.tunable_specs();
    let ranges = TunableParams::specs();
    let space = ActionSpace::new(specs.len());
    for action in 0..space.len() {
        for _ in 0..150 {
            let next = step_params(&space, action, &target.current_params(), &specs);
            target.apply_params(&next);
            let applied = target.cluster_mut().params();
            assert!(ranges[0].contains(applied.congestion_window));
            assert!(ranges[1].contains(applied.io_rate_limit));
        }
    }
    // The walk ends on the decreases, so both knobs sit clamped at their
    // minimum.
    assert_eq!(target.current_params(), vec![ranges[0].min, ranges[1].min]);
    // The cluster still runs fine after the parameter walk.
    assert!(target.step().throughput_mbps > 0.0);
}
