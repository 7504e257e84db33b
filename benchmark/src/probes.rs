//! Per-layer probes: the benchmark builds each layer's inputs at the
//! workload's own geometry and times calls to the layer's public functions
//! from outside. Every probe is wrapped in a benchmark-owned span; the
//! estimator is the mean of the fastest tenth of the samples.

use crate::run::Measured;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::Workload;
use capes::{
    Capes, Hyperparameters, NullEngine, PhaseKind, ProposedAction, SimulatedLustre, Transport,
};
use capes_agents::message::PiReport;
use capes_agents::{ActionChecker, ActionMessage, InterfaceDaemon, Message};
use capes_drl::DqnAgent;
use capes_fleet::sched::FleetPool;
use capes_fleet::{encode_cluster_frame, ExperienceSharing, FleetDaemon, FleetError, ScenarioSpec};
use capes_net::{FleetServer, FrameReassembler, NetConfig};
use capes_nn::{Adam, Mlp, Optimizer, Workspace};
use capes_replay::{ReplayBatch, SharedReplayDb};
use capes_simstore::{ClusterConfig, Workload as IoWorkload};
use capes_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};

/// A probe stops at this many samples …
const TARGET_SAMPLES: usize = 200;
/// … or once its time budget is spent, but never before this many.
const MIN_SAMPLES: usize = 5;
const BUDGET: Duration = Duration::from_millis(150);

/// Times `f` in batches of `batch` calls and returns nanoseconds per call.
fn time(tracer: &mut Tracer, name: &'static str, batch: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    tracer.enter(name, started);
    let mut samples = Vec::with_capacity(TARGET_SAMPLES);
    while samples.len() < MIN_SAMPLES
        || (samples.len() < TARGET_SAMPLES && started.elapsed() < BUDGET)
    {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    tracer.exit(Instant::now());
    stats::fastest_decile_mean(&samples)
}

/// One observation geometry of the fleet and how many clusters share it.
struct Geometry {
    spec: ScenarioSpec,
    members: Vec<usize>,
    observation_size: usize,
    num_params: usize,
    sharing: ExperienceSharing,
}

fn geometries(workload: &Workload, daemon: &FleetDaemon, hp: &Hyperparameters) -> Vec<Geometry> {
    let scenarios = workload.scenarios();
    (0..daemon.num_profiles())
        .map(|p| {
            let members = daemon.profile_members(p).to_vec();
            let spec = scenarios[members[0]].clone();
            Geometry {
                observation_size: spec.observation_size(hp),
                num_params: daemon.system(members[0]).specs().len(),
                sharing: daemon.profile_sharing(p),
                spec,
                members,
            }
        })
        .collect()
}

fn target_for(spec: &ScenarioSpec, seed: u64) -> SimulatedLustre {
    SimulatedLustre::builder()
        .config(ClusterConfig {
            num_clients: spec.num_clients,
            num_servers: spec.num_servers,
            pi_mode: spec.pi_mode,
            ..ClusterConfig::default()
        })
        .workload(IoWorkload::from_kind(spec.workload))
        .seed(seed)
        .build()
}

/// A full-width report, as a member sends when every indicator changed.
fn report(spec: &ScenarioSpec, tick: u64, node: usize) -> Message {
    let pis = spec.pis_per_client();
    Message::Report(PiReport {
        tick,
        node,
        total_pis: pis,
        changed: (0..pis as u16)
            .map(|pi| (pi, 0.25 + f64::from(pi)))
            .collect(),
    })
}

fn objective(tick: u64, node: usize) -> Message {
    Message::Objective {
        tick,
        node,
        value: 0.5,
    }
}

/// Stripe weights that sample `members` uniformly and nothing else.
fn member_weights(clusters: usize, members: &[usize]) -> Vec<f64> {
    let mut weights = vec![0.0; clusters];
    for &member in members {
        weights[member] = 1.0;
    }
    weights
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// What the probes measured, as named metrics plus the tick model.
pub struct Probed {
    pub metrics: Vec<(&'static str, f64)>,
    /// `(layer call, calls per train tick, µs per call)` rows of the model.
    pub model: Vec<(&'static str, f64, f64)>,
}

impl Probed {
    fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Modelled cost of one train tick, in ms.
    pub fn modelled_ms(&self) -> f64 {
        self.model
            .iter()
            .map(|(_, calls, us)| calls * us)
            .sum::<f64>()
            / 1e3
    }
}

/// Runs every probe against the fleet the traced run left behind.
pub fn run(
    workload: &Workload,
    seed: u64,
    m: &mut Measured,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Probed, FleetError> {
    let hp = workload.hyperparams();
    let geoms = geometries(workload, &m.daemon, &hp);
    let clusters = m.daemon.num_clusters();
    let workers = m.daemon.workers();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Probed {
        metrics: Vec::new(),
        model: Vec::new(),
    };
    let us = |ns: f64| ns / 1e3;
    // Clusters whose ticks the fleet pool runs side by side.
    let sharded = clusters as f64 / workers.min(clusters) as f64;

    // capes / simstore: one member system per geometry, driven through the
    // staged tick API exactly as the fleet daemon drives it.
    let (mut step, mut measure, mut apply, mut finish) = (0.0, 0.0, 0.0, 0.0);
    for g in &geoms {
        let share = g.members.len() as f64 / clusters as f64;
        let mut target = target_for(&g.spec, seed);
        step += share
            * time(tracer, "probe.simstore.cluster_step", 1, || {
                black_box(capes::TargetSystem::step(&mut target));
            });
        let mut system = Capes::builder(target_for(&g.spec, seed))
            .hyperparams(hp)
            .seed(seed)
            .engine(Box::new(NullEngine))
            .transport(Transport::Wire)
            .build()?;
        let started = Instant::now();
        tracer.enter("probe.capes.staged_tick", started);
        let mut samples = [const { Vec::new() }; 3];
        while samples[0].len() < TARGET_SAMPLES + 32 && started.elapsed() < 2 * BUDGET {
            let t0 = Instant::now();
            let measurement = system.begin_tick(PhaseKind::Tuned);
            let t1 = Instant::now();
            system.apply_action(ProposedAction {
                action_index: Some(0),
                explored: false,
                params: system.current_params(),
            });
            let t2 = Instant::now();
            black_box(system.finish_tick(PhaseKind::Tuned, &measurement, Some(0), false, None));
            let t3 = Instant::now();
            for (s, d) in samples.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
                s.push(d.as_nanos() as f64);
            }
        }
        tracer.exit(Instant::now());
        // The first ticks run before an observation window exists.
        let steady = |s: &[f64]| stats::fastest_decile_mean(&s[s.len().min(32)..]);
        measure += share * steady(&samples[0]);
        apply += share * steady(&samples[1]);
        finish += share * steady(&samples[2]);
    }
    out.push("simstore.cluster_step_us", us(step));
    out.push("capes.measure_tick_us", us(measure));
    out.push("capes.apply_action_us", us(apply));
    out.push("capes.finish_tick_us", us(finish));
    out.model.push((
        "capes.measure_tick (incl. simstore, agents, replay insert)",
        sharded,
        us(measure),
    ));
    out.model.push(("capes.apply_action", sharded, us(apply)));
    out.model.push(("capes.finish_tick", sharded, us(finish)));

    // agents: the binary codec and the interface daemon's ingest, at the
    // first profile's geometry.
    let g0 = &geoms[0];
    let nodes = g0.spec.num_clients;
    let message = report(&g0.spec, 7, 0);
    let frame = encode_cluster_frame(0, &message);
    let encode = time(tracer, "probe.agents.encode_report", 256, || {
        black_box(encode_cluster_frame(0, black_box(&message)));
    });
    let decode = time(tracer, "probe.agents.decode_report", 256, || {
        black_box(capes_fleet::decode_cluster_frame(black_box(&frame)).is_ok());
    });
    let stripe_config = m.daemon.arena().stripe_config(g0.members[0]);
    let mut interface = InterfaceDaemon::new(
        SharedReplayDb::new(stripe_config),
        nodes,
        ActionChecker::permissive(),
    );
    let mut tick = 0u64;
    let ingest = time(tracer, "probe.agents.ingest_message", 1, || {
        for node in 0..nodes {
            interface.ingest(&report(&g0.spec, tick, node));
            interface.ingest(&objective(tick, node));
        }
        tick += 1;
    }) / (2 * nodes) as f64;
    out.push("agents.encode_report_ns", encode);
    out.push("agents.decode_report_ns", decode);
    out.push("agents.ingest_message_us", us(ingest));

    // replay: inserts into a private stripe, samples from the run's own
    // arena (read-only, own RNG, so the fleet's state does not move).
    let probe_db = SharedReplayDb::new(stripe_config);
    let pis: Vec<f64> = (0..stripe_config.pis_per_node).map(|i| i as f64).collect();
    let mut tick = 0u64;
    let insert = time(tracer, "probe.replay.insert_tick", 1, || {
        for node in 0..stripe_config.num_nodes {
            probe_db.insert_snapshot(tick, node, pis.clone());
        }
        probe_db.insert_objective(tick, 0.5);
        probe_db.insert_action(tick, 0);
        tick += 1;
    });
    let arena = m.daemon.arena();
    let own = arena.stripe(g0.members[0]);
    let mut batch = ReplayBatch::new(hp.minibatch_size, g0.observation_size);
    let sample_own = time(tracer, "probe.replay.sample_own", 1, || {
        black_box(own.construct_minibatch_into(&mut batch, &mut rng).is_ok());
    });
    let weights = member_weights(clusters, &g0.members);
    let sample_weighted = time(tracer, "probe.replay.sample_weighted", 1, || {
        black_box(
            arena
                .construct_minibatch_weighted_into(&weights, &mut batch, &mut rng)
                .is_ok(),
        );
    });
    out.push("replay.insert_tick_us", us(insert));
    out.push("replay.sample_own_us", us(sample_own));
    out.push("replay.sample_weighted_us", us(sample_weighted));
    out.push(
        "replay.occupied_ticks",
        arena.stats().iter().map(|s| s.occupied_ticks as f64).sum(),
    );

    // drl: one batched decide per profile per tick; one training step per
    // (round-robin) cluster, sampled the way its profile shares experience.
    let (mut decide, mut train_step) = (0.0, 0.0);
    for g in &geoms {
        let mut agent = DqnAgent::new(hp.agent_config(g.observation_size, g.num_params), seed);
        let observations = random_matrix(g.members.len(), g.observation_size, &mut rng);
        let has_obs = vec![true; g.members.len()];
        let mut decisions = Vec::with_capacity(g.members.len());
        decide += time(tracer, "probe.drl.decide_batch", 1, || {
            agent.decide_batch(&observations, &has_obs, 1_000, true, &mut decisions);
        });
        let stripe = arena.stripe(g.members[0]);
        let weights = member_weights(clusters, &g.members);
        let share = g.members.len() as f64 / clusters as f64;
        train_step += share
            * time(tracer, "probe.drl.train_step", 1, || {
                let report = match g.sharing {
                    ExperienceSharing::Disabled => agent.train_from_db(&stripe),
                    _ => agent.train_weighted(arena, &weights),
                };
                black_box(report.is_ok());
            });
    }
    out.push("drl.decide_batch_us", us(decide));
    out.push("drl.train_step_ms", train_step / 1e6);
    out.push("drl.train_steps", m.train_steps as f64);
    out.model
        .push(("drl.decide_batch (all profiles)", 1.0, us(decide)));
    out.model.push((
        "drl.train_step",
        hp.train_steps_per_tick as f64,
        us(train_step),
    ));

    // nn / tensor: the first profile's network at the training minibatch.
    let obs = g0.observation_size;
    let mut net = Mlp::capes_q_network(obs, 2 * g0.num_params + 1, &mut rng);
    let x = random_matrix(hp.minibatch_size, obs, &mut rng);
    let mut ws = Workspace::new(&net, hp.minibatch_size);
    let forward = time(tracer, "probe.nn.forward", 1, || {
        black_box(net.forward_into(&x, &mut ws).get(0, 0));
    });
    ws.output_delta_mut().as_mut_slice().fill(0.01);
    let backward = time(tracer, "probe.nn.backward", 1, || {
        net.backward_into(&x, &mut ws)
    });
    let mut adam = Adam::new(hp.adam_learning_rate, net.parameter_shapes());
    let adam_step = time(tracer, "probe.nn.adam_step", 1, || {
        adam.step(&mut net, ws.grads())
    });
    out.push("nn.forward_us", us(forward));
    out.push("nn.backward_us", us(backward));
    out.push("nn.adam_step_us", us(adam_step));
    let hidden = random_matrix(obs, obs, &mut rng);
    let mut product = Matrix::zeros(hp.minibatch_size, obs);
    let gemm_train = time(tracer, "probe.tensor.gemm_train", 1, || {
        x.matmul_into(&hidden, &mut product);
        black_box(product.get(0, 0));
    });
    let rows = random_matrix(g0.members.len(), obs, &mut rng);
    let mut product = Matrix::zeros(g0.members.len(), obs);
    let gemm_decide = time(tracer, "probe.tensor.gemm_decide", 1, || {
        rows.matmul_into(&hidden, &mut product);
        black_box(product.get(0, 0));
    });
    out.push("tensor.gemm_train_us", us(gemm_train));
    out.push("tensor.gemm_decide_us", us(gemm_decide));
    out.push(
        "tensor.gemm_gflops",
        2.0 * (hp.minibatch_size * obs * obs) as f64 / gemm_train,
    );

    // net: a probe server with one loopback connection per cluster carrying
    // one tick's frames, written the way the fleet's socket front writes them.
    let scenarios = workload.scenarios();
    let frames_per_tick: usize = scenarios.iter().map(|s| 2 * s.num_clients).sum();
    let (handle, ingress) = FleetServer::spawn(
        "127.0.0.1:0",
        NetConfig {
            num_clusters: Some(clusters),
            ingress_capacity: (2 * frames_per_tick).max(1024),
            ..NetConfig::default()
        },
    )
    .map_err(FleetError::Socket)?;
    let mut streams = (0..clusters)
        .map(|_| {
            let stream = TcpStream::connect(handle.local_addr())?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(FleetError::Socket)?;
    let uplink_frames: Vec<Vec<_>> = scenarios
        .iter()
        .enumerate()
        .map(|(c, spec)| {
            (0..spec.num_clients)
                .flat_map(|node| [report(spec, 1, node), objective(1, node)])
                .map(|message| encode_cluster_frame(c as u32, &message))
                .collect()
        })
        .collect();
    let uplink = time(tracer, "probe.net.uplink_tick", 1, || {
        for (stream, frames) in streams.iter_mut().zip(&uplink_frames) {
            for frame in frames {
                capes_net::write_frame(stream, frame).expect("probe uplink write");
            }
        }
        for _ in 0..frames_per_tick {
            black_box(ingress.recv().expect("probe server alive"));
        }
    });
    let action = Message::Action(ActionMessage {
        tick: 1,
        action_index: 0,
        parameter_values: m.daemon.system(0).current_params(),
    });
    let mut read_buf = Vec::new();
    let fanout = time(tracer, "probe.net.action_fanout", 1, || {
        for c in 0..clusters {
            assert!(handle.send(c as u32, &action), "probe server alive");
        }
        for stream in &mut streams {
            capes_net::read_frame(stream, capes_net::DEFAULT_MAX_FRAME_LEN, &mut read_buf)
                .expect("probe downlink read");
        }
    });
    drop(streams);
    handle.shutdown();
    let mut framed = Vec::new();
    capes_net::encode_frame_into(&mut framed, &frame);
    let mut reassembler = FrameReassembler::new(capes_net::DEFAULT_MAX_FRAME_LEN);
    let reassemble = time(tracer, "probe.net.frame_reassemble", 256, || {
        let pushed = reassembler.push(black_box(&framed), |f| {
            black_box(f);
            ControlFlow::Continue(())
        });
        black_box(pushed.is_ok());
    });
    out.push("net.uplink_tick_us", us(uplink));
    out.push("net.action_fanout_us", us(fanout));
    out.push("net.frame_reassemble_ns", reassemble);
    if workload.transport() == Transport::Socket {
        out.model.push(("net.uplink_tick", 1.0, us(uplink)));
        out.model.push(("net.action_fanout", 1.0, us(fanout)));
    }

    // persist: the final snapshot's own payload, on the real `out/` disk.
    let snapshot = &m.snapshot;
    let payload = capes_persist::decode_snapshot(snapshot)?;
    let encode_ms = time(tracer, "probe.persist.encode", 1, || {
        black_box(capes_persist::encode_snapshot(payload).len());
    }) / 1e6;
    let crc_ns = time(tracer, "probe.persist.crc32", 1, || {
        black_box(capes_persist::crc32(payload));
    });
    let probe_snap = out_dir.join(format!("{}-probe.snap", workload.name));
    let write_ms = time(tracer, "probe.persist.write_fsync", 1, || {
        capes_persist::write_atomic(&probe_snap, snapshot).expect("probe snapshot write");
    }) / 1e6;
    let read_ms = time(tracer, "probe.persist.read_verify", 1, || {
        black_box(capes_persist::read_snapshot_file(&probe_snap).is_ok());
    }) / 1e6;
    let probe_log = out_dir.join(format!("{}-probe.log", workload.name));
    let mut log = capes_persist::RecordLogWriter::create(&probe_log)?;
    // The recorder stores bare wire messages, not cluster frames.
    let record = capes_agents::encode_message(&message);
    let append = time(tracer, "probe.persist.record_append", 256, || {
        log.append(1, 0, &record).expect("probe record append");
    });
    let appended = log.finish()?;
    let replay_started = Instant::now();
    let mut replayer = capes_fleet::Replayer::open(&probe_log)?;
    let mut replayed = 0u64;
    while replayer.next_message()?.is_some() {
        replayed += 1;
    }
    let replay_s = replay_started.elapsed().as_secs_f64();
    tracer.leaf("probe.persist.log_replay", replay_started, Instant::now());
    assert_eq!(replayed, appended, "probe record log replays in full");
    let _ = std::fs::remove_file(&probe_snap);
    let _ = std::fs::remove_file(&probe_log);
    out.push("persist.encode_ms", encode_ms);
    out.push("persist.crc32_gbps", payload.len() as f64 / crc_ns);
    out.push("persist.write_fsync_ms", write_ms);
    out.push("persist.read_verify_ms", read_ms);
    out.push("persist.record_append_ns", append);
    out.push(
        "persist.log_replay_frames_per_s",
        replayed as f64 / replay_s,
    );
    if workload.durable() {
        out.model.push((
            "persist.record_append",
            frames_per_tick as f64,
            append / 1e3,
        ));
        out.model.push((
            "fleet.checkpoint (one per train block)",
            1.0 / workload.train_ticks as f64,
            stats::best(&m.checkpoint_ms, stats::Better::Lower) * 1e3,
        ));
    }

    // telemetry: what one span costs the instrumented program.
    let histogram = capes_telemetry::Histogram::new();
    let span = time(tracer, "probe.telemetry.span_record", 256, || {
        let started = Instant::now();
        histogram.record(started.elapsed().as_nanos() as u64);
    });
    out.push("telemetry.span_record_ns", span);

    // sched: an empty dispatch over the fleet's clusters, then the fleet's
    // own tuned tick at one worker against every core, interleaved.
    let pool = FleetPool::new(workers);
    let dispatch = time(tracer, "probe.sched.dispatch", 16, || {
        pool.run(clusters, 1, |start, end| {
            black_box((start, end));
        });
    });
    drop(pool);
    out.push("sched.dispatch_us", us(dispatch));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut block_s = [Vec::new(), Vec::new()];
    tracer.enter("probe.sched.worker_speedup", Instant::now());
    for _ in 0..5 {
        for (side, threads) in [1, nproc].into_iter().enumerate() {
            m.daemon.set_workers(threads);
            let started = Instant::now();
            for _ in 0..workload.tuned_ticks {
                m.daemon.tick_all(PhaseKind::Tuned);
            }
            block_s[side].push(started.elapsed().as_secs_f64());
        }
    }
    tracer.exit(Instant::now());
    m.daemon.set_workers(workers);
    let fastest = |s: &[f64]| stats::best(s, stats::Better::Lower);
    out.push(
        "sched.worker_speedup",
        fastest(&block_s[0]) / fastest(&block_s[1]),
    );
    Ok(out)
}
