//! The fleet tick ([`FleetDaemon::tick_all`]) and the plan runner
//! ([`FleetDaemon::run`]).

use super::{reports_rejected, FleetDaemon, Profile};
use crate::report::{ExperienceSharing, FleetPlan, FleetReport, ProfileSharing};
use capes::{step_params, PhaseKind, ProposedAction, SessionResult};
use capes_agents::wire::encode_message;
use capes_agents::ActionMessage;
use std::time::Instant;

impl FleetDaemon {
    /// Advances the whole fleet by one tick of the given phase kind: measure
    /// everywhere, decide per profile in one batched forward pass, scatter
    /// actions, train round-robin, finish everywhere.
    pub fn tick_all(&mut self, kind: PhaseKind) {
        self.tick_inner(kind);
        self.auto_checkpoint_if_due();
    }

    fn tick_inner(&mut self, kind: PhaseKind) {
        let FleetDaemon {
            sessions,
            profiles,
            arena,
            profile_sharing,
            weights_buf,
            sched,
            hyperparams,
            tick,
            train_cursor,
            cluster_ticks,
            persist,
            telemetry,
            recorder,
            socket,
            ..
        } = self;
        let recording = capes_telemetry::recording();
        let tick_started = Instant::now();
        let num_clusters = sessions.len();

        // 1. Measurement: every cluster steps, monitors report (as wire
        //    frames or over real sockets), observations gather into the
        //    profile batches. Clusters are independent here, so the work
        //    shards across the fleet pool: each chunk owns a contiguous
        //    cluster range and writes only those clusters' state.
        // 1a. Step every target cluster-parallel. On the wire transport the
        //     reports are already stored; on the socket transport they wait
        //     in each member's outbox and the measurement stays incomplete
        //     (no observation) until the traffic lands back in the daemon.
        sched.run_mut(sessions, 1, 1, |_, chunk| {
            for session in chunk {
                session.measurement = session.system.measure_tick();
            }
        });
        if let Some(front) = socket.as_mut() {
            // 1b. Transmit each cluster's monitoring traffic on its loopback
            //     connection in cluster order: one write per member per tick
            //     (the front end's batch buffer is shared, so the uplink
            //     stays on this thread).
            for (i, session) in sessions.iter_mut().enumerate() {
                session
                    .system
                    .drain_outbox(|message| front.send_uplink(i, &message));
                if let Err(e) = front.flush_uplink(i) {
                    // capes-check: allow(boundary-panic) -- loopback pipe to our own server; failure means the daemon is torn.
                    panic!("socket uplink for cluster {i} failed: {e}");
                }
            }
            // 1c. Drain exactly one tick's worth of decoded messages from the
            //     server and ingest them in arrival order. The recorder taps
            //     the stream here, before ingest, so a replayed log walks the
            //     exact same path.
            let mut record_failed = false;
            front.drain_tick(|cluster, message| {
                if let Some(rec) = recorder.as_mut() {
                    match rec.append(*tick, cluster as u32, &encode_message(message)) {
                        Ok(()) => persist.records_appended.inc(),
                        Err(_) => {
                            persist.record_failures.inc();
                            record_failed = true;
                        }
                    }
                }
                // In bounds: the server routes only clusters that passed its
                // `num_clusters` decode validation.
                sessions[cluster].system.ingest_message(message);
            });
            if record_failed {
                // A log with a failed append can no longer promise the
                // complete stream; stop recording rather than persist a gap
                // silently.
                *recorder = None;
            }
        }
        // 1d. Commit snapshots and assemble observations, cluster-parallel
        //     again.
        sched.run_mut(sessions, 1, 1, |_, chunk| {
            for session in chunk {
                session
                    .system
                    .complete_measurement(kind, &mut session.measurement);
            }
        });
        if kind != PhaseKind::Baseline {
            for session in sessions.iter() {
                // In bounds: `session.profile` indexes `profiles` at build.
                let profile = &mut profiles[session.profile];
                match &session.measurement.observation {
                    Some(obs) => {
                        profile.batch.copy_row_from(session.row, &obs.features, 0);
                        // In bounds: `session.row` is this cluster's stripe
                        // row inside its profile, assigned at build.
                        profile.has_obs[session.row] = true;
                    }
                    // In bounds: same `session.row` invariant.
                    None => profile.has_obs[session.row] = false,
                }
            }
        }
        if recording {
            telemetry
                .tick_gather
                .record_duration(tick_started.elapsed());
        }

        // Outcome of the round-robin training step (shard index, mean
        // prediction error) and its duration, consumed by the feedback phase.
        let mut trained: Option<(usize, f64)> = None;
        let mut train_elapsed = std::time::Duration::ZERO;
        if kind != PhaseKind::Baseline {
            // 2. Decision: one batched forward pass per profile.
            let decide_started = Instant::now();
            let greedy = kind == PhaseKind::Tuned;
            for profile in profiles.iter_mut() {
                let Profile {
                    agent,
                    batch,
                    has_obs,
                    decisions,
                    ..
                } = profile;
                agent.decide_batch(batch, has_obs, *tick, greedy, decisions);
            }
            if recording {
                telemetry
                    .tick_decide
                    .record_duration(decide_started.elapsed());
            }
            let scatter_started = Instant::now();

            // 3. Scatter: map each decision onto absolute parameter values in
            //    one action message per cluster; on the socket transport the
            //    messages cross the loopback connections. This stays on this
            //    thread (the socket buffers are shared).
            for session in sessions.iter_mut() {
                // In bounds: `session.profile`/`session.row` are assigned
                // from `profiles` positions at build time.
                let profile = &profiles[session.profile];
                // In bounds: same build-time assignment.
                let decision = profile.decisions[session.row];
                session.action = ActionMessage {
                    tick: session.system.tick(),
                    action_index: decision.action,
                    parameter_values: step_params(
                        &profile.agent.action_space(),
                        decision.action,
                        &session.system.current_params(),
                        session.system.specs(),
                    ),
                };
            }
            if let Some(front) = socket.as_mut() {
                // Queue every cluster's action on the server-side downlink
                // first (one reactor wake for the whole fan-out), then read
                // them back — the reactor flushes all connections
                // concurrently.
                front.send_actions(
                    sessions
                        .iter_mut()
                        .enumerate()
                        .map(|(i, session)| (i, std::mem::take(&mut session.action))),
                );
                for (i, session) in sessions.iter_mut().enumerate() {
                    session.action = front.recv_action(i);
                }
            }

            // 3b. Apply, cluster-parallel: an action touches only its own
            //     cluster's state and replay stripe.
            let decided = &*profiles;
            sched.run_mut(sessions, 1, 1, |_, chunk| {
                for session in chunk {
                    // In bounds: `session.profile`/`session.row` are assigned
                    // from `profiles` positions at build time.
                    let decision = decided[session.profile].decisions[session.row];
                    session.system.apply_action(ProposedAction {
                        action_index: Some(session.action.action_index),
                        explored: decision.explored,
                        params: std::mem::take(&mut session.action.parameter_values),
                    });
                }
            });
            if recording {
                telemetry
                    .tick_scatter
                    .record_duration(scatter_started.elapsed());
            }

            // 4. Training, on this thread: it consumes the shared agent's
            //    RNG. Every stripe already holds this tick's transition.
            if kind == PhaseKind::Train {
                let train_started = Instant::now();
                let shard = *train_cursor % num_clusters;
                *train_cursor += 1;
                // In bounds: `shard < num_clusters == sessions.len()`.
                let index = sessions[shard].profile;
                // In bounds: `index` indexes both `profiles` and the
                // parallel `profile_sharing` table (assigned at build).
                let (profile, mode) = (&mut profiles[index], profile_sharing[index]);
                let weights = mode.stripe_weights(&profile.stripe_members, shard, weights_buf);
                let mut sum = 0.0;
                let mut count = 0usize;
                for _ in 0..hyperparams.train_steps_per_tick {
                    if let Ok(Some(report)) = profile.agent.train_weighted(arena, weights) {
                        sum += report.prediction_error;
                        count += 1;
                    }
                }
                if count > 0 {
                    trained = Some((shard, sum / count as f64));
                }
                train_elapsed = train_started.elapsed();
            }
        }
        if recording {
            telemetry.tick_train.record_duration(train_elapsed);
        }

        // 5. Feedback: finish every cluster's tick, cluster-parallel — each
        //    chunk writes only its own sessions, reads the (frozen)
        //    decisions, and the objective gauges are atomic cells.
        let objectives = &telemetry.objectives;
        let decided = &*profiles;
        sched.run_mut(sessions, 1, 1, |first, chunk| {
            for (i, session) in (first..).zip(chunk) {
                let (action, explored) = if kind == PhaseKind::Baseline {
                    (None, false)
                } else {
                    // In bounds: `session.profile`/`session.row` are
                    // assigned from `profiles` positions at build.
                    let decision = decided[session.profile].decisions[session.row];
                    (Some(decision.action), decision.explored)
                };
                let error = trained.and_then(|(shard, e)| (shard == i).then_some(e));
                let system_tick =
                    session
                        .system
                        .finish_tick(kind, &session.measurement, action, explored, error);
                session.series.push(system_tick.throughput_mbps);
                // In bounds: one objective gauge per cluster.
                objectives[i].set(system_tick.throughput_mbps);
            }
        });
        *cluster_ticks += num_clusters as u64;
        *tick += 1;

        // The window advances on every tick, so its rate never spans ticks
        // it did not see.
        telemetry.finish_tick(num_clusters);
        if recording {
            telemetry.tick_total.record_duration(tick_started.elapsed());
            // Fleet-wide aggregates of the member daemons' ingest health —
            // a handful of relaxed loads per tick.
            telemetry.reports_rejected.store(reports_rejected(sessions));
            telemetry.implausible_ticks.store(
                sessions
                    .iter()
                    .map(|s| s.system.daemon_stats().implausible_ticks_rejected)
                    .sum(),
            );
        }
    }

    /// Runs a fleet plan to completion: every phase advances all clusters in
    /// lockstep, and every cluster contributes one
    /// [`capes::ExperimentReport`]-shaped aggregate to the returned
    /// [`FleetReport`]. Each member opens and closes its phases with
    /// [`CapesSystem::begin_phase`](capes::CapesSystem::begin_phase) and [`CapesSystem::end_phase`](capes::CapesSystem::end_phase), the
    /// protocol a standalone [`capes::Experiment`] runs. The plan's
    /// experience-sharing table is applied to the profiles first: profiles
    /// the plan does not list are reset to
    /// [`ExperienceSharing::Disabled`] (a plan fully describes the sharing
    /// configuration of its run — state set through
    /// [`FleetDaemon::set_profile_sharing`] only outlives externally-driven
    /// [`FleetDaemon::tick_all`] loops, never a `run`).
    pub fn run(&mut self, plan: &FleetPlan) -> FleetReport {
        self.profile_sharing
            .iter_mut()
            .for_each(|mode| *mode = ExperienceSharing::Disabled);
        for &ProfileSharing { profile, mode } in &plan.sharing {
            self.set_profile_sharing(profile, mode);
        }
        let started = Instant::now();
        let ticks_before = self.cluster_ticks;
        let mut per_cluster: Vec<Vec<SessionResult>> =
            (0..self.sessions.len()).map(|_| Vec::new()).collect();
        for phase in &plan.phases {
            let kind = phase.kind();
            for session in &mut self.sessions {
                session.errors_before = session.system.begin_phase(kind);
                session.series.clear();
            }
            for _ in 0..phase.ticks() {
                self.tick_all(kind);
            }
            for (session, results) in self.sessions.iter_mut().zip(&mut per_cluster) {
                let series = std::mem::take(&mut session.series);
                results.push(
                    session
                        .system
                        .end_phase(phase, series, session.errors_before),
                );
            }
        }
        let cluster_ticks = self.cluster_ticks - ticks_before;
        self.report(per_cluster, cluster_ticks, started.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::tests::quick_hp;
    use crate::scenario::ScenarioSpec;
    use crate::Fleet;
    use capes::Phase;
    use capes_simstore::Workload;
    use serde::{map_get, Serialize, Value};

    #[test]
    fn fleet_run_produces_one_report_per_cluster() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(11)
            .scenarios([
                ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
            ])
            .build()
            .unwrap();
        let plan = FleetPlan::new()
            .phase(Phase::Baseline { ticks: 10 })
            .phase(Phase::Train { ticks: 30 })
            .phase(Phase::Tuned {
                ticks: 10,
                label: "tuned".into(),
            });
        let report = daemon.run(&plan);
        assert_eq!(report.clusters.len(), 2);
        assert_eq!(report.cluster_ticks, 2 * 50);
        assert!(report.cluster_ticks_per_sec > 0.0);
        for cluster in &report.clusters {
            assert_eq!(cluster.report.sessions.len(), 3);
            assert_eq!(cluster.report.sessions[0].throughput_series.len(), 10);
            assert_eq!(cluster.report.sessions[1].throughput_series.len(), 30);
            assert!(cluster.report.baseline().is_some());
        }
        assert!(report.clusters.iter().any(|c| c.name == "w"));
        assert!(report.summary().contains("cluster-ticks"));
        // Training happened: the shared agent stepped, and prediction errors
        // were recorded against round-robin shards.
        assert!(daemon.agent_for(0).training_steps() > 0);
        // The printed report parses back to the in-memory clusters.
        let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        let fields = json.as_map().unwrap();
        assert_eq!(
            map_get(fields, "clusters"),
            Some(&report.clusters.to_value())
        );
        assert_eq!(map_get(fields, "cluster_ticks"), Some(&Value::U64(2 * 50)));
    }

    #[test]
    fn one_member_profile_sharing_is_identical_to_disabled() {
        // A profile of one cluster has a single-stripe set; enabling sharing
        // must consume the RNG identically to the disabled path, so the runs
        // are bit-identical.
        let build = || {
            Fleet::builder()
                .hyperparams(quick_hp())
                .seed(13)
                .scenarios([ScenarioSpec::new("solo", Workload::random_rw(0.1)).clients(2)])
                .build()
                .unwrap()
        };
        let plan = |sharing: Option<ExperienceSharing>| {
            let mut plan = FleetPlan::new()
                .phase(Phase::Baseline { ticks: 10 })
                .phase(Phase::Train { ticks: 40 })
                .phase(Phase::Tuned {
                    ticks: 10,
                    label: "tuned".into(),
                });
            if let Some(mode) = sharing {
                plan = plan.share(0, mode);
            }
            plan
        };
        let disabled = build().run(&plan(None));
        let uniform = build().run(&plan(Some(ExperienceSharing::Uniform)));
        assert_eq!(
            disabled.clusters[0].report.to_json(),
            uniform.clusters[0].report.to_json(),
            "single-member sharing must be bit-identical to disabled"
        );
    }

    #[test]
    fn shared_profile_trains_across_member_stripes() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(17)
            .scenarios([
                ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
                ScenarioSpec::new("f", Workload::fileserver()).clients(2),
            ])
            .build()
            .unwrap();
        assert_eq!(daemon.num_profiles(), 1, "equal geometry shares a profile");
        assert_eq!(daemon.profile_members(0), &[0, 1, 2]);
        assert_eq!(daemon.profile_sharing(0), ExperienceSharing::Disabled);
        let report = daemon.run(
            &FleetPlan::new()
                .phase(Phase::Baseline { ticks: 8 })
                .phase(Phase::Train { ticks: 40 })
                .phase(Phase::Tuned {
                    ticks: 8,
                    label: "tuned".into(),
                })
                .share(
                    0,
                    ExperienceSharing::SelfBiased {
                        own: 2.0,
                        peers: 1.0,
                    },
                ),
        );
        assert!(matches!(
            daemon.profile_sharing(0),
            ExperienceSharing::SelfBiased { .. }
        ));
        assert!(daemon.agent_for(0).training_steps() > 0);
        // Arena occupancy is reported per stripe, in cluster order.
        assert_eq!(report.arena.len(), 3);
        for (occ, name) in report.arena.iter().zip(["w", "r", "f"]) {
            assert_eq!(occ.cluster, name);
            assert_eq!(occ.occupied_ticks, 56, "every tick is retained");
            assert_eq!(occ.evicted_ticks, 0);
            assert!(occ.total_inserted >= 2 * 56);
        }
        assert!(report.summary().contains("arena: 3 stripes"));
        // The printed report carries the arena stats.
        let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        assert_eq!(
            map_get(json.as_map().unwrap(), "arena"),
            Some(&report.arena.to_value())
        );
    }

    #[test]
    fn run_resets_sharing_for_profiles_the_plan_does_not_list() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(29)
            .scenarios([
                ScenarioSpec::new("a", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("b", Workload::random_rw(0.9)).clients(2),
            ])
            .build()
            .unwrap();
        let shared_plan = FleetPlan::new()
            .phase(Phase::Train { ticks: 5 })
            .share(0, ExperienceSharing::Uniform);
        daemon.run(&shared_plan);
        assert_eq!(daemon.profile_sharing(0), ExperienceSharing::Uniform);
        // A later plan without a sharing table runs fully disabled again.
        daemon.run(&FleetPlan::new().phase(Phase::Train { ticks: 5 }));
        assert_eq!(daemon.profile_sharing(0), ExperienceSharing::Disabled);
    }
}
