//! The simulated cluster: ties the disk, network, server and client models
//! together and advances them one second at a time.

use crate::config::{
    ClusterConfig, PiMode, DISK_SEQ_READ_MBPS, DISK_SEQ_WRITE_MBPS, INTERFERENCE_PROBABILITY,
    NETWORK_PER_CLIENT_MBPS, NOISE_LEVEL, SERVER_CONGESTION_KNEE, STRIPE_SIZE_MB, V1_MODEL_SLOTS,
};
use crate::indicators::{self, pis_per_client};
use crate::osc::OscState;
use crate::params::TunableParams;
use crate::server::{
    metadata_overhead_factor, read_congestion_efficiency, write_congestion_efficiency, ServerState,
};
use crate::workload::{Demand, Workload};
use crate::{disk, network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nominal per-request service latency (seconds) used to estimate how many
/// RPCs a client keeps outstanding per OSC when the system is *not*
/// saturated (Little's law: outstanding ≈ issue rate × latency).
const NOMINAL_SERVICE_S: f64 = 0.08;

/// Typical random-read efficiency used only for the fair-share saturation
/// estimate below (not for serving traffic).
const TYPICAL_READ_EFF: f64 = 0.55;

/// Typical random-write efficiency used only for the fair-share saturation
/// estimate below.
const TYPICAL_WRITE_EFF: f64 = 0.80;

/// Aggregate results of one simulated second.
#[derive(Debug, Clone, PartialEq)]
pub struct TickStats {
    /// The tick these statistics describe.
    pub tick: u64,
    /// Aggregate read throughput over all clients, MB/s.
    pub aggregate_read_mbps: f64,
    /// Aggregate write throughput over all clients, MB/s.
    pub aggregate_write_mbps: f64,
    /// Per-client total throughput, MB/s.
    pub per_client_mbps: Vec<f64>,
    /// Mean client-observed request latency, ms.
    pub mean_latency_ms: f64,
    /// Total outstanding RPCs across all servers during the tick.
    pub total_queue_depth: f64,
    /// Total offered (demanded) load this tick, MB/s.
    pub offered_mbps: f64,
}

impl TickStats {
    /// Aggregate read + write throughput, MB/s — the paper's single-objective
    /// reward.
    pub fn aggregate_throughput(&self) -> f64 {
        self.aggregate_read_mbps + self.aggregate_write_mbps
    }
}

/// Per-client dynamic state.
#[derive(Debug, Clone, PartialEq)]
struct ClientState {
    oscs: Vec<OscState>,
    read_mbps: f64,
    write_mbps: f64,
    active_threads: f64,
}

/// The simulated Lustre-like cluster.
///
/// One call to [`Cluster::step`] advances simulated time by one second and
/// returns the tick's aggregate statistics. Tunable parameters can be changed
/// between ticks with [`Cluster::set_params`], and the workload can be swapped
/// with [`Cluster::set_workload`] to model scheduled workload changes.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    params: TunableParams,
    workload: Workload,
    clients: Vec<ClientState>,
    servers: Vec<ServerState>,
    tick: u64,
    rng: StdRng,
    /// Simulated minutes since the epoch at tick 0 (drives the date/time PIs).
    epoch_minutes: u64,
    /// Session-to-session perturbation in `[0, 1]`: models file fragmentation,
    /// on-disk layout changes and free-space differences between the
    /// overfitting-check sessions of Figure 4.
    fragmentation: f64,
    last_stats: Option<TickStats>,
}

impl Cluster {
    /// Creates a cluster with the given configuration, workload and RNG seed,
    /// using default (untuned) parameter values.
    pub fn new(config: ClusterConfig, workload: Workload, seed: u64) -> Self {
        config.validate();
        let params = TunableParams::defaults();
        let clients = (0..config.num_clients)
            .map(|_| ClientState {
                oscs: (0..config.oscs_per_client())
                    .map(|_| OscState::new(params.congestion_window))
                    .collect(),
                read_mbps: 0.0,
                write_mbps: 0.0,
                active_threads: 0.0,
            })
            .collect();
        let servers = (0..config.num_servers)
            .map(|_| ServerState::new())
            .collect();
        Cluster {
            config,
            params,
            workload,
            clients,
            servers,
            tick: 0,
            rng: StdRng::seed_from_u64(seed),
            epoch_minutes: 9 * 60, // simulated sessions start at 09:00 on a Monday
            fragmentation: 0.0,
            last_stats: None,
        }
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Currently-configured tunable parameters.
    pub fn params(&self) -> TunableParams {
        self.params
    }

    /// Applies new parameter values (takes effect from the next tick). Values
    /// are clamped into their valid ranges.
    pub fn set_params(&mut self, params: TunableParams) {
        self.params = TunableParams::from_vec(&[params.congestion_window, params.io_rate_limit]);
    }

    /// Replaces the running workload (e.g. a scheduled workload change, which
    /// in the paper also bumps the exploration rate back up).
    pub fn set_workload(&mut self, workload: Workload) {
        self.workload = workload;
    }

    /// The running workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Sets the session perturbation used by the Figure-4 overfitting check:
    /// `fragmentation` in `[0, 1]` degrades disk efficiency by up to ~8 % and
    /// shifts the simulated clock, modelling the "numerous unrelated file
    /// operations" between sessions.
    pub fn perturb_session(&mut self, fragmentation: f64, clock_offset_minutes: u64) {
        assert!((0.0..=1.0).contains(&fragmentation));
        self.fragmentation = fragmentation;
        self.epoch_minutes = self.epoch_minutes.wrapping_add(clock_offset_minutes);
    }

    /// Number of performance indicators each client reports per tick.
    pub fn pis_per_client(&self) -> usize {
        pis_per_client(self.config.pi_mode, self.config.oscs_per_client())
    }

    /// Advances the simulation by one second and returns the tick statistics.
    pub fn step(&mut self) -> TickStats {
        let n_clients = self.config.num_clients as f64;
        let n_servers = self.config.num_servers as f64;
        let w = self.params.congestion_window;
        let rate_limit = self.params.io_rate_limit;

        // 1. External interference (the paper's departmental network scans).
        let interference_mbps = if self.rng.gen::<f64>() < INTERFERENCE_PROBABILITY {
            self.rng.gen_range(30.0..120.0)
        } else {
            0.0
        };

        // 2. Per-client demand and client-side throttling.
        let demands: Vec<Demand> = (0..self.config.num_clients)
            .map(|_| self.workload.demand(&mut self.rng))
            .collect();
        let mut issued_read = vec![0.0f64; self.config.num_clients];
        let mut issued_write = vec![0.0f64; self.config.num_clients];
        let mut outstanding_per_osc = vec![0.0f64; self.config.num_clients];
        for (i, d) in demands.iter().enumerate() {
            let total_mb = d.read_mb + d.write_mb;
            let demand_reqs = total_mb / STRIPE_SIZE_MB;
            let issued_reqs = demand_reqs.min(rate_limit);
            let scale = if demand_reqs > 0.0 {
                issued_reqs / demand_reqs
            } else {
                0.0
            };
            issued_read[i] = d.read_mb * scale;
            issued_write[i] = d.write_mb * scale;
            let issued_mb = issued_read[i] + issued_write[i];
            let reqs_per_osc = issued_reqs / n_servers;

            // How saturated is this client? Below its fair share of the
            // backend, the number of outstanding RPCs follows Little's law;
            // once its offered load exceeds the share the backend can give
            // it, the send queue backs up and the congestion window is the
            // only thing bounding the outstanding count.
            let read_frac = if issued_mb > 0.0 {
                issued_read[i] / issued_mb
            } else {
                0.0
            };
            let fair_share_mbps = (read_frac * DISK_SEQ_READ_MBPS * TYPICAL_READ_EFF
                + (1.0 - read_frac) * DISK_SEQ_WRITE_MBPS * TYPICAL_WRITE_EFF)
                * n_servers
                / n_clients;
            let saturation = (((issued_mb / fair_share_mbps.max(1.0)) - 0.8) / 0.4).clamp(0.0, 1.0);
            let little = reqs_per_osc * NOMINAL_SERVICE_S;
            outstanding_per_osc[i] = (little * (1.0 - saturation) + w * saturation).min(w);
        }

        // 3. Server-side queue depth and capacities. Striping spreads every
        //    client's traffic uniformly over the servers, so each server sees
        //    the same queue depth and 1/num_servers of the aggregate demand.
        let qd_per_server: f64 = outstanding_per_osc.iter().sum();
        let total_in_flight_mb = qd_per_server * n_servers * STRIPE_SIZE_MB;

        let total_issued_read: f64 = issued_read.iter().sum();
        let total_issued_write: f64 = issued_write.iter().sum();
        let read_seq = mean_weighted(&demands, |d| d.read_seq_fraction, |d| d.read_mb);
        let write_seq = mean_weighted(&demands, |d| d.write_seq_fraction, |d| d.write_mb);
        let metadata_per_server: f64 =
            demands.iter().map(|d| d.metadata_ops).sum::<f64>() / n_servers;

        let frag_factor = 1.0 - 0.08 * self.fragmentation;
        let meta_factor = metadata_overhead_factor(metadata_per_server);

        let read_cap_per_server = disk::read_capacity(qd_per_server, read_seq)
            * read_congestion_efficiency(qd_per_server)
            * meta_factor
            * frag_factor;
        let write_cap_per_server = disk::write_capacity(qd_per_server, write_seq)
            * write_congestion_efficiency(qd_per_server)
            * meta_factor
            * frag_factor;

        let read_demand_per_server = total_issued_read / n_servers;
        let write_demand_per_server = total_issued_write / n_servers;
        let (read_served_per_server, write_served_per_server) = serve_mixed(
            read_demand_per_server,
            write_demand_per_server,
            read_cap_per_server,
            write_cap_per_server,
        );

        let mut total_read = read_served_per_server * n_servers;
        let mut total_write = write_served_per_server * n_servers;

        // 4. Network constraints: aggregate cap with congestion collapse, then
        //    per-client link caps (applied proportionally below).
        let net_cap = network::usable_aggregate(total_in_flight_mb, interference_mbps);
        let total_served = total_read + total_write;
        if total_served > net_cap {
            let scale = net_cap / total_served;
            total_read *= scale;
            total_write *= scale;
        }

        // 5. Distribute to clients proportionally to their issued demand and
        //    apply per-client link caps and measurement noise.
        let issued_total: f64 = total_issued_read + total_issued_write;
        let mut per_client = vec![0.0f64; self.config.num_clients];
        let mut agg_read = 0.0;
        let mut agg_write = 0.0;
        for i in 0..self.config.num_clients {
            let share = if issued_total > 0.0 {
                (issued_read[i] + issued_write[i]) / issued_total
            } else {
                0.0
            };
            let mut client_read = total_read * share;
            let mut client_write = total_write * share;
            let client_total = client_read + client_write;
            if client_total > NETWORK_PER_CLIENT_MBPS {
                let s = NETWORK_PER_CLIENT_MBPS / client_total;
                client_read *= s;
                client_write *= s;
            }
            let noise = 1.0 + self.rng.gen_range(-NOISE_LEVEL..=NOISE_LEVEL);
            client_read *= noise;
            client_write *= noise;
            per_client[i] = client_read + client_write;
            agg_read += client_read;
            agg_write += client_write;
            self.clients[i].read_mbps = client_read;
            self.clients[i].write_mbps = client_write;
            self.clients[i].active_threads = demands[i].active_threads;
        }

        // 6. Latency, process time and per-OSC indicator updates.
        let latency_ms = network::latency_ms(total_in_flight_mb)
            + disk::base_service_time_ms(total_write > total_read);
        let overload = ((qd_per_server - SERVER_CONGESTION_KNEE) / SERVER_CONGESTION_KNEE).max(0.0);
        let process_time_ms =
            disk::base_service_time_ms(true) * (1.0 + overload) + latency_ms * 0.25;

        for server in &mut self.servers {
            server.record_tick(
                qd_per_server,
                process_time_ms,
                read_served_per_server,
                write_served_per_server,
            );
        }
        let pt_ratio = self.servers[0].process_time_ratio();

        for (i, client) in self.clients.iter_mut().enumerate() {
            let oscs = self.config.oscs_per_client() as f64;
            let per_osc_read = client.read_mbps / oscs;
            let per_osc_write = client.write_mbps / oscs;
            // Dirty bytes: the backlog the rate limiter / window is holding back.
            let backlog_mb = (issued_write[i] - client.write_mbps).max(0.0) * NOMINAL_SERVICE_S
                / oscs
                + per_osc_write * 0.05;
            let served_reqs_per_osc = (per_osc_read + per_osc_write) / STRIPE_SIZE_MB;
            let issued_reqs_per_osc = (issued_read[i] + issued_write[i]) / STRIPE_SIZE_MB / oscs;
            let reply_gap_ms = if served_reqs_per_osc > 0.0 {
                1000.0 / served_reqs_per_osc
            } else {
                1000.0
            };
            let send_gap_ms = if issued_reqs_per_osc > 0.0 {
                1000.0 / issued_reqs_per_osc
            } else {
                1000.0
            };
            let ping =
                network::latency_ms(total_in_flight_mb) * (1.0 + self.rng.gen_range(-0.05..0.05));
            for osc in &mut client.oscs {
                osc.record_tick(
                    w,
                    per_osc_read,
                    per_osc_write,
                    backlog_mb,
                    ping,
                    reply_gap_ms,
                    send_gap_ms,
                    pt_ratio,
                );
            }
        }

        let offered: f64 = demands.iter().map(|d| d.read_mb + d.write_mb).sum();
        let stats = TickStats {
            tick: self.tick,
            aggregate_read_mbps: agg_read,
            aggregate_write_mbps: agg_write,
            per_client_mbps: per_client,
            mean_latency_ms: latency_ms,
            total_queue_depth: qd_per_server * n_servers,
            offered_mbps: offered,
        };
        self.tick += 1;
        self.last_stats = Some(stats.clone());
        stats
    }

    /// The raw (un-normalised) performance-indicator vector of `client` for
    /// the most recent tick. Layout and width follow the configured
    /// [`PiMode`]; see [`crate::indicators`].
    ///
    /// # Panics
    /// Panics if `client` is out of range or no tick has been simulated yet.
    pub fn performance_indicators(&self, client: usize) -> Vec<f64> {
        assert!(
            client < self.config.num_clients,
            "client index out of range"
        );
        assert!(
            self.last_stats.is_some(),
            "no tick has been simulated yet; call step() first"
        );
        let c = &self.clients[client];
        let minutes = self.epoch_minutes + self.tick / 60;
        let hour = (minutes / 60) % 24;
        let minute = minutes % 60;
        let day_of_week = (minutes / (60 * 24)) % 7;
        let month = ((minutes / (60 * 24 * 30)) % 12) + 1;

        match self.config.pi_mode {
            PiMode::Full => {
                let mut pis = Vec::with_capacity(self.pis_per_client());
                for osc in &c.oscs {
                    pis.extend_from_slice(&osc.performance_indicators());
                }
                pis.extend_from_slice(&[
                    month as f64,
                    day_of_week as f64,
                    hour as f64,
                    minute as f64,
                    c.active_threads,
                    self.params.io_rate_limit,
                    c.read_mbps,
                    c.write_mbps,
                ]);
                pis
            }
            PiMode::Compact => {
                // Aggregate the per-OSC indicators: sums for traffic volumes,
                // means for latencies and ratios.
                let mut agg = [0.0f64; 9];
                let n = c.oscs.len() as f64;
                for osc in &c.oscs {
                    let p = osc.performance_indicators();
                    for (a, v) in agg.iter_mut().zip(p.iter()) {
                        *a += v;
                    }
                }
                // Indices 0 (window), 5..=8 (latency/EWMAs/ratio) are means.
                for idx in [0usize, 5, 6, 7, 8] {
                    agg[idx] /= n;
                }
                let mut pis = agg.to_vec();
                pis.extend_from_slice(&[self.params.io_rate_limit, c.active_threads, hour as f64]);
                pis
            }
        }
    }

    /// Normalised performance indicators of `client` (raw values divided by
    /// the fixed scales of [`indicators::pi_scales`]), ready for the DNN.
    pub fn normalized_indicators(&self, client: usize) -> Vec<f64> {
        let mut pis = self.performance_indicators(client);
        indicators::normalize_pis(&mut pis, self.config.pi_mode, self.config.oscs_per_client());
        pis
    }
}

impl capes_persist::Persist for TickStats {
    const MIN_SIZE: usize = 8 + 2 * 8 + 8 + 3 * 8; // tick + 2 f64 + Vec len + 3 f64

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_u64(self.tick);
        w.put_f64(self.aggregate_read_mbps);
        w.put_f64(self.aggregate_write_mbps);
        self.per_client_mbps.encode(w);
        w.put_f64(self.mean_latency_ms);
        w.put_f64(self.total_queue_depth);
        w.put_f64(self.offered_mbps);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(TickStats {
            tick: r.get_u64()?,
            aggregate_read_mbps: r.get_f64()?,
            aggregate_write_mbps: r.get_f64()?,
            per_client_mbps: Vec::<f64>::decode(r)?,
            mean_latency_ms: r.get_f64()?,
            total_queue_depth: r.get_f64()?,
            offered_mbps: r.get_f64()?,
        })
    }
}

impl capes_persist::Persist for ClientState {
    const MIN_SIZE: usize = 8 + 3 * 8; // OSC Vec len + 3 f64

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.oscs.encode(w);
        w.put_f64(self.read_mbps);
        w.put_f64(self.write_mbps);
        w.put_f64(self.active_threads);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(ClientState {
            oscs: Vec::<OscState>::decode(r)?,
            read_mbps: r.get_f64()?,
            write_mbps: r.get_f64()?,
            active_threads: r.get_f64()?,
        })
    }
}

impl capes_persist::Persist for Cluster {
    const MIN_SIZE: usize = ClusterConfig::MIN_SIZE;

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.config.encode(w);
        for value in V1_MODEL_SLOTS {
            w.put_f64(value);
        }
        self.params.encode(w);
        self.workload.encode(w);
        self.clients.encode(w);
        self.servers.encode(w);
        w.put_u64(self.tick);
        self.rng.state().encode(w);
        w.put_u64(self.epoch_minutes);
        w.put_f64(self.fragmentation);
        self.last_stats.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        use capes_persist::PersistError::BadValue;
        let config = ClusterConfig::decode(r)?;
        for value in V1_MODEL_SLOTS {
            r.expect_f64(value, "disk or network slot is not the testbed constant")?;
        }
        let params = TunableParams::decode(r)?;
        let workload = Workload::decode(r)?;
        let clients = Vec::<ClientState>::decode(r)?;
        let servers = Vec::<ServerState>::decode(r)?;
        let tick = r.get_u64()?;
        let rng_state = <[u64; 4]>::decode(r)?;
        let epoch_minutes = r.get_u64()?;
        let fragmentation = r.get_f64()?;
        let last_stats = Option::<TickStats>::decode(r)?;
        // Geometry must agree with the configuration before any of it is used.
        if clients.len() != config.num_clients {
            return Err(BadValue {
                what: "client count disagrees with the cluster configuration",
            });
        }
        if clients
            .iter()
            .any(|c| c.oscs.len() != config.oscs_per_client())
        {
            return Err(BadValue {
                what: "OSC count disagrees with the cluster configuration",
            });
        }
        if servers.len() != config.num_servers {
            return Err(BadValue {
                what: "server count disagrees with the cluster configuration",
            });
        }
        if rng_state == [0, 0, 0, 0] {
            return Err(BadValue {
                what: "all-zero cluster RNG state",
            });
        }
        if !(0.0..=1.0).contains(&fragmentation) {
            return Err(BadValue {
                what: "fragmentation outside [0, 1]",
            });
        }
        Ok(Cluster {
            config,
            params,
            workload,
            clients,
            servers,
            tick,
            rng: StdRng::from_state(rng_state),
            epoch_minutes,
            fragmentation,
            last_stats,
        })
    }
}

/// Allocates shared disk time between reads and writes. Serving `x` MB of a
/// class whose capacity is `cap` MB/s costs `x / cap` of the one-second tick;
/// if the two classes together need more than one second, both are scaled
/// down proportionally (the disk scheduler time-shares fairly by bytes).
fn serve_mixed(read_demand: f64, write_demand: f64, read_cap: f64, write_cap: f64) -> (f64, f64) {
    let time_needed = safe_div(read_demand, read_cap) + safe_div(write_demand, write_cap);
    if time_needed <= 1.0 {
        return (read_demand, write_demand);
    }
    let k = 1.0 / time_needed;
    (read_demand * k, write_demand * k)
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean_weighted<F, W>(demands: &[Demand], value: F, weight: W) -> f64
where
    F: Fn(&Demand) -> f64,
    W: Fn(&Demand) -> f64,
{
    let total_weight: f64 = demands.iter().map(&weight).sum();
    if total_weight <= 0.0 {
        return 0.0;
    }
    demands.iter().map(|d| value(d) * weight(d)).sum::<f64>() / total_weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn cluster_with(workload: Workload, params: TunableParams, seed: u64) -> Cluster {
        let mut c = Cluster::new(ClusterConfig::default(), workload, seed);
        c.set_params(params);
        c
    }

    /// Mean aggregate throughput over `ticks` seconds after a short warm-up.
    fn mean_throughput(cluster: &mut Cluster, ticks: u64) -> f64 {
        for _ in 0..5 {
            cluster.step();
        }
        let total: f64 = (0..ticks)
            .map(|_| cluster.step().aggregate_throughput())
            .sum();
        total / ticks as f64
    }

    fn throughput_at(workload: Workload, window: f64, rate: f64, seed: u64) -> f64 {
        let params = TunableParams {
            congestion_window: window,
            io_rate_limit: rate,
        };
        let mut c = cluster_with(workload, params, seed);
        mean_throughput(&mut c, 60)
    }

    #[test]
    fn throughput_is_positive_and_bounded() {
        let mut c = cluster_with(Workload::random_rw(0.5), TunableParams::defaults(), 1);
        let stats = c.step();
        assert!(stats.aggregate_throughput() > 0.0);
        assert!(
            stats.aggregate_throughput() <= 500.0 * 1.1,
            "cannot exceed the network plus noise"
        );
        assert_eq!(stats.per_client_mbps.len(), 5);
        assert!(stats.offered_mbps > 0.0);
        assert!(stats.mean_latency_ms > 0.0);
    }

    #[test]
    fn served_never_exceeds_offered_by_more_than_noise() {
        let mut c = cluster_with(Workload::random_rw(0.2), TunableParams::defaults(), 2);
        for _ in 0..50 {
            let s = c.step();
            assert!(
                s.aggregate_throughput() <= s.offered_mbps * 1.10,
                "served {} offered {}",
                s.aggregate_throughput(),
                s.offered_mbps
            );
        }
    }

    #[test]
    fn default_window_is_suboptimal_for_write_heavy_workload() {
        // The headline property behind Figure 2: at saturation, a better
        // congestion-window setting beats the Lustre default by a wide margin
        // on the 1:9 read:write workload.
        let default_tp = throughput_at(Workload::random_rw(0.1), 8.0, 2000.0, 7);
        let mut best = 0.0f64;
        for window in [2.0, 4.0, 6.0, 12.0, 16.0, 24.0, 32.0] {
            best = best.max(throughput_at(Workload::random_rw(0.1), window, 2000.0, 7));
        }
        assert!(
            best > default_tp * 1.25,
            "tuning headroom too small: best {best:.1} vs default {default_tp:.1}"
        );
    }

    #[test]
    fn read_heavy_workload_is_much_less_sensitive_to_window() {
        let default_tp = throughput_at(Workload::random_rw(0.9), 8.0, 2000.0, 8);
        let mut best = 0.0f64;
        for window in [2.0, 4.0, 6.0, 12.0, 16.0, 24.0, 32.0] {
            best = best.max(throughput_at(Workload::random_rw(0.9), window, 2000.0, 8));
        }
        let gain = best / default_tp;
        assert!(
            gain < 1.15,
            "read-heavy workloads should see little window benefit, got {gain:.2}"
        );
    }

    #[test]
    fn extreme_window_causes_congestion_collapse() {
        let moderate = throughput_at(Workload::random_rw(0.1), 8.0, 2000.0, 9);
        let extreme = throughput_at(Workload::random_rw(0.1), 256.0, 2000.0, 9);
        assert!(
            extreme < moderate * 0.85,
            "a 256-deep window must collapse throughput: {extreme:.1} vs {moderate:.1}"
        );
    }

    #[test]
    fn severe_rate_limiting_hurts_throughput() {
        // With a well-chosen window, limiting every client to 50 requests per
        // second caps the aggregate at ~250 MB/s, well below what the backend
        // can deliver.
        let unlimited = throughput_at(Workload::sequential_write(), 4.0, 2000.0, 10);
        let strangled = throughput_at(Workload::sequential_write(), 4.0, 50.0, 10);
        assert!(
            strangled < unlimited * 0.8,
            "a 50 req/s limit should strangle sequential writes: {strangled:.1} vs {unlimited:.1}"
        );
    }

    #[test]
    fn moderate_rate_limiting_relieves_congestion() {
        // The ASCAR-style effect the paper's rate-limit knob exists for:
        // keeping clients slightly below their fair share avoids server
        // congestion and *raises* aggregate throughput at the default window.
        let congested = throughput_at(Workload::random_rw(0.1), 8.0, 2000.0, 13);
        let relieved = throughput_at(Workload::random_rw(0.1), 8.0, 60.0, 13);
        assert!(
            relieved > congested * 1.05,
            "a moderate rate limit should help: {relieved:.1} vs {congested:.1}"
        );
    }

    #[test]
    fn sequential_write_is_faster_than_random_write() {
        let random = throughput_at(Workload::random_rw(0.0), 8.0, 2000.0, 11);
        let sequential = throughput_at(Workload::sequential_write(), 8.0, 2000.0, 11);
        assert!(
            sequential > random,
            "sequential {sequential:.1} must beat random {random:.1}"
        );
    }

    #[test]
    fn interior_optimum_exists_for_write_heavy_workload() {
        // Throughput must rise from the extreme-low window, peak, and fall
        // again at the extreme-high window.
        let low = throughput_at(Workload::random_rw(0.1), 1.0, 2000.0, 12);
        let peak = (2..=16)
            .map(|w| throughput_at(Workload::random_rw(0.1), w as f64 * 2.0, 2000.0, 12))
            .fold(0.0f64, f64::max);
        let high = throughput_at(Workload::random_rw(0.1), 200.0, 2000.0, 12);
        assert!(
            peak > low,
            "peak {peak:.1} must beat the minimum window {low:.1}"
        );
        assert!(
            peak > high,
            "peak {peak:.1} must beat the maximum window {high:.1}"
        );
    }

    #[test]
    fn indicators_have_configured_width_and_are_finite() {
        for (mode, expected) in [(PiMode::Full, 44), (PiMode::Compact, 12)] {
            let config = ClusterConfig {
                pi_mode: mode,
                ..Default::default()
            };
            let mut c = Cluster::new(config, Workload::fileserver(), 3);
            c.step();
            for client in 0..5 {
                let pis = c.performance_indicators(client);
                assert_eq!(pis.len(), expected);
                assert!(pis.iter().all(|v| v.is_finite()));
                let norm = c.normalized_indicators(client);
                assert_eq!(norm.len(), expected);
                assert!(norm.iter().all(|v| v.is_finite()));
            }
            assert_eq!(c.pis_per_client(), expected);
        }
    }

    #[test]
    fn indicators_reflect_parameter_changes() {
        let mut c = cluster_with(Workload::random_rw(0.5), TunableParams::defaults(), 4);
        c.step();
        let before = c.performance_indicators(0)[0];
        assert_eq!(before, 8.0);
        c.set_params(TunableParams {
            congestion_window: 32.0,
            io_rate_limit: 500.0,
        });
        c.step();
        let pis = c.performance_indicators(0);
        assert_eq!(pis[0], 32.0, "window PI must track the parameter");
        assert_eq!(pis[9], 500.0, "rate-limit PI must track the parameter");
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = cluster_with(Workload::fileserver(), TunableParams::defaults(), 99);
        let mut b = cluster_with(Workload::fileserver(), TunableParams::defaults(), 99);
        for _ in 0..25 {
            assert_eq!(a.step(), b.step());
        }
        assert_eq!(a.performance_indicators(2), b.performance_indicators(2));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = cluster_with(Workload::fileserver(), TunableParams::defaults(), 1);
        let mut b = cluster_with(Workload::fileserver(), TunableParams::defaults(), 2);
        let sa: f64 = (0..10).map(|_| a.step().aggregate_throughput()).sum();
        let sb: f64 = (0..10).map(|_| b.step().aggregate_throughput()).sum();
        assert_ne!(sa, sb);
    }

    #[test]
    fn session_perturbation_changes_but_does_not_break_throughput() {
        let base = throughput_at(Workload::fileserver(), 8.0, 2000.0, 21);
        let mut c = cluster_with(Workload::fileserver(), TunableParams::defaults(), 21);
        c.perturb_session(1.0, 60 * 24 * 7);
        let perturbed = mean_throughput(&mut c, 60);
        assert!(
            perturbed > base * 0.7,
            "perturbation must not collapse the system"
        );
        assert!(
            perturbed < base * 1.05,
            "fragmentation should not speed things up"
        );
    }

    #[test]
    fn workload_change_shifts_throughput() {
        let mut c = cluster_with(Workload::random_rw(0.9), TunableParams::defaults(), 30);
        let read_heavy = mean_throughput(&mut c, 40);
        c.set_workload(Workload::sequential_write());
        let seq_write = mean_throughput(&mut c, 40);
        assert!(
            (seq_write - read_heavy).abs() > 10.0,
            "changing the workload must visibly change throughput"
        );
        assert_eq!(c.workload().kind().label(), "sequential write");
    }

    #[test]
    fn serve_mixed_respects_demand_and_capacity() {
        // Light load: everything is served.
        let (r0, w0) = serve_mixed(10.0, 20.0, 60.0, 80.0);
        assert_eq!((r0, w0), (10.0, 20.0));
        // Overload: both classes are scaled down and the disk time adds to 1s.
        let (r, w) = serve_mixed(100.0, 100.0, 60.0, 80.0);
        assert!(r < 100.0 && w < 100.0);
        assert!((r / 60.0 + w / 80.0 - 1.0).abs() < 1e-9);
        // A small read demand next to a huge write demand is squeezed
        // proportionally, never negative, and writes dominate the service.
        let (r2, w2) = serve_mixed(10.0, 500.0, 60.0, 80.0);
        assert!(r2 > 0.0 && r2 < 10.0);
        assert!(w2 > 50.0);
        let (r3, w3) = serve_mixed(0.0, 0.0, 60.0, 80.0);
        assert_eq!((r3, w3), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "no tick has been simulated")]
    fn indicators_before_first_tick_panic() {
        let c = Cluster::new(ClusterConfig::default(), Workload::fileserver(), 1);
        let _ = c.performance_indicators(0);
    }

    #[test]
    fn persist_round_trip_resumes_bit_identically() {
        use capes_persist::{Persist, Reader, Writer};

        let mut original = cluster_with(Workload::fileserver(), TunableParams::defaults(), 77);
        original.perturb_session(0.3, 45);
        for _ in 0..25 {
            original.step();
        }

        let mut w = Writer::new();
        original.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let mut restored = Cluster::decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");

        // The restored cluster must produce the exact same future: noise,
        // interference and demand all come from the persisted RNG state.
        for _ in 0..25 {
            assert_eq!(original.step(), restored.step());
        }
        assert_eq!(
            original.performance_indicators(1),
            restored.performance_indicators(1)
        );
    }

    #[test]
    fn persist_rejects_hardware_slots_other_than_the_testbed_constants() {
        use capes_persist::{Persist, PersistError, Reader, Writer};

        // Fresh, so no simulated value can collide with a slot's constant.
        let c = Cluster::new(ClusterConfig::default(), Workload::random_rw(0.1), 3);
        let mut w = Writer::new();
        c.encode(&mut w);
        let valid = w.into_vec();
        let slots_holding = |value: f64| -> Vec<usize> {
            (0..=valid.len() - 8)
                .filter(|&at| valid[at..at + 8] == value.to_le_bytes())
                .collect()
        };
        // The write cache: the config's slot, then one per OSC.
        let cache = slots_holding(32.0);
        assert_eq!(cache.len(), 1 + 5 * 4);
        // The seek time: the config's slot, then the former disk model's.
        let seek = slots_holding(8.5);
        assert_eq!(seek.len(), 2);
        assert!(Cluster::decode(&mut Reader::new(&valid)).is_ok());

        for bad in [-1.0, f64::NAN] {
            let patched = |slots: &[usize]| {
                let mut bytes = valid.clone();
                for &at in slots {
                    bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                }
                bytes
            };
            // Patched in every OSC at once, a cache size used to decode, and
            // the first step then panicked clamping into [0, -1] or [0, NaN].
            for (case, bytes) in [
                ("every OSC cache slot", patched(&cache[1..])),
                ("the last OSC cache slot", patched(&cache[20..])),
                ("the config cache slot", patched(&cache[..1])),
                ("the disk seek slot", patched(&seek[1..])),
            ] {
                assert!(
                    matches!(
                        Cluster::decode(&mut Reader::new(&bytes)),
                        Err(PersistError::BadValue { .. })
                    ),
                    "{case} holding {bad} must not decode"
                );
            }
        }
    }

    #[test]
    fn persist_rejects_geometry_that_disagrees_with_the_config() {
        use capes_persist::{Persist, Reader, Writer};

        let mut c = cluster_with(Workload::random_rw(0.5), TunableParams::defaults(), 5);
        let _ = c.step();
        // Drop a client behind the config's back, then snapshot.
        c.clients.pop();
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_vec();
        let err = Cluster::decode(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            format!("{err}").contains("client count"),
            "unexpected error: {err}"
        );
    }
}
