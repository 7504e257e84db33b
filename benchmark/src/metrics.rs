//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a test holds them equal).

use crate::stats::Better::{self, Higher, Lower};

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts repeat exactly on one (workload, seed); timings never do.
    pub count: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        count: true,
    }
}

/// What a user of the fleet daemon sees; same names on every workload.
pub const END_TO_END: &[Def] = &[
    timing("setup_s", "s", Lower),
    timing("train_cluster_ticks_per_s", "1/s", Higher),
    timing("tuned_cluster_ticks_per_s", "1/s", Higher),
    timing("train_tick_p50_ms", "ms", Lower),
    timing("tuned_tick_p50_ms", "ms", Lower),
    count("checkpoint_mb", "MB", Lower),
    count("wire_bytes_per_cluster_tick", "B", Lower),
    timing("peak_rss_mb", "MB", Lower),
];

/// Single-layer numbers from the traced run; no bounds.
pub const PER_LAYER: &[Def] = &[
    timing("fleet.tick.gather_us", "us", Lower),
    timing("fleet.tick.decide_us", "us", Lower),
    timing("fleet.tick.scatter_us", "us", Lower),
    timing("fleet.tick.train_us", "us", Lower),
    timing("fleet.tick.modelled_ms", "ms", Lower),
    timing("fleet.tick.unattributed_pct", "%", Lower),
    timing("fleet.train_tick_p99_ms", "ms", Lower),
    timing("fleet.tuned_tick_p99_ms", "ms", Lower),
    count("fleet.tick_samples", "count", Higher),
    timing("fleet.train_ticks_per_s_mean", "1/s", Higher),
    timing("fleet.tuned_ticks_per_s_mean", "1/s", Higher),
    // Demoted from end-to-end: their A/A spread exceeds a tenth of the
    // median on this host (see README, "Demoted metrics").
    timing("fleet.checkpoint_ms", "ms", Lower),
    timing("fleet.restore_ms", "ms", Lower),
    timing("sched.dispatch_us", "us", Lower),
    timing("sched.worker_speedup", "x", Higher),
    timing("net.uplink_tick_us", "us", Lower),
    timing("net.action_fanout_us", "us", Lower),
    timing("net.frame_reassemble_ns", "ns", Lower),
    count("net.frames_in_per_tick", "count", Lower),
    count("net.bytes_in_per_tick", "B", Lower),
    count("net.bytes_out_per_tick", "B", Lower),
    count("net.decode_errors", "count", Lower),
    count("net.shed_backpressure", "count", Lower),
    timing("agents.encode_report_ns", "ns", Lower),
    timing("agents.decode_report_ns", "ns", Lower),
    timing("agents.ingest_message_us", "us", Lower),
    timing("capes.measure_tick_us", "us", Lower),
    timing("capes.apply_action_us", "us", Lower),
    timing("capes.finish_tick_us", "us", Lower),
    timing("simstore.cluster_step_us", "us", Lower),
    timing("replay.insert_tick_us", "us", Lower),
    timing("replay.sample_own_us", "us", Lower),
    timing("replay.sample_weighted_us", "us", Lower),
    count("replay.occupied_ticks", "count", Lower),
    timing("drl.decide_batch_us", "us", Lower),
    timing("drl.train_step_ms", "ms", Lower),
    count("drl.train_steps", "count", Higher),
    timing("nn.forward_us", "us", Lower),
    timing("nn.backward_us", "us", Lower),
    timing("nn.adam_step_us", "us", Lower),
    timing("tensor.gemm_train_us", "us", Lower),
    timing("tensor.gemm_decide_us", "us", Lower),
    timing("tensor.gemm_gflops", "GFLOP/s", Higher),
    timing("persist.encode_ms", "ms", Lower),
    timing("persist.crc32_gbps", "GB/s", Higher),
    timing("persist.write_fsync_ms", "ms", Lower),
    timing("persist.read_verify_ms", "ms", Lower),
    timing("persist.record_append_ns", "ns", Lower),
    timing("persist.log_replay_frames_per_s", "1/s", Higher),
    count("persist.fsyncs_per_checkpoint", "count", Lower),
    count("persist.auto_checkpoint_failures", "count", Lower),
    timing("telemetry.overhead_ratio", "x", Lower),
    timing("telemetry.span_record_ns", "ns", Lower),
    timing("host.steal_s", "s", Lower),
    timing("host.round_spread_pct", "%", Lower),
    timing("host.slow_round_share", "share", Lower),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(d.unit.chars().all(ok), "{} unit {}", d.name, d.unit);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(find("setup_s").is_some_and(|d| d.unit == "s" && d.better == Lower));
    }

    /// `BENCHMARK.json` at the repository root promises exactly what the
    /// code prints: same metrics, units and directions, same workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        use serde::{map_get, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let root = json.as_map().expect("an object");
        let text_of = |entry: &Value, key: &str| {
            let value = map_get(entry.as_map().unwrap(), key);
            value.and_then(Value::as_str).unwrap().to_string()
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = map_get(root, key).and_then(Value::as_seq).unwrap();
            let listed: Vec<_> = listed
                .iter()
                .map(|e| (text_of(e, "name"), text_of(e, "unit"), text_of(e, "better")))
                .collect();
            let printed: Vec<_> = defs
                .iter()
                .map(|d| {
                    let better = if d.better == Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, printed, "{key}");
        }
        let listed = map_get(root, "workloads").and_then(Value::as_seq).unwrap();
        let listed: Vec<_> = listed
            .iter()
            .map(|e| (text_of(e, "name"), text_of(e, "why")))
            .collect();
        let built: Vec<_> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, built);
    }
}
