//! Snapshot types (the `FleetReport.telemetry` section) and the
//! Prometheus-style text exposition behind the `/metrics` endpoint.

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Dotted metric name (`net.frames_in`).
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

serde::serialize_struct! { CounterSnapshot { name, value } }

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Dotted metric name (`net.ingress.depth`).
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

serde::serialize_struct! { GaugeSnapshot { name, value } }

/// Point-in-time summary of one latency histogram (nanosecond values).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Dotted metric name (`fleet.tick.total`).
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Mean recorded value.
    pub mean_ns: f64,
    /// Median (log-linear bucket midpoint, ≤ ~3% relative error).
    pub p50_ns: f64,
    /// 90th percentile.
    pub p90_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// Exact largest recorded value.
    pub max_ns: u64,
}

serde::serialize_struct! { HistogramSnapshot {
    name, count, mean_ns, p50_ns, p90_ns, p99_ns, max_ns,
} }

/// Every metric in a registry at one instant — embedded in
/// `FleetReport.telemetry` so non-socket transports get the same numbers a
/// live `/metrics` scrape would show.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

serde::serialize_struct! { TelemetrySnapshot { counters, gauges, histograms } }

impl TelemetrySnapshot {
    /// The histogram snapshot named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the snapshot as Prometheus text-format exposition: names
    /// keep only `[A-Za-z0-9_:]` (anything else becomes an underscore),
    /// counters get a `_total` suffix, histograms
    /// expose `{quantile="…"}` series plus `_count`, `_sum` and `_max`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = mangle(&c.name);
            out.push_str(&format!("# TYPE {name}_total counter\n"));
            out.push_str(&format!("{name}_total {}\n", c.value));
        }
        for g in &self.gauges {
            let name = mangle(&g.name);
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {}\n", fmt_f64(g.value)));
        }
        for h in &self.histograms {
            let name = mangle(&h.name);
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [("0.5", h.p50_ns), ("0.9", h.p90_ns), ("0.99", h.p99_ns)] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", fmt_f64(v)));
            }
            out.push_str(&format!(
                "{name}_sum {}\n",
                fmt_f64(h.mean_ns * h.count as f64)
            ));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_max {}\n", h.max_ns));
        }
        out
    }
}

/// The Prometheus name of a dotted metric: every character outside
/// `[A-Za-z0-9_:]` becomes `_`, and a leading digit gets a `_` in front.
fn mangle(name: &str) -> String {
    let keep = |c: char| c.is_ascii_alphanumeric() || c == ':';
    let mut out: String = name
        .chars()
        .map(|c| if keep(c) { c } else { '_' })
        .collect();
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Snapshots the [global registry](crate::global) and renders it as
/// Prometheus text — the body of a `/metrics` response, also usable
/// directly from any binary.
pub fn dump_metrics() -> String {
    crate::global().snapshot().render_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![CounterSnapshot {
                name: "net.frames_in".into(),
                value: 460,
            }],
            gauges: vec![GaugeSnapshot {
                name: "net.ingress.depth".into(),
                value: 3.0,
            }],
            histograms: vec![HistogramSnapshot {
                name: "fleet.tick.total".into(),
                count: 46,
                mean_ns: 1_500_000.0,
                p50_ns: 1_400_000.0,
                p90_ns: 2_000_000.0,
                p99_ns: 2_500_000.0,
                max_ns: 3_000_000,
            }],
        }
    }

    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`, the Prometheus metric-name grammar.
    fn is_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    #[test]
    fn prometheus_rendering_mangles_and_labels() {
        let mut snap = sample();
        // Cluster names are free text in gauge names.
        for name in [
            "fleet.cluster.read heavy \"a\".objective",
            "fleet.cluster.write-heavy-3.objective",
            "9lives",
        ] {
            snap.gauges.push(GaugeSnapshot {
                name: name.to_string(),
                value: 1.5,
            });
        }
        let text = snap.render_prometheus();
        assert!(text.contains("net_frames_in_total 460"), "{text}");
        assert!(text.contains("net_ingress_depth 3"), "{text}");
        assert!(text.contains("fleet_tick_total{quantile=\"0.5\"} 1400000"));
        assert!(text.contains("fleet_tick_total{quantile=\"0.99\"} 2500000"));
        assert!(text.contains("fleet_tick_total_count 46"));
        assert!(text.contains("fleet_tick_total_max 3000000"));
        // Every line parses: a valid name, its labels, a space, a number.
        for line in text.lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let parts: Vec<_> = decl.split(' ').collect();
                assert!(parts.len() == 2 && is_metric_name(parts[0]), "{line}");
                continue;
            }
            let (series, value) = line.split_once(' ').unwrap();
            let name = series.split('{').next().unwrap();
            assert!(is_metric_name(name), "bad sample name in {line}");
            assert!(value.parse::<f64>().is_ok(), "bad sample value in {line}");
        }
        assert!(text.contains("\nfleet_cluster_write_heavy_3_objective 1.5\n"));
        assert!(text.contains("\n_9lives 1.5\n"), "{text}");
    }

    #[test]
    fn snapshot_json_matches_the_golden() {
        let json = serde_json::to_string_pretty(&sample()).unwrap();
        assert_eq!(
            json,
            include_str!("../tests/fixtures/telemetry_snapshot.json")
        );
    }

    #[test]
    fn histogram_is_found_by_name() {
        let snap = sample();
        assert_eq!(snap.histogram("fleet.tick.total").unwrap().count, 46);
        assert!(snap.histogram("net.frames_in").is_none(), "a counter");
    }
}
