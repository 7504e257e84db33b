//! ISSUE 8 integration: every transport's fleet report carries a populated
//! telemetry section (tick phases, GEMM kernels, arena sampling, daemon
//! ingest, checkpointing), and a socket fleet answers live `/metrics`
//! scrapes mid-run without disturbing the members.

use capes::{Hyperparameters, Phase, Transport};
use capes_fleet::{Fleet, FleetDaemon, FleetPlan, FleetReport, ScenarioSpec};
use capes_simstore::Workload;

fn quick_hp() -> Hyperparameters {
    Hyperparameters {
        sampling_ticks_per_observation: 3,
        exploration_period_ticks: 300,
        adam_learning_rate: 2e-3,
        ..Hyperparameters::quick_test()
    }
}

fn build(transport: Transport, seed: u64) -> FleetDaemon {
    Fleet::builder()
        .hyperparams(quick_hp())
        .seed(seed)
        .transport(transport)
        .scenarios([
            ScenarioSpec::new("write-heavy", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("read-heavy", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .expect("valid fleet")
}

fn plan() -> FleetPlan {
    FleetPlan::new()
        .phase(Phase::Baseline { ticks: 6 })
        .phase(Phase::Train { ticks: 24 })
        .phase(Phase::Tuned {
            ticks: 6,
            label: "tuned".into(),
        })
}

/// Held by every test that checkpoints: the registry is process-global, so
/// `checkpoint_spans_partition_the_total` can only attribute histogram
/// growth to its own checkpoint while nobody else is writing one.
static CHECKPOINTING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs a fleet with auto-checkpointing on and checks the report's telemetry
/// section for every hot-path histogram the issue names. The registry is
/// process-global, so counts only ever grow — `count > 0` is safe even with
/// other tests recording concurrently.
fn run_and_check(transport: Transport, seed: u64, tag: &str) -> FleetReport {
    let _exclusive = CHECKPOINTING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("capes-fleet-telemetry-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("auto.capes");
    let mut fleet = build(transport, seed);
    fleet.auto_checkpoint_every(10, &snap);
    let report = fleet.run(&plan());

    // Tick phases.
    for name in [
        "fleet.tick.total",
        "fleet.tick.gather",
        "fleet.tick.decide",
        "fleet.tick.scatter",
        "fleet.tick.train",
    ] {
        let hist = report
            .telemetry
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing from the report"));
        assert!(hist.count > 0, "{name} never recorded");
        assert!(hist.p50_ns <= hist.p90_ns && hist.p90_ns <= hist.p99_ns);
        assert!(
            hist.p99_ns <= hist.max_ns as f64 * 1.04,
            "{name} p99 above max"
        );
    }
    // GEMM rides one of the runtime-dispatched kernels.
    let gemm: u64 = [
        "gemm.kernel.avx512",
        "gemm.kernel.avx2",
        "gemm.kernel.scalar",
    ]
    .iter()
    .filter_map(|n| report.telemetry.histogram(n))
    .map(|h| h.count)
    .sum();
    assert!(gemm > 0, "no GEMM kernel span recorded");
    // Training, sampling, ingest and checkpointing.
    for name in [
        "drl.train_step",
        "arena.sample",
        "daemon.ingest",
        "persist.checkpoint.total",
        "persist.checkpoint.encode",
        "persist.checkpoint.crc",
        "persist.checkpoint.write",
        "persist.checkpoint.fsync",
        "persist.checkpoint.dirsync",
        "persist.checkpoint.writeback",
    ] {
        let hist = report
            .telemetry
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing from the report"));
        assert!(hist.count > 0, "{name} never recorded");
    }
    // Per-cluster objective gauges carry the latest tick's objective.
    for cluster in ["write-heavy", "read-heavy"] {
        let objective = report
            .telemetry
            .gauge(&format!("fleet.cluster.{cluster}.objective"))
            .expect("objective gauge missing");
        assert!(objective > 0.0, "cluster {cluster} objective never set");
    }
    // Windowed throughput made it into the report and the registry.
    assert!(report.recent_cluster_ticks_per_sec > 0.0);
    assert!(report.telemetry.gauge("fleet.tick.recent_rate").unwrap() > 0.0);
    // Durability counters are registry views (exact values race with other
    // fleets in this process via latest-wins publishing, so check presence).
    assert!(report
        .telemetry
        .counter("persist.checkpoints_written")
        .is_some());
    assert!(report
        .telemetry
        .counter("daemon.reports_rejected")
        .is_some());

    // The whole report, telemetry included, round-trips through JSON.
    let back = FleetReport::from_json(&report.to_json()).expect("round trip");
    assert_eq!(back.telemetry, report.telemetry);

    std::fs::remove_dir_all(&dir).ok();
    report
}

/// `persist.checkpoint.{encode,crc,write,fsync,dirsync}` are disjoint pieces
/// of `persist.checkpoint.total` — the first three accumulated chunk by chunk
/// as the snapshot streams out: on one checkpoint they must add up to it,
/// leaving under a tenth unattributed. Checkpoints to one path reuse its
/// spare; the later ones alternate two paths, so each drops the other
/// path's slot and its spare.
#[test]
fn checkpoint_spans_partition_the_total() {
    let _exclusive = CHECKPOINTING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("capes-fleet-telemetry-spans");
    std::fs::create_dir_all(&dir).unwrap();
    let paths = [dir.join("one.capes"), dir.join("two.capes")];
    let mut fleet = build(Transport::Wire, 59);
    fleet.run(&plan());

    let registry = capes_telemetry::global();
    let sum_ns = |name: &str| registry.histogram(name).sum() as f64;
    let parts_ns = || {
        ["encode", "crc", "write", "fsync", "dirsync"]
            .iter()
            .map(|part| sum_ns(&format!("persist.checkpoint.{part}")))
            .sum::<f64>()
    };
    let mut attributed_share = |snap: &std::path::Path| {
        let (total_before, parts_before) = (sum_ns("persist.checkpoint.total"), parts_ns());
        fleet.checkpoint(snap).expect("checkpoint");
        (parts_ns() - parts_before) / (sum_ns("persist.checkpoint.total") - total_before)
    };
    // A preemption landing in the few instructions between two spans shows
    // up as unattributed time; one clean checkpoint in five is enough.
    let mut check = |schedule: &[usize]| {
        let shares: Vec<f64> = schedule
            .iter()
            .map(|&p| attributed_share(&paths[p]))
            .collect();
        assert!(
            shares.iter().any(|share| (0.9..=1.0).contains(share)),
            "encode + crc + write + fsync + dirsync over total, per checkpoint \
             to paths {schedule:?}: {shares:?}"
        );
    };
    check(&[0; 5]);
    // All but the second of these drop the other path's slot together with
    // a spare that holds a whole snapshot.
    check(&[1, 0, 1, 0, 1, 0, 1]);
    assert_eq!(
        registry.gauge("persist.checkpoint.bytes").get(),
        std::fs::metadata(&paths[0]).unwrap().len() as f64
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `persist.restore.verify` times each restore's verifying pass: one sample
/// per restore, published in `/metrics`, and never more than the whole
/// `persist.restore` it is part of.
#[test]
fn restore_verify_records_one_sample_per_restore() {
    let _exclusive = CHECKPOINTING.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("capes-fleet-telemetry-restore");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("restore.capes");
    let mut fleet = build(Transport::Wire, 61);
    fleet.run(&plan());
    fleet.checkpoint(&snap).expect("checkpoint");

    let registry = capes_telemetry::global();
    let verify = registry.histogram("persist.restore.verify");
    let restore = registry.histogram("persist.restore");
    let (count_before, verify_before, restore_before) =
        (verify.count(), verify.sum(), restore.sum());
    let mut restored = build(Transport::Wire, 61);
    for _ in 0..3 {
        restored.restore(&snap).expect("restore");
    }
    assert_eq!(verify.count() - count_before, 3);
    assert!(verify.sum() > verify_before, "verify pass never timed");
    assert!(
        verify.sum() - verify_before <= restore.sum() - restore_before,
        "the verify pass outlasted the restores it is part of"
    );
    let metrics = registry.snapshot().render_prometheus();
    assert!(
        metrics.contains("persist_restore_verify_count"),
        "{metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wire_fleet_reports_telemetry() {
    run_and_check(Transport::Wire, 43, "wire");
}

mod socket {
    use super::*;
    use capes::PhaseKind;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn socket_fleet_reports_telemetry() {
        let report = run_and_check(Transport::Socket, 47, "socket");
        // The socket run additionally populates the reactor's span family.
        for name in ["net.read", "net.decode", "net.egress"] {
            assert!(
                report.telemetry.histogram(name).map_or(0, |h| h.count) > 0,
                "{name} never recorded"
            );
        }
        assert!(report.telemetry.counter("net.frames_in").unwrap_or(0) > 0);
        assert!(report.telemetry.gauge("net.ingress.depth").is_some());
    }

    fn scrape(addr: std::net::SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect scraper");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: fleet\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn live_metrics_scrape_mid_run() {
        let mut fleet = build(Transport::Socket, 53);
        let addr = fleet.socket_addr().expect("socket fleet has an address");
        for _ in 0..8 {
            fleet.tick_all(PhaseKind::Train);
        }

        // Scrape while the fleet is mid-run: plain HTTP in, Prometheus
        // exposition out, connection closed by the server.
        let response = scrape(addr);
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("text/plain"), "{response}");
        for series in [
            "fleet_tick_total{quantile=\"0.99\"}",
            "net_frames_in_total",
            "net_reads_total",
            "drl_train_step_count",
            "fleet_tick_recent_rate",
        ] {
            assert!(response.contains(series), "missing {series}: {response}");
        }

        // Frames per read is answerable from the scrape, and a tick-batched
        // uplink lands more than one frame per read (two reads per frame
        // before the batching).
        let series = |name: &str| -> f64 {
            let line = response
                .lines()
                .find(|line| line.starts_with(name))
                .unwrap_or_else(|| panic!("missing {name}: {response}"));
            line[name.len()..].trim().parse().expect("numeric sample")
        };
        assert!(
            series("net_frames_in_total ") > series("net_reads_total "),
            "uplink is not batched: {response}"
        );

        // The members keep ticking unharmed, and a second scrape still works.
        for _ in 0..8 {
            fleet.tick_all(PhaseKind::Train);
        }
        let again = scrape(addr);
        assert!(again.starts_with("HTTP/1.0 200 OK"));
        let net = fleet.net_report();
        assert_eq!(net.decode_errors, 0, "scrapes must not count as errors");
        assert_eq!(net.active, 2, "scrape connections close after the reply");
        assert_eq!(net.frames_in, 2 * 4 * fleet.tick(), "no member frame lost");
    }
}
