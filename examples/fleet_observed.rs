//! Live fleet observability: an 8-cluster socket fleet
//! runs in a background thread while the main thread scrapes the reactor's
//! `/metrics` endpoint — plain HTTP on the same port the member clusters
//! use for framed traffic — and prints the live p99 fleet-tick latency and
//! every cluster's objective gauge as training progresses.
//!
//! ```bash
//! cargo run --release --example fleet_observed
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use capes::{Hyperparameters, Phase, Transport};
use capes_fleet::{Fleet, ScenarioSpec};
use capes_telemetry::names;

/// Fleet ticks of online training.
const TRAIN_TICKS: u64 = 2_000;
/// Fleet ticks of each measurement phase.
const MEASURE_TICKS: u64 = 250;

/// One `/metrics` scrape: plain HTTP/1.0 GET, body returned as text.
fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Ok(String::new()),
    }
}

/// The value of the first exposition line whose name part equals `series`.
fn series_value(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            (name == series).then(|| value.parse().ok())?
        })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenarios = ScenarioSpec::heterogeneous_mix(8);
    let cluster_names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();
    let mut daemon = Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(7)
        .transport(Transport::Socket)
        .scenarios(scenarios)
        .build()?;
    let addr = daemon.socket_addr().expect("socket transport is on");
    println!("fleet daemon on {addr} — scraping /metrics while it trains\n");

    let phases = [
        Phase::Baseline {
            ticks: MEASURE_TICKS,
        },
        Phase::Train { ticks: TRAIN_TICKS },
        Phase::Tuned {
            ticks: MEASURE_TICKS,
            label: "tuned".into(),
        },
    ];

    // The daemon is single-threaded by design, so the *scraper* runs on a
    // background thread — exactly what an external Prometheus would do.
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let done = done.clone();
        std::thread::spawn(move || {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(500));
                let body = match scrape(addr) {
                    Ok(body) => body,
                    Err(_) => continue, // run may have just finished
                };
                let ticks = series_value(&body, "fleet_tick_total_count").unwrap_or(0.0);
                let p99_ms =
                    series_value(&body, "fleet_tick_total{quantile=\"0.99\"}").unwrap_or(0.0) / 1e6;
                let rate = series_value(&body, "fleet_tick_recent_rate").unwrap_or(0.0);
                let objectives: Vec<String> = cluster_names
                    .iter()
                    .map(|name| {
                        let series =
                            format!("fleet_cluster_{}_objective", name.replace(['.', '-'], "_"));
                        format!("{name} {:.0}", series_value(&body, &series).unwrap_or(0.0))
                    })
                    .collect();
                println!(
                    "tick {ticks:>6.0} | p99 {p99_ms:>6.2} ms | {rate:>5.0} cluster-ticks/s | \
                     objectives MB/s: {}",
                    objectives.join(", ")
                );
            }
        })
    };

    let report = daemon.run(&phases);
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    scraper.join().expect("scraper panicked");
    println!("\n{}", report.summary());
    if let Some(tick) = report.telemetry.histogram(names::FLEET_TICK_TOTAL) {
        println!(
            "final tick latency: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            tick.p50_ns / 1e6,
            tick.p90_ns / 1e6,
            tick.p99_ns / 1e6,
            tick.max_ns as f64 / 1e6
        );
    }
    Ok(())
}
