//! Fleet tuning over real loopback TCP: member clusters send their
//! monitoring frames through the `capes-net` reactor server instead of
//! decoding them in process (the wire transport), and actions return the
//! same way. The result series is bit-identical to `Transport::Wire` under
//! the same seeds — the socket layer adds observability (the report's `net`
//! section) without perturbing a single decision.
//!
//! ```bash
//! cargo run --release --example fleet_socket
//! ```
//!
//! Ticks can be scaled with `CAPES_FLEET_TRAIN_TICKS` /
//! `CAPES_FLEET_MEASURE_TICKS` (as in `fleet_tuning.rs`).

use capes::{Hyperparameters, Phase, Transport};
use capes_fleet::{Fleet, FleetPlan, ScenarioSpec};

fn env_ticks(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let train_ticks = env_ticks("CAPES_FLEET_TRAIN_TICKS", 2_500);
    let measure_ticks = env_ticks("CAPES_FLEET_MEASURE_TICKS", 300);

    let mut daemon = Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(7)
        .transport(Transport::Socket)
        .scenarios(ScenarioSpec::heterogeneous_mix(4))
        .build()?;

    println!(
        "fleet daemon listening on {} (loopback members connected)",
        daemon.socket_addr().expect("socket transport is on")
    );

    let report = daemon.run(
        &FleetPlan::new()
            .phase(Phase::Baseline {
                ticks: measure_ticks,
            })
            .phase(Phase::Train { ticks: train_ticks })
            .phase(Phase::Tuned {
                ticks: measure_ticks,
                label: "tuned".into(),
            }),
    );

    println!("{}", report.summary());
    let net = report.net;
    println!(
        "socket ingest: {} frames in / {} out, {:.0} B/tick up, {:.0} B/tick down, \
         {} shed (backpressure), {} decode errors",
        net.frames_in,
        net.frames_out,
        net.bytes_in_per_tick,
        net.bytes_out_per_tick,
        net.shed_backpressure,
        net.decode_errors
    );
    Ok(())
}
