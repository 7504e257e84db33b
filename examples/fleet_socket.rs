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

use capes::{Hyperparameters, Phase, Transport};
use capes_fleet::{Fleet, ScenarioSpec};

/// Fleet ticks of online training.
const TRAIN_TICKS: u64 = 2_500;
/// Fleet ticks of each measurement phase.
const MEASURE_TICKS: u64 = 300;

fn main() -> Result<(), Box<dyn std::error::Error>> {
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

    let report = daemon.run(&[
        Phase::Baseline {
            ticks: MEASURE_TICKS,
        },
        Phase::Train { ticks: TRAIN_TICKS },
        Phase::Tuned {
            ticks: MEASURE_TICKS,
            label: "tuned".into(),
        },
    ]);

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
