//! Kernel crossings of a socket fleet tick, counted.
//!
//! A tuned tick moves one uplink batch and one action frame per member. The
//! only bytes that must cross into the kernel are those, plus one wake-up of
//! the reactor for the whole action fan-out. This binary runs an 8-cluster
//! socket fleet and holds two counts exact over 200 tuned ticks:
//!
//! - the process's write-family syscalls (`syscw` in `/proc/self/io`) are
//!   exactly one per tick. std's `TcpStream` moves bytes with
//!   `send`/`recv`, which `syscw` does not count, so what is left is the
//!   reactor waker's pipe byte — one per fan-out, not one per action;
//! - the reactor's `net.read` spans are exactly one per member per tick: a
//!   read shorter than its chunk ends the drain, with no second read to
//!   collect `EAGAIN`.
//!
//! Both counters are process-wide, so this binary holds exactly one test.

use capes::{Hyperparameters, PhaseKind, Transport};
use capes_fleet::{Fleet, ScenarioSpec};

/// Write-family syscalls this process has made so far.
fn syscw() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").expect("/proc/self/io is readable");
    io.lines()
        .find_map(|line| line.strip_prefix("syscw: "))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/io has a syscw line")
}

fn net_reads() -> u64 {
    capes_telemetry::global().histogram("net.read").count()
}

#[test]
fn a_tuned_socket_tick_makes_one_waker_write_and_one_read_per_member() {
    const CLUSTERS: usize = 8;
    const TICKS: u64 = 200;
    capes_telemetry::set_recording(true);
    let mut fleet = Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(41)
        .transport(Transport::Socket)
        .scenarios(ScenarioSpec::heterogeneous_mix(CLUSTERS))
        .build()
        .expect("valid fleet");
    assert_eq!(fleet.num_clusters(), CLUSTERS);
    // Warm-up: connections routed, buffers grown, spans interned.
    for _ in 0..20 {
        fleet.tick_all(PhaseKind::Tuned);
    }

    let (writes_before, reads_before) = (syscw(), net_reads());
    for _ in 0..TICKS {
        fleet.tick_all(PhaseKind::Tuned);
    }
    let reads = net_reads() - reads_before;
    let writes = syscw() - writes_before;

    assert_eq!(
        writes,
        TICKS,
        "write syscalls per tick: {:.2} (the waker byte is the only one)",
        writes as f64 / TICKS as f64
    );
    assert_eq!(
        reads,
        TICKS * CLUSTERS as u64,
        "reactor reads per member per tick: {:.2}",
        reads as f64 / (TICKS * CLUSTERS as u64) as f64
    );
}
