//! Drives the built binary through `--smoke`: all four workloads at three
//! rounds, with every correctness check, as `cargo test` inside `benchmark/`.

use std::process::Command;

#[test]
fn smoke_mode_runs_every_workload_and_every_check() {
    let started = std::time::Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_capes-benchmark"))
        .arg("--smoke")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{stderr}"
    );
    for workload in [
        "fleet8_mix_socket",
        "fleet64_shared_socket",
        "table2_600_wire",
        "fleet8_mix_durable",
    ] {
        assert!(
            stdout.contains(&format!("smoke {workload}: 0 of ")),
            "{workload} missing or failing:\n{stdout}"
        );
    }
    assert!(!stdout.contains("FAILED check"), "{stdout}");
    eprintln!("smoke run took {:.1} s", started.elapsed().as_secs_f64());
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_capes-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
