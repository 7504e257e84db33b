//! The gate that keeps the workspace honest: the linter, run over the real
//! tree with the real `check.toml`, must report zero findings. Any new
//! undocumented `unsafe`, hot-path allocation, boundary panic,
//! unregistered knob/metric name, or `pub` item that no non-test code names
//! fails this test — the same signal CI gets from running the binary.

use std::path::Path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf();
    let config = capes_check::load_config(&root.join("check.toml")).expect("workspace manifest");
    let report = capes_check::run(&root, &config).expect("workspace lints");
    assert!(
        report.files_checked > 100,
        "suspiciously few files linted ({}) — exclusion list gone wrong?",
        report.files_checked
    );
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
