//! The linter against its own fixture corpus: every rule must fire at the
//! exact (rule, file, line) triples the fixtures seed, and nothing else.
//!
//! The corpus lives in `tests/fixtures/` with its own `check.toml`; the
//! workspace manifest excludes that directory so the real gate never sees
//! the seeded violations.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_findings() -> Vec<(String, u32, &'static str)> {
    let root = fixture_root();
    let config = capes_check::load_config(&root.join("check.toml")).expect("fixture manifest");
    let report = capes_check::run(&root, &config).expect("fixture corpus lints");
    report
        .findings
        .into_iter()
        .map(|f| (f.file, f.line, f.rule))
        .collect()
}

/// The complete expected finding set, sorted by (file, line, rule) — the
/// order `capes_check::run` promises.
fn expected() -> Vec<(String, u32, &'static str)> {
    let raw: &[(&str, u32, &'static str)] = &[
        ("crates/dead/src/lib.rs", 9, "dead-pub"),
        ("crates/dead/src/lib.rs", 12, "dead-pub"),
        ("crates/dead/src/lib.rs", 15, "dead-pub"),
        ("crates/dead/src/lib.rs", 19, "dead-pub"),
        ("crates/dead/src/lib.rs", 23, "dead-pub"),
        ("crates/dead/src/lib.rs", 28, "dead-pub"),
        ("crates/dead/src/lib.rs", 49, "dead-pub"),
        ("crates/dead/src/lib.rs", 57, "bad-suppression"),
        ("crates/dead/src/lib.rs", 58, "dead-pub"),
        ("crates/dead/src/lib.rs", 77, "dead-pub"),
        ("crates/dead/src/lib.rs", 82, "dead-pub"),
        ("src/boundary.rs", 6, "boundary-panic"),
        ("src/boundary.rs", 11, "boundary-panic"),
        ("src/boundary.rs", 17, "boundary-panic"),
        ("src/boundary.rs", 24, "boundary-panic"),
        ("src/envs.rs", 10, "env-registry"),
        ("src/hot.rs", 6, "hot-path-alloc"),
        ("src/hot.rs", 8, "hot-path-alloc"),
        ("src/hot.rs", 9, "hot-path-alloc"),
        ("src/hot.rs", 10, "hot-path-alloc"),
        ("src/hot.rs", 11, "hot-path-alloc"),
        ("src/hot.rs", 23, "hot-path-alloc"),
        ("src/hot.rs", 24, "hot-path-alloc"),
        ("src/hot_fns.rs", 8, "hot-path-alloc"),
        ("src/metrics.rs", 8, "metric-registry"),
        ("src/metrics.rs", 13, "metric-registry"),
        ("src/registry_env.rs", 7, "env-registry"),
        ("src/safety.rs", 10, "safety-comment"),
        ("src/safety.rs", 20, "safety-comment"),
        ("src/suppress.rs", 5, "bad-suppression"),
        ("src/suppress.rs", 7, "bad-suppression"),
        ("src/suppress.rs", 9, "bad-suppression"),
        ("src/suppress.rs", 16, "stale-suppression"),
    ];
    raw.iter().map(|&(f, l, r)| (f.to_string(), l, r)).collect()
}

#[test]
fn corpus_reports_exactly_the_seeded_violations() {
    let got = fixture_findings();
    let want = expected();
    // Compare as full sorted sequences so an extra or missing finding (not
    // just a wrong one) fails with a readable diff.
    let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
    let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "fixture findings diverged\nmissing: {missing:#?}\nextra: {extra:#?}\nfull: {got:#?}"
    );
    assert_eq!(got, want, "findings must be sorted by (file, line, rule)");
}

#[test]
fn every_rule_id_is_exercised_by_the_corpus() {
    let got = fixture_findings();
    for rule in capes_check::rules::RULE_IDS {
        assert!(
            got.iter().any(|(_, _, r)| r == rule),
            "rule `{rule}` has no fixture coverage"
        );
    }
}

#[test]
fn binary_exits_nonzero_and_prints_locations() {
    let manifest = fixture_root().join("check.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_capes-check"))
        .arg("--manifest")
        .arg(&manifest)
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 findings");
    for (file, line, rule) in expected() {
        let needle = format!("{file}:{line}: [{rule}]");
        assert!(
            stdout.contains(&needle),
            "stdout missing `{needle}`:\n{stdout}"
        );
    }
}

#[test]
fn binary_exits_two_on_missing_manifest() {
    let out = Command::new(env!("CARGO_BIN_EXE_capes-check"))
        .arg("--manifest")
        .arg("does/not/exist/check.toml")
        .output()
        .expect("linter binary runs");
    assert_eq!(out.status.code(), Some(2), "config errors must exit 2");
}
