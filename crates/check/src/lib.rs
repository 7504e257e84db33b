//! capes-check: the workspace invariant linter.
//!
//! A dependency-free, token-level checker for the CAPES workspace's
//! project-specific invariants — the things `rustc` and clippy cannot see:
//! SAFETY-comment discipline, allocation-free hot paths, panic-free hardened
//! boundaries, centrally registered env knobs, metric names written only as
//! `capes_telemetry::names` items, and no `pub` item that only its own crate
//! uses. See [`rules`] for the rule table and the inline suppression
//! syntax, and `check.toml` at the workspace root for the manifest format
//! (`config.rs`).
//!
//! `dead-pub` (`rules::dead_pub`) hands the crate-local surface to `rustc`.
//! Its `dead_code` lint is exact for a `pub(crate)` item, but it never sees
//! a `pub` one, which another crate might use. So the rule asks one
//! question of each `pub` item: does another crate's non-test code name
//! it? If not, the item should be `pub(crate)`, and `rustc` then reports it
//! if nothing in its own crate uses it either.
//!
//! - **Indexed:** every `pub` fn, struct, enum, trait, const, static and
//!   type in non-shim `crates/*/src`, outside `#[cfg(test)]` modules. Not
//!   `pub mod`, `pub use`, fields or `pub(crate)` items, and nothing in the
//!   env knob registry, which rule `env-registry` governs.
//! - **A crate:** a package's library, each of its `src/bin/*` and its
//!   `src/main.rs`, each `examples/*`, the root `src/` and `benchmark/src`
//!   (`rules::crate_of`). Names from the item's own crate do not count.
//! - **A reference:** the item's name in non-test code of another crate
//!   among the linted files (`src/`, `crates/`, `examples/`, `benchmark/`),
//!   but not in comments, strings (bar inline format arguments such as
//!   `"{NAME}"`), `pub use` re-exports, the item's own definition,
//!   `#[cfg(test)]` modules, `tests/` directories or `crates/shims/`, whose
//!   code stands in for external crates that cannot name a workspace item.
//!   A plain `use` counts: `rustc` reports one the crate never uses. An item
//!   declared in an `impl` block counts only at `.name(` or at the end of a
//!   `::name` path — `::name::` is a module or type segment — and a `.name`
//!   with no call after it reads a field, so it names no item at all.
//! - **Waived in place** with `// capes-check: allow(dead-pub) -- <reason>`:
//!   test support that another crate's tests use, and an item that a public
//!   signature exposes (`rustc`'s `private_interfaces` lint rejects it as
//!   `pub(crate)`).
//!
//! The rule is lexical and matches by name alone, so an item sharing its
//! name with one that another crate uses (two methods both named `reset`)
//! is never reported: it can miss a narrowing, but it never reports an item
//! that must stay `pub`.

#![forbid(unsafe_code)]

mod config;
mod lexer;
pub mod rules;

pub use config::Config;
pub use rules::Finding;

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Outcome of a workspace run.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files linted.
    pub files_checked: usize,
}

/// Reads and parses `check.toml` at `path`.
pub fn load_config(path: &Path) -> io::Result<Config> {
    let text = fs::read_to_string(path)?;
    config::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Lints every `.rs` file under `root` against `config`.
pub fn run(root: &Path, config: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();

    let mut env_knobs = HashSet::new();
    for rel in config.env_registry.iter() {
        env_knobs.extend(read_literals(root, rel)?);
    }

    let mut findings = Vec::new();
    let mut cross = rules::CrossFile::default();
    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        findings.extend(rules::lint_file(rel, &src, config, &env_knobs, &mut cross));
    }
    for rel in config.env_registry.iter() {
        let src = fs::read_to_string(root.join(rel))?;
        findings.extend(rules::unread_env_knobs(rel, &src, &mut cross));
    }
    findings.extend(rules::dead_pub(&mut cross));
    findings.extend(rules::stale_suppressions(&cross));
    findings.extend(rules::stale_manifest_entries(config, &files, |rel| {
        fs::read_to_string(root.join(rel))
    })?);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        findings,
        files_checked: files.len(),
    })
}

fn read_literals(root: &Path, rel: &str) -> io::Result<HashSet<String>> {
    let path = root.join(rel);
    let src = fs::read_to_string(&path)
        .map_err(|e| io::Error::new(e.kind(), format!("registry file {rel} is unreadable: {e}")))?;
    Ok(rules::literal_set(&src))
}

/// Recursively collects workspace-relative `.rs` paths, skipping build
/// output, VCS metadata, and configured excludes.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<String>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let rel = relative(root, &path);
        if config
            .exclude
            .iter()
            .any(|e| rel == *e || rel.starts_with(&format!("{e}/")))
        {
            continue;
        }
        let kind = entry.file_type()?;
        if kind.is_dir() {
            collect_rs_files(root, &path, config, out)?;
        } else if kind.is_file() && name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// `root`-relative `/`-separated path string.
fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
