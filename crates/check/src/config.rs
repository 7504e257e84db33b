//! `check.toml` manifest: which files are hardened boundaries, which are
//! declared hot paths, where the env knob registry lives, and what to skip.
//!
//! The parser is a deliberately small TOML subset (tables, array-of-tables,
//! string and string-array values, `#` comments) — enough for the manifest,
//! zero dependencies.

use std::fmt;

/// A module declared allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct HotPath {
    /// Workspace-relative path.
    pub file: String,
    /// Function names the no-alloc rule applies to; empty ⇒ the whole file
    /// (minus `#[cfg(test)]` modules).
    pub fns: Vec<String>,
}

/// Parsed manifest.
#[derive(Debug, Clone, Default)]
// capes-check: allow(dead-pub) -- the parameter of the public `run` and the result of `load_config`, which the CLI calls
pub struct Config {
    /// Workspace-relative path prefixes to skip entirely.
    pub(crate) exclude: Vec<String>,
    /// Files whose string literals define the known `CAPES_*` env vars.
    pub(crate) env_registry: Vec<String>,
    /// Hardened-boundary path prefixes (no unwrap/expect/panic!/bare indexing).
    pub(crate) boundary: Vec<String>,
    /// Declared allocation-free modules.
    pub(crate) hot_paths: Vec<HotPath>,
}

/// Manifest syntax error with its line number.
#[derive(Debug)]
pub(crate) struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "check.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

enum Section {
    None,
    Workspace,
    Registry,
    Boundary,
    HotPath,
}

/// Parses the manifest text.
pub(crate) fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    let mut section = Section::None;
    let mut lines = text.lines().enumerate().peekable();
    while let Some((index, raw)) = lines.next() {
        let line_no = index + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            match name.trim() {
                "hot_path" => {
                    config.hot_paths.push(HotPath::default());
                    section = Section::HotPath;
                }
                other => {
                    return Err(err(line_no, format!("unknown array table [[{other}]]")));
                }
            }
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = match name.trim() {
                "workspace" => Section::Workspace,
                "registry" => Section::Registry,
                "boundary" => Section::Boundary,
                other => return Err(err(line_no, format!("unknown table [{other}]"))),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                line_no,
                format!("expected `key = value`, got {line:?}"),
            ));
        };
        let key = key.trim();
        // Multi-line arrays: keep consuming lines until the bracket closes.
        let mut value = value.trim().to_string();
        if value.starts_with('[') && !balanced(&value) {
            for (_, continuation) in lines.by_ref() {
                value.push(' ');
                value.push_str(strip_comment(continuation).trim());
                if balanced(&value) {
                    break;
                }
            }
        }
        let values = parse_value(&value).map_err(|m| err(line_no, m))?;
        match (&section, key) {
            (Section::Workspace, "exclude") => config.exclude = values,
            (Section::Registry, "env") => config.env_registry = values,
            (Section::Boundary, "files") => config.boundary = values,
            (Section::HotPath, "file") => {
                let hot = config
                    .hot_paths
                    .last_mut()
                    .ok_or_else(|| err(line_no, "file outside [[hot_path]]".into()))?;
                hot.file = values
                    .into_iter()
                    .next()
                    .ok_or_else(|| err(line_no, "file needs a value".into()))?;
            }
            (Section::HotPath, "fns") => {
                let hot = config
                    .hot_paths
                    .last_mut()
                    .ok_or_else(|| err(line_no, "fns outside [[hot_path]]".into()))?;
                hot.fns = values;
            }
            (_, other) => {
                return Err(err(line_no, format!("unknown key {other:?} in this table")));
            }
        }
    }
    for hot in &config.hot_paths {
        if hot.file.is_empty() {
            return Err(err(0, "a [[hot_path]] entry is missing `file`".into()));
        }
    }
    Ok(config)
}

fn err(line: usize, message: String) -> ConfigError {
    ConfigError { line, message }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    for c in value.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Parses `"str"` or `["a", "b"]` into a list of strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array: {value:?}"))?;
        let mut out = Vec::new();
        for part in split_array(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            out.push(parse_string(part)?);
        }
        Ok(out)
    } else {
        Ok(vec![parse_string(value)?])
    }
}

/// Splits array items on commas outside quotes.
fn split_array(inner: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

fn parse_string(part: &str) -> Result<String, String> {
    part.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got {part:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_manifest_shape() {
        let config = parse(
            r#"
# comment
[workspace]
exclude = ["target", "crates/check/tests/fixtures"]

[registry]
env = "crates/capes/src/knobs.rs"

[boundary]
files = [
    "crates/net/src", # trailing comment
    "crates/persist/src",
]

[[hot_path]]
file = "crates/tensor/src/simd.rs"

[[hot_path]]
file = "crates/tensor/src/pool.rs"
fns = ["run"]
"#,
        )
        .expect("manifest parses");
        assert_eq!(config.exclude.len(), 2);
        assert_eq!(config.env_registry, ["crates/capes/src/knobs.rs"]);
        assert_eq!(config.boundary, ["crates/net/src", "crates/persist/src"]);
        assert_eq!(config.hot_paths.len(), 2);
        assert_eq!(config.hot_paths[1].fns, ["run"]);
    }

    #[test]
    fn rejects_unknown_tables_and_bare_values() {
        assert!(parse("[nope]\n").is_err());
        assert!(parse("[workspace]\nexclude = nope\n").is_err());
        assert!(parse("[[hot_path]]\nfns = [\"x\"]\n").is_err());
        assert!(parse("[registry]\nmetrics = \"names.rs\"\n").is_err());
    }
}
