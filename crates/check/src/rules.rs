//! The invariant rules and their token-level matchers.
//!
//! | rule id             | invariant                                                        |
//! |---------------------|------------------------------------------------------------------|
//! | `safety-comment`    | every `unsafe` block/fn/impl has a `// SAFETY:` comment above it |
//! | `hot-path-alloc`    | no allocating calls in modules/fns declared hot in `check.toml`, |
//! |                     | and every declared file and fn exists                            |
//! | `boundary-panic`    | no unwrap/expect/panic!/bare indexing in hardened boundary code, |
//! |                     | and every `[boundary]` entry matches a linted file               |
//! | `env-registry`      | every `CAPES_*` literal appears in the env knob registry, and    |
//! |                     | every registry literal appears in some non-test file             |
//! | `metric-registry`   | every metric/span name literal appears in the name registry      |
//! | `dead-pub`          | every `pub` item of non-shim `crates/*/src` is named by some     |
//! |                     | non-test code (see [`dead_pub`])                                 |
//! | `bad-suppression`   | suppression comments name a real rule and carry a reason         |
//! | `stale-suppression` | every suppression waives some finding                            |
//!
//! Any finding except `bad-suppression` and `stale-suppression` can be waived
//! inline: `// capes-check: allow(<rule>) -- <reason>` on the offending line
//! or the line above it.

use crate::config::Config;
use crate::lexer::{lex, Lexed, TokKind};
use std::collections::HashSet;

/// Stable rule ids, in reporting order.
pub const RULE_IDS: &[&str] = &[
    "safety-comment",
    "hot-path-alloc",
    "boundary-panic",
    "env-registry",
    "metric-registry",
    "dead-pub",
    "bad-suppression",
    "stale-suppression",
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line (0 for an entry of `check.toml`).
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Interned name sets lexed out of the registry modules named in `check.toml`.
#[derive(Debug, Default, Clone)]
pub struct Registries {
    pub env: HashSet<String>,
    pub metrics: HashSet<String>,
}

/// Collects every string literal in `src` (used on registry modules).
pub fn literal_set(src: &str) -> HashSet<String> {
    lex(src)
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Str)
        .map(|t| t.text.clone())
        .collect()
}

/// One rule a well-formed `capes-check: allow(…)` comment waives.
#[derive(Debug)]
struct Suppression {
    file: String,
    line: u32,
    rule: String,
    /// Set once it waives a finding; still unset after every pass, it is
    /// stale.
    used: bool,
}

/// What the cross-file passes ([`unread_env_knobs`], [`dead_pub`],
/// [`stale_suppressions`]) need from every linted file, gathered by
/// [`lint_file`].
#[derive(Debug, Default)]
pub struct CrossFile {
    /// `CAPES_*` literals held outside tests.
    pub(crate) env_reads: HashSet<String>,
    /// `pub` items of non-shim `crates/*/src`.
    items: Vec<PubItem>,
    /// Identifiers non-test code names, outside `use` lines and definitions.
    names: HashSet<String>,
    /// Those of `names` that non-test code names at the end of a `::` path,
    /// or calls after `.`.
    members: HashSet<String>,
    /// Every file's well-formed suppressions, one entry per rule named.
    suppressions: Vec<Suppression>,
}

#[derive(Debug)]
struct PubItem {
    file: String,
    line: u32,
    kind: &'static str,
    name: String,
    /// Declared in an `impl` block, so only `.name`/`::name` reaches it.
    associated: bool,
}

/// Lints one file; `rel_path` is workspace-relative with `/` separators.
/// Adds what the file declares and names to `cross`.
pub fn lint_file(
    rel_path: &str,
    src: &str,
    config: &Config,
    registries: &Registries,
    cross: &mut CrossFile,
) -> Vec<Finding> {
    let lexed = lex(src);
    let test_regions = test_mod_regions(&lexed);
    let is_test_file = rel_path.starts_with("tests/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/benches/");
    let is_registry_file = config.env_registry.iter().any(|p| p == rel_path)
        || config.metric_registry.iter().any(|p| p == rel_path);

    let mut findings: Vec<Finding> = Vec::new();
    cross
        .suppressions
        .extend(collect_suppressions(rel_path, &lexed, &mut findings));

    let in_tests =
        |i: usize| is_test_file || test_regions.iter().any(|&(lo, hi)| lo <= i && i <= hi);

    // Shim code stands in for external crates, which cannot name a
    // workspace item: a method a shim calls is no use of a same-named one.
    if !is_test_file && !rel_path.starts_with("crates/shims/") {
        collect_names(&lexed, &in_tests, cross);
    }
    if !is_registry_file && is_crate_source(rel_path) {
        collect_pub_items(rel_path, &lexed, &in_tests, cross);
    }

    check_safety_comments(rel_path, &lexed, &mut findings);
    check_hot_paths(
        rel_path,
        &lexed,
        config,
        &test_regions,
        is_test_file,
        &mut findings,
    );
    if config.boundary.iter().any(|p| path_matches(rel_path, p)) {
        check_boundary(rel_path, &lexed, &in_tests, &mut findings);
    }
    if !is_registry_file {
        check_env_literals(
            rel_path,
            &lexed,
            config,
            registries,
            &in_tests,
            &mut cross.env_reads,
            &mut findings,
        );
        check_metric_literals(
            rel_path,
            &lexed,
            config,
            registries,
            &in_tests,
            &mut findings,
        );
    }

    apply_suppressions(&mut findings, &mut cross.suppressions);
    findings
}

/// The other direction of rule `env-registry`: a `CAPES_*` literal in the
/// registry file `rel_path` that no non-test file holds (`env_reads`, as
/// gathered by [`lint_file`] over the workspace) documents a knob
/// nothing reads. The waivers are those [`lint_file`] gathered from
/// `rel_path`.
pub fn unread_env_knobs(rel_path: &str, src: &str, cross: &mut CrossFile) -> Vec<Finding> {
    let lexed = lex(src);
    let mut findings: Vec<Finding> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Str && !t.attr && is_knob(&t.text))
        .filter(|t| !cross.env_reads.contains(&t.text))
        .map(|t| Finding {
            file: rel_path.to_string(),
            line: t.line,
            rule: "env-registry",
            message: format!(
                "env var `{}` is registered but no non-test file reads it",
                t.text
            ),
        })
        .collect();
    apply_suppressions(&mut findings, &mut cross.suppressions);
    findings
}

/// Rule `dead-pub` over what [`lint_file`] gathered into `cross`: the `pub`
/// items no non-test code names and no suppression waives. The crate docs
/// say what is indexed and what counts as naming an item.
pub fn dead_pub(cross: &mut CrossFile) -> Vec<Finding> {
    let mut findings: Vec<Finding> = cross
        .items
        .iter()
        .filter(|item| {
            let names = if item.associated {
                &cross.members
            } else {
                &cross.names
            };
            !names.contains(&item.name)
        })
        .map(|item| Finding {
            file: item.file.clone(),
            line: item.line,
            rule: "dead-pub",
            message: format!(
                "`pub {} {}` is named by no non-test code; delete it, or waive it \
                 naming the test that uses it",
                item.kind, item.name
            ),
        })
        .collect();
    apply_suppressions(&mut findings, &mut cross.suppressions);
    findings
}

/// Rule `stale-suppression`, after every other pass has applied the
/// waivers in `cross`: a suppression that waived no finding.
pub fn stale_suppressions(cross: &CrossFile) -> Vec<Finding> {
    cross
        .suppressions
        .iter()
        .filter(|s| !s.used)
        .map(|s| Finding {
            file: s.file.clone(),
            line: s.line,
            rule: "stale-suppression",
            message: format!("`allow({})` waives no finding; delete it", s.rule),
        })
        .collect()
}

/// The item kinds rule `dead-pub` indexes.
const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// `crates/<name>/src/…` of any crate but the shims.
fn is_crate_source(rel_path: &str) -> bool {
    let mut parts = rel_path.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some_and(|name| name != "shims")
        && parts.next() == Some("src")
}

/// Adds the identifiers the file's non-test code names to `cross.names`, and
/// those called after `.` or ending a `::` path to `cross.members` too.
fn collect_names(lexed: &Lexed, in_tests: &dyn Fn(usize) -> bool, cross: &mut CrossFile) {
    let toks = &lexed.tokens;
    // One past the `;` that closes the current `use` line.
    let mut use_end = 0;
    for (i, tok) in toks.iter().enumerate() {
        if in_tests(i) {
            continue;
        }
        if tok.kind == TokKind::Str {
            // Inline format arguments (`"{NAME}"`, `"{name:>8}"`) are code.
            for arg in tok.text.split('{').skip(1) {
                let name = arg.split(['}', ':']).next().unwrap_or_default();
                if name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    cross.names.insert(name.to_string());
                }
            }
        }
        if tok.kind != TokKind::Ident {
            continue;
        }
        if tok.text == "use" && !tok.attr {
            use_end = (i..toks.len())
                .find(|&j| lexed.is_punct(j, ';'))
                .map_or(toks.len(), |j| j + 1);
        }
        let renamed = || {
            lexed
                .next_code(i + 1)
                .is_some_and(|n| lexed.is_ident(n, "as"))
        };
        if (i < use_end && !renamed()) || is_definition_name(lexed, i) {
            continue;
        }
        let prev = lexed.prev_code(i);
        let dot = prev.is_some_and(|p| lexed.is_punct(p, '.'));
        let path =
            prev.is_some_and(|p| p > 0 && lexed.is_punct(p, ':') && lexed.is_punct(p - 1, ':'));
        let next_is = |c| lexed.next_code(i + 1).is_some_and(|n| lexed.is_punct(n, c));
        // `.name` with no call (or turbofish) after it reads a field, which
        // no indexed item is.
        if dot && !next_is('(') && !next_is(':') {
            continue;
        }
        // `::name::rest` is a path segment (a module or a type), not a use
        // of an associated item named `name`; `::name::<T>` is a turbofish.
        let segment = lexed.next_code(i + 1).is_some_and(|n| {
            lexed.is_punct(n, ':')
                && n + 1 < toks.len()
                && lexed.is_punct(n + 1, ':')
                && lexed
                    .next_code(n + 2)
                    .is_some_and(|m| !lexed.is_punct(m, '<'))
        });
        if dot || (path && !segment) {
            cross.members.insert(tok.text.clone());
        }
        cross.names.insert(tok.text.clone());
    }
}

/// Adds the file's non-test `pub` items to `cross.items`.
fn collect_pub_items(
    rel_path: &str,
    lexed: &Lexed,
    in_tests: &dyn Fn(usize) -> bool,
    cross: &mut CrossFile,
) {
    let toks = &lexed.tokens;
    let impls: Vec<(usize, usize)> = (0..toks.len())
        .filter(|&i| lexed.is_ident(i, "impl") && !toks[i].attr)
        .filter_map(|i| brace_block(lexed, i))
        .collect();
    for i in 0..toks.len() {
        if !lexed.is_ident(i, "pub") || toks[i].attr || in_tests(i) {
            continue;
        }
        let Some((kind, name)) = pub_item(lexed, i) else {
            continue;
        };
        cross.items.push(PubItem {
            file: rel_path.to_string(),
            line: toks[name].line,
            kind,
            name: toks[name].text.clone(),
            associated: impls.iter().any(|&(lo, hi)| lo < i && i < hi),
        });
    }
}

/// For `pub [const] [unsafe] [async] [extern "abi"] <kind> <name>` at token
/// `i` with `<kind>` in [`ITEM_KINDS`]: the kind and the name's index.
fn pub_item(lexed: &Lexed, i: usize) -> Option<(&'static str, usize)> {
    let toks = &lexed.tokens;
    let qualifies = |k: usize| {
        toks[k].kind == TokKind::Str
            || ["unsafe", "async", "extern"]
                .iter()
                .any(|q| lexed.is_ident(k, q))
    };
    let mut k = lexed.next_code(i + 1)?;
    loop {
        let next = lexed.next_code(k + 1)?;
        // `pub const fn` qualifies a fn; `pub const NAME` is a const.
        let const_fn =
            lexed.is_ident(k, "const") && (lexed.is_ident(next, "fn") || qualifies(next));
        if !(qualifies(k) || const_fn) {
            break;
        }
        k = next;
    }
    let kind = ITEM_KINDS.iter().copied().find(|q| lexed.is_ident(k, q))?;
    let name = lexed.next_code(k + 1)?;
    (toks[name].kind == TokKind::Ident).then_some((kind, name))
}

/// The token at `i` is the name an item definition introduces (`fn name`,
/// `struct Name`, …), not a use of it.
fn is_definition_name(lexed: &Lexed, i: usize) -> bool {
    let Some(p) = lexed.prev_code(i) else {
        return false;
    };
    // `*const T` names `T`.
    if lexed.is_ident(p, "const") && lexed.prev_code(p).is_some_and(|q| lexed.is_punct(q, '*')) {
        return false;
    }
    lexed.is_ident(p, "mod") || ITEM_KINDS.iter().any(|k| lexed.is_ident(p, k))
}

/// The other direction of rules `boundary-panic` and `hot-path-alloc`, which
/// lint only what `check.toml` names: a `[boundary]` entry matching none of
/// the linted `files`, a `[[hot_path]]` file that is not one of them, or a
/// `fns` name its file declares no `fn` for, would silently lint nothing.
/// Findings are reported against `check.toml`, at line 0.
pub(crate) fn stale_manifest_entries(
    config: &Config,
    files: &[String],
    source: impl Fn(&str) -> std::io::Result<String>,
) -> std::io::Result<Vec<Finding>> {
    let stale = |rule, message| Finding {
        file: "check.toml".to_string(),
        line: 0,
        rule,
        message,
    };
    let mut findings: Vec<Finding> = config
        .boundary
        .iter()
        .filter(|entry| !files.iter().any(|f| path_matches(f, entry)))
        .map(|entry| {
            let message = format!("boundary entry `{entry}` matches no linted file");
            stale("boundary-panic", message)
        })
        .collect();
    for hot in &config.hot_paths {
        if !files.contains(&hot.file) {
            let message = format!("hot path `{}` is not a linted file", hot.file);
            findings.push(stale("hot-path-alloc", message));
            continue;
        }
        let lexed = lex(&source(&hot.file)?);
        for name in &hot.fns {
            if fn_body_regions(&lexed, std::slice::from_ref(name)).is_empty() {
                let message = format!("hot path `{}` has no `fn {name}`", hot.file);
                findings.push(stale("hot-path-alloc", message));
            }
        }
    }
    Ok(findings)
}

/// Drops the findings an inline suppression waives, marking the waivers
/// used, and sorts the rest by (line, rule).
fn apply_suppressions(findings: &mut Vec<Finding>, suppressions: &mut [Suppression]) {
    findings.retain(|f| !waived(suppressions, f));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
}

/// Whether a suppression of `f`'s rule sits in its file, on its line or the
/// line above; marks each such suppression used.
fn waived(suppressions: &mut [Suppression], f: &Finding) -> bool {
    let mut hit = false;
    for s in suppressions.iter_mut().filter(|s| {
        s.rule == f.rule && s.file == f.file && (f.line == s.line || f.line == s.line + 1)
    }) {
        s.used = true;
        hit = true;
    }
    hit
}

/// `prefix` either names the file exactly or a directory prefix of it.
fn path_matches(rel_path: &str, prefix: &str) -> bool {
    rel_path == prefix
        || (rel_path.starts_with(prefix) && rel_path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

/// Parses `// capes-check: allow(rule, …) -- reason` comments; malformed ones
/// become `bad-suppression` findings.
fn collect_suppressions(
    rel_path: &str,
    lexed: &Lexed,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut suppressions = Vec::new();
    for tok in lexed.tokens.iter().filter(|t| t.kind == TokKind::Comment) {
        // Only plain `//` comments carry directives; doc comments (`///`,
        // `//!`) and block comments merely *talk about* the syntax.
        let Some(body) = tok.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(rest) = body.trim_start().strip_prefix("capes-check:") else {
            continue;
        };
        let rest = rest.trim_start();
        let bad = |message: String| Finding {
            file: rel_path.to_string(),
            line: tok.line,
            rule: "bad-suppression",
            message,
        };
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            findings.push(bad(
                "suppression must be `capes-check: allow(<rule>) -- <reason>`".to_string(),
            ));
            continue;
        };
        let (rule_list, tail) = args;
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut ok = !rules.is_empty();
        for rule in &rules {
            let unwaivable = matches!(rule.as_str(), "bad-suppression" | "stale-suppression");
            if !RULE_IDS.contains(&rule.as_str()) || unwaivable {
                findings.push(bad(format!("suppression names unknown rule `{rule}`")));
                ok = false;
            }
        }
        let reason = tail.split_once("--").map(|(_, r)| r.trim()).unwrap_or("");
        if reason.is_empty() {
            findings.push(bad(
                "suppression is missing its `-- <reason>` justification".to_string(),
            ));
            ok = false;
        }
        if ok {
            suppressions.extend(rules.into_iter().map(|rule| Suppression {
                file: rel_path.to_string(),
                line: tok.line,
                rule,
                used: false,
            }));
        }
    }
    suppressions
}

/// Token index ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
fn test_mod_regions(lexed: &Lexed) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "mod" || toks[i].attr {
            continue;
        }
        // Walk back over the attribute tokens directly before `mod` (and a
        // `pub(crate)`-style visibility), looking for `cfg ( test )`.
        let mut has_cfg_test = false;
        let mut j = i;
        let mut attr_window: Vec<&str> = Vec::new();
        while j > 0 {
            j -= 1;
            let t = &toks[j];
            if t.kind == TokKind::Comment {
                continue;
            }
            if t.attr {
                attr_window.push(t.text.as_str());
            } else if !matches!(t.text.as_str(), "pub" | "(" | "crate" | "super" | ")") {
                break;
            }
        }
        for w in attr_window.windows(3) {
            // Reversed order: `) test ( cfg` reads as windows of the
            // backwards walk.
            if w[0] == "test" && w[2] == "cfg" {
                has_cfg_test = true;
            }
        }
        if !has_cfg_test {
            continue;
        }
        if let Some((open, close)) = brace_block(lexed, i) {
            regions.push((open, close));
        }
    }
    regions
}

/// Finds the `{ … }` block after token `from`: returns (open, close) indices.
fn brace_block(lexed: &Lexed, from: usize) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut i = from;
    // `(`/`[` nesting: the `;` of an array type in a signature
    // (`b: &[u8; 16]`) ends nothing.
    let mut nesting = 0usize;
    while i < toks.len() && toks[i].kind != TokKind::Punct('{') {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => nesting += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => nesting = nesting.saturating_sub(1),
            // A `;` first means there is no block (`mod name;`, fn declarations).
            TokKind::Punct(';') if nesting == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some((open, toks.len() - 1))
}

/// Rule `safety-comment`.
fn check_safety_comments(rel_path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "unsafe" || toks[i].attr {
            continue;
        }
        // `unsafe fn(…)` / `unsafe extern "C" fn(…)` in *type* position is a
        // signature, not an unsafe operation.
        if let Some(mut j) = lexed.next_code(i + 1) {
            if lexed.is_ident(j, "extern") {
                if let Some(k) = lexed.next_code(j + 1) {
                    j = if toks[k].kind == TokKind::Str {
                        lexed.next_code(k + 1).unwrap_or(k)
                    } else {
                        k
                    };
                }
            }
            if lexed.is_ident(j, "fn") {
                if let Some(k) = lexed.next_code(j + 1) {
                    if lexed.is_punct(k, '(') {
                        continue;
                    }
                }
            }
        }
        if !has_safety_comment(lexed, toks[i].line) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: toks[i].line,
                rule: "safety-comment",
                message: "`unsafe` without a `// SAFETY:` comment immediately above".to_string(),
            });
        }
    }
}

/// A `SAFETY:` (or rustdoc `# Safety`) comment on the same line or on a run
/// of comment/attribute-only lines directly above.
fn has_safety_comment(lexed: &Lexed, line: u32) -> bool {
    let marker = |t: &crate::lexer::Tok| t.text.contains("SAFETY:") || t.text.contains("# Safety");
    if lexed.comments_on(line).any(marker) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        if lexed.line_has_code(l) {
            return false;
        }
        if lexed.comments_on(l).any(marker) {
            return true;
        }
        if !lexed.line_has_comment_or_attr(l) {
            // Blank line: the comment is no longer "immediately" above.
            return false;
        }
        l -= 1;
    }
    false
}

/// Rule `hot-path-alloc`.
fn check_hot_paths(
    rel_path: &str,
    lexed: &Lexed,
    config: &Config,
    test_regions: &[(usize, usize)],
    is_test_file: bool,
    findings: &mut Vec<Finding>,
) {
    if is_test_file {
        return;
    }
    let Some(hot) = config.hot_paths.iter().find(|h| h.file == rel_path) else {
        return;
    };
    let regions: Vec<(usize, usize)> = if hot.fns.is_empty() {
        vec![(0, lexed.tokens.len().saturating_sub(1))]
    } else {
        fn_body_regions(lexed, &hot.fns)
    };
    let in_hot = |i: usize| {
        regions.iter().any(|&(lo, hi)| lo <= i && i <= hi)
            && !test_regions.iter().any(|&(lo, hi)| lo <= i && i <= hi)
    };
    let toks = &lexed.tokens;
    const ALLOC_METHODS: &[&str] = &[
        "clone",
        "to_vec",
        "to_string",
        "to_owned",
        "collect",
        "to_path_buf",
        "to_os_string",
    ];
    const ALLOC_MACROS: &[&str] = &["vec", "format"];
    const ALLOC_TYPES: &[&str] = &[
        "Vec", "VecDeque", "Box", "String", "BTreeMap", "HashMap", "PathBuf", "OsString",
    ];
    const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];
    for i in 0..toks.len() {
        if !in_hot(i) || toks[i].attr || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let report = |what: String, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: toks[i].line,
                rule: "hot-path-alloc",
                message: format!("allocating call `{what}` in a module declared hot-path"),
            });
        };
        // `.method(`
        if ALLOC_METHODS.contains(&name) {
            let prev_dot = lexed.prev_code(i).is_some_and(|p| lexed.is_punct(p, '.'));
            let next_paren = lexed
                .next_code(i + 1)
                .is_some_and(|n| lexed.is_punct(n, '('));
            if prev_dot && next_paren {
                report(format!(".{name}()"), findings);
            }
            continue;
        }
        // `vec!` / `format!`
        if ALLOC_MACROS.contains(&name)
            && lexed
                .next_code(i + 1)
                .is_some_and(|n| lexed.is_punct(n, '!'))
        {
            report(format!("{name}!"), findings);
            continue;
        }
        // `Vec::new(` and friends
        if ALLOC_TYPES.contains(&name) {
            if let Some(c1) = lexed.next_code(i + 1) {
                if lexed.is_punct(c1, ':') {
                    if let Some(c2) = lexed.next_code(c1 + 1) {
                        if lexed.is_punct(c2, ':') {
                            if let Some(m) = lexed.next_code(c2 + 1) {
                                if toks[m].kind == TokKind::Ident
                                    && ALLOC_CTORS.contains(&toks[m].text.as_str())
                                {
                                    report(format!("{name}::{}", toks[m].text), findings);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Body token ranges of the named functions.
fn fn_body_regions(lexed: &Lexed, fns: &[String]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "fn" || toks[i].attr {
            continue;
        }
        let Some(name_idx) = lexed.next_code(i + 1) else {
            continue;
        };
        if toks[name_idx].kind != TokKind::Ident || !fns.iter().any(|f| f == &toks[name_idx].text) {
            continue;
        }
        if let Some(region) = brace_block(lexed, name_idx) {
            regions.push(region);
        }
    }
    regions
}

/// Rule `boundary-panic`.
fn check_boundary(
    rel_path: &str,
    lexed: &Lexed,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    // Innermost enclosing `(`/`[` opener for each token.
    let enclosing: Vec<Option<usize>> = {
        let mut map = vec![None; toks.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            map[i] = stack.last().copied();
            match t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') => stack.push(i),
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    stack.pop();
                }
                _ => {}
            }
        }
        map
    };
    for i in 0..toks.len() {
        if in_tests(i) || toks[i].attr {
            continue;
        }
        match toks[i].kind {
            TokKind::Ident => {
                let name = toks[i].text.as_str();
                if (name == "unwrap" || name == "expect")
                    && lexed.prev_code(i).is_some_and(|p| lexed.is_punct(p, '.'))
                    && lexed
                        .next_code(i + 1)
                        .is_some_and(|n| lexed.is_punct(n, '('))
                {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: toks[i].line,
                        rule: "boundary-panic",
                        message: format!(
                            "`.{name}()` in hardened boundary code; return an error instead"
                        ),
                    });
                } else if PANIC_MACROS.contains(&name)
                    && lexed
                        .next_code(i + 1)
                        .is_some_and(|n| lexed.is_punct(n, '!'))
                {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: toks[i].line,
                        rule: "boundary-panic",
                        message: format!(
                            "`{name}!` in hardened boundary code; return an error instead"
                        ),
                    });
                }
            }
            TokKind::Punct('[') => {
                let Some(p) = lexed.prev_code(i) else {
                    continue;
                };
                let indexes_expr = match toks[p].kind {
                    TokKind::Ident => {
                        !matches!(
                            toks[p].text.as_str(),
                            "return"
                                | "break"
                                | "in"
                                | "else"
                                | "match"
                                | "move"
                                | "mut"
                                | "ref"
                                | "box"
                                | "const"
                                | "static"
                                | "type"
                                | "impl"
                                | "dyn"
                                | "as"
                                | "where"
                                | "for"
                        ) && !toks[p].attr
                    }
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                };
                if !indexes_expr {
                    continue;
                }
                // A comment waives the finding when it sits on the indexing
                // line, the line above it, or the opening line of any
                // enclosing `(`/`[` group (so one comment covers a
                // multi-line expression).
                let covered = |line: u32| {
                    lexed.comments_on(line).next().is_some()
                        || (line > 1 && lexed.comments_on(line - 1).next().is_some())
                };
                let mut commented = false;
                let mut at = Some(i);
                while let Some(idx) = at {
                    if covered(toks[idx].line) {
                        commented = true;
                        break;
                    }
                    at = enclosing[idx];
                }
                if !commented {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: toks[i].line,
                        rule: "boundary-panic",
                        message: "unchecked indexing in hardened boundary code without a \
                                  bounds-justifying comment"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// `CAPES_` followed by at least one of `A-Z`, `0-9`, `_`.
fn is_knob(name: &str) -> bool {
    name.len() > "CAPES_".len()
        && name.starts_with("CAPES_")
        && name
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// Rule `env-registry`: flags unregistered knob literals and records every
/// knob literal into `env_reads`.
fn check_env_literals(
    rel_path: &str,
    lexed: &Lexed,
    config: &Config,
    registries: &Registries,
    in_tests: &dyn Fn(usize) -> bool,
    env_reads: &mut HashSet<String>,
    findings: &mut Vec<Finding>,
) {
    for (i, tok) in lexed.tokens.iter().enumerate() {
        let name = tok.text.as_str();
        if tok.kind != TokKind::Str || tok.attr || in_tests(i) || !is_knob(name) {
            continue;
        }
        env_reads.insert(name.to_string());
        if !registries.env.contains(name) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: tok.line,
                rule: "env-registry",
                message: format!(
                    "env var `{name}` is not declared in the knob registry ({})",
                    config.env_registry.join(", ")
                ),
            });
        }
    }
}

/// Rule `metric-registry`.
fn check_metric_literals(
    rel_path: &str,
    lexed: &Lexed,
    config: &Config,
    registries: &Registries,
    in_tests: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) {
    const SINKS: &[&str] = &[
        "counter",
        "gauge",
        "histogram",
        "publish_counter",
        "publish_gauge",
    ];
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if in_tests(i) || toks[i].attr || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        // `span!("…")`: the macro's only form is one string literal.
        let name_tok = if name == "span" {
            lexed
                .next_code(i + 1)
                .filter(|&n| lexed.is_punct(n, '!'))
                .and_then(|n| lexed.next_code(n + 1))
                .filter(|&p| lexed.is_punct(p, '('))
                .and_then(|p| lexed.next_code(p + 1))
                .filter(|&s| toks[s].kind == TokKind::Str)
        } else if SINKS.contains(&name)
            && lexed.prev_code(i).is_some_and(|p| lexed.is_punct(p, '.'))
        {
            lexed
                .next_code(i + 1)
                .filter(|&p| lexed.is_punct(p, '('))
                .and_then(|p| lexed.next_code(p + 1))
                .filter(|&s| toks[s].kind == TokKind::Str)
        } else {
            None
        };
        if let Some(s) = name_tok {
            let metric = toks[s].text.as_str();
            if !registries.metrics.contains(metric) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: toks[s].line,
                    rule: "metric-registry",
                    message: format!(
                        "metric/span name `{metric}` is not declared in the name registry ({})",
                        config.metric_registry.join(", ")
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_config() -> Config {
        Config::default()
    }

    fn lint(src: &str) -> Vec<Finding> {
        lint_with(src, &bare_config(), &Registries::default())
    }

    fn lint_with(src: &str, config: &Config, registries: &Registries) -> Vec<Finding> {
        lint_file(
            "crates/x/src/lib.rs",
            src,
            config,
            registries,
            &mut CrossFile::default(),
        )
    }

    #[test]
    fn safety_comment_is_required_and_recognized() {
        let bad = lint("fn f() { unsafe { g(); } }");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "safety-comment");
        let good = lint("fn f() {\n    // SAFETY: g has no preconditions.\n    unsafe { g(); }\n}");
        assert!(good.is_empty(), "{good:?}");
        let attr_between = lint(
            "// SAFETY: target checked by caller.\n#[target_feature(enable = \"avx2\")]\nunsafe fn k() {}",
        );
        assert!(attr_between.is_empty(), "{attr_between:?}");
        let blank_between = lint("// SAFETY: stale.\n\nunsafe fn k() {}");
        assert_eq!(blank_between.len(), 1);
    }

    #[test]
    fn unsafe_fn_pointer_types_are_not_sites() {
        let findings = lint("struct T { call: unsafe fn(*const (), usize) }");
        assert!(findings.is_empty(), "{findings:?}");
        let extern_fn = lint("type F = unsafe extern \"C\" fn(i32);");
        assert!(extern_fn.is_empty(), "{extern_fn:?}");
    }

    #[test]
    fn suppressions_waive_next_line_and_must_be_well_formed() {
        let waived =
            lint("// capes-check: allow(safety-comment) -- audited in tests.\nunsafe fn k() {}");
        assert!(waived.is_empty(), "{waived:?}");
        let unknown = lint("// capes-check: allow(no-such-rule) -- x\nfn f() {}");
        assert_eq!(unknown[0].rule, "bad-suppression");
        let reasonless = lint("// capes-check: allow(safety-comment)\nunsafe fn k() {}");
        assert!(reasonless.iter().any(|f| f.rule == "bad-suppression"));
        assert!(reasonless.iter().any(|f| f.rule == "safety-comment"));
    }

    #[test]
    fn hot_path_alloc_respects_fn_scoping() {
        let mut config = bare_config();
        config.hot_paths.push(crate::config::HotPath {
            file: "crates/x/src/lib.rs".to_string(),
            fns: vec!["hot".to_string()],
        });
        let src =
            "fn cold() { let v = Vec::new(); }\nfn hot() { let v = vec![1]; let s = x.clone(); }";
        let findings = lint_with(src, &config, &Registries::default());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.rule == "hot-path-alloc" && f.line == 2));
        // The `;` of an array type in the signature does not hide the body.
        let src = "fn hot(b: &[u8; 16], c: [[u8; 4]; 2]) -> u32 {\n    b.to_vec(); 0\n}";
        let findings = lint_with(src, &config, &Registries::default());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn boundary_rules_fire_outside_tests_only() {
        let mut config = bare_config();
        config.boundary.push("crates/x/src".to_string());
        let src = "fn f(v: &[u8]) -> u8 { let x = v[0]; x }\n\
                   fn g() { q().unwrap(); panic!(\"no\"); }\n\
                   #[cfg(test)]\nmod tests { fn t() { q().unwrap(); } }";
        let findings = lint_with(src, &config, &Registries::default());
        let rules: Vec<_> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(
            rules,
            [
                (1, "boundary-panic"),
                (2, "boundary-panic"),
                (2, "boundary-panic")
            ],
            "{findings:?}"
        );
        // A justifying comment waives the indexing finding.
        let commented = "fn f(v: &[u8]) -> u8 { v[0] } // len checked by caller";
        let ok = lint_with(commented, &config, &Registries::default());
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn a_manifest_entry_naming_no_file_is_one_finding() {
        let files = ["crates/x/src/lib.rs".to_string()];
        let mut boundary = bare_config();
        boundary.boundary.push("crates/x/src/gone.rs".to_string());
        let mut hot = bare_config();
        hot.hot_paths.push(crate::config::HotPath {
            file: "crates/x/src/gone.rs".to_string(),
            fns: Vec::new(),
        });
        for (config, rule) in [(boundary, "boundary-panic"), (hot, "hot-path-alloc")] {
            let findings = stale_manifest_entries(&config, &files, |_| Ok(String::new())).unwrap();
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(
                (findings[0].file.as_str(), findings[0].rule),
                ("check.toml", rule)
            );
        }
    }

    #[test]
    fn a_hot_path_fn_naming_no_function_is_one_finding() {
        let mut config = bare_config();
        config.hot_paths.push(crate::config::HotPath {
            file: "crates/x/src/lib.rs".to_string(),
            fns: vec!["hot".to_string(), "gone".to_string()],
        });
        let files = ["crates/x/src/lib.rs".to_string()];
        let source = |_: &str| Ok("fn hot() {}".to_string());
        let findings = stale_manifest_entries(&config, &files, source).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hot-path-alloc");
        assert!(findings[0].message.contains("fn gone"), "{findings:?}");
    }

    #[test]
    fn dead_pub_sees_qualified_items_renames_raw_pointers_and_format_args() {
        let mut cross = CrossFile::default();
        let registries = Registries::default();
        let items = "pub const fn a() {}\n\
                     pub const B: u8 = 0;\n\
                     pub static C: u8 = 0;\n\
                     pub unsafe extern \"C\" fn d() {}\n\
                     pub struct E;\n\
                     pub struct F;\n";
        let user = "use x::E as Renamed;\nfn g(_: *const F) -> Renamed { Renamed }\n\
                    fn h() { println!(\"{B:>4}\") }\n";
        for (path, src) in [
            ("crates/x/src/lib.rs", items),
            ("crates/y/src/lib.rs", user),
        ] {
            lint_file(path, src, &bare_config(), &registries, &mut cross);
        }
        let dead: Vec<_> = dead_pub(&mut cross).iter().map(|f| f.line).collect();
        assert_eq!(dead, [1, 3, 4]);
    }

    #[test]
    fn name_registries_catch_drift() {
        let mut config = bare_config();
        config
            .env_registry
            .push("crates/capes/src/knobs.rs".to_string());
        config
            .metric_registry
            .push("crates/telemetry/src/names.rs".to_string());
        let mut registries = Registries::default();
        registries.env.insert("CAPES_THREADS".to_string());
        registries.metrics.insert("gemm.pool_dispatch".to_string());
        let src = "fn f() {\n\
                   let _ = std::env::var(\"CAPES_THREADS\");\n\
                   let _ = std::env::var(\"CAPES_BRAND_NEW\");\n\
                   let _s = span!(\"gemm.pool_dispatch\");\n\
                   let _t = span!(\"gemm.mystery\");\n\
                   reg.counter(\"gemm.mystery\");\n\
                   }";
        let findings = lint_with(src, &config, &registries);
        let rules: Vec<_> = findings.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(
            rules,
            [
                (3, "env-registry"),
                (5, "metric-registry"),
                (6, "metric-registry")
            ],
            "{findings:?}"
        );
    }
}
