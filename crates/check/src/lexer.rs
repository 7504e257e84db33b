//! A small comment- and string-aware Rust lexer.
//!
//! The linter's rules are token-level: they never need a full parse, but they
//! must never be fooled by the word `unsafe` inside a string literal or a
//! `.unwrap()` inside a doc comment. This lexer produces exactly enough
//! structure for that: identifiers, literals, single-char punctuation, and
//! comments (kept as tokens — the `SAFETY:` rule and the suppression syntax
//! live in them), each tagged with its source line range and whether it sits
//! inside an attribute.

/// Token class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    Ident,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`, `c"…"`). The
    /// token text is the *inner* content, escapes unprocessed.
    Str,
    /// Character or byte-character literal.
    Char,
    Lifetime,
    Num,
    /// One punctuation character.
    Punct(char),
    /// Line or block comment, text included (`//` / `/*` markers kept).
    Comment,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// 1-based line the token ends on (differs for block comments/strings).
    pub end_line: u32,
    /// `true` when the token is part of an `#[…]` / `#![…]` attribute.
    pub attr: bool,
}

/// A lexed file: the token stream plus per-line occupancy used by the
/// "comment immediately above" checks.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub tokens: Vec<Tok>,
}

impl Lexed {
    /// `true` if `line` carries any non-comment, non-attribute token.
    pub(crate) fn line_has_code(&self, line: u32) -> bool {
        self.tokens
            .iter()
            .any(|t| t.kind != TokKind::Comment && !t.attr && t.line <= line && line <= t.end_line)
    }

    /// `true` if `line` carries an attribute or comment token (and possibly
    /// nothing else).
    pub(crate) fn line_has_comment_or_attr(&self, line: u32) -> bool {
        self.tokens
            .iter()
            .any(|t| (t.kind == TokKind::Comment || t.attr) && t.line <= line && line <= t.end_line)
    }

    /// Comments whose span covers `line`.
    pub(crate) fn comments_on(&self, line: u32) -> impl Iterator<Item = &Tok> {
        self.tokens
            .iter()
            .filter(move |t| t.kind == TokKind::Comment && t.line <= line && line <= t.end_line)
    }

    /// Index of the next non-comment token at or after `i`.
    pub(crate) fn next_code(&self, mut i: usize) -> Option<usize> {
        while i < self.tokens.len() {
            if self.tokens[i].kind != TokKind::Comment {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Index of the previous non-comment token strictly before `i`.
    pub(crate) fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i)
            .rev()
            .find(|&j| self.tokens[j].kind != TokKind::Comment)
    }

    /// `true` if the non-comment token at `i` is the identifier `name`.
    pub(crate) fn is_ident(&self, i: usize, name: &str) -> bool {
        let t = &self.tokens[i];
        t.kind == TokKind::Ident && t.text == name
    }

    /// `true` if the token at `i` is the punctuation `c`.
    pub(crate) fn is_punct(&self, i: usize, c: char) -> bool {
        self.tokens[i].kind == TokKind::Punct(c)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl Cursor<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.src.get(self.pos).copied();
        if let Some(b) = byte {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
            }
        }
        byte
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens. Unterminated constructs are closed at EOF
/// (the linter must degrade gracefully, never panic, on odd input).
pub(crate) fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut tokens: Vec<Tok> = Vec::new();
    while let Some(b) = cur.peek(0) {
        let start_line = cur.line;
        let start = cur.pos;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                while let Some(c) = cur.peek(0) {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                push(
                    &mut tokens,
                    TokKind::Comment,
                    src,
                    start,
                    cur.pos,
                    start_line,
                    cur.line,
                );
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'*'), Some(b'/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(b'/'), Some(b'*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                push(
                    &mut tokens,
                    TokKind::Comment,
                    src,
                    start,
                    cur.pos,
                    start_line,
                    cur.line,
                );
            }
            b'"' => {
                lex_quoted_string(&mut cur);
                push_str(
                    &mut tokens,
                    src,
                    start + 1,
                    cur.pos.saturating_sub(1),
                    start_line,
                    cur.line,
                );
            }
            b'r' | b'b' | b'c' if string_prefix_len(&cur).is_some() => {
                let (prefix, hashes) = string_prefix_len(&cur).expect("checked above");
                for _ in 0..prefix + hashes + 1 {
                    cur.bump();
                }
                let inner_start = cur.pos;
                if hashes > 0 || prefix_is_raw(&cur, start, prefix) {
                    // Raw string: ends at `"` followed by `hashes` hashes.
                    loop {
                        match cur.peek(0) {
                            None => break,
                            Some(b'"') if raw_terminator(&cur, hashes) => {
                                let inner_end = cur.pos;
                                cur.bump();
                                for _ in 0..hashes {
                                    cur.bump();
                                }
                                push_str(
                                    &mut tokens,
                                    src,
                                    inner_start,
                                    inner_end,
                                    start_line,
                                    cur.line,
                                );
                                break;
                            }
                            Some(_) => {
                                cur.bump();
                            }
                        }
                    }
                    if cur.peek(0).is_none() && tokens.last().map(|t| t.kind) != Some(TokKind::Str)
                    {
                        push_str(&mut tokens, src, inner_start, cur.pos, start_line, cur.line);
                    }
                } else {
                    // `b"…"` / `c"…"`: ordinary escape rules.
                    lex_quoted_string(&mut cur);
                    push_str(
                        &mut tokens,
                        src,
                        inner_start,
                        cur.pos.saturating_sub(1),
                        start_line,
                        cur.line,
                    );
                }
            }
            b'\'' => {
                cur.bump();
                match cur.peek(0) {
                    Some(c) if is_ident_start(c) && c != b'\\' => {
                        // Lifetime unless a closing quote follows one ident
                        // char (`'a'` vs `'a`).
                        let mut len = 0usize;
                        while cur.peek(len).map(is_ident_continue) == Some(true) {
                            len += 1;
                        }
                        if cur.peek(len) == Some(b'\'') {
                            for _ in 0..=len {
                                cur.bump();
                            }
                            push(
                                &mut tokens,
                                TokKind::Char,
                                src,
                                start,
                                cur.pos,
                                start_line,
                                cur.line,
                            );
                        } else {
                            for _ in 0..len {
                                cur.bump();
                            }
                            push(
                                &mut tokens,
                                TokKind::Lifetime,
                                src,
                                start,
                                cur.pos,
                                start_line,
                                cur.line,
                            );
                        }
                    }
                    Some(_) => {
                        // Escaped or punctuation char literal `'\n'`, `'('`,
                        // `'\x7f'`, `'\u{0008}'`.
                        if cur.peek(0) == Some(b'\\') {
                            cur.bump();
                            match cur.peek(0) {
                                Some(b'x') => {
                                    cur.bump();
                                    cur.bump();
                                }
                                Some(b'u') if cur.peek(1) == Some(b'{') => {
                                    while !matches!(cur.peek(0), None | Some(b'}' | b'\'')) {
                                        cur.bump();
                                    }
                                }
                                _ => {}
                            }
                        }
                        cur.bump();
                        if cur.peek(0) == Some(b'\'') {
                            cur.bump();
                        }
                        push(
                            &mut tokens,
                            TokKind::Char,
                            src,
                            start,
                            cur.pos,
                            start_line,
                            cur.line,
                        );
                    }
                    None => {}
                }
            }
            b'0'..=b'9' => {
                if b == b'0' && matches!(cur.peek(1), Some(b'x' | b'o' | b'b')) {
                    cur.bump();
                    cur.bump();
                    while cur.peek(0).map(|c| c.is_ascii_alphanumeric() || c == b'_') == Some(true)
                    {
                        cur.bump();
                    }
                } else {
                    while cur.peek(0).map(|c| c.is_ascii_digit() || c == b'_') == Some(true) {
                        cur.bump();
                    }
                    if cur.peek(0) == Some(b'.')
                        && cur.peek(1).map(|c| c.is_ascii_digit()) == Some(true)
                    {
                        cur.bump();
                        while cur.peek(0).map(|c| c.is_ascii_digit() || c == b'_') == Some(true) {
                            cur.bump();
                        }
                    }
                    if matches!(cur.peek(0), Some(b'e' | b'E'))
                        && (cur.peek(1).map(|c| c.is_ascii_digit()) == Some(true)
                            || (matches!(cur.peek(1), Some(b'+' | b'-'))
                                && cur.peek(2).map(|c| c.is_ascii_digit()) == Some(true)))
                    {
                        cur.bump();
                        if matches!(cur.peek(0), Some(b'+' | b'-')) {
                            cur.bump();
                        }
                        while cur.peek(0).map(|c| c.is_ascii_digit() || c == b'_') == Some(true) {
                            cur.bump();
                        }
                    }
                    // Type suffix (`1.0f64`, `32usize`).
                    while cur.peek(0).map(is_ident_continue) == Some(true) {
                        cur.bump();
                    }
                }
                push(
                    &mut tokens,
                    TokKind::Num,
                    src,
                    start,
                    cur.pos,
                    start_line,
                    cur.line,
                );
            }
            _ if is_ident_start(b) => {
                cur.bump();
                // Raw identifier `r#ident` (the raw-string case was handled
                // above, so a `#` here is always an identifier).
                if b == b'r' && cur.peek(0) == Some(b'#') {
                    cur.bump();
                }
                while cur.peek(0).map(is_ident_continue) == Some(true) {
                    cur.bump();
                }
                push(
                    &mut tokens,
                    TokKind::Ident,
                    src,
                    start,
                    cur.pos,
                    start_line,
                    cur.line,
                );
            }
            _ => {
                cur.bump();
                push(
                    &mut tokens,
                    TokKind::Punct(b as char),
                    src,
                    start,
                    cur.pos,
                    start_line,
                    cur.line,
                );
            }
        }
    }
    let mut lexed = Lexed { tokens };
    mark_attributes(&mut lexed);
    lexed
}

/// Consumes a `"…"` body starting at the opening quote; handles escapes.
fn lex_quoted_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(c) = cur.peek(0) {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'"' => {
                cur.bump();
                return;
            }
            _ => {
                cur.bump();
            }
        }
    }
}

/// If the cursor sits on a string prefix (`r"`, `r#"`, `b"`, `br#"`, `c"`,
/// `cr"`, …) returns `(prefix_letters, hash_count)`.
fn string_prefix_len(cur: &Cursor<'_>) -> Option<(usize, usize)> {
    let mut prefix = 0usize;
    while prefix < 2 && matches!(cur.peek(prefix), Some(b'r' | b'b' | b'c')) {
        prefix += 1;
    }
    if prefix == 0 {
        return None;
    }
    let mut hashes = 0usize;
    while cur.peek(prefix + hashes) == Some(b'#') {
        hashes += 1;
    }
    if cur.peek(prefix + hashes) == Some(b'"') {
        // `r#ident` has hashes but no quote and lands here only with a quote.
        Some((prefix, hashes))
    } else {
        None
    }
}

fn prefix_is_raw(cur: &Cursor<'_>, start: usize, prefix: usize) -> bool {
    cur.src[start..start + prefix].contains(&b'r')
}

/// At a `"` inside a raw string: is it followed by `hashes` `#`s?
fn raw_terminator(cur: &Cursor<'_>, hashes: usize) -> bool {
    (1..=hashes).all(|k| cur.peek(k) == Some(b'#'))
}

fn push(
    tokens: &mut Vec<Tok>,
    kind: TokKind,
    src: &str,
    start: usize,
    end: usize,
    line: u32,
    end_line: u32,
) {
    tokens.push(Tok {
        kind,
        text: src[start..end].to_string(),
        line,
        end_line,
        attr: false,
    });
}

fn push_str(tokens: &mut Vec<Tok>, src: &str, start: usize, end: usize, line: u32, end_line: u32) {
    let end = end.max(start);
    tokens.push(Tok {
        kind: TokKind::Str,
        text: src[start..end].to_string(),
        line,
        end_line,
        attr: false,
    });
}

/// Tags every token belonging to an `#[…]` / `#![…]` attribute.
fn mark_attributes(lexed: &mut Lexed) {
    let mut i = 0;
    while i < lexed.tokens.len() {
        if lexed.tokens[i].kind == TokKind::Punct('#') {
            let mut j = i + 1;
            while j < lexed.tokens.len() && lexed.tokens[j].kind == TokKind::Comment {
                j += 1;
            }
            if j < lexed.tokens.len() && lexed.tokens[j].kind == TokKind::Punct('!') {
                j += 1;
                while j < lexed.tokens.len() && lexed.tokens[j].kind == TokKind::Comment {
                    j += 1;
                }
            }
            if j < lexed.tokens.len() && lexed.tokens[j].kind == TokKind::Punct('[') {
                let mut depth = 0usize;
                let mut k = j;
                while k < lexed.tokens.len() {
                    match lexed.tokens[k].kind {
                        TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let end = k.min(lexed.tokens.len() - 1);
                for t in &mut lexed.tokens[i..=end] {
                    if t.kind != TokKind::Comment {
                        t.attr = true;
                    }
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_strings_and_idents_are_separated() {
        let lexed = lex("let x = \"unsafe // not code\"; // unsafe in comment\nunsafe {}");
        let unsafe_idents: Vec<&Tok> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident && t.text == "unsafe")
            .collect();
        assert_eq!(unsafe_idents.len(), 1);
        assert_eq!(unsafe_idents[0].line, 2);
        let strings: Vec<&Tok> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strings[0].text, "unsafe // not code");
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let lexed = lex("let r#fn = r#\"has \" quote\"#; let b = br##\"x\"##;");
        let strings: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strings, ["has \" quote", "x"]);
        assert!(lexed.tokens.iter().any(|t| t.text == "r#fn"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokKind::Char)
                .count(),
            1
        );
    }

    #[test]
    fn escaped_char_literals_are_one_token() {
        let texts =
            |src: &str| -> Vec<String> { lex(src).tokens.into_iter().map(|t| t.text).collect() };
        assert_eq!(texts("'\\u{0008}')"), ["'\\u{0008}'", ")"]);
        assert_eq!(
            texts("m('\\x7f', \"unsafe\")"),
            ["m", "(", "'\\x7f'", ",", "unsafe", ")"]
        );
        assert_eq!(texts("'\\x7f'}"), ["'\\x7f'", "}"]);
    }

    #[test]
    fn attributes_are_tagged() {
        let lexed = lex("#[cfg(test)]\nmod tests {}\n#![deny(unsafe_code)]");
        let attr_idents: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.attr && t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(attr_idents.contains(&"cfg"));
        assert!(attr_idents.contains(&"deny"));
        assert!(!lexed.tokens.iter().any(|t| t.text == "mod" && t.attr));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lexed = lex("/* a /* nested */ still */\ncode();");
        assert_eq!(lexed.tokens[0].kind, TokKind::Comment);
        assert_eq!(lexed.tokens[0].end_line, 1);
        assert!(lexed.line_has_code(2));
        assert!(!lexed.line_has_code(1));
    }

    #[test]
    fn numbers_with_ranges_do_not_eat_dots() {
        let lexed = lex("for i in 0..10 { a[i] = 1.5e-3; }");
        let nums: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0", "10", "1.5e-3"]);
    }
}
