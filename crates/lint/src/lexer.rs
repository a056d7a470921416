//! A token-level scanner for Rust source.
//!
//! The rules in [`crate::rules`] must never fire on commented-out code, on
//! string literals that merely *mention* `recv()`, or on `#[cfg(test)]`
//! modules (tests may block under a lock freely). Regex-over-lines cannot make
//! those guarantees; a real lexer can. This one understands every Rust
//! surface form that matters for that goal:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments,
//! * string literals with escapes, byte strings, and raw strings with an
//!   arbitrary `#` fence (`r#"…"#`),
//! * char literals (including escapes) versus lifetimes (`'a'` vs `'a`),
//! * identifiers, numbers, and single-char punctuation.
//!
//! It is *not* a parser: it produces a flat token stream with line numbers,
//! which is the level the scope layer builds on. A post-pass
//! (`mark_test_regions`) brace-matches `#[cfg(test)]` / `#[test]` items
//! so rules can skip test code without a syntax tree.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// Numeric literal (approximate: suffixes ride along).
    Num,
    /// String, byte-string, or raw-string literal.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// `//…` comment, text excludes the trailing newline.
    LineComment,
    /// `/*…*/` comment (possibly nested, possibly multi-line).
    BlockComment,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Kind tag.
    pub kind: TokKind,
    /// Verbatim source text of the token.
    pub text: String,
    /// 1-based line the token *starts* on.
    pub line: u32,
    /// Whether the token sits inside a `#[cfg(test)]` module or `#[test]`
    /// function (set by `mark_test_regions`).
    pub in_test: bool,
}

impl Tok {
    fn new(kind: TokKind, text: String, line: u32) -> Self {
        Tok {
            kind,
            text,
            line,
            in_test: false,
        }
    }

    /// Whether the token is code (not a comment) — what rules match on.
    pub fn is_code(&self) -> bool {
        !matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Code token with exactly this text.
    pub fn is(&self, text: &str) -> bool {
        self.is_code() && self.text == text
    }
}

/// Lexes `src` into a token stream and marks test regions.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            toks.push(Tok::new(
                TokKind::LineComment,
                chars[start..i].iter().collect(),
                line,
            ));
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            toks.push(Tok::new(
                TokKind::BlockComment,
                chars[start..i].iter().collect(),
                start_line,
            ));
            continue;
        }
        // Raw strings: r"…", r#"…"#, br"…", br#"…"# — no escapes inside,
        // terminated by a quote followed by the opening's hash fence.
        if let Some((end, newlines)) = raw_string_end(&chars, i) {
            toks.push(Tok::new(TokKind::Str, chars[i..end].iter().collect(), line));
            line += newlines;
            i = end;
            continue;
        }
        if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
            let start = i;
            let start_line = line;
            i += if c == 'b' { 2 } else { 1 };
            while i < chars.len() {
                match chars[i] {
                    '\\' => {
                        // Escapes skip the next char; a `\<newline>`
                        // line-continuation still advances the line count.
                        if chars.get(i + 1) == Some(&'\n') {
                            line += 1;
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            toks.push(Tok::new(
                TokKind::Str,
                chars[start..i].iter().collect(),
                start_line,
            ));
            continue;
        }
        if c == '\'' || (c == 'b' && chars.get(i + 1) == Some(&'\'')) {
            let start = i;
            let q = if c == 'b' { i + 1 } else { i };
            // Lifetime: 'ident not closed by a quote right after one char.
            let is_lifetime = c == '\''
                && matches!(chars.get(q + 1), Some(ch) if ch.is_alphanumeric() || *ch == '_')
                && chars.get(q + 2) != Some(&'\'');
            if is_lifetime {
                i = q + 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::new(
                    TokKind::Lifetime,
                    chars[start..i].iter().collect(),
                    line,
                ));
            } else {
                i = q + 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '\'' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Tok::new(
                    TokKind::Char,
                    chars[start..i].iter().collect(),
                    line,
                ));
            }
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Tok::new(
                TokKind::Ident,
                chars[start..i].iter().collect(),
                line,
            ));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() {
                let ch = chars[i];
                if ch.is_ascii_alphanumeric() || ch == '_' {
                    i += 1;
                } else if ch == '.' && matches!(chars.get(i + 1), Some(d) if d.is_ascii_digit()) {
                    // `1.5` continues the number; `0..n` leaves `..` alone.
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok::new(
                TokKind::Num,
                chars[start..i].iter().collect(),
                line,
            ));
            continue;
        }
        toks.push(Tok::new(TokKind::Punct, c.to_string(), line));
        i += 1;
    }
    mark_test_regions(&mut toks);
    toks
}

/// If a raw string starts at `chars[i]`, returns `(end_index, newlines)`.
fn raw_string_end(chars: &[char], i: usize) -> Option<(usize, u32)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    let mut newlines = 0u32;
    while j < chars.len() {
        if chars[j] == '\n' {
            newlines += 1;
            j += 1;
            continue;
        }
        if chars[j] == '"' {
            let fence = &chars[j + 1..(j + 1 + hashes).min(chars.len())];
            if fence.len() == hashes && fence.iter().all(|&h| h == '#') {
                return Some((j + 1 + hashes, newlines));
            }
        }
        j += 1;
    }
    Some((chars.len(), newlines))
}

/// Marks every token inside a `#[cfg(test)]` `mod`/`fn` or a `#[test]` fn
/// as test code, by brace-matching the item body that follows the
/// attribute. Inner attributes (`#![…]`) and unrelated attributes (incl.
/// `#[cfg(not(test))]`) never trigger marking.
fn mark_test_regions(toks: &mut [Tok]) {
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is("#") && matches!(toks.get(i + 1), Some(t) if t.is("["))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some((inner, after)) = attribute_span(toks, i) else {
            i += 1;
            continue;
        };
        let is_test_attr = inner == ["test"] || inner == ["cfg", "(", "test", ")"];
        if !is_test_attr {
            i = after;
            continue;
        }
        // Skip any further attributes stacked after the test attribute.
        let mut j = after;
        while j < toks.len() && toks[j].is("#") {
            match attribute_span(toks, j) {
                Some((_, next)) => j = next,
                None => break,
            }
        }
        // Find the item body: the first `{` before any `;` (a `mod x;`
        // or signature-only form has no inline body to mark).
        let mut body = None;
        while j < toks.len() {
            if toks[j].is(";") {
                break;
            }
            if toks[j].is("{") {
                body = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = body else {
            i = after;
            continue;
        };
        let mut depth = 0usize;
        let mut k = open;
        while k < toks.len() {
            if toks[k].is("{") {
                depth += 1;
            } else if toks[k].is("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let end = k.min(toks.len().saturating_sub(1));
        for t in &mut toks[attr_start..=end] {
            t.in_test = true;
        }
        i = end + 1;
    }
}

/// For an attribute starting at `toks[i] == '#'` (outer form `#[…]`),
/// returns the inner token texts and the index just past the closing `]`.
/// Inner attributes `#![…]` return `None` (they are never test markers).
fn attribute_span(toks: &[Tok], i: usize) -> Option<(Vec<String>, usize)> {
    if !toks[i].is("#") {
        return None;
    }
    let mut j = i + 1;
    if matches!(toks.get(j), Some(t) if t.is("!")) {
        return None;
    }
    if !matches!(toks.get(j), Some(t) if t.is("[")) {
        return None;
    }
    j += 1;
    let mut depth = 1usize;
    let mut inner = Vec::new();
    while j < toks.len() {
        if toks[j].is("[") {
            depth += 1;
        } else if toks[j].is("]") {
            depth -= 1;
            if depth == 0 {
                return Some((inner, j + 1));
            }
        }
        if toks[j].is_code() {
            inner.push(toks[j].text.clone());
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_are_not_code() {
        let toks = lex("let x = 1; // x.unwrap()\n/* panic!() */ let y = 2;");
        let code: Vec<&str> = toks
            .iter()
            .filter(|t| t.is_code())
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(code, ["let", "x", "=", "1", ";", "let", "y", "=", "2", ";"]);
        assert!(toks.iter().any(|t| t.kind == TokKind::LineComment));
        assert!(toks.iter().any(|t| t.kind == TokKind::BlockComment));
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let toks = lex("/* outer /* inner */ still comment */ code");
        let code: Vec<&str> = toks
            .iter()
            .filter(|t| t.is_code())
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(code, ["code"]);
    }

    #[test]
    fn strings_swallow_panicky_text() {
        let toks = lex(r#"let m = "call .unwrap() or panic!";"#);
        assert!(toks.iter().all(|t| t.text != "unwrap" && t.text != "panic"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_respect_the_hash_fence() {
        let toks = lex(r###"let s = r#"quote " inside, and .unwrap()"#; after"###);
        assert!(toks.iter().any(|t| t.is("after")));
        assert!(toks.iter().all(|t| t.text != "unwrap"));
        // An escape-like backslash before the closing quote stays raw.
        let toks = lex(r#"let s = r"a\"; done"#);
        assert!(toks.iter().any(|t| t.is("done")));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let toks = lex(r#"let s = "a\"b.unwrap()\"c"; tail"#);
        assert!(toks.iter().any(|t| t.is("tail")));
        assert!(toks.iter().all(|t| t.text != "unwrap"));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let toks = kinds("let c = 'x'; fn f<'a>(s: &'a str) { let q = '\\''; }");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Char && t == "'\\''"));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let toks = lex("a\n\"two\nline\"\nb\n/* c\nd */\ne");
        let find = |name: &str| toks.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(4));
        assert_eq!(find("e"), Some(7));
    }

    #[test]
    fn string_line_continuations_advance_the_line_count() {
        // A `\<newline>` escape inside a string must still count the line,
        // or every report location after it drifts.
        let toks = lex("let s = \"first \\\n second\";\nafter");
        assert_eq!(toks.iter().find(|t| t.is("after")).map(|t| t.line), Some(3));
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = kinds("for i in 0..16 { let x = 1.5e3; }");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "16"));
        assert!(toks.iter().any(|(_, t)| t == "."));
    }

    #[test]
    fn cfg_test_mod_is_marked_as_test_code() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn live2() {}";
        let toks = lex(src);
        let unwraps: Vec<bool> = toks
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, [false, true]);
        assert!(toks.iter().any(|t| t.is("live2") && !t.in_test));
    }

    #[test]
    fn test_attribute_on_fn_is_marked() {
        let src = "#[test]\nfn check() { it.unwrap(); }\nfn live() { ok(); }";
        let toks = lex(src);
        let unwrap = toks.iter().find(|t| t.text == "unwrap").map(|t| t.in_test);
        assert_eq!(unwrap, Some(true));
        assert!(toks.iter().any(|t| t.is("live") && !t.in_test));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod real { fn f() { x.unwrap(); } }";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.text == "unwrap" && !t.in_test));
    }

    #[test]
    fn inner_attributes_do_not_confuse_region_marking() {
        let src = "#![forbid(unsafe_code)]\nfn live() { x.unwrap(); }";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.text == "unwrap" && !t.in_test));
    }

    #[test]
    fn mod_declaration_without_body_marks_nothing_after() {
        // `#[cfg(test)] mod tests;` has no inline body; the following item
        // must stay live.
        let src = "#[cfg(test)]\nmod tests;\nfn live() { x.unwrap(); }";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.text == "unwrap" && !t.in_test));
    }

    #[test]
    fn stacked_attributes_after_cfg_test_still_mark_the_body() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { x.unwrap(); } }";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.text == "unwrap" && t.in_test));
    }
}
