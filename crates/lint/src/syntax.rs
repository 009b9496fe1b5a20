//! Lightweight item/block structure over the token stream.
//!
//! [`FileIndex`] is what the rules actually consume: the full token stream
//! plus the derived structure a semantic pass needs —
//!
//! - `code`: indices of non-comment tokens (rules match against these, so
//!   string/comment contents can never trigger a finding);
//! - `test_mask`: per-token flags for `#[cfg(test)]` / `#[test]` regions,
//!   computed by real attribute parsing (so `#[cfg(not(test))]` stays
//!   production code and a brace inside a string cannot desync the depth
//!   tracker the way it could in the v1 line scanner);
//! - `fns`: every `fn` item with its name, visibility, doc-comment status
//!   and body token range — the unit of analysis for the doc rule (L4) and
//!   the dataflow passes (D2, D4);
//! - `allows`: inline `lint:allow(RULE)` markers, parsed **only from
//!   comment tokens**, so a marker quoted inside a string literal no longer
//!   silently suppresses a real finding (a v1 bug).
//!
//! The parser is deliberately shallow: it tracks brace structure and item
//! heads, not expressions. That is enough for every rule in [`crate::rules`]
//! and keeps the crate std-only and fast.

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::Rule;

/// One `fn` item (free function, method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based column of the `fn` keyword.
    pub col: usize,
    /// Whether the signature carries `pub` (any visibility form).
    pub is_pub: bool,
    /// Whether a doc comment (`///`, `/** */` or `#[doc]`) is attached.
    pub has_doc: bool,
    /// Whether the item sits inside a test region.
    pub is_test: bool,
    /// Positions in [`FileIndex::code`] of the body's `{` and `}`; `None`
    /// for bodyless trait method declarations.
    pub body: Option<(usize, usize)>,
}

/// One inline `lint:allow(RULE)` marker found in a comment token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllowMarker {
    /// Rule the marker suppresses.
    pub rule: Rule,
    /// 1-based line the marker's comment starts on — the marker applies to
    /// findings on this line.
    pub line: usize,
}

/// Fully indexed source file, ready for rule passes.
#[derive(Debug, Clone)]
pub struct FileIndex {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Original source text.
    pub src: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// `test_mask[i]` is true when `tokens[code[i]]` is test code.
    pub test_mask: Vec<bool>,
    /// All `fn` items in the file.
    pub fns: Vec<FnItem>,
    /// Inline allow markers (comment tokens only).
    pub allows: Vec<AllowMarker>,
}

impl FileIndex {
    /// Lexes and indexes one file.
    pub fn build(rel: &str, src: &str) -> FileIndex {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let test_mask = test_mask(&tokens, &code, src);
        let fns = find_fns(&tokens, &code, &test_mask, src);
        let allows = find_allows(&tokens, src);
        FileIndex {
            rel: rel.to_string(),
            src: src.to_string(),
            tokens,
            code,
            test_mask,
            fns,
            allows,
        }
    }

    /// The token behind code position `i` (None past the end).
    pub fn ctok(&self, i: usize) -> Option<&Token> {
        self.code.get(i).and_then(|&t| self.tokens.get(t))
    }

    /// Text of the code token at position `i` ("" past the end).
    pub fn ctext(&self, i: usize) -> &str {
        self.ctok(i).map_or("", |t| t.text(&self.src))
    }

    /// Kind of the code token at position `i` (Punct past the end).
    pub fn ckind(&self, i: usize) -> TokenKind {
        self.ctok(i).map_or(TokenKind::Punct, |t| t.kind)
    }

    /// Whether code position `i` is test code.
    pub fn is_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// The trimmed source line containing 1-based line `line`, truncated
    /// for diagnostics.
    pub fn snippet(&self, line: usize) -> String {
        let text = self.src.lines().nth(line.saturating_sub(1)).unwrap_or("");
        let trimmed = text.trim();
        let mut s: String = trimmed.chars().take(120).collect();
        if trimmed.chars().count() > 120 {
            s.push('…');
        }
        s
    }

    /// True when a `lint:allow(rule)` marker covers `line`.
    pub fn allowed_inline(&self, rule: Rule, line: usize) -> bool {
        self.allows.iter().any(|a| a.rule == rule && a.line == line)
    }
}

/// Parses `#[...]` at code position `i` (pointing at `#`). Returns the code
/// position one past the closing `]`, or `None` if `i` is not an attribute.
fn attr_end(tokens: &[Token], code: &[usize], src: &str, i: usize) -> Option<usize> {
    let text = |p: usize| -> &str {
        code.get(p)
            .and_then(|&t| tokens.get(t))
            .map_or("", |t| t.text(src))
    };
    if text(i) != "#" {
        return None;
    }
    // Inner attributes `#![...]` also parse; callers decide relevance.
    let mut j = i + 1;
    if text(j) == "!" {
        j += 1;
    }
    if text(j) != "[" {
        return None;
    }
    let mut depth = 0i64;
    while j < code.len() {
        match text(j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some(code.len())
}

/// Whether the attribute spanning code positions `[i, end)` marks a test
/// item: `#[test]`, `#[cfg(test)]`, or a `cfg` predicate that can only be
/// true under test (e.g. `#[cfg(all(test, ...))]`). `cfg(not(test))` and
/// friends are production code.
fn attr_is_test(tokens: &[Token], code: &[usize], src: &str, i: usize, end: usize) -> bool {
    let text = |p: usize| -> &str {
        code.get(p)
            .and_then(|&t| tokens.get(t))
            .map_or("", |t| t.text(src))
    };
    // Skip `#` ( `!` ) `[`.
    let mut j = i + 1;
    if text(j) == "!" {
        j += 1;
    }
    j += 1; // [
    match text(j) {
        "test" => text(j + 1) == "]",
        "cfg" => {
            // Scan the predicate for an ident `test` not under `not(...)`.
            let mut not_depth: Vec<i64> = Vec::new();
            let mut depth = 0i64;
            let mut k = j + 1;
            while k < end {
                match text(k) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        while not_depth.last().is_some_and(|&d| d > depth) {
                            not_depth.pop();
                        }
                    }
                    "not" if text(k + 1) == "(" => not_depth.push(depth + 1),
                    "test" if not_depth.is_empty() => return true,
                    _ => {}
                }
                k += 1;
            }
            false
        }
        _ => false,
    }
}

/// Computes the per-code-token test mask: tokens belonging to an item whose
/// attributes include a test marker (the attribute tokens themselves, the
/// item head, and its brace-delimited body).
fn test_mask(tokens: &[Token], code: &[usize], src: &str) -> Vec<bool> {
    let text = |p: usize| -> &str {
        code.get(p)
            .and_then(|&t| tokens.get(t))
            .map_or("", |t| t.text(src))
    };
    let mut mask = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if let Some(after) = attr_end(tokens, code, src, i) {
            if attr_is_test(tokens, code, src, i, after) {
                // Consume any further attributes, then the item head up to
                // its opening `{` (or a `;`, which cancels the region:
                // `#[cfg(test)] mod t;`).
                let attr_start = i;
                let mut j = after;
                while let Some(next) = attr_end(tokens, code, src, j) {
                    j = next;
                }
                let mut brace: Option<usize> = None;
                while j < code.len() {
                    match text(j) {
                        "{" => {
                            brace = Some(j);
                            break;
                        }
                        ";" => break,
                        _ => j += 1,
                    }
                }
                let region_end = match brace {
                    Some(open) => {
                        let mut depth = 0i64;
                        let mut k = open;
                        loop {
                            match text(k) {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                            if k >= code.len() {
                                k = code.len() - 1;
                                break;
                            }
                        }
                        k
                    }
                    None => j.min(code.len().saturating_sub(1)),
                };
                for m in mask
                    .iter_mut()
                    .take(region_end.saturating_add(1).min(code.len()))
                    .skip(attr_start)
                {
                    *m = true;
                }
                i = region_end + 1;
                continue;
            }
            i = after;
            continue;
        }
        i += 1;
    }
    mask
}

/// Modifier idents that may sit between `pub` and `fn`.
const FN_MODIFIERS: [&str; 4] = ["const", "unsafe", "async", "extern"];

/// Finds every `fn` item with visibility, doc status and body range.
fn find_fns(tokens: &[Token], code: &[usize], mask: &[bool], src: &str) -> Vec<FnItem> {
    let text = |p: usize| -> &str {
        code.get(p)
            .and_then(|&t| tokens.get(t))
            .map_or("", |t| t.text(src))
    };
    let tok = |p: usize| -> Option<&Token> { code.get(p).and_then(|&t| tokens.get(t)) };
    let mut out = Vec::new();
    for i in 0..code.len() {
        if text(i) != "fn" || tok(i).map(|t| t.kind) != Some(TokenKind::Ident) {
            continue;
        }
        let Some(name_tok) = tok(i + 1) else { continue };
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn` inside e.g. `Fn(...)` bounds won't have a name
        }
        let name = name_tok.text(src).to_string();
        // Walk back over modifiers and visibility.
        let mut j = i;
        let mut is_pub = false;
        while j > 0 {
            let prev = text(j - 1);
            if FN_MODIFIERS.contains(&prev)
                || prev == ")"
                || prev == "("
                || prev == "crate"
                || prev == "super"
                || prev == "self"
                || prev == "in"
                || tok(j - 1).map(|t| t.kind) == Some(TokenKind::Str)
            {
                j -= 1;
            } else if prev == "pub" {
                is_pub = true;
                j -= 1;
            } else {
                break;
            }
        }
        let item_start = j;
        // Doc detection: walk the FULL token stream backwards from the
        // item's first token, skipping attributes, looking for an adjacent
        // doc comment or #[doc] attribute.
        let has_doc = doc_above(tokens, src, code.get(item_start).copied().unwrap_or(0));
        // Body: first `{` or `;` after the name.
        let mut k = i + 2;
        let mut body = None;
        while k < code.len() {
            match text(k) {
                "{" => {
                    let mut depth = 0i64;
                    let mut c = k;
                    while c < code.len() {
                        match text(c) {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        c += 1;
                    }
                    body = Some((k, c.min(code.len().saturating_sub(1))));
                    break;
                }
                ";" => break,
                _ => k += 1,
            }
        }
        let (line, col) = tok(i).map_or((0, 0), |t| (t.line, t.col));
        out.push(FnItem {
            name,
            line,
            col,
            is_pub,
            has_doc,
            is_test: mask.get(i).copied().unwrap_or(false),
            body,
        });
    }
    out
}

/// Walks backwards in the full token stream from token index `from`,
/// skipping attribute groups, to find an attached doc comment.
fn doc_above(tokens: &[Token], src: &str, from: usize) -> bool {
    let mut i = from;
    while i > 0 {
        i -= 1;
        let t = match tokens.get(i) {
            Some(t) => t,
            None => return false,
        };
        match t.kind {
            TokenKind::LineComment => {
                let txt = t.text(src);
                if txt.starts_with("///") {
                    return true;
                }
                // A plain `//` comment directly above does not document.
                return false;
            }
            TokenKind::BlockComment => return t.text(src).starts_with("/**"),
            TokenKind::Punct if t.text(src) == "]" => {
                // Skip the attribute group backwards to its `#`; a
                // `#[doc...]` attribute counts as documentation.
                let mut depth = 0i64;
                let mut saw_doc = false;
                while i > 0 {
                    let u = match tokens.get(i) {
                        Some(u) => u,
                        None => break,
                    };
                    match u.text(src) {
                        "]" => depth += 1,
                        "[" => {
                            depth -= 1;
                            if depth == 0 {
                                if tokens.get(i + 1).is_some_and(|d| d.text(src) == "doc") {
                                    saw_doc = true;
                                }
                                // Step past the `#` (and optional `!`).
                                if i > 0 && tokens.get(i - 1).is_some_and(|d| d.text(src) == "#") {
                                    i -= 1;
                                }
                                break;
                            }
                        }
                        _ => {}
                    }
                    i -= 1;
                }
                if saw_doc {
                    return true;
                }
            }
            _ => return false,
        }
    }
    false
}

/// Extracts `lint:allow(RULE)` markers from comment tokens.
fn find_allows(tokens: &[Token], src: &str) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        let mut rest = text;
        while let Some(pos) = rest.find("lint:allow(") {
            let after = rest.get(pos + "lint:allow(".len()..).unwrap_or("");
            let name: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect();
            if let Some(rule) = Rule::parse(&name) {
                // Multi-line block comments anchor to their start line;
                // markers are written on the offending line by convention.
                out.push(AllowMarker { rule, line: t.line });
            }
            rest = after;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(src: &str) -> FileIndex {
        FileIndex::build("crates/x/src/a.rs", src)
    }

    #[test]
    fn cfg_test_module_is_masked_and_not_test_is_not() {
        let f = idx("fn prod() { a(); }\n#[cfg(test)]\nmod t {\n fn x() { b(); }\n}\nfn prod2() {}\n#[cfg(not(test))]\nfn gated() { c(); }\n");
        let text_of = |s: &str| {
            (0..f.code.len())
                .find(|&i| f.ctext(i) == s)
                .map(|i| f.is_test(i))
        };
        assert_eq!(text_of("b"), Some(true));
        assert_eq!(text_of("a"), Some(false));
        assert_eq!(text_of("c"), Some(false), "cfg(not(test)) is production");
        assert_eq!(text_of("prod2"), Some(false));
    }

    #[test]
    fn test_fn_and_semicolon_cancel() {
        let f = idx("#[test]\nfn t() { body(); }\n#[cfg(test)]\nmod tests;\nfn prod() { x(); }\n");
        let pos_body = (0..f.code.len()).find(|&i| f.ctext(i) == "body");
        assert_eq!(pos_body.map(|i| f.is_test(i)), Some(true));
        let pos_x = (0..f.code.len()).find(|&i| f.ctext(i) == "x");
        assert_eq!(pos_x.map(|i| f.is_test(i)), Some(false));
    }

    #[test]
    fn fns_carry_visibility_doc_and_body() {
        let f = idx("/// Documented.\n#[must_use]\npub fn good(&self) -> u64 { 1 }\npub(crate) fn vis() {}\nfn private() {}\npub fn bare() {}\n");
        let by_name = |n: &str| f.fns.iter().find(|x| x.name == n);
        let good = by_name("good").expect("good");
        assert!(good.is_pub && good.has_doc && good.body.is_some());
        let vis = by_name("vis").expect("vis");
        assert!(vis.is_pub && !vis.has_doc);
        let private = by_name("private").expect("private");
        assert!(!private.is_pub);
        let bare = by_name("bare").expect("bare");
        assert!(bare.is_pub && !bare.has_doc);
        assert_eq!(bare.line, 6);
    }

    #[test]
    fn plain_comment_above_is_not_doc() {
        let f = idx("// note, not docs\npub fn f() {}\n/* block */\npub fn g() {}\n");
        assert!(f.fns.iter().all(|x| !x.has_doc));
    }

    #[test]
    fn allow_markers_only_in_comments() {
        let f = idx("fn a() {} // lint:allow(L1): reason\nlet s = \"lint:allow(L2)\";\n");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, Rule::L1);
        assert_eq!(f.allows[0].line, 1);
        assert!(f.allowed_inline(Rule::L1, 1));
        assert!(!f.allowed_inline(Rule::L2, 2), "marker in string ignored");
    }

    #[test]
    fn trait_fn_without_body() {
        let f = idx("trait T { fn decl(&self); fn with_default(&self) { x(); } }\n");
        let decl = f.fns.iter().find(|x| x.name == "decl").expect("decl");
        assert!(decl.body.is_none());
        let d = f
            .fns
            .iter()
            .find(|x| x.name == "with_default")
            .expect("with_default");
        assert!(d.body.is_some());
    }

    #[test]
    fn snippet_is_trimmed() {
        let f = idx("   let x = 1;   \n");
        assert_eq!(f.snippet(1), "let x = 1;");
        assert_eq!(f.snippet(99), "");
    }
}
