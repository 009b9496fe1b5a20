//! Golden-file tests: one fixture per rule under `tests/fixtures/`, with
//! the expected machine-readable diagnostics stored next to it.
//!
//! Fixture format: a `.rs` file made of one or more sections, each opened
//! by a `//=== file: <repo-relative-path>` marker line. Every section is
//! indexed as its own pretend workspace file (line numbers restart at 1
//! per section), and all sections of a fixture are checked together so
//! cross-file rules (D4) see the whole picture. The expected `.json`
//! holds exactly the `violations` array the v2 JSON schema emits.
//!
//! Regenerating after an intentional rule change:
//!
//! ```text
//! NUCA_LINT_BLESS=1 cargo test -p nuca-lint --test golden
//! ```
//!
//! then diff the `.json` files and commit only what you can justify.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::path::{Path, PathBuf};

use nuca_lint::rules::{check_files, Diagnostic, Rule, Scopes};
use nuca_lint::syntax::FileIndex;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Splits a fixture into (pretend-path, section-source) pairs.
fn split_sections(raw: &str) -> Vec<(String, String)> {
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in raw.lines() {
        if let Some(rel) = line.strip_prefix("//=== file: ") {
            sections.push((rel.trim().to_string(), String::new()));
        } else if let Some((_, src)) = sections.last_mut() {
            src.push_str(line);
            src.push('\n');
        } else {
            panic!("fixture must start with a `//=== file:` marker, got {line:?}");
        }
    }
    assert!(!sections.is_empty(), "fixture has no sections");
    sections
}

fn check_fixture(name: &str) -> Vec<Diagnostic> {
    let raw = fs::read_to_string(fixtures_dir().join(format!("{name}.rs")))
        .unwrap_or_else(|e| panic!("fixture {name}.rs: {e}"));
    let indexes: Vec<FileIndex> = split_sections(&raw)
        .into_iter()
        .map(|(rel, src)| FileIndex::build(&rel, &src))
        .collect();
    check_files(&indexes, &Scopes::default())
}

/// The `violations` array exactly as `render_json` would emit it, one
/// object per line for reviewable diffs.
fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                '\t' => "\\t".chars().collect(),
                c => vec![c],
            })
            .collect()
    }
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"snippet\":\"{}\",\"message\":\"{}\"}}{}\n",
            d.rule,
            esc(&d.file),
            d.line,
            d.col,
            esc(&d.snippet),
            esc(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// Checks one fixture against its golden JSON; `fired` lists the rules
/// that must appear at least once (the "demonstrably fires" criterion).
fn golden(name: &str, fired: &[Rule]) {
    let diags = check_fixture(name);
    for rule in fired {
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "fixture {name} must produce at least one {rule} finding, got: {diags:#?}"
        );
    }
    let got = to_json(&diags);
    let golden_path = fixtures_dir().join(format!("{name}.json"));
    if std::env::var_os("NUCA_LINT_BLESS").is_some() {
        fs::write(&golden_path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("golden {name}.json missing ({e}); run with NUCA_LINT_BLESS=1 to create")
    });
    assert_eq!(
        got, want,
        "fixture {name} diagnostics drifted from golden file"
    );
}

#[test]
fn golden_l1() {
    golden("l1", &[Rule::L1]);
}

#[test]
fn golden_l2() {
    golden("l2", &[Rule::L2]);
}

#[test]
fn golden_l3() {
    golden("l3", &[Rule::L3]);
}

#[test]
fn golden_l4() {
    golden("l4", &[Rule::L4]);
}

#[test]
fn golden_l5() {
    golden("l5", &[Rule::L5]);
}

#[test]
fn golden_l6() {
    golden("l6", &[Rule::L6]);
}

#[test]
fn golden_l7() {
    golden("l7", &[Rule::L7]);
}

#[test]
fn golden_d1() {
    golden("d1", &[Rule::D1]);
}

#[test]
fn golden_d2() {
    golden("d2", &[Rule::D2]);
}

#[test]
fn golden_d3() {
    golden("d3", &[Rule::D3]);
}

#[test]
fn golden_d4() {
    golden("d4", &[Rule::D4]);
}

/// Regression for the v1 line-number drift: rule-shaped text inside a
/// multi-line raw string or block comment must neither fire nor shift
/// the location of the real finding after it.
#[test]
fn golden_drift_regression() {
    golden("drift", &[Rule::L1]);
    let diags = check_fixture("drift");
    assert_eq!(diags.len(), 1, "only the real finding fires: {diags:#?}");
    assert_eq!(diags[0].line, 10, "exact line after multi-line tokens");
    assert_eq!(
        diags[0].snippet, "self.table.last().copied().unwrap()",
        "snippet anchors to the real source line"
    );
}

/// The workspace itself must be clean under every rule — the self-check
/// that keeps the lint wall honest about its own codebase.
#[test]
fn workspace_self_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = nuca_lint::run_check(root, None).expect("run_check");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint findings: {:#?}",
        report.diagnostics
    );
    assert!(
        report.stale_markers.is_empty(),
        "stale inline markers: {:#?}",
        report.stale_markers
    );
    assert!(
        report.stale_entries.is_empty(),
        "stale lint.toml entries: {:#?}",
        report.stale_entries
    );
}
