//! End-to-end suite for spider-lint: the library pass and the real binary
//! are both run over the fixture tree in `tests/fixtures/ws`, and the
//! binary is run over the actual workspace to pin the "repo is clean"
//! acceptance criterion.

use std::path::{Path, PathBuf};
use std::process::Command;

use spider_lint::lint_workspace;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// (rule, file, line, allowed) tuples from a fixture run, sorted.
fn findings(filter: &[&str]) -> Vec<(String, String, u32, bool)> {
    let filter: Vec<String> = filter.iter().map(|s| (*s).to_owned()).collect();
    let report = lint_workspace(&fixture_root(), &filter).unwrap();
    report
        .diagnostics
        .iter()
        .map(|d| (d.rule.to_owned(), d.file.clone(), d.line, d.allowed))
        .collect()
}

#[test]
fn every_rule_fires_at_its_pinned_line() {
    let got = findings(&["violations.rs"]);
    let want: Vec<(&str, u32)> = vec![
        ("hash-collections", 4),
        ("wall-clock", 5),
        ("wall-clock", 8),
        ("entropy", 12),
        ("env-read", 16),
        ("hash-collections", 19),
        ("par-float-reduce", 24),
        ("unit-cast", 28),
        ("unit-cast", 32),
        ("unwrap-used", 36),
        ("unwrap-used", 40),
        ("swallowed-result", 44),
    ];
    let mut got_pairs: Vec<(&str, u32)> = got.iter().map(|d| (d.0.as_str(), d.2)).collect();
    got_pairs.sort_by_key(|p| p.1);
    let mut want_sorted = want.clone();
    want_sorted.sort_by_key(|p| p.1);
    assert_eq!(got_pairs, want_sorted, "full findings: {got:#?}");
    assert!(
        got.iter().all(|d| !d.3),
        "nothing in violations.rs is escaped"
    );
}

#[test]
fn clean_fixture_is_clean() {
    let report = lint_workspace(&fixture_root(), &["clean.rs".to_owned()]).unwrap();
    assert_eq!(report.files_scanned, 1);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

#[test]
fn escapes_suppress_and_are_themselves_checked() {
    let got = findings(&["escapes.rs"]);
    let allowed: Vec<u32> = got.iter().filter(|d| d.3).map(|d| d.2).collect();
    assert_eq!(
        allowed,
        vec![5, 10],
        "same-line and line-above escapes work"
    );
    let active: Vec<(&str, u32)> = got
        .iter()
        .filter(|d| !d.3)
        .map(|d| (d.0.as_str(), d.2))
        .collect();
    assert_eq!(
        active,
        vec![
            ("bad-allow", 13),    // unknown rule name
            ("bad-allow", 16),    // missing reason
            ("unwrap-used", 18),  // malformed escape suppresses nothing
            ("unused-allow", 21), // well-formed escape with no finding
        ]
    );
}

#[test]
fn test_kind_relaxes_all_but_always_on() {
    let got = findings(&["test_kind.rs"]);
    let rules: Vec<(&str, u32)> = got.iter().map(|d| (d.0.as_str(), d.2)).collect();
    assert_eq!(rules, vec![("wall-clock", 5), ("wall-clock", 9)]);
}

#[test]
fn escape_covers_statement_first_line() {
    // Regression: a finding on line 12 of a chained call whose statement
    // opens on line 8 is covered by the escape on line 7 — and that escape
    // is counted used, not reported as unused-allow.
    let got = findings(&["chain_stmt.rs"]);
    assert_eq!(
        got,
        vec![(
            "par-float-reduce".to_owned(),
            "src/chain_stmt.rs".to_owned(),
            12,
            true
        )]
    );
}

#[test]
fn json_report_is_well_formed() {
    let report = lint_workspace(&fixture_root(), &[]).unwrap();
    assert_eq!(report.files_scanned, 5);
    assert_eq!(report.violations(), 18);
    assert_eq!(report.allowed(), 3);
    let json = report.to_json();
    assert!(json.starts_with("{\"version\":1,\"summary\":{\"files_scanned\":5"));
    assert!(json.contains("\"violations\":18,\"allowed\":3"));
    // Deep rules only fire under --deep (deep_suite.rs covers them).
    for rule in spider_lint::RULES
        .iter()
        .filter(|r| !spider_lint::DEEP_RULES.contains(r))
    {
        assert!(
            json.contains(&format!("\"rule\":\"{rule}\"")),
            "missing {rule}"
        );
    }
    // Structural sanity without a JSON dependency: quotes pair up and
    // brackets balance once string contents are ignored.
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced brackets");
        }
    }
    assert_eq!(depth, 0);
    assert!(!in_str, "unterminated string");
}

fn run_binary(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spider-lint"))
        .args(args)
        .output()
        .expect("spider-lint binary runs");
    (
        out.status.code().expect("binary exits with a code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn deny_all_exits_nonzero_on_fixtures() {
    let root = fixture_root();
    let (code, stdout) = run_binary(&["--deny-all", "--root", root.to_str().unwrap()]);
    assert_eq!(code, 2, "stdout:\n{stdout}");
    assert!(
        stdout.contains("18 violation(s), 3 allowed escape(s)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("violations.rs:8:"),
        "diagnostics carry file:line\n{stdout}"
    );
}

#[test]
fn deny_all_passes_on_the_clean_fixture() {
    let root = fixture_root();
    let (code, stdout) = run_binary(&["--deny-all", "--root", root.to_str().unwrap(), "clean.rs"]);
    assert_eq!(code, 0, "stdout:\n{stdout}");
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = repo_root();
    let json_path = std::env::temp_dir().join(format!("spider-lint-{}.json", std::process::id()));
    let (code, stdout) = run_binary(&[
        "--deep",
        "--deny-all",
        "--root",
        root.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(
        code, 0,
        "workspace must stay clean under --deep --deny-all; stdout:\n{stdout}"
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    let _ = std::fs::remove_file(&json_path);
    assert!(json.contains("\"violations\":0"), "{json}");
}
