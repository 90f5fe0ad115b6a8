//! The rule catalogue and the per-file checking pass.
//!
//! Rules fall in two families mirroring the simulator's two contracts:
//!
//! * **Determinism** (the PR-2 runtime contract, enforced at the source
//!   level): no wall-clock reads, no entropy-seeded RNG, no environment
//!   reads, no `HashMap`/`HashSet` in simulation code, no unordered rayon
//!   reductions.
//! * **Unit safety & robustness**: no raw `as` casts through the
//!   `simkit::units` layer, no `unwrap()` in library code, no silently
//!   swallowed values.
//!
//! Deliberate exceptions use the escape comment
//! `// spider-lint: allow(<rule>, reason = "...")` on the offending line or
//! the line directly above. Escapes are themselves checked: an unknown rule
//! name, a missing reason, or an escape that suppresses nothing is an error.

use crate::diag::Diagnostic;
use crate::tokens::{lex, TokKind, Token};

/// How a file participates in the build, which decides the rules it gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/*/src/**`, root `src/**`): every rule, with
    /// `#[cfg(test)]` / `#[test]` regions relaxed to the always-on set.
    Library,
    /// Integration tests and benches (`tests/`, `benches/`): only the
    /// always-on determinism rules (wall-clock, entropy).
    Test,
    /// Harness binaries (`crates/bench/**`, `examples/**`): entropy only —
    /// benchmarks *measure* wall time and CLIs read argv by design.
    Harness,
}

/// All rule names, for escape validation and the CLI.
pub const RULES: &[&str] = &[
    "wall-clock",
    "entropy",
    "env-read",
    "hash-collections",
    "par-float-reduce",
    "unit-cast",
    "unwrap-used",
    "swallowed-result",
    // Deep (`--deep`) rules, reported by the workspace taint pass.
    "taint-path",
    "relaxed-atomic-in-output-path",
    "par-collect-into-hash",
    "non-tree-float-accum",
    "lock-order",
];

/// Rules only the `--deep` workspace pass can emit. Escapes for these are
/// exempt from the `unused-allow` check in per-file-only runs, where the
/// pass that would use them never executes.
pub const DEEP_RULES: &[&str] = &[
    "taint-path",
    "relaxed-atomic-in-output-path",
    "par-collect-into-hash",
    "non-tree-float-accum",
    "lock-order",
];

/// Rules that stay active even inside test code: a test that reads the wall
/// clock or real entropy can flake, and flaky tests are how determinism
/// regressions slip in unnoticed.
const ALWAYS_ON: &[&str] = &["wall-clock", "entropy"];

/// Per-path quarantines: (path suffix, rules exempted there). This is the
/// *allowlisted nondeterminism* of the obs layer ("wall" manifest key) and
/// the unit-defining layer, which must do raw math by definition.
pub const QUARANTINE: &[(&str, &[&str])] = &[
    // The manifest's "wall" section is the one sanctioned home for
    // wall-clock time; git_rev walks the cwd upward by design.
    ("crates/obs/src/manifest.rs", &["wall-clock", "env-read"]),
    // Obs enablement (SPIDER_OBS) and span wall-timing feed the manifest.
    ("crates/obs/src/lib.rs", &["wall-clock", "env-read"]),
    // The unit layer itself converts between raw scalars and quantities.
    ("crates/simkit/src/units.rs", &["unit-cast"]),
    ("crates/simkit/src/time.rs", &["unit-cast"]),
];

/// `simkit::units`/`time` accessors whose result must not be re-cast with
/// `as` — that is how unit confusion (ns vs s, B/s vs MB/s) sneaks in.
const UNIT_ACCESSORS: &[&str] = &[
    "as_nanos",
    "as_millis",
    "as_secs_f64",
    "as_bytes_per_sec",
    "as_mb_per_sec",
    "as_gb_per_sec",
    "as_tb_per_sec",
];

/// Unit tuple-struct constructors: `Bandwidth(x as f64)` bypasses the named
/// constructors that document the unit of `x`.
const UNIT_CTORS: &[&str] = &["Bandwidth", "SimDuration", "SimTime"];

/// One parsed escape comment.
#[derive(Debug)]
pub(crate) struct Escape {
    pub(crate) rule: String,
    /// Line the comment sits on; it covers findings whose own line — or
    /// whose statement's first line — is this line or the next.
    pub(crate) line: u32,
    pub(crate) used: std::cell::Cell<bool>,
}

impl Escape {
    /// Does this escape cover a finding at `line` whose enclosing statement
    /// starts at `stmt_line`? Matching against the statement's first line is
    /// what lets an escape sit above a multi-line chained call whose actual
    /// finding lands several lines further down.
    pub(crate) fn covers(&self, line: u32, stmt_line: u32) -> bool {
        self.line == line
            || self.line + 1 == line
            || self.line == stmt_line
            || self.line + 1 == stmt_line
    }
}

/// For each significant token, the 1-based line on which its enclosing
/// statement starts. Statement boundaries are `;`, `{`, `}` and `,` at
/// paren/bracket depth zero, so a builder chain spread over many lines maps
/// every token back to the line the statement opened on.
pub(crate) fn statement_starts(sig: &[&Token]) -> Vec<u32> {
    let mut out = Vec::with_capacity(sig.len());
    let mut depth = 0i32;
    let mut start: Option<u32> = None;
    for t in sig {
        let line = start.unwrap_or(t.line);
        if start.is_none() {
            start = Some(t.line);
        }
        out.push(line);
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = (depth - 1).max(0),
            ";" | "{" | "}" if depth == 0 => start = None,
            "," if depth == 0 => start = None,
            _ => {}
        }
    }
    out
}

/// Statement-start line for one specific token out of `sig` (identified by
/// reference identity). Falls back to the token's own line when it is not in
/// the slice.
pub(crate) fn stmt_line_of(sig: &[&Token], starts: &[u32], t: &Token) -> u32 {
    sig.iter()
        .position(|x| std::ptr::eq(*x, t))
        .map_or(t.line, |i| starts[i])
}

/// Lint one file in isolation: per-file rules plus the unused-allow check.
/// `path` is the workspace-relative path used in diagnostics and quarantine
/// matching. (The workspace pipeline in `lib.rs` calls the pieces —
/// `check_file` / `unused_allow` — separately so the deep pass can mark
/// escapes used in between.)
pub fn lint_source(path: &str, kind: FileKind, src: &str) -> Vec<Diagnostic> {
    let toks = lex(src);
    let (escapes, mut diags) = parse_escapes(path, &toks);
    diags.extend(check_file(path, kind, &toks, &escapes));
    diags.extend(unused_allow(path, &escapes, false));
    diags
}

/// Run the per-file rules over pre-lexed `toks`, applying (and marking used)
/// any matching `escapes`. Does not emit `unused-allow` — that happens after
/// every pass had a chance to use an escape.
pub(crate) fn check_file(
    path: &str,
    kind: FileKind,
    toks: &[Token],
    escapes: &[Escape],
) -> Vec<Diagnostic> {
    let test_lines = test_line_ranges(toks);

    let exempt: &[&str] = QUARANTINE
        .iter()
        .find(|(suffix, _)| path.ends_with(suffix))
        .map_or(&[], |(_, rules)| rules);

    let in_test = |line: u32| test_lines.iter().any(|r| r.0 <= line && line <= r.1);
    let rule_applies = |rule: &str, line: u32| -> bool {
        if exempt.contains(&rule) {
            return false;
        }
        let always = ALWAYS_ON.contains(&rule);
        match kind {
            FileKind::Harness => rule == "entropy",
            FileKind::Test => always,
            FileKind::Library => always || !in_test(line),
        }
    };

    // Significant (non-comment) token stream with back-pointers kept via
    // references; rules below pattern-match on this slice.
    let sig: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let starts = statement_starts(&sig);

    let mut raw: Vec<(Diagnostic, u32)> = Vec::new();
    let mut push = |rule: &'static str, t: &Token, message: String, suggestion: &str| {
        raw.push((
            Diagnostic {
                rule,
                file: path.to_owned(),
                line: t.line,
                col: t.col,
                message,
                suggestion: suggestion.to_owned(),
                allowed: false,
                path: Vec::new(),
            },
            stmt_line_of(&sig, &starts, t),
        ));
    };

    for i in 0..sig.len() {
        let t = sig[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |k: usize, c: char| sig.get(i + k).is_some_and(|n| n.is_punct(c));
        let prev_is_dot = i > 0 && sig[i - 1].is_punct('.');

        match t.text.as_str() {
            // ---- wall-clock ----
            "Instant" | "SystemTime" => push(
                "wall-clock",
                t,
                format!("wall-clock type `{}` breaks run determinism", t.text),
                "use sim-time, route it through the obs manifest's \"wall\" quarantine, \
                 or escape with `// spider-lint: allow(wall-clock, reason = \"...\")`",
            ),
            // ---- entropy ----
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => push(
                "entropy",
                t,
                format!(
                    "`{}` seeds from OS entropy; runs become unreproducible",
                    t.text
                ),
                "derive every RNG from the run seed (`SimRng::seed_from_u64`)",
            ),
            // ---- env-read ----
            "env" if next_is(1, ':') && next_is(2, ':') => {
                if let Some(f) = sig.get(i + 3) {
                    if matches!(
                        f.text.as_str(),
                        "var" | "var_os" | "vars" | "vars_os" | "current_dir" | "temp_dir"
                    ) {
                        push(
                            "env-read",
                            f,
                            format!("`env::{}` makes output depend on ambient state", f.text),
                            "thread configuration through explicit arguments; only the obs \
                             layer may read the environment",
                        );
                    }
                }
            }
            // ---- hash-collections ----
            "HashMap" | "HashSet" => push(
                "hash-collections",
                t,
                format!(
                    "`{}` iteration order is seeded per-process; anything that escapes it \
                     (output, floats, Vec collection) breaks byte-determinism",
                    t.text
                ),
                "use BTreeMap/BTreeSet, or collect and sort before iterating",
            ),
            // ---- par-float-reduce ----
            "par_iter" | "into_par_iter" | "par_bridge" => {
                if let Some(red) = find_unordered_reduce(&sig, i) {
                    push(
                        "par-float-reduce",
                        red,
                        format!(
                            "`{}` after `{}` combines partial results in scheduling order; \
                             float accumulation becomes run-dependent",
                            red.text, t.text
                        ),
                        "collect in input order and fold sequentially, or escape with a \
                         reason stating why the reduction is order-independent",
                    );
                }
            }
            // ---- unit-cast: accessor() as T ----
            _ if UNIT_ACCESSORS.contains(&t.text.as_str())
                && next_is(1, '(')
                && next_is(2, ')')
                && sig.get(i + 3).is_some_and(|n| n.is_ident("as")) =>
            {
                push(
                    "unit-cast",
                    t,
                    format!(
                        "`{}() as ...` re-casts a unit quantity through a raw scalar",
                        t.text
                    ),
                    "stay in the unit type (`mul_f64`, `time_for`, `bytes_over`, ...) or \
                     convert through the named constructors",
                );
            }
            // ---- unit-cast: Ctor(... as ...) ----
            _ if UNIT_CTORS.contains(&t.text.as_str())
                && next_is(1, '(')
                && !(i > 0 && sig[i - 1].is_punct(':')) =>
            {
                if let Some(cast) = find_cast_in_parens(&sig, i + 1) {
                    push(
                        "unit-cast",
                        cast,
                        format!(
                            "`{}(... as ...)` builds a unit quantity from a raw cast",
                            t.text
                        ),
                        "use the named constructors (`from_nanos`, `bytes_per_sec`, ...) so \
                         the unit of the scalar is explicit",
                    );
                }
            }
            // ---- unwrap-used ----
            "unwrap" if prev_is_dot && next_is(1, '(') && next_is(2, ')') => push(
                "unwrap-used",
                t,
                "`.unwrap()` in library code panics without saying why".to_owned(),
                "use `.expect(\"<invariant that makes this infallible>\")` or propagate \
                 the error",
            ),
            "expect" if prev_is_dot && next_is(1, '(') => {
                let arg = sig.get(i + 2);
                let empty = arg.is_none_or(|a| {
                    a.kind != TokKind::Str || a.text.trim_matches(['b', 'r', '#', '"']).is_empty()
                });
                if empty {
                    push(
                        "unwrap-used",
                        t,
                        "`.expect(...)` without a literal reason is an unwrap in disguise"
                            .to_owned(),
                        "pass a non-empty string literal naming the invariant",
                    );
                }
            }
            // ---- swallowed-result ----
            "let" if sig.get(i + 1).is_some_and(|n| n.is_ident("_")) && next_is(2, '=') => {
                push(
                    "swallowed-result",
                    t,
                    "`let _ = ...` silently discards a value".to_owned(),
                    "bind it and assert on it, handle the error, or escape with a reason \
                     why discarding is sound",
                );
            }
            _ => {}
        }
    }

    // Apply escapes (matching the finding's own line or its statement's
    // first line) and drop findings whose rule is out of scope here.
    let mut diags = Vec::new();
    for (mut d, stmt_line) in raw {
        if !rule_applies(d.rule, d.line) {
            continue;
        }
        if let Some(e) = escapes
            .iter()
            .find(|e| e.rule == d.rule && e.covers(d.line, stmt_line))
        {
            e.used.set(true);
            d.allowed = true;
        }
        diags.push(d);
    }
    diags
}

/// Flag escapes that suppressed nothing. When `deep` is false, escapes for
/// deep-only rules are skipped: the pass that would use them never ran.
pub(crate) fn unused_allow(path: &str, escapes: &[Escape], deep: bool) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for e in escapes {
        if e.used.get() || (!deep && DEEP_RULES.contains(&e.rule.as_str())) {
            continue;
        }
        diags.push(Diagnostic {
            rule: "unused-allow",
            file: path.to_owned(),
            line: e.line,
            col: 1,
            message: format!(
                "escape for `{}` suppresses nothing on this or the next line",
                e.rule
            ),
            suggestion: "delete the stale escape (or move it onto the offending line)".to_owned(),
            allowed: false,
            path: Vec::new(),
        });
    }
    diags
}

/// Parse every `// spider-lint: ...` comment. Malformed escapes (unknown
/// rule, missing reason) are reported as `bad-allow` diagnostics.
pub(crate) fn parse_escapes(path: &str, toks: &[Token]) -> (Vec<Escape>, Vec<Diagnostic>) {
    let mut escapes = Vec::new();
    let mut diags = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("spider-lint:") else {
            continue;
        };
        let mut bad = |msg: String| {
            diags.push(Diagnostic {
                rule: "bad-allow",
                file: path.to_owned(),
                line: t.line,
                col: t.col,
                message: msg,
                suggestion: "syntax: // spider-lint: allow(<rule>, reason = \"...\")".to_owned(),
                allowed: false,
                path: Vec::new(),
            });
        };
        let rest = rest.trim();
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        else {
            bad(format!("unrecognised spider-lint directive `{rest}`"));
            continue;
        };
        let (rule, reason) = match inner.split_once(',') {
            Some((r, tail)) => (r.trim(), Some(tail.trim())),
            None => (inner.trim(), None),
        };
        if !RULES.contains(&rule) {
            bad(format!("unknown rule `{rule}` in escape"));
            continue;
        }
        let reason_ok = reason.is_some_and(|r| {
            r.strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
                .map(str::trim)
                .is_some_and(|q| q.len() > 2 && q.starts_with('"') && q.ends_with('"'))
        });
        if !reason_ok {
            bad(format!("escape for `{rule}` is missing a non-empty reason"));
            continue;
        }
        escapes.push(Escape {
            rule: rule.to_owned(),
            line: t.line,
            used: std::cell::Cell::new(false),
        });
    }
    (escapes, diags)
}

/// Line ranges covered by `#[cfg(test)]` / `#[test]` items: from the
/// attribute to the matching close brace (or terminating semicolon).
pub(crate) fn test_line_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let sig: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if !(sig[i].is_punct('#') && sig.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Scan the attribute body for a `test` / `cfg(test)` marker.
        let start_line = sig[i].line;
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut is_test_attr = false;
        while j < sig.len() && depth > 0 {
            match sig[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if sig[j].kind == TokKind::Ident => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then find the item body.
        while j < sig.len()
            && sig[j].is_punct('#')
            && sig.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            let mut d = 1i32;
            j += 2;
            while j < sig.len() && d > 0 {
                match sig[j].text.as_str() {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // Walk to the opening `{` (or a `;` for body-less items), then
        // brace-match to the end of the item.
        let mut end_line = start_line;
        while j < sig.len() {
            if sig[j].is_punct(';') {
                end_line = sig[j].line;
                break;
            }
            if sig[j].is_punct('{') {
                let mut d = 1i32;
                j += 1;
                while j < sig.len() && d > 0 {
                    match sig[j].text.as_str() {
                        "{" => d += 1,
                        "}" => d -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                end_line = sig[j.saturating_sub(1).min(sig.len() - 1)].line;
                break;
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j;
    }
    ranges
}

/// From a `par_iter`-family token at `sig[i]`, scan the rest of the method
/// chain (until a statement-level `;`, `{`, or unbalanced `}`) for a
/// `.reduce(` / `.sum(` call.
fn find_unordered_reduce<'a>(sig: &[&'a Token], i: usize) -> Option<&'a Token> {
    let mut paren = 0i32;
    let mut brace = 0i32;
    let mut j = i + 1;
    while j < sig.len() {
        let t = sig[j];
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                if paren < 0 {
                    return None; // chain ended inside an enclosing call
                }
            }
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace < 0 {
                    return None;
                }
            }
            ";" if paren == 0 && brace == 0 => return None,
            "reduce" | "sum" if t.kind == TokKind::Ident && j > 0 && sig[j - 1].is_punct('.') => {
                return Some(t);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// From an opening paren at `sig[open]`, look for an `as` keyword anywhere
/// inside the balanced parens.
fn find_cast_in_parens<'a>(sig: &[&'a Token], open: usize) -> Option<&'a Token> {
    let mut depth = 0i32;
    for t in sig.iter().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            "as" if t.kind == TokKind::Ident => return Some(t),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(path: &str, kind: FileKind, src: &str) -> Vec<&'static str> {
        lint_source(path, kind, src)
            .into_iter()
            .filter(|d| !d.allowed)
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn wall_clock_fires_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}";
        assert_eq!(active("x.rs", FileKind::Library, src), vec!["wall-clock"]);
    }

    #[test]
    fn hash_map_is_test_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n fn f() { let m: HashMap<u32,u32> = HashMap::new(); }\n}";
        assert!(active("x.rs", FileKind::Library, src).is_empty());
        let lib = "fn f() { let m: HashMap<u32,u32> = HashMap::new(); }";
        assert_eq!(
            active("x.rs", FileKind::Library, lib),
            vec!["hash-collections", "hash-collections"]
        );
    }

    #[test]
    fn escape_on_same_or_previous_line() {
        let same = "fn f() { x.unwrap(); } // spider-lint: allow(unwrap-used, reason = \"test\")";
        assert!(active("x.rs", FileKind::Library, same).is_empty());
        let above = "// spider-lint: allow(unwrap-used, reason = \"test\")\nfn f() { x.unwrap(); }";
        assert!(active("x.rs", FileKind::Library, above).is_empty());
    }

    #[test]
    fn bad_escapes_are_errors() {
        let unknown = "// spider-lint: allow(no-such-rule, reason = \"x\")\nfn f() {}";
        assert_eq!(
            active("x.rs", FileKind::Library, unknown),
            vec!["bad-allow"]
        );
        let no_reason = "// spider-lint: allow(unwrap-used)\nfn f() { x.unwrap(); }";
        let rules = active("x.rs", FileKind::Library, no_reason);
        assert!(rules.contains(&"bad-allow") && rules.contains(&"unwrap-used"));
        let unused = "// spider-lint: allow(unwrap-used, reason = \"stale\")\nfn f() {}";
        assert_eq!(
            active("x.rs", FileKind::Library, unused),
            vec!["unused-allow"]
        );
    }

    #[test]
    fn quarantine_paths_are_exempt() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(active("crates/obs/src/manifest.rs", FileKind::Library, src).is_empty());
        assert_eq!(
            active("crates/obs/src/metrics.rs", FileKind::Library, src),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn unit_casts() {
        let acc = "fn f(d: SimDuration) -> f64 { d.as_nanos() as f64 }";
        assert_eq!(active("x.rs", FileKind::Library, acc), vec!["unit-cast"]);
        let ctor = "fn f(x: u32) -> Bandwidth { Bandwidth(x as f64) }";
        assert_eq!(active("x.rs", FileKind::Library, ctor), vec!["unit-cast"]);
        let ok = "fn f(x: f64) -> Bandwidth { Bandwidth(x) }";
        assert!(active("x.rs", FileKind::Library, ok).is_empty());
        let path_call = "fn f() -> SimDuration { SimDuration::from_nanos((x as u64) * y) }";
        assert!(active("x.rs", FileKind::Library, path_call).is_empty());
    }

    #[test]
    fn par_reduce_detection() {
        let bad = "fn f(v: &[f64]) -> f64 { v.par_iter().map(|x| x * 2.0).sum() }";
        assert_eq!(
            active("x.rs", FileKind::Library, bad),
            vec!["par-float-reduce"]
        );
        let ordered = "fn f(v: &[f64]) -> Vec<f64> { v.par_iter().map(|x| x * 2.0).collect() }";
        assert!(active("x.rs", FileKind::Library, ordered).is_empty());
        // A later, unrelated sum in the same function is out of chain scope.
        let split = "fn f(v: &[f64]) -> f64 { let w: Vec<f64> = v.par_iter().copied().collect(); w.iter().sum() }";
        assert!(active("x.rs", FileKind::Library, split).is_empty());
    }

    #[test]
    fn unwrap_and_expect() {
        assert_eq!(
            active("x.rs", FileKind::Library, "fn f() { x.unwrap(); }"),
            vec!["unwrap-used"]
        );
        assert!(active("x.rs", FileKind::Library, "fn f() { x.expect(\"why\"); }").is_empty());
        assert_eq!(
            active("x.rs", FileKind::Library, "fn f() { x.expect(\"\"); }"),
            vec!["unwrap-used"]
        );
        assert_eq!(
            active("x.rs", FileKind::Library, "fn f() { x.expect(msg); }"),
            vec!["unwrap-used"]
        );
        // unwrap_or_else is fine.
        assert!(active(
            "x.rs",
            FileKind::Library,
            "fn f() { x.unwrap_or_else(Y::new); }"
        )
        .is_empty());
        // Tests may unwrap.
        let test = "#[test]\nfn t() { x.unwrap(); }";
        assert!(active("x.rs", FileKind::Library, test).is_empty());
    }

    #[test]
    fn harness_and_test_kinds_relax() {
        let src = "fn f() { let t = Instant::now(); x.unwrap(); let m = HashMap::new(); }";
        assert_eq!(
            active("tests/t.rs", FileKind::Test, src),
            vec!["wall-clock"]
        );
        assert!(active("crates/bench/src/bin/figures.rs", FileKind::Harness, src).is_empty());
        assert_eq!(
            active(
                "crates/bench/x.rs",
                FileKind::Harness,
                "fn f() { thread_rng(); }"
            ),
            vec!["entropy"]
        );
    }

    #[test]
    fn swallowed_result() {
        assert_eq!(
            active("x.rs", FileKind::Library, "fn f() { let _ = g(); }"),
            vec!["swallowed-result"]
        );
        assert!(active("x.rs", FileKind::Library, "fn f() { let _x = g(); }").is_empty());
    }

    #[test]
    fn env_reads() {
        assert_eq!(
            active(
                "x.rs",
                FileKind::Library,
                "fn f() { std::env::var(\"X\"); }"
            ),
            vec!["env-read"]
        );
        // argv is not the environment.
        assert!(active("x.rs", FileKind::Library, "fn f() { std::env::args(); }").is_empty());
    }
}
