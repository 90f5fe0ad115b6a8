//! The one harness of the bench targets.
//!
//! This module is the only code that knows how a bench binary was invoked:
//!
//! | arguments               | shapes | record written to              |
//! |-------------------------|--------|--------------------------------|
//! | neither flag            | smoke  | nothing                        |
//! | `--smoke` (± `--bench`) | smoke  | `target/bench-smoke/<file>`    |
//! | `--bench` alone         | full   | `<file>` at the workspace root |
//!
//! Plain `cargo test` does not run bench targets; `cargo test --benches`
//! runs each once with neither flag. `cargo bench` always passes
//! `--bench`, so `cargo bench … -- --smoke` lands in the second row: a
//! smoke run cannot overwrite a committed record. Every record opens with
//! one header (`command`, `git_rev`, `cores`, `smoke`) ahead of the bench's
//! own fields. The module also owns the best-of-N wall timer, the one-line
//! report of a timed case and the spare-thread budgets the parallel benches
//! sweep.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spider_obs::jsonio::write_str;

/// How a bench binary was invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Neither flag: smoke shapes, no record.
    Test,
    /// `--smoke`, with or without `--bench`: smoke shapes, record under
    /// `target/bench-smoke/`.
    Smoke,
    /// `--bench` alone: full shapes, record at the workspace root.
    Full,
}

impl Mode {
    fn from_args<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Mode {
        let (mut smoke, mut bench) = (false, false);
        for a in args {
            smoke |= a.as_ref() == "--smoke";
            bench |= a.as_ref() == "--bench";
        }
        match (smoke, bench) {
            (true, _) => Mode::Smoke,
            (false, true) => Mode::Full,
            (false, false) => Mode::Test,
        }
    }

    fn current() -> Mode {
        Mode::from_args(std::env::args())
    }

    fn out_path(self, file: &str) -> Option<PathBuf> {
        match self {
            Mode::Test => None,
            Mode::Smoke => Some(workspace_root().join("target/bench-smoke").join(file)),
            Mode::Full => Some(workspace_root().join(file)),
        }
    }
}

/// Run the smoke shapes: every invocation but `--bench` alone.
pub fn smoke() -> bool {
    Mode::current() != Mode::Full
}

/// The workspace root (where the committed records live).
pub fn workspace_root() -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).to_path_buf()
}

/// Cores available to this process, recorded in every header.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Spare-thread budgets the parallel benches time: 0, 1 and `cores - 1`,
/// deduplicated (a 2-core host times 0 and 1). A budget above `cores - 1`
/// would only time-share cores.
pub fn budgets() -> Vec<usize> {
    let mut b = vec![0, 1, cores() - 1];
    b.sort_unstable();
    b.dedup();
    b
}

/// A JSON object mapping each of [`budgets`] to its wall time in `ms`.
pub fn by_budget(ms: &[f64]) -> String {
    let pairs: Vec<String> = budgets()
        .iter()
        .zip(ms)
        .map(|(b, t)| format!("\"{b}\": {t:.2}"))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// Best-of-`iters` wall time of `f` in milliseconds.
pub fn time_ms<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Time the case `name` of `bench` with [`time_ms`] (one pass at smoke
/// shape, best of ten at full shape) and print it as one
/// `<bench>/<name>: <ms> ms` line. Returns the time in milliseconds.
pub fn case<R>(bench: &str, name: &str, f: impl FnMut() -> R) -> f64 {
    let ms = time_ms(if smoke() { 1 } else { 10 }, f);
    println!("{bench}/{name}: {ms:.3} ms");
    ms
}

/// The record text: the header, then the bench's own `fields`.
fn render(bench: &str, mode: Mode, fields: &str) -> String {
    let smoke = mode != Mode::Full;
    let flag = if smoke { "--smoke" } else { "--bench" };
    let (mut command, mut rev) = (String::new(), String::new());
    write_str(
        &mut command,
        &format!("cargo bench -p spider-bench --bench {bench} -- {flag}"),
    );
    write_str(&mut rev, &spider_obs::git_rev());
    format!(
        "{{\n  \"command\": {command},\n  \"git_rev\": {rev},\n  \"cores\": {},\n  \"smoke\": {smoke},\n{fields}\n}}\n",
        cores()
    )
}

/// Write the record `file` of `bench` where this invocation's mode puts it
/// (nowhere under `cargo test`): the header, then `fields`, the bench's own
/// object members (two-space indented, no trailing comma).
pub fn write(bench: &str, file: &str, fields: &str) {
    let mode = Mode::current();
    let Some(path) = mode.out_path(file) else {
        return;
    };
    let dir = path.parent().expect("a record path has a directory");
    std::fs::create_dir_all(dir).expect("record directory is creatable");
    std::fs::write(&path, render(bench, mode, fields)).expect("record path is writable");
    println!("{bench}: wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_obs::jsonio::{parse, JsonValue};

    #[test]
    fn mode_table() {
        assert_eq!(Mode::from_args(["bin"]), Mode::Test);
        assert_eq!(Mode::from_args(["bin", "--bench"]), Mode::Full);
        assert_eq!(Mode::from_args(["bin", "--smoke"]), Mode::Smoke);
        assert_eq!(Mode::from_args(["bin", "--bench", "--smoke"]), Mode::Smoke);
    }

    #[test]
    fn output_path_per_mode() {
        let root = workspace_root();
        assert!(root.join("crates/bench/src/record.rs").is_file());
        assert_eq!(Mode::Test.out_path("BENCH_x.json"), None);
        let smoke = root.join("target/bench-smoke/BENCH_x.json");
        assert_eq!(Mode::Smoke.out_path("BENCH_x.json"), Some(smoke));
        assert_eq!(
            Mode::Full.out_path("BENCH_x.json"),
            Some(root.join("BENCH_x.json"))
        );
    }

    #[test]
    fn rendered_header_parses_back() {
        let fields = format!("  \"x\": {}", by_budget(&vec![1.5; budgets().len()]));
        for (mode, flag) in [(Mode::Full, "--bench"), (Mode::Smoke, "--smoke")] {
            let v = parse(&render("demo", mode, &fields)).unwrap();
            let command = format!("cargo bench -p spider-bench --bench demo -- {flag}");
            assert_eq!(v.get("command"), Some(&JsonValue::Str(command)));
            assert!(v.get("git_rev").and_then(JsonValue::as_str).is_some());
            assert_eq!(v.get("cores"), Some(&JsonValue::Num(cores() as f64)));
            assert_eq!(v.get("smoke"), Some(&JsonValue::Bool(mode == Mode::Smoke)));
            let x = v.get("x").and_then(|x| x.get("0"));
            assert_eq!(x, Some(&JsonValue::Num(1.5)));
        }
    }

    #[test]
    fn every_committed_record_comes_from_a_full_bench_run() {
        let root = workspace_root();
        let mut records = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(root.join(&name)).unwrap();
            let v = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let command = v.get("command").and_then(JsonValue::as_str);
            let bench = command
                .and_then(|c| c.strip_prefix("cargo bench -p spider-bench --bench "))
                .and_then(|c| c.strip_suffix(" -- --bench"))
                .unwrap_or_else(|| panic!("{name}: command {command:?} is not a full bench run"));
            let source = root.join(format!("crates/bench/benches/{bench}.rs"));
            assert!(source.is_file(), "{name}: no bench target {bench}");
            assert!(
                v.get("git_rev").and_then(JsonValue::as_str).is_some(),
                "{name}: git_rev"
            );
            assert!(
                v.get("cores").and_then(JsonValue::as_f64).is_some(),
                "{name}: cores"
            );
            assert_eq!(
                v.get("smoke"),
                Some(&JsonValue::Bool(false)),
                "{name}: smoke"
            );
            records += 1;
        }
        assert!(records > 0, "no BENCH_*.json at {}", root.display());
    }
}
