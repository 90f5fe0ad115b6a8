//! Smoke shapes of every workload, the checks catching corrupted outputs,
//! the traced run's outputs, and the command line end to end.

use std::path::{Path, PathBuf};
use std::process::Command;

use spider_benchmark::des::ShardedDes;
use spider_benchmark::flows::Storm1m;
use spider_benchmark::metrics::{per_layer_names, END_TO_END};
use spider_benchmark::paper::PaperSuite;
use spider_benchmark::run::{run, run_ops, Opts, Tally};
use spider_benchmark::trace::Tracer;
use spider_benchmark::{Ctx, Workload, WORKLOADS};
use spider_obs::jsonio::{parse, JsonValue};

const SMOKE: Ctx = Ctx {
    seed: 7,
    smoke: true,
};

fn opts(workload: &str, trace_dir: Option<PathBuf>) -> Opts {
    Opts {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.0,
        trace: trace_dir.is_some(),
        smoke: true,
        trace_dir,
    }
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Set a workload up at its smoke shape with a golden digest taken from a
/// clean op, and return it with that op's output.
fn pinned<W: Workload>() -> (W, W::Output) {
    let mut tr = Tracer::new(false);
    let mut w = W::setup(&SMOKE, &mut tr);
    let out = w.op(&mut tr);
    w.set_golden(Some(w.digest(&out)));
    assert_eq!(w.check(&out), Ok(()), "a clean op passes its checks");
    (w, out)
}

/// Feed one output through the op tally and return how many ops failed.
fn failed_ops<W: Workload>(w: &W, out: &W::Output) -> u64 {
    let mut tally = Tally::default();
    tally.record(w.check(out));
    tally.failed
}

#[test]
fn every_workload_runs_clean_at_its_smoke_shape() {
    for w in WORKLOADS {
        let r = run(&opts(w, None)).expect("known workload");
        assert_eq!((r.attempted, r.failed), (1, 0), "{w}: {:?}", r.failures);
        for m in END_TO_END {
            let v = r
                .metric(m.name)
                .unwrap_or_else(|| panic!("{w} lacks {}", m.name));
            assert!(v > 0.0, "{w}: {} = {v}", m.name);
        }
    }
    assert!(run(&opts("nope", None)).is_err());
}

#[test]
fn a_corrupted_byte_count_is_a_failed_op() {
    let (w, mut out) = pinned::<Storm1m>();
    out.bytes_moved[0] += 1_000;
    assert_eq!(failed_ops(&w, &out), 1);
    // The byte-conservation invariant catches it without the digest too.
    let mut w = w;
    w.set_golden(None);
    assert!(w.check(&out).unwrap_err().contains("job 0"));
}

#[test]
fn a_corrupted_table_cell_is_a_failed_op() {
    let (w, mut out) = pinned::<PaperSuite>();
    let id = out[2].0;
    out[2].1[0].rows[0][1].push('1');
    let err = w.check(&out).unwrap_err();
    assert!(err.contains(id), "{err}");
    assert_eq!(failed_ops(&w, &out), 1);
}

#[test]
fn wall_clock_cells_do_not_fail_the_digest() {
    let (w, mut out) = pinned::<PaperSuite>();
    let e12 = out
        .iter()
        .position(|(id, _)| *id == "E12")
        .expect("E12 ran");
    let b = out[e12]
        .1
        .iter()
        .position(|t| t.title.starts_with("E12b:"))
        .expect("E12b table");
    out[e12].1[b].rows[0][1] = "123456.7".to_owned();
    assert_eq!(w.check(&out), Ok(()));
    out[e12].1[b].rows[0][4] = "0 files".to_owned();
    assert!(w.check(&out).is_err(), "the result column is still checked");
}

#[test]
fn a_corrupted_federation_count_is_a_failed_op() {
    let (w, mut out) = pinned::<ShardedDes>();
    out.federation[0].remote_ops += 1;
    assert_eq!(failed_ops(&w, &out), 1);
    let mut w = w;
    w.set_golden(None);
    assert!(w.check(&out).unwrap_err().contains("remote ops"));
}

/// A workload whose op panics.
struct Panics;

impl Workload for Panics {
    type Output = ();
    fn setup(_: &Ctx, _: &mut Tracer) -> Self {
        Panics
    }
    fn op(&self, tr: &mut Tracer) {
        tr.span("inner", |_| panic!("deliberate"));
    }
    fn check(&self, (): &()) -> Result<(), String> {
        Ok(())
    }
    fn digest(&self, (): &()) -> String {
        String::new()
    }
    fn set_golden(&mut self, _: Option<String>) {}
    fn shape(&self) -> String {
        String::new()
    }
}

#[test]
fn a_panicking_op_is_a_failed_op() {
    let mut tr = Tracer::new(true);
    let mut tally = Tally::default();
    let ms = run_ops(&Panics, &mut tr, 0.0, (2, 2), &mut tally);
    assert!(ms.is_empty());
    assert_eq!((tally.attempted, tally.failed), (2, 2));
    assert!(tally.failures[0].contains("deliberate"));
    assert_eq!(tr.depth(), 0, "spans left open by the panic are closed");
}

#[test]
fn self_times_sum_to_the_op_wall() {
    let mut tr = Tracer::new(true);
    let w = ShardedDes::setup(&SMOKE, &mut tr);
    let since = tr.spans().len();
    let mut tally = Tally::default();
    let ms = run_ops(&w, &mut tr, 0.0, (3, 3), &mut tally);
    assert_eq!(tally.failed, 0);
    let self_ns = tr.self_times(since);
    let all: u64 = self_ns.values().sum();
    let ops: u64 = tr.durations("op", since).iter().sum();
    assert_eq!(all, ops, "self times partition the op spans");
    let engine_ms: f64 = self_ns
        .iter()
        .filter(|(name, _)| !matches!(name.as_str(), "op" | "bench.check"))
        .map(|(_, &ns)| ns as f64 / 1e6)
        .sum();
    let wall_ms: f64 = ms.iter().sum();
    assert!(
        (engine_ms - wall_ms).abs() <= 0.01 * wall_ms,
        "engine spans {engine_ms} ms vs op wall {wall_ms} ms"
    );
}

#[test]
fn a_traced_run_reports_every_layer_metric_and_writes_its_trace() {
    let dir = tmp("trace_sharded_des");
    let r = run(&opts("sharded_des", Some(dir.clone()))).expect("known workload");
    assert_eq!(r.failed, 0, "{:?}", r.failures);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
    let want = per_layer_names();
    assert_eq!(names, want.iter().map(|w| w.0.as_str()).collect::<Vec<_>>());
    assert!(r.metric("simkit.pdes.epochs").expect("reported") > 1.0);
    assert!(r.metric("core.rpcsim.events").expect("reported") > 0.0);
    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans.jsonl");
    assert!(spans.contains("core.rpcsim.run_interference_sharded"));
    for line in spans.lines() {
        parse(line).expect("each span line is JSON");
    }
    parse(&std::fs::read_to_string(dir.join("trace_chrome.json")).expect("chrome trace"))
        .expect("chrome trace is JSON");
    assert!(dir.join("obs/metrics.prom").exists(), "obs sinks written");
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let bench = parse(&text).expect("BENCHMARK.json is JSON");
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(JsonValue::as_arr)
            .expect(key)
            .to_vec()
    };
    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(j.get("name").and_then(JsonValue::as_str), Some(m.name));
        assert_eq!(j.get("unit").and_then(JsonValue::as_str), Some(m.unit));
        assert_eq!(
            j.get("better").and_then(JsonValue::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(j.get("bound").and_then(JsonValue::as_f64), Some(m.bound));
    }
    let layer = list("per_layer");
    let want = per_layer_names();
    assert_eq!(layer.len(), want.len());
    for (j, (name, unit)) in layer.iter().zip(&want) {
        assert_eq!(
            j.get("name").and_then(JsonValue::as_str),
            Some(name.as_str())
        );
        assert_eq!(j.get("unit").and_then(JsonValue::as_str), Some(*unit));
        let better = spider_benchmark::metrics::better_of(name).as_str();
        assert_eq!(
            j.get("better").and_then(JsonValue::as_str),
            Some(better),
            "{name}"
        );
    }
    let workloads = list("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
}

fn cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spider-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn smoke_output_stays_under_target_and_compare_reads_it() {
    let (code, stdout) = cli(&["--workload", "storm_1m", "--smoke", "--out", "storm.json"]);
    assert_eq!(code, 2, "smoke output outside target/ is refused");
    assert!(stdout.is_empty(), "no result is printed");
    assert_eq!(cli(&["--workload", "storm_1m", "--trace", "2"]).0, 2);

    let dir = tmp("cli_all");
    let dir_s = dir.to_str().expect("utf-8 path");
    let (code, stdout) = cli(&[
        "--workload",
        "all",
        "--smoke",
        "--seconds",
        "1",
        "--out",
        dir_s,
    ]);
    assert_eq!(code, 0, "{stdout}");
    let last = parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(last.get("correct"), Some(&JsonValue::Bool(true)));
    for w in WORKLOADS {
        let rec = std::fs::read_to_string(dir.join(format!("{w}.json"))).expect("run record");
        let rec = parse(&rec).expect("record is JSON");
        assert_eq!(rec.get("smoke"), Some(&JsonValue::Bool(true)));
        assert!(rec.get("git_rev").is_some() && rec.get("available_parallelism").is_some());
    }
    let (code, report) = cli(&["compare", dir_s, dir_s]);
    assert_eq!(code, 0, "{report}");
    assert_eq!(report.matches("within-bound").count(), 4 * END_TO_END.len());
}
