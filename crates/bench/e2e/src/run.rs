//! One benchmark run: set up a workload several times, run its ops
//! closed-loop for a fixed time, check every output, and report metrics.
//! An untraced run times further set-ups between its ops.
//!
//! An untraced run reports the end-to-end metrics. A traced run reports the
//! per-layer metrics from three phases over the same set-up: untraced ops,
//! ops at a spare-thread budget of 0, then ops with the benchmark's spans
//! and the program's `spider_obs` counters on.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use spider_obs::jsonio::{write_f64, write_str};

use crate::des::ShardedDes;
use crate::flows::{MixedRw, Storm1m};
use crate::metrics::{paper_share_name, registry_metrics, unit_of, PAPER_EXPERIMENTS};
use crate::paper::PaperSuite;
use crate::stats::{batch_means, median};
use crate::trace::Tracer;
use crate::{Ctx, Workload};

/// Untimed warm-up set-ups run for this long (at least one) before the
/// timed ones, so page faults and a cold core are not in the median.
const SETUP_WARMUP_S: f64 = 0.25;
/// One `setup_s` sample is the mean time of consecutive timed set-ups that
/// together take at least this long, and `setup_s` is the median of the
/// samples. On a shared host a millisecond set-up runs about half as slow
/// again in episodes of a fraction of a second to a second: the median of
/// single set-ups jumps with the share of the run such episodes cover,
/// while the mean of a long batch moves only in proportion to it. The
/// first batch is timed before the first op.
const SETUP_BATCH_S: f64 = 0.75;
/// After each op of an untraced run, timed set-ups run until they total
/// this share of the ops' time so far, so later batches each spread over
/// several seconds and together over the whole run, like the ops.
const SETUP_SHARE: f64 = 0.15;

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of measured ops (split between the phases of a traced run).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced shapes, one set-up and one op per phase.
    pub smoke: bool,
    /// Where a traced run writes its spans and the `spider_obs` sinks.
    pub trace_dir: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input shape.
    pub shape: String,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output failed a check or that panicked.
    pub failed: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Wall time of every measured op at the default budget (ms).
    pub ops_ms: Vec<f64>,
    /// Wall time of every set-up (s).
    pub setups_s: Vec<f64>,
    /// Traced runs: self time per span name over the traced ops (ms).
    pub self_ms: BTreeMap<String, f64>,
}

impl Report {
    /// All checks passed and nothing panicked.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = String::from("{\"correct\": ");
        out.push_str(if self.correct() { "true" } else { "false" });
        out.push_str(&format!(
            ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        ));
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_str(&mut out, name);
            out.push_str(": {\"value\": ");
            write_f64(&mut out, *value);
            out.push_str(", \"unit\": ");
            write_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// The full run record written by `--out`: the result plus provenance.
    pub fn record_json(&self, opts: &Opts) -> String {
        let mut out = String::from("{\"workload\": ");
        write_str(&mut out, &self.workload);
        out.push_str(&format!(
            ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}",
            opts.seed, opts.seconds, opts.trace, opts.smoke
        ));
        out.push_str(", \"git_rev\": ");
        write_str(&mut out, &spider_obs::git_rev());
        out.push_str(&format!(
            ", \"available_parallelism\": {}, \"thread_budget\": {}",
            cores(),
            default_budget()
        ));
        out.push_str(", \"shape\": ");
        write_str(&mut out, &self.shape);
        for (key, values) in [("ops_ms", &self.ops_ms), ("setups_s", &self.setups_s)] {
            out.push_str(&format!(", \"{key}\": ["));
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_f64(&mut out, *v);
            }
            out.push(']');
        }
        out.push_str(", \"result\": ");
        out.push_str(&self.result_json());
        out.push('}');
        out
    }
}

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The rayon shim's default spare-thread budget: one thread per core in
/// total, the caller included.
pub fn default_budget() -> usize {
    cores().saturating_sub(1)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Run the workload named in `opts`.
pub fn run(opts: &Opts) -> Result<Report, String> {
    match opts.workload.as_str() {
        "paper_suite" => Ok(run_workload::<PaperSuite>(opts)),
        "storm_1m" => Ok(run_workload::<Storm1m>(opts)),
        "mixed_rw" => Ok(run_workload::<MixedRw>(opts)),
        "sharded_des" => Ok(run_workload::<ShardedDes>(opts)),
        other => Err(format!(
            "unknown workload '{other}' (use one of {})",
            crate::WORKLOADS.join(", ")
        )),
    }
}

/// Ops attempted and failed, with one message per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one op with its check result.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// Run ops back to back until at least `min_ops` ran and `seconds` passed,
/// or `max_ops` ran. Each op runs inside an `op` span followed by its check
/// in a `bench.check` span; a panic in either counts as a failed op.
/// Returns the wall time of each op that completed, checks excluded.
pub fn run_ops<W: Workload>(
    w: &W,
    tr: &mut Tracer,
    seconds: f64,
    (min_ops, max_ops): (usize, usize),
    tally: &mut Tally,
) -> Vec<f64> {
    let start = Instant::now();
    let mut op_ms = Vec::new();
    let mut n = 0;
    while n < min_ops || (n < max_ops && start.elapsed().as_secs_f64() < seconds) {
        n += 1;
        tr.set_op(tally.attempted + 1);
        let depth = tr.depth();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tr.span("op", |tr| {
                let t0 = Instant::now();
                let out = w.op(tr);
                let wall = ms(t0.elapsed());
                let checked = tr.span("bench.check", |_| w.check(&out));
                (wall, checked)
            })
        }));
        tr.close_to(depth);
        match outcome {
            Ok((wall, checked)) => {
                op_ms.push(wall);
                tally.record(checked);
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                tally.record(Err(format!("op panicked: {msg}")));
            }
        }
    }
    op_ms
}

/// Set the workload up, timing each set-up into `secs`, until it holds at
/// least `min_reps` times that total at least `until_s` seconds. Each copy
/// is dropped before the next is made, so memory holds one at a time;
/// returns the last one, if any was made.
fn timed_setups<W: Workload>(
    ctx: &Ctx,
    tr: &mut Tracer,
    secs: &mut Vec<f64>,
    min_reps: usize,
    until_s: f64,
) -> Option<W> {
    let mut total: f64 = secs.iter().sum();
    let mut last = None;
    while secs.len() < min_reps || total < until_s {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(tr.span("setup", |tr| W::setup(ctx, tr)));
        let s = t0.elapsed().as_secs_f64();
        secs.push(s);
        total += s;
    }
    last
}

/// The set-ups before the first op: untimed warm-up ones that record no
/// spans, then timed ones (a single timed one for smoke shapes). Returns
/// the last copy with each timed set-up's wall time in seconds.
fn first_setups<W: Workload>(ctx: &Ctx, tr: &mut Tracer) -> (W, Vec<f64>) {
    let (min_reps, until_s) = if ctx.smoke {
        (1, 0.0)
    } else {
        let traced = tr.enabled();
        tr.set_enabled(false);
        let warmup = Instant::now();
        loop {
            drop(W::setup(ctx, tr));
            if warmup.elapsed().as_secs_f64() >= SETUP_WARMUP_S {
                break;
            }
        }
        tr.set_enabled(traced);
        (1, SETUP_BATCH_S)
    };
    let mut secs = Vec::new();
    let w = timed_setups(ctx, tr, &mut secs, min_reps, until_s).expect("min_reps >= 1");
    (w, secs)
}

fn run_workload<W: Workload>(opts: &Opts) -> Report {
    rayon::set_spare_thread_budget(default_budget());
    let ctx = Ctx {
        seed: opts.seed,
        smoke: opts.smoke,
    };
    let max_ops = if opts.smoke { 1 } else { usize::MAX };
    let mut tr = Tracer::new(opts.trace);
    let (w, mut setups_s) = first_setups::<W>(&ctx, &mut tr);
    let mut tally = Tally::default();
    let mut report = Report {
        workload: opts.workload.clone(),
        shape: w.shape(),
        ..Report::default()
    };

    if opts.trace {
        traced_phases(&w, opts, max_ops, &mut tr, &mut tally, &mut report);
    } else {
        let first_s: f64 = setups_s.iter().sum();
        let mut ops_s = 0.0;
        let mut peak = None;
        loop {
            let t0 = Instant::now();
            report
                .ops_ms
                .extend(run_ops(&w, &mut tr, 0.0, (1, 1), &mut tally));
            ops_s += t0.elapsed().as_secs_f64();
            // Peak memory is read after the first op, before any set-up
            // runs beside the workload: later ops only add the allocator's
            // fragmentation, which differs from process to process.
            peak.get_or_insert_with(|| peak_rss_mb().unwrap_or(0.0));
            if ctx.smoke {
                break;
            }
            drop(timed_setups::<W>(
                &ctx,
                &mut tr,
                &mut setups_s,
                0,
                first_s + SETUP_SHARE * ops_s,
            ));
            if ops_s >= opts.seconds {
                break;
            }
        }
        let setup_s = median(&batch_means(&setups_s, SETUP_BATCH_S));
        report.metrics = vec![
            ("op_p50_ms".to_owned(), median(&report.ops_ms), "ms"),
            ("setup_s".to_owned(), setup_s, "s"),
            ("peak_rss_mb".to_owned(), peak.unwrap_or_default(), "MiB"),
        ];
    }
    report.setups_s = setups_s;
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.failures = tally.failures;
    report
}

fn traced_phases<W: Workload>(
    w: &W,
    opts: &Opts,
    max_ops: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
    report: &mut Report,
) {
    let phase_secs = opts.seconds / 3.0;
    let build_ms = median(&ns_to_ms(&tr.durations("setup.build", 0)));
    let inputs_ms = median(&ns_to_ms(&tr.durations("setup.inputs", 0)));

    tr.set_enabled(false);
    report.ops_ms = run_ops(w, tr, phase_secs, (1, max_ops), tally);
    rayon::set_spare_thread_budget(0);
    let budget0 = run_ops(w, tr, 0.0, (1, 1), tally);
    rayon::set_spare_thread_budget(default_budget());

    // The obs session stays open when there is no trace directory to write
    // its sinks to; the process ends right after the run.
    let obs_dir = opts.trace_dir.as_ref().map(|d| d.join("obs"));
    spider_obs::init(obs_dir.clone().unwrap_or_default());
    tr.set_enabled(true);
    let since = tr.spans().len();
    let traced = run_ops(w, tr, phase_secs, (1, max_ops), tally);
    let registry = spider_obs::registry_snapshot().unwrap_or_default();
    tr.set_enabled(false);

    let traced_p50 = median(&traced);
    let op_ns: u64 = tr.durations("op", since).iter().sum();
    let self_ns = tr.self_times(since);
    let share = |name: &str| {
        self_ns
            .get(name)
            .map_or(0.0, |&ns| ns as f64 / op_ns.max(1) as f64)
    };
    report.metrics = vec![
        ("setup.build_ms".to_owned(), build_ms, "ms"),
        ("setup.inputs_ms".to_owned(), inputs_ms, "ms"),
        (
            "bench.check_ms".to_owned(),
            median(&ns_to_ms(&tr.durations("bench.check", since))),
            "ms",
        ),
        ("obs.traced_op_p50_ms".to_owned(), traced_p50, "ms"),
        (
            "obs.overhead_frac".to_owned(),
            traced_p50 / median(&report.ops_ms) - 1.0,
            "ratio",
        ),
        ("rayon.op_budget0_ms".to_owned(), median(&budget0), "ms"),
    ];
    for (name, value) in registry_metrics(&registry, traced.len()) {
        report.metrics.push((name.to_owned(), value, unit_of(name)));
    }
    report.metrics.push((
        "core.rpcsim.share".to_owned(),
        share("core.rpcsim.run_interference_sharded"),
        "ratio",
    ));
    for n in 1..=PAPER_EXPERIMENTS {
        let value = share(&format!("core.experiments.E{n}"));
        report.metrics.push((paper_share_name(n), value, "ratio"));
    }
    report.self_ms = self_ns
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e6))
        .collect();

    if let Some(dir) = &opts.trace_dir {
        if let Err(e) = write_trace(dir, tr) {
            eprintln!("writing the trace to {}: {e}", dir.display());
        }
        spider_obs::finish();
    }
}

/// Write `spans.jsonl` and `trace_chrome.json` into `dir`.
fn write_trace(dir: &Path, tr: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let buf = tr.to_buffer();
    std::fs::write(dir.join("spans.jsonl"), buf.to_jsonl())?;
    std::fs::write(dir.join("trace_chrome.json"), buf.to_chrome_json())
}
