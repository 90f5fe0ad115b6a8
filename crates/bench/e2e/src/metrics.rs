//! The benchmark's metric catalogue. `BENCHMARK.json` at the repository root
//! lists the same names, units, directions and bounds; a test keeps the two
//! in step.

use spider_obs::Registry;

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric, reported by every untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a change
    /// counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics. Both timings get a 25% bound: on a shared two-core
/// host the median op time of one seed drifts by up to a tenth from minute
/// to minute, and ten runs across seeds spread by about as much again.
/// Peak memory repeats to within a few percent.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. All are
/// lower-is-better except the hit ratios.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.build_ms", "ms"),
    ("setup.inputs_ms", "ms"),
    ("bench.check_ms", "ms"),
    ("obs.traced_op_p50_ms", "ms"),
    ("obs.overhead_frac", "ratio"),
    ("rayon.op_budget0_ms", "ms"),
    ("net.maxmin.solves", "count"),
    ("net.maxmin.rounds", "count"),
    ("net.maxmin.heap_pops", "count"),
    ("net.maxmin.stale_ratio", "ratio"),
    ("net.session.hit_ratio", "ratio"),
    ("net.session.rounds_saved", "count"),
    ("net.session.memo_evictions", "count"),
    ("net.session.components_skipped_ratio", "ratio"),
    ("core.flowsim.class_cache_hit_ratio", "ratio"),
    ("core.timestep.solves", "count"),
    ("core.timestep.steps", "count"),
    ("core.rpcsim.events", "count"),
    ("simkit.pdes.epochs", "count"),
    ("simkit.pdes.events", "count"),
    ("simkit.pdes.cross_shard_ratio", "ratio"),
    ("simkit.montecarlo.replications", "count"),
    ("core.rpcsim.share", "ratio"),
];

/// Per-layer metrics that are higher-is-better.
pub const HIGHER_IS_BETTER: &[&str] = &[
    "net.session.hit_ratio",
    "core.flowsim.class_cache_hit_ratio",
];

/// Number of experiments whose share of a suite pass is reported as
/// `paper.E<n>.share`.
pub const PAPER_EXPERIMENTS: usize = 21;

/// Name of experiment `n`'s share metric.
pub fn paper_share_name(n: usize) -> String {
    format!("paper.E{n}.share")
}

/// Every per-layer metric name, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    out.extend((1..=PAPER_EXPERIMENTS).map(|n| (paper_share_name(n), "ratio")));
    out
}

/// Unit of any metric by name ("" for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            per_layer_names()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
        .unwrap_or("")
}

/// Better direction of any metric by name.
pub fn better_of(name: &str) -> Better {
    if HIGHER_IS_BETTER.contains(&name) {
        Better::Higher
    } else {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or(Better::Lower, |m| m.better)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The program's own counters, read from the `spider_obs` registry after
/// `ops` traced ops, as per-op counts and ratios.
pub fn registry_metrics(reg: &Registry, ops: usize) -> Vec<(&'static str, f64)> {
    let c = |name: &str| reg.counter(name);
    let per_op = |name: &str| ratio(c(name), ops as u64);
    vec![
        ("net.maxmin.solves", per_op("maxmin_solves")),
        ("net.maxmin.rounds", per_op("maxmin_rounds")),
        ("net.maxmin.heap_pops", per_op("maxmin_heap_pops")),
        (
            "net.maxmin.stale_ratio",
            ratio(c("maxmin_stale_discards"), c("maxmin_heap_pushes")),
        ),
        (
            "net.session.hit_ratio",
            ratio(
                c("maxmin_cache_hits"),
                c("maxmin_cache_hits") + c("maxmin_cache_misses"),
            ),
        ),
        (
            "net.session.rounds_saved",
            per_op("maxmin_warm_rounds_saved"),
        ),
        (
            "net.session.memo_evictions",
            per_op("maxmin_memo_evictions"),
        ),
        (
            "net.session.components_skipped_ratio",
            ratio(
                c("maxmin_components_skipped"),
                c("maxmin_components_skipped") + c("maxmin_components_resolved"),
            ),
        ),
        (
            "core.flowsim.class_cache_hit_ratio",
            ratio(
                c("flowsim_class_cache_hits"),
                c("flowsim_class_cache_hits") + c("flowsim_class_cache_misses"),
            ),
        ),
        ("core.timestep.solves", per_op("timestep_solves")),
        ("core.timestep.steps", per_op("timestep_steps")),
        ("core.rpcsim.events", per_op("rpcsim_events_fired")),
        ("simkit.pdes.epochs", per_op("pdes_epochs")),
        ("simkit.pdes.events", per_op("pdes_events_fired")),
        (
            "simkit.pdes.cross_shard_ratio",
            ratio(c("pdes_cross_shard_messages"), c("pdes_events_fired")),
        ),
        ("simkit.montecarlo.replications", per_op("mc_replications")),
    ]
}
