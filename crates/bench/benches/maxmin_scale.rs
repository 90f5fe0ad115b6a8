//! Max-min solver scaling: event-driven water-filling vs the reference
//! full-rescan loop at the Titan shape (≈20k flows over ≈3k resources).
//!
//! Two scenarios:
//!
//! * `distinct_caps` — the Figure 4 *ramp* regime: per-process caps bind
//!   before any resource saturates (2,000 clients at ~55 MB/s leave every
//!   couplet unsaturated), and every flow has its own cap because clients
//!   at different placements see different per-process rates. This is the
//!   reference solver's adversarial case: every round freezes exactly one
//!   flow and triggers a full O(flows × path + resources) rescan, so the
//!   loop goes quadratic. The event-driven solver pays O(path × log) per
//!   freeze.
//!
//! * `uniform_cap` — all clients share one per-process cap and the path is
//!   a function of the destination OST, the `flowsim` situation. Here the
//!   per-flow solvers are closer, but the traffic collapses into ~2k
//!   weighted classes (one per OST) and the class solve is another order
//!   faster. This composition — classes × event-driven — is what the
//!   experiment sweeps actually run.
//!
//! [`spider_bench::record`] decides the shape and where `BENCH_maxmin.json`
//! goes. The smoke shape keeps the resources and shrinks the traffic to two
//! flows per OST, because the full-shape reference solve takes seconds.

use spider_bench::record::{self, case};
use spider_net::maxmin::{FlowSpec, MaxMinProblem, ResourceId};

const BENCH: &str = "maxmin_scale";
const N_RES: usize = 3_000;
const N_OSTS: usize = 2_016;

fn resources() -> (MaxMinProblem, Vec<ResourceId>) {
    let mut p = MaxMinProblem::new();
    let res: Vec<ResourceId> = (0..N_RES)
        .map(|i| p.add_resource(80.0 + (i % 41) as f64))
        .collect();
    (p, res)
}

/// Path of the client whose file lives on OST `ost`: router, leaf, couplet
/// and OST are all functions of the OST index, as in `flowsim`.
fn path_of_ost(res: &[ResourceId], ost: usize) -> Vec<ResourceId> {
    vec![
        res[ost % 440],
        res[440 + ost % 288],
        res[740 + ost % 36],
        res[800 + ost % N_OSTS],
    ]
}

fn distinct_cap_flows(res: &[ResourceId], n: usize) -> Vec<FlowSpec> {
    // Caps small enough that no resource saturates (at 20,000 flows the
    // busiest resource carries ~555 flows at a mean cap of 0.06 → usage ~33
    // of ≥80): every flow freezes one by one at its distinct cap.
    (0..n)
        .map(|i| FlowSpec::new(path_of_ost(res, i)).with_cap(0.02 + i as f64 * 4e-6))
        .collect()
}

fn uniform_cap_flows(res: &[ResourceId], n: usize) -> Vec<FlowSpec> {
    (0..n)
        .map(|i| FlowSpec::new(path_of_ost(res, i % N_OSTS)).with_cap(5.0))
        .collect()
}

/// The same traffic as weighted classes: flows sharing (path, cap) merge.
fn collapsed(flows: &[FlowSpec]) -> Vec<FlowSpec> {
    let mut classes: std::collections::HashMap<(Vec<usize>, u64), FlowSpec> =
        std::collections::HashMap::new();
    for f in flows {
        let key = (
            f.resources.iter().map(|r| r.0).collect::<Vec<_>>(),
            f.cap.unwrap_or(f64::NAN).to_bits(),
        );
        classes
            .entry(key)
            .and_modify(|c| c.weight += f.weight)
            .or_insert_with(|| f.clone());
    }
    let mut out: Vec<FlowSpec> = classes.into_values().collect();
    // Deterministic order (HashMap iteration is not).
    out.sort_by(|a, b| a.resources[3].0.cmp(&b.resources[3].0));
    out
}

fn main() {
    spider_obs::init_from_env();
    let n_flows = if record::smoke() { 2 * N_OSTS } else { 20_000 };
    let (p, res) = resources();

    let distinct = distinct_cap_flows(&res, n_flows);
    let distinct_event = case(BENCH, "distinct_caps_event_driven", || p.solve(&distinct));
    let distinct_ref = case(BENCH, "distinct_caps_reference", || {
        p.solve_reference(&distinct)
    });

    let uniform = uniform_cap_flows(&res, n_flows);
    let classes = collapsed(&uniform);
    assert_eq!(classes.len(), N_OSTS);
    let uniform_event = case(BENCH, "uniform_cap_event_driven", || p.solve(&uniform));
    let uniform_ref = case(BENCH, "uniform_cap_reference", || {
        p.solve_reference(&uniform)
    });
    let uniform_classes = case(BENCH, "uniform_cap_weighted_classes", || p.solve(&classes));

    let fields = format!(
        r#"  "scenarios": {{
    "distinct_caps": "Figure 4 ramp regime: distinct per-process caps bind below every resource's saturation level, so the reference loop freezes one flow per round (quadratic); the event-driven solver pays O(path x log) per freeze",
    "uniform_cap": "Figure 4 plateau regime: one shared per-process cap, path a function of the destination OST; collapses to one weighted class per OST, the shape flowsim hands the solver"
  }},
  "shape": {{"flows": {n_flows}, "resources": {N_RES}, "osts": {N_OSTS}, "path_len": 4, "weighted_classes": {n_classes}}},
  "solver_ms": {{
    "distinct_caps_event_driven": {distinct_event:.3},
    "distinct_caps_reference": {distinct_ref:.3},
    "uniform_cap_event_driven": {uniform_event:.3},
    "uniform_cap_reference": {uniform_ref:.3},
    "uniform_cap_weighted_classes": {uniform_classes:.3}
  }},
  "speedups": {{
    "distinct_caps_event_vs_reference": {s1:.1},
    "uniform_cap_event_vs_reference": {s2:.1},
    "uniform_cap_classes_vs_per_flow_reference": {s3:.1},
    "uniform_cap_classes_vs_per_flow_event": {s4:.1}
  }}"#,
        n_classes = classes.len(),
        s1 = distinct_ref / distinct_event,
        s2 = uniform_ref / uniform_event,
        s3 = uniform_ref / uniform_classes,
        s4 = uniform_event / uniform_classes,
    );
    record::write(BENCH, "BENCH_maxmin.json", &fields);
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
