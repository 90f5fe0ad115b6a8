//! Monte Carlo reliability scaling: per-replication cost of the
//! exposure-window fast path vs the event-driven oracle, and `replicate`
//! throughput at each spare-thread budget.
//!
//! Two separate speedups compose:
//!
//! 1. **Per replication**: `run_reliability_fast` resolves the common
//!    "exposure window closes quietly" case analytically, so one Paper-scale
//!    fleet-year costs a fraction of the oracle's event-queue walk.
//! 2. **Across replications**: `replicate` fans counter-based replication
//!    streams over rayon with a fixed-order reduction, so its result is
//!    bit-identical whatever the thread count. This bench asserts that at
//!    every budget it times.
//!
//! [`spider_bench::record`] decides the shape, the spare-thread budgets and
//! where `BENCH_mc.json` goes. The smoke shape shrinks the fleet and the
//! replication count.

use spider_bench::record::{self, by_budget, case};
use spider_simkit::montecarlo::{replicate, McConfig};
use spider_simkit::SimRng;
use spider_storage::reliability::{
    run_reliability, run_reliability_fast, ReliabilityConfig, SplittingConfig,
};

const BENCH: &str = "mc_scale";

fn main() {
    spider_obs::init_from_env();
    let (groups, reps) = if record::smoke() {
        (200u32, 64u64)
    } else {
        (2_016, 512)
    };
    let cfg = ReliabilityConfig {
        groups,
        ..ReliabilityConfig::spider2()
    };
    let split = SplittingConfig::new(64);

    // Per-replication cost: oracle event walk vs exposure-window fast path
    // (with and without splitting) on the same configuration and seed.
    let oracle_ms = case(BENCH, "one_rep_oracle", || {
        run_reliability(&cfg, &mut SimRng::seed_from_u64(1))
    });
    let fast_ms = case(BENCH, "one_rep_fast", || {
        run_reliability_fast(&cfg, &SplittingConfig::off(), &mut SimRng::seed_from_u64(1))
    });
    let split_ms = case(BENCH, "one_rep_fast_split64", || {
        run_reliability_fast(&cfg, &split, &mut SimRng::seed_from_u64(1))
    });

    // Replication fan-out at each spare-thread budget. Every budget must
    // reproduce budget 0's weighted totals bit for bit.
    let mc = McConfig::new(0xBEEF, reps);
    let study = |_: u64, rng: &mut SimRng| {
        let rep = run_reliability_fast(&cfg, &split, rng);
        (rep.data_loss_events, rep.disk_failures)
    };
    let budgets = record::budgets();
    let mut first: Option<(f64, f64)> = None;
    let replicate_ms: Vec<f64> = budgets
        .iter()
        .map(|&b| {
            rayon::set_spare_thread_budget(b);
            let ms = case(BENCH, &format!("replicate_budget{b}"), || {
                replicate(&mc, study)
            });
            let v = replicate(&mc, study).value;
            let v0 = *first.get_or_insert(v);
            assert_eq!(v.0.to_bits(), v0.0.to_bits(), "budget {b} losses");
            assert_eq!(v.1.to_bits(), v0.1.to_bits(), "budget {b} failures");
            ms
        })
        .collect();
    rayon::set_spare_thread_budget(record::cores() - 1);
    let (losses, failures) = first.expect("the budget list is never empty");
    println!(
        "mc_scale: {groups} groups, {reps} reps: weighted losses {losses:.4}, failures {failures:.0} \
         (bit-identical at budgets {budgets:?})"
    );

    let last = budgets.len() - 1;
    let fields = format!(
        r#"  "scenario": "Spider II fleet-year reliability (E16 classic-rebuild shape): RAID-6 8+2 groups over one AFR year. The oracle materializes every failure, replacement and rebuild as engine events; the fast path draws one uniform per group and simulates cascade state only when a second failure lands inside an open exposure window. Fast-vs-oracle agreement is pinned by the differential tests in crates/storage/src/reliability.rs; this bench asserts replicate's weighted totals bit-identical at every spare-thread budget",
  "shape": {{"groups": {groups}, "raid": "8+2", "afr": {afr}, "horizon_days": {days}, "replications": {reps}, "batch": {batch}, "splitting_factor": {factor}}},
  "spare_thread_budgets": {budgets:?},
  "ms_per_replication": {{
    "oracle_event_driven": {oracle_ms:.3},
    "fast_exposure_window": {fast_ms:.3},
    "fast_exposure_window_split64": {split_ms:.3}
  }},
  "replicate_ms_by_budget": {by},
  "replicate_totals": {{"weighted_losses": {losses:.4}, "failures": {failures:.0}}},
  "speedups": {{
    "per_replication_fast_vs_oracle": {per_rep:.1},
    "replicate_budget{top}_vs_budget0": {par:.2}
  }}"#,
        afr = cfg.afr,
        days = cfg.horizon.as_secs_f64() / 86_400.0,
        batch = mc.batch,
        factor = split.factor,
        by = by_budget(&replicate_ms),
        top = budgets[last],
        per_rep = oracle_ms / fast_ms,
        par = replicate_ms[0] / replicate_ms[last],
    );
    record::write(BENCH, "BENCH_mc.json", &fields);
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
