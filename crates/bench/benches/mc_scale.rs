//! Monte Carlo reliability scaling: per-replication cost of the
//! exposure-window fast path vs the event-driven oracle, and `replicate`
//! throughput sequential vs parallel.
//!
//! Two separate speedups compose:
//!
//! 1. **Per replication**: `run_reliability_fast` resolves the common
//!    "exposure window closes quietly" case analytically, so one Paper-scale
//!    fleet-year costs a fraction of the oracle's event-queue walk.
//! 2. **Across replications**: `replicate` fans counter-based replication
//!    streams over rayon with a fixed-order reduction — bit-identical
//!    whatever the thread count, so parallel scaling is free of
//!    determinism tradeoffs. The rayon-shim thread budget is forced to 0
//!    (sequential) and 7 (8-way) so both shapes are measured even on a
//!    single-core container; on one core the 8-way number only measures
//!    scheduling overhead, see BENCH_mc.json.
//!
//! `BENCH_mc.json` records a full run. The smoke shape
//! ([`spider_bench::record`] decides it) shrinks the fleet and replication
//! counts so the binary stays fast in CI and test runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use spider_bench::record;
use spider_simkit::montecarlo::{replicate, McConfig};
use spider_simkit::SimRng;
use spider_storage::reliability::{
    run_reliability, run_reliability_fast, ReliabilityConfig, SplittingConfig,
};

fn bench_mc_scale(c: &mut Criterion) {
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

    let mut g = c.benchmark_group("mc_scale");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(10));
    g.sample_size(10);

    // Per-replication cost: oracle event walk vs exposure-window fast path
    // (with and without splitting) on the same configuration and seed.
    g.bench_function("one_rep_oracle", |b| {
        b.iter(|| black_box(run_reliability(&cfg, &mut SimRng::seed_from_u64(1))));
    });
    g.bench_function("one_rep_fast", |b| {
        b.iter(|| {
            black_box(run_reliability_fast(
                &cfg,
                &SplittingConfig::off(),
                &mut SimRng::seed_from_u64(1),
            ))
        });
    });
    g.bench_function("one_rep_fast_split64", |b| {
        b.iter(|| {
            black_box(run_reliability_fast(
                &cfg,
                &split,
                &mut SimRng::seed_from_u64(1),
            ))
        });
    });

    // Replication fan-out: the same study, sequential vs 8-way budget.
    let mc = McConfig::new(0xBEEF, reps);
    let study = |_: u64, rng: &mut SimRng| {
        let rep = run_reliability_fast(&cfg, &split, rng);
        (rep.data_loss_events, rep.disk_failures)
    };
    rayon::set_spare_thread_budget(0);
    g.bench_function("replicate_sequential", |b| {
        b.iter(|| black_box(replicate(&mc, study)));
    });
    rayon::set_spare_thread_budget(7);
    g.bench_function("replicate_8way_budget", |b| {
        b.iter(|| black_box(replicate(&mc, study)));
    });
    // Restore the machine-derived budget for anything running after us.
    let cores = record::cores();
    rayon::set_spare_thread_budget(cores.saturating_sub(1));
    g.finish();

    // Determinism spot-check outside the timed loops: sequential and 8-way
    // runs of the same config must agree exactly.
    rayon::set_spare_thread_budget(0);
    let seq = replicate(&mc, study);
    rayon::set_spare_thread_budget(7);
    let par = replicate(&mc, study);
    rayon::set_spare_thread_budget(cores.saturating_sub(1));
    assert_eq!(seq.value.0.to_bits(), par.value.0.to_bits());
    assert_eq!(seq.value.1.to_bits(), par.value.1.to_bits());
    println!(
        "mc_scale: {} groups, {} reps: weighted losses {:.4}, failures {:.0} (bit-identical seq vs 8-way)",
        groups, reps, seq.value.0, seq.value.1
    );
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}

criterion_group!(benches, bench_mc_scale);
criterion_main!(benches);
