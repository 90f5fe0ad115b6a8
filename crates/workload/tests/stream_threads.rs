//! Thread-budget differential tests for `CenterWorkload::generate_streams`.
//!
//! The streams are drawn and consumed in parallel, and must be bit-identical
//! at every spare-thread budget, whether they are kept, tallied as E5 does
//! or binned as E7 does. This lives in its own integration-test binary
//! because it sets the global rayon-shim thread budget, which would race
//! with any other test sharing the process; its own tests take turns on
//! [`BUDGET`].

use std::sync::{Mutex, PoisonError};

use spider_simkit::{SimDuration, SimRng};
use spider_workload::characterize::{Characterization, Tally};
use spider_workload::generator::trace_to_series;
use spider_workload::mix::CenterWorkload;
use spider_workload::spec::IoRequest;

/// Held while a test sets and uses the process-wide thread budget.
static BUDGET: Mutex<()> = Mutex::new(());

/// Every stream of the production mix and the generator's next draw.
fn streams_at_budget(spare: usize) -> (Vec<Vec<IoRequest>>, u64) {
    rayon::set_spare_thread_budget(spare);
    let wl = CenterWorkload::olcf_production();
    let mut rng = SimRng::seed_from_u64(0xE5);
    let streams = wl.generate_streams(
        SimDuration::from_mins(5),
        &mut rng,
        0..wl.total_streams(),
        |s| s.collect(),
    );
    (streams, rng.f64().to_bits())
}

/// E5's fused path: each stream tallied as it is drawn, the tallies
/// collected in client order. Returns the statistics' bits, the histogram
/// and the generator's next draw.
fn tally_at_budget(spare: usize) -> (Vec<u64>, Vec<u64>, u64) {
    rayon::set_spare_thread_budget(spare);
    let wl = CenterWorkload::olcf_production();
    let mut rng = SimRng::seed_from_u64(0xE5);
    let c: Characterization = wl
        .generate_streams(
            SimDuration::from_mins(30),
            &mut rng,
            0..wl.total_streams(),
            |s| s.collect::<Tally>(),
        )
        .into_iter()
        .collect::<Tally>()
        .finish();
    let idle = c.idle_tail.expect("the idle tail is exercised");
    let bits = vec![
        c.requests as u64,
        c.write_fraction.to_bits(),
        c.small_fraction.to_bits(),
        c.large_aligned_fraction.to_bits(),
        c.bimodal_coverage.to_bits(),
        c.inter_arrival_tail.to_bits(),
        idle.to_bits(),
    ];
    (
        bits,
        c.size_histogram.counts().to_vec(),
        rng.f64().to_bits(),
    )
}

/// E7's background: the analytics and visualization streams of one
/// hour-long run, each binned into a 10 s log as it is drawn. Returns each
/// stream's bins' bits and the generator's next draw.
fn bins_at_budget(spare: usize) -> (Vec<Vec<u64>>, u64) {
    rayon::set_spare_thread_budget(spare);
    let mut rng = SimRng::seed_from_u64(0xE7);
    let logs = CenterWorkload::olcf_production().generate_streams(
        SimDuration::from_hours(1),
        &mut rng,
        48..76,
        |s| {
            trace_to_series(s, SimDuration::from_secs(10))
                .bins()
                .iter()
                .map(|b| b.to_bits())
                .collect()
        },
    );
    (logs, rng.f64().to_bits())
}

/// Restore the machine-derived budget for anything running after us.
fn restore_budget() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    rayon::set_spare_thread_budget(cores.saturating_sub(1));
}

#[test]
fn generate_streams_is_bit_identical_across_thread_budgets() {
    let _turn = BUDGET.lock().unwrap_or_else(PoisonError::into_inner);
    let t1 = streams_at_budget(0);
    let t2 = streams_at_budget(1);
    // 8 threads, forced even on a single-core machine.
    let t8 = streams_at_budget(7);
    restore_budget();

    assert_eq!(t1.0.len(), 80);
    let active = t1.0.iter().filter(|s| !s.is_empty()).count();
    assert!(active > 60, "only {active} streams issued requests");
    assert!(t1 == t2, "1 vs 2 threads");
    assert!(t1 == t8, "1 vs 8 threads");
}

#[test]
fn tallied_streams_finish_bit_identical_across_thread_budgets() {
    let _turn = BUDGET.lock().unwrap_or_else(PoisonError::into_inner);
    let t1 = tally_at_budget(0);
    let t2 = tally_at_budget(1);
    let t8 = tally_at_budget(7);
    restore_budget();

    assert!(t1.0[0] > 10_000, "only {} requests", t1.0[0]);
    assert!(t1 == t2, "1 vs 2 threads");
    assert!(t1 == t8, "1 vs 8 threads");
}

#[test]
fn binned_streams_are_bit_identical_across_thread_budgets() {
    let _turn = BUDGET.lock().unwrap_or_else(PoisonError::into_inner);
    let t1 = bins_at_budget(0);
    let t2 = bins_at_budget(1);
    let t8 = bins_at_budget(7);
    restore_budget();

    assert_eq!(t1.0.len(), 28);
    let active = t1.0.iter().filter(|bins| !bins.is_empty()).count();
    assert!(active > 20, "only {active} streams issued requests");
    assert!(t1 == t2, "1 vs 2 threads");
    assert!(t1 == t8, "1 vs 8 threads");
}
