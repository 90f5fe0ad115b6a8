//! Thread-budget differential test for `CenterWorkload::generate_streams`.
//!
//! The streams are generated in parallel, and must be bit-identical at
//! every spare-thread budget. This lives in its own integration-test binary
//! because it sets the global rayon-shim thread budget, which would race
//! with any other test sharing the process.

use spider_simkit::{SimDuration, SimRng};
use spider_workload::mix::CenterWorkload;
use spider_workload::spec::IoRequest;

/// Every stream of the production mix and the generator's next draw.
fn streams_at_budget(spare: usize) -> (Vec<Vec<IoRequest>>, u64) {
    rayon::set_spare_thread_budget(spare);
    let wl = CenterWorkload::olcf_production();
    let mut rng = SimRng::seed_from_u64(0xE5);
    let streams = wl.generate_streams(SimDuration::from_mins(5), &mut rng, 0..wl.total_streams());
    (streams, rng.f64().to_bits())
}

#[test]
fn generate_streams_is_bit_identical_across_thread_budgets() {
    let t1 = streams_at_budget(0);
    let t2 = streams_at_budget(1);
    // 8 threads, forced even on a single-core machine.
    let t8 = streams_at_budget(7);

    // Restore the machine-derived budget for anything running after us.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    rayon::set_spare_thread_budget(cores.saturating_sub(1));

    assert_eq!(t1.0.len(), 80);
    let active = t1.0.iter().filter(|s| !s.is_empty()).count();
    assert!(active > 60, "only {active} streams issued requests");
    assert!(t1 == t2, "1 vs 2 threads");
    assert!(t1 == t8, "1 vs 8 threads");
}
