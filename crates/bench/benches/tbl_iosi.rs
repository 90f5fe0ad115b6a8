//! Bench for E7: IOSI signature extraction over server-side logs.

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e07_iosi;
use spider_simkit::{SimDuration, SimRng, SimTime, TimeSeries};
use spider_tools::iosi::{extract_signature, IosiConfig};

const BENCH: &str = "tbl_iosi";

fn synth_runs(n_runs: usize, bins: usize) -> Vec<TimeSeries> {
    let mut rng = SimRng::seed_from_u64(3);
    (0..n_runs)
        .map(|_| {
            let mut ts = TimeSeries::new(SimDuration::from_secs(1));
            for b in 0..bins {
                let mut v = rng.f64() * 100.0;
                if b % 60 < 3 {
                    v += 5_000.0;
                }
                ts.add(SimTime::from_secs(b as u64), v);
            }
            ts
        })
        .collect()
}

fn main() {
    case(BENCH, "experiment_e7_small", || e07_iosi::run(Scale::Small));
    let runs = synth_runs(4, 3_600);
    case(BENCH, "extract_signature_4_runs_3600_bins", || {
        extract_signature(&runs, &IosiConfig::default())
    });
}
