//! E5 — §II \[14\]: workload characterization of the center-wide mix.
//!
//! Generates the production mixed workload and recovers the paper's
//! published statistics: "a mix of 60% write and 40% read I/O requests",
//! "a majority of I/O requests are either small (under 16 KB) or large
//! (multiples of 1 MB)", and Pareto-tailed inter-arrival/idle times.

use spider_obs::PhaseTimer;
use spider_simkit::{SimDuration, SimRng};
use spider_workload::characterize::Tally;
use spider_workload::mix::CenterWorkload;

use crate::config::Scale;
use crate::report::{pct, Table};

/// Streams drawn and tallied together, in parallel.
const E5_CHUNK: usize = 16;

/// Run E5.
pub fn run(scale: Scale) -> Vec<Table> {
    let horizon = match scale {
        Scale::Paper => SimDuration::from_hours(2),
        Scale::Small => SimDuration::from_mins(20),
    };
    let rng = SimRng::seed_from_u64(0xE5);
    // Characterization needs each client's requests in time order only,
    // which every stream draws them in, so each stream is tallied as it is
    // drawn: no request is held, and the streams are never merged. A tally
    // keeps each gap as whole nanoseconds, 4 bytes for an inter-arrival gap
    // (8 for the rare one from 2^32 ns, about 4.3 s, up to the 5 s idle
    // threshold, and for an idle gap). The Hill fits sort their top samples
    // before they sum them, so only which gaps were seen matters, not the
    // order the tallies are combined in. Streams are drawn a chunk at a time
    // and each chunk's tallies are combined before the next, so the samples
    // are held about once, not once per stream and once combined. Every chunk
    // forks its streams' generators from the same parent state, so each
    // stream is the one a single pass would draw.
    //
    // Wall-time sub-phases, recorded only in the obs manifest's `wall`
    // section: the streams (drawn and tallied together) and the fits.
    let wl = CenterWorkload::olcf_production();
    let streams = wl.total_streams();
    let phase = PhaseTimer::start("exp:E5/streams");
    let mut all = Tally::default();
    for lo in (0..streams).step_by(E5_CHUNK) {
        let chunk = lo..(lo + E5_CHUNK as u32).min(streams);
        for part in wl.generate_streams(horizon, &mut rng.clone(), chunk, |s| s.collect()) {
            all.absorb(part);
        }
    }
    drop(phase);
    let phase = PhaseTimer::start("exp:E5/fit");
    let c = all.finish();
    drop(phase);

    let mut table = Table::new(
        "E5: production mix characterization vs the paper's published values",
        &["metric", "paper", "measured"],
    );
    table.row(vec![
        "requests analyzed".into(),
        "-".into(),
        c.requests.to_string(),
    ]);
    table.row(vec![
        "write fraction".into(),
        "60%".into(),
        pct(c.write_fraction),
    ]);
    table.row(vec![
        "read fraction".into(),
        "40%".into(),
        pct(1.0 - c.write_fraction),
    ]);
    table.row(vec![
        "small requests (<=16 KB)".into(),
        "mode 1 of 2".into(),
        pct(c.small_fraction),
    ]);
    table.row(vec![
        "large requests (Nx1 MiB)".into(),
        "mode 2 of 2".into(),
        pct(c.large_aligned_fraction),
    ]);
    table.row(vec![
        "bimodal coverage".into(),
        "majority".into(),
        pct(c.bimodal_coverage),
    ]);
    table.row(vec![
        "inter-arrival tail (Hill alpha)".into(),
        "Pareto (long tail)".into(),
        format!("{:.2}", c.inter_arrival_tail),
    ]);
    table.row(vec![
        "idle tail (Hill alpha)".into(),
        "Pareto (long tail)".into(),
        c.idle_tail
            .map_or_else(|| "n/a".into(), |a| format!("{a:.2}")),
    ]);
    super::trace::experiment("E5", 1, 1);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_matches_paper_statistics() {
        let t = &run(Scale::Small)[0];
        let get = |metric: &str| -> String {
            t.rows
                .iter()
                .find(|r| r[0] == metric)
                .unwrap_or_else(|| panic!("row {metric}"))[2]
                .clone()
        };
        let wf: f64 = get("write fraction").trim_end_matches('%').parse().unwrap();
        assert!((50.0..=70.0).contains(&wf), "{wf}");
        let cov: f64 = get("bimodal coverage")
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(cov > 85.0, "{cov}");
        let alpha: f64 = get("inter-arrival tail (Hill alpha)").parse().unwrap();
        assert!(alpha < 3.0, "heavy tail, got {alpha}");
    }
}
