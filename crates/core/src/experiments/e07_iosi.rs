//! E7 — §VI-B: IOSI, recovering application I/O signatures from
//! server-side throughput logs.
//!
//! A periodic application (known ground truth) runs several times against
//! the production background mix; the only observable is the per-interval
//! server-side throughput log (what the DDN poller stores). IOSI must
//! recover the application's period and burst volume "at no cost to the
//! user and without taxing the storage subsystem".

use spider_obs::PhaseTimer;
use spider_simkit::{SimDuration, SimRng, SimTime, TimeSeries};
use spider_tools::iosi::{extract_signature, IosiConfig};
use spider_workload::generator::trace_to_series;
use spider_workload::mix::CenterWorkload;
use spider_workload::s3d::S3dConfig;

use crate::config::Scale;
use crate::report::Table;

/// One run's server log: the app plus uncorrelated background noise.
fn one_run(app: &S3dConfig, interval: SimDuration, seed: u64) -> TimeSeries {
    let mut rng = SimRng::seed_from_u64(seed);
    // The app trace comes in generation order, not time order; binning
    // sums whole byte counts, which are exact in any order.
    let app_trace = app.trace(&mut rng);
    let mut log = trace_to_series(&app_trace, interval);
    // Background: the analytics/visualization portion of the production
    // mix (clients 48..76 in the composer's ordering). The target app's
    // OST subset sees read-heavy analysis traffic as noise; competing
    // checkpoint apps land on other OSTs/namespaces and do not appear in
    // this server-side log slice, so only these streams are generated.
    // Each bin sums integer byte counts far below 2^53, so binning stream
    // by stream gives the same bits as binning the merged trace.
    let bg =
        CenterWorkload::olcf_production().generate_streams(app.runtime, &mut rng, 48..76, |t| t);
    let mut bg_log = TimeSeries::new(interval);
    for r in bg.iter().flatten() {
        bg_log.add(r.at, r.size as f64);
    }
    log = log.superpose(&bg_log);
    // Pad both to the same length horizon.
    log.add(SimTime::ZERO + app.runtime, 0.0);
    log
}

/// Run E7.
pub fn run(scale: Scale) -> Vec<Table> {
    // IOSI targets leadership-scale applications whose bursts are visible
    // over the center's background (S3D production runs used ~100k ranks).
    let ranks = match scale {
        Scale::Paper => 16_384,
        Scale::Small => 4_096,
    };
    let app = S3dConfig::small(ranks);
    let interval = SimDuration::from_secs(10);
    // Wall-time sub-phases, recorded only in the obs manifest's `wall`
    // section: the four runs' traces and log bins, then IOSI.
    let phase = PhaseTimer::start("exp:E7/logs");
    let runs: Vec<TimeSeries> = (0..4).map(|i| one_run(&app, interval, 0xE7 + i)).collect();
    drop(phase);
    let phase = PhaseTimer::start("exp:E7/iosi");
    let sig = extract_signature(&runs, &IosiConfig::default());
    drop(phase);

    let mut table = Table::new(
        "E7: IOSI signature extraction from noisy server-side logs",
        &["quantity", "ground truth", "recovered"],
    );
    match sig {
        Some(sig) => {
            table.row(vec![
                "output period (s)".into(),
                format!("{:.0}", app.output_period.as_secs_f64()),
                format!("{:.0}", sig.period.as_secs_f64()),
            ]);
            table.row(vec![
                "burst volume (GiB)".into(),
                format!("{:.2}", app.checkpoint_bytes() as f64 / (1u64 << 30) as f64),
                format!("{:.2}", sig.burst_volume / (1u64 << 30) as f64),
            ]);
            table.row(vec![
                "bursts per run".into(),
                format!("{}", app.checkpoint_times().len()),
                format!("{:.1}", sig.bursts_per_run),
            ]);
        }
        None => table.row(vec![
            "signature".into(),
            "present".into(),
            "NOT FOUND".into(),
        ]),
    }
    super::trace::experiment("E7", 1, 1);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_recovers_the_period_within_tolerance() {
        let t = &run(Scale::Small)[0];
        assert!(t.len() >= 3, "signature found: {t}");
        let truth: f64 = t.rows[0][1].parse().unwrap();
        let got: f64 = t.rows[0][2].parse().unwrap();
        assert!(
            (got - truth).abs() / truth < 0.15,
            "period {got} vs {truth}"
        );
    }

    #[test]
    fn e7_recovers_burst_volume_within_tolerance() {
        let t = &run(Scale::Small)[0];
        let truth: f64 = t.rows[1][1].parse().unwrap();
        let got: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            (got - truth).abs() / truth < 0.35,
            "volume {got} vs {truth}"
        );
    }
}
