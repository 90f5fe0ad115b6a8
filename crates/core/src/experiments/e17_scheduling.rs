//! E17 — §VI-B / LL18: I/O-aware scheduling from IOSI signatures.
//!
//! End to end: several periodic applications run against background noise;
//! IOSI recovers each one's signature from the server-side logs alone; the
//! scheduler de-phases their start offsets; the peak aggregate bandwidth
//! demand on the namespace drops accordingly — "smart I/O-aware tools ...
//! for load balancing, resource allocation, and scheduling".

use spider_simkit::{SimDuration, SimRng, TimeSeries};
use spider_tools::iosi::{extract_signature, IoSignature, IosiConfig};
use spider_tools::scheduler::{dephasing_gain, SchedulerConfig};
use spider_workload::generator::trace_to_series;
use spider_workload::s3d::S3dConfig;

use crate::config::Scale;
use crate::report::{pct, Table};

/// Recover one app's signature from noisy multi-run logs.
fn recover(app: &S3dConfig, interval: SimDuration, seed: u64) -> Option<IoSignature> {
    let runs: Vec<TimeSeries> = (0..3)
        .map(|i| {
            let mut rng = SimRng::seed_from_u64(seed + i);
            // Binning the unsorted app trace is exact (whole byte counts).
            let mut log = trace_to_series(&app.trace(&mut rng), interval);
            // Light uncorrelated noise.
            for bin in 0..(app.runtime.as_nanos() / interval.as_nanos()) {
                log.add(
                    spider_simkit::SimTime(bin * interval.as_nanos()),
                    rng.f64() * 2e8,
                );
            }
            log
        })
        .collect();
    extract_signature(&runs, &IosiConfig::default())
}

/// Run E17.
pub fn run(scale: Scale) -> Vec<Table> {
    let rank_base = match scale {
        Scale::Paper => 8_192,
        Scale::Small => 2_048,
    };
    let interval = SimDuration::from_secs(10);
    // Three apps with distinct periods and sizes.
    let apps = [
        S3dConfig {
            output_period: SimDuration::from_mins(10),
            ..S3dConfig::small(rank_base)
        },
        S3dConfig {
            output_period: SimDuration::from_mins(15),
            ..S3dConfig::small(rank_base / 2)
        },
        S3dConfig {
            output_period: SimDuration::from_mins(20),
            ..S3dConfig::small(rank_base * 2)
        },
    ];

    let mut sig_table = Table::new(
        "E17a: recovered signatures feeding the scheduler",
        &[
            "app",
            "true period (s)",
            "recovered period (s)",
            "recovered burst (GiB)",
        ],
    );
    let mut sigs = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let sig = recover(app, interval, 0xE17 + 10 * i as u64).expect("signature");
        sig_table.row(vec![
            format!("app{i}"),
            format!("{:.0}", app.output_period.as_secs_f64()),
            format!("{:.0}", sig.period.as_secs_f64()),
            format!("{:.1}", sig.burst_volume / (1u64 << 30) as f64),
        ]);
        sigs.push(sig);
    }

    let cfg = SchedulerConfig::default();
    let (naive, scheduled) = dephasing_gain(&sigs, &cfg);
    let mut sched_table = Table::new(
        "E17b: peak aggregate demand, naive co-start vs IOSI-driven de-phasing",
        &["schedule", "peak demand (GiB per 10 s)", "vs naive"],
    );
    sched_table.row(vec![
        "all apps start together".into(),
        format!("{:.1}", naive / (1u64 << 30) as f64),
        "100.0%".into(),
    ]);
    sched_table.row(vec![
        "IOSI-signature de-phasing".into(),
        format!("{:.1}", scheduled / (1u64 << 30) as f64),
        pct(scheduled / naive),
    ]);
    super::trace::experiment("E17", 1, 2);
    vec![sig_table, sched_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_signatures_are_recovered_for_all_apps() {
        let tables = run(Scale::Small);
        assert_eq!(tables[0].len(), 3);
        for row in &tables[0].rows {
            let truth: f64 = row[1].parse().unwrap();
            let got: f64 = row[2].parse().unwrap();
            assert!((got - truth).abs() / truth < 0.15, "{row:?}");
        }
    }

    #[test]
    fn e17_dephasing_cuts_the_peak_materially() {
        let tables = run(Scale::Small);
        let vs_naive: f64 = tables[1].rows[1][2].trim_end_matches('%').parse().unwrap();
        assert!(vs_naive < 75.0, "scheduled peak at {vs_naive}% of naive");
        assert!(vs_naive > 20.0, "cannot beat the largest single burst");
    }
}
