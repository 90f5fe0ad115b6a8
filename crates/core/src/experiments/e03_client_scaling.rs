//! E3 — Figure 4 / §V-C: IOR write bandwidth vs client count.
//!
//! "a single namespace can scale almost linearly up to 6,000 clients and
//! then provide relatively steady performance with respect to increasing
//! number of clients." Clients are placed by the batch scheduler (random
//! with respect to I/O), transfer size fixed at the Figure 3 optimum
//! (1 MB), 30-second stonewall.

use rayon::prelude::*;
use spider_simkit::MIB;
use spider_workload::ior::{run_ior, IorConfig};

use crate::center::Center;
use crate::config::{CenterConfig, Scale};
use crate::flowsim::CenterTarget;
use crate::report::Table;

/// Client counts swept at each scale.
pub fn sweep_clients(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Paper => vec![250, 500, 1_000, 2_000, 4_000, 6_000, 8_000, 10_000, 13_000],
        Scale::Small => vec![4, 8, 16, 32, 64, 128, 256, 384, 512],
    }
}

/// Run E3. Returns the Figure 4 series.
pub fn run(scale: Scale) -> Vec<Table> {
    let center = Center::build(CenterConfig::at_scale(scale));
    let target = CenterTarget {
        center: &center,
        fs: 0,
    };
    let mut table = Table::new(
        "E3 (Figure 4): single-namespace IOR write bandwidth vs clients (1 MiB transfers)",
        &["clients", "aggregate GB/s"],
    );
    // Each client count is an independent solve against the shared center:
    // fan out over the sweep and emit rows in sweep order. Each point
    // carries its sweep index so its trace span lands on a deterministic
    // logical slot no matter which thread solves it.
    let counts = sweep_clients(scale);
    let points: Vec<(usize, u32)> = counts.iter().copied().enumerate().collect();
    // spider-lint: allow(taint-path, reason = "indexed par_iter().map().collect() writes each row at its input position, so the table receives rows in sweep order regardless of which thread computed them")
    let rows: Vec<Vec<String>> = points
        .par_iter()
        .map(|&(idx, clients)| {
            let mut cfg = IorConfig::paper_scaling(clients, MIB);
            cfg.iterations = 1;
            let rep = run_ior(&target, &cfg);
            super::trace::sweep_point(
                "E3",
                idx,
                &[
                    ("clients", (clients as u64).into()),
                    ("gbps", rep.mean.as_gb_per_sec().into()),
                ],
            );
            vec![
                clients.to_string(),
                format!("{:.2}", rep.mean.as_gb_per_sec()),
            ]
        })
        .collect();
    for r in rows {
        table.row(r);
    }
    super::trace::experiment("E3", counts.len(), 1);
    vec![table]
}

/// Client counts for the million-client extension sweep.
pub fn sweep_clients_extreme() -> Vec<u32> {
    vec![100_000, 250_000, 500_000, 1_000_000]
}

/// E3 extension: the Figure 4 sweep pushed to 10^6 clients on the paper
/// center. Deep in the plateau every point resolves to the same handful of
/// weighted flow classes, so the solve cost is flat in client count and the
/// per-point state is the class columns plus a `u32` class map — the run
/// exists to pin exactly that: bandwidth stays on the plateau and memory
/// stays on the class-level budget while clients grow 100x past the paper's
/// sweep. Separate from [`run`] so the paper-shape E3 table is untouched.
pub fn run_extreme() -> Vec<Table> {
    let center = Center::build(CenterConfig::at_scale(Scale::Paper));
    let target = CenterTarget {
        center: &center,
        fs: 0,
    };
    let mut table = Table::new(
        "E3x (extension): single-namespace IOR write bandwidth to 10^6 clients (1 MiB transfers)",
        &["clients", "aggregate GB/s", "flow classes"],
    );
    for (idx, clients) in sweep_clients_extreme().into_iter().enumerate() {
        let mut cfg = IorConfig::paper_scaling(clients, MIB);
        cfg.iterations = 1;
        let classes = {
            use spider_workload::ior::IorTarget;
            target.rate_classes(&cfg)
        };
        let rep = run_ior(&target, &cfg);
        super::trace::sweep_point(
            "E3",
            idx,
            &[
                ("clients", (clients as u64).into()),
                ("gbps", rep.mean.as_gb_per_sec().into()),
            ],
        );
        table.row(vec![
            clients.to_string(),
            format!("{:.2}", rep.mean.as_gb_per_sec()),
            classes.rates.len().to_string(),
        ]);
    }
    super::trace::experiment("E3", sweep_clients_extreme().len(), 1);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    fn series(scale: Scale) -> Vec<(u32, f64)> {
        run(scale)[0]
            .rows
            .iter()
            .map(|r| (r[0].parse().unwrap(), r[1].parse().unwrap()))
            .collect()
    }

    #[test]
    fn e3_small_scale_is_linear_then_flat() {
        let s = series(Scale::Small);
        // Linear regime: doubling clients ~doubles bandwidth early on.
        let (c0, b0) = s[0];
        let (c2, b2) = s[2];
        let expect = b0 * (c2 as f64 / c0 as f64);
        assert!((b2 - expect).abs() / expect < 0.1, "{s:?}");
        // Plateau: the last two points are within a few percent.
        let (_, last) = s[s.len() - 1];
        let (_, prev) = s[s.len() - 2];
        assert!((last - prev).abs() / prev < 0.05, "{s:?}");
        // And the plateau is well below naive linear extrapolation.
        let (cl, _) = s[s.len() - 1];
        assert!(last < 0.8 * b0 * (cl as f64 / c0 as f64), "{s:?}");
    }

    #[test]
    fn e3_extreme_holds_the_plateau_to_a_million_clients() {
        let t = &run_extreme()[0];
        assert_eq!(t.rows.last().unwrap()[0], "1000000");
        for row in &t.rows {
            let gbps: f64 = row[1].parse().unwrap();
            assert!(
                (280.0..=340.0).contains(&gbps),
                "{} clients off the plateau: {gbps} GB/s",
                row[0]
            );
            // The whole point of the columnar path: class count stays
            // O(hardware), not O(clients).
            let classes: usize = row[2].parse().unwrap();
            assert!(classes < 2_000, "{classes} classes");
        }
    }

    #[test]
    fn e3_paper_scale_matches_figure_4() {
        // The published shape: near-linear to ~6,000 clients, plateau at
        // ~320 GB/s for a pre-upgrade namespace.
        let s = series(Scale::Paper);
        let by_clients: std::collections::HashMap<u32, f64> = s.iter().copied().collect();
        // Slope ~55 MB/s per client in the ramp.
        let at_2k = by_clients[&2_000];
        assert!((at_2k - 110.0).abs() < 12.0, "2k clients -> {at_2k} GB/s");
        // Plateau near 320 GB/s.
        let at_13k = by_clients[&13_000];
        assert!((280.0..=340.0).contains(&at_13k), "plateau {at_13k} GB/s");
        // Knee near 6k: 6k within 10% of the plateau, 4k clearly below it.
        let at_6k = by_clients[&6_000];
        let at_4k = by_clients[&4_000];
        assert!(at_6k > 0.9 * at_13k, "{at_6k} vs {at_13k}");
        assert!(at_4k < 0.78 * at_13k, "{at_4k} vs {at_13k}");
    }
}
