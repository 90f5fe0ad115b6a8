//! E2 — Figure 3 / §V-C: IOR write bandwidth vs transfer size.
//!
//! "we first sought the optimal transfer size per I/O process. To do this,
//! we fixed the client size, the total amount of data per I/O process and
//! the test duration and varied the I/O transfer size per I/O process. We
//! used IOR in the file-per-process mode. ... the best performance for
//! writes can be obtained by using a 1 MB transfer size."

use rayon::prelude::*;
use spider_simkit::{KIB, MIB};
use spider_workload::ior::{run_ior, IorConfig};

use crate::center::Center;
use crate::config::{CenterConfig, Scale};
use crate::flowsim::CenterTarget;
use crate::report::Table;

/// The swept transfer sizes.
pub fn sweep_sizes() -> Vec<u64> {
    vec![
        4 * KIB,
        16 * KIB,
        64 * KIB,
        256 * KIB,
        512 * KIB,
        MIB,
        2 * MIB,
        4 * MIB,
        8 * MIB,
    ]
}

/// Run E2. Returns the Figure 3 series.
pub fn run(scale: Scale) -> Vec<Table> {
    let center = Center::build(CenterConfig::at_scale(scale));
    let clients = match scale {
        Scale::Paper => 2_000,
        Scale::Small => 64,
    };
    let target = CenterTarget {
        center: &center,
        fs: 0,
    };
    let mut table = Table::new(
        "E2 (Figure 3): single-namespace IOR write bandwidth vs transfer size",
        &["transfer size", "aggregate GB/s", "per-client MB/s"],
    );
    // Sweep points are independent solves over the shared center: fan them
    // out and emit rows in sweep order. Each point carries its sweep index
    // so its trace span lands on a deterministic logical slot no matter
    // which thread solves it.
    let sizes = sweep_sizes();
    let points: Vec<(usize, u64)> = sizes.iter().copied().enumerate().collect();
    // spider-lint: allow(taint-path, reason = "indexed par_iter().map().collect() writes each row at its input position, so the table receives rows in sweep order regardless of which thread computed them")
    let rows: Vec<Vec<String>> = points
        .par_iter()
        .map(|&(idx, ts)| {
            let mut cfg = IorConfig::paper_scaling(clients, ts);
            cfg.iterations = 1;
            let rep = run_ior(&target, &cfg);
            super::trace::sweep_point(
                "E2",
                idx,
                &[
                    ("transfer_size", ts.into()),
                    ("gbps", rep.mean.as_gb_per_sec().into()),
                ],
            );
            vec![
                spider_simkit::units::fmt_bytes(ts),
                format!("{:.2}", rep.mean.as_gb_per_sec()),
                format!("{:.1}", rep.mean.as_mb_per_sec() / clients as f64),
            ]
        })
        .collect();
    for r in rows {
        table.row(r);
    }
    super::trace::experiment("E2", sizes.len(), 1);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(scale: Scale) -> Vec<f64> {
        run(scale)[0]
            .rows
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect()
    }

    #[test]
    fn e2_peaks_at_1mib() {
        // The Figure 3 shape: rising to 1 MiB, flat-to-slightly-down after.
        let s = series(Scale::Small);
        let sizes = sweep_sizes();
        let peak_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(sizes[peak_idx], MIB, "peak at 1 MiB, series {s:?}");
        // Strictly rising below 1 MiB.
        for w in s[..=5].windows(2) {
            assert!(w[1] > w[0], "{s:?}");
        }
        // 4 KiB is dramatically worse than 1 MiB (>5x).
        assert!(s[5] > 5.0 * s[0], "{s:?}");
    }

    #[test]
    fn e2_rows_cover_the_sweep() {
        let t = &run(Scale::Small)[0];
        assert_eq!(t.len(), sweep_sizes().len());
    }
}
