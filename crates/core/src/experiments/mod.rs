//! Experiment drivers: one module per paper figure or quantitative claim.
//!
//! Each driver exposes `run(scale) -> Vec<Table>`; the `spider-bench`
//! `figures` binary prints every table and `EXPERIMENTS.md` records the
//! paper-vs-measured comparison. The experiment ids (E1–E15 from the paper,
//! E16–E21 extensions) are indexed in `DESIGN.md`.

pub mod e01_router_placement;
pub mod e02_transfer_size;
pub mod e03_client_scaling;
pub mod e04_culling;
pub mod e05_workload;
pub mod e06_libpio;
pub mod e07_iosi;
pub mod e08_namespaces;
pub mod e09_upgrade;
pub mod e10_sizing;
pub mod e11_incident;
pub mod e12_tools;
pub mod e13_thin_fs;
pub mod e14_economics;
pub mod e15_blockbench;
pub mod e16_reliability;
pub mod e17_scheduling;
pub mod e18_release_testing;
pub mod e19_data_islands;
pub mod e20_event_stepping;
pub mod e21_operations;

use crate::config::Scale;
use crate::report::Table;

/// Deterministic trace emission for experiment drivers.
///
/// Trace timestamps must never depend on wall-clock (the determinism
/// contract in `spider-obs`), so experiments live on a *logical* timeline:
/// each experiment occupies one track (its number), each sweep point one
/// fixed-width slot on it. Two runs at the same seed emit identical spans
/// regardless of which thread solved which sweep point.
pub mod trace {
    use spider_obs::ArgValue;

    /// Width of one logical sweep slot (1 ms in trace time, purely for
    /// legible rendering in Perfetto).
    pub const SLOT_NS: u64 = 1_000_000;

    /// Track (viewer lane) of an experiment id: "E7" -> 7.
    pub fn track_of(id: &str) -> u32 {
        id.trim_start_matches(['E', 'e']).parse().unwrap_or(0)
    }

    /// Child span for sweep point `idx` of experiment `id`.
    pub fn sweep_point(id: &str, idx: usize, args: &[(&str, ArgValue)]) {
        if spider_obs::enabled() {
            spider_obs::span(
                track_of(id),
                idx as u64 * SLOT_NS,
                SLOT_NS,
                &format!("{id}/point"),
                args,
            );
        }
    }

    /// Covering span for experiment `id`: `slots` logical slots wide (>= 1),
    /// emitted once the driver finishes with the table count as an arg.
    pub fn experiment(id: &str, slots: usize, tables: usize) {
        if spider_obs::enabled() {
            spider_obs::span(
                track_of(id),
                0,
                slots.max(1) as u64 * SLOT_NS,
                id,
                &[("tables", ArgValue::U64(tables as u64))],
            );
            spider_obs::counter_add("experiments_run", 1);
        }
    }
}

/// An experiment's identity and runner.
pub struct ExperimentEntry {
    /// Id: "E" and the experiment number ("E1", "E2", …).
    pub id: &'static str,
    /// What in the paper it reproduces.
    pub paper_ref: &'static str,
    /// Runner.
    pub run: fn(Scale) -> Vec<Table>,
}

/// The full experiment registry, in id order.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        ExperimentEntry {
            id: "E1",
            paper_ref: "Figure 2 / §V-B / LL14 — router placement & FGR congestion",
            run: e01_router_placement::run,
        },
        ExperimentEntry {
            id: "E2",
            paper_ref: "Figure 3 / §V-C — IOR bandwidth vs transfer size",
            run: e02_transfer_size::run,
        },
        ExperimentEntry {
            id: "E3",
            paper_ref: "Figure 4 / §V-C — IOR bandwidth vs client count",
            run: e03_client_scaling::run,
        },
        ExperimentEntry {
            id: "E4",
            paper_ref: "§V-A / LL13 — slow-disk culling campaign",
            run: e04_culling::run,
        },
        ExperimentEntry {
            id: "E5",
            paper_ref: "§II [14] — workload characterization (60/40, bimodal, Pareto)",
            run: e05_workload::run,
        },
        ExperimentEntry {
            id: "E6",
            paper_ref: "§VI-A [33] — libPIO balanced placement (>70% synthetic, +24% S3D)",
            run: e06_libpio::run,
        },
        ExperimentEntry {
            id: "E7",
            paper_ref: "§VI-B [16] — IOSI signature extraction from server logs",
            run: e07_iosi::run,
        },
        ExperimentEntry {
            id: "E8",
            paper_ref: "§IV-C / LL10 — namespaces, MDS limits, fullness, purge",
            run: e08_namespaces::run,
        },
        ExperimentEntry {
            id: "E9",
            paper_ref: "§V-C — controller upgrade: 320 -> 510 GB/s per namespace",
            run: e09_upgrade::run,
        },
        ExperimentEntry {
            id: "E10",
            paper_ref: "§III-A / LL2 — checkpoint & random-I/O sizing rules",
            run: e10_sizing::run,
        },
        ExperimentEntry {
            id: "E11",
            paper_ref: "§IV-E / LL11 — the 2010 incident: 5 vs 10 enclosures",
            run: e11_incident::run,
        },
        ExperimentEntry {
            id: "E12",
            paper_ref: "§VI-C / LL19 — LustreDU & parallel tools vs stock tools",
            run: e12_tools::run,
        },
        ExperimentEntry {
            id: "E13",
            paper_ref: "§V-D / LL16 — thin file system QA: fresh vs aged/full",
            run: e13_thin_fs::run,
        },
        ExperimentEntry {
            id: "E14",
            paper_ref: "§VII — center economics: 30x rule, marginal cluster cost",
            run: e14_economics::run,
        },
        ExperimentEntry {
            id: "E15",
            paper_ref: "§III-B / LL4 — acquisition benchmark suite (fair-lio + obdfilter-survey)",
            run: e15_blockbench::run,
        },
        ExperimentEntry {
            id: "E16",
            paper_ref: "§IV-A — parity declustering & fleet reliability (extension)",
            run: e16_reliability::run,
        },
        ExperimentEntry {
            id: "E17",
            paper_ref: "§VI-B / LL18 — IOSI-driven I/O-aware scheduling (extension)",
            run: e17_scheduling::run,
        },
        ExperimentEntry {
            id: "E18",
            paper_ref: "§IV-B / LL9 — at-scale release testing & create storms (extension)",
            run: e18_release_testing::run,
        },
        ExperimentEntry {
            id: "E19",
            paper_ref: "§I/§II — eliminating data islands: time to science (extension)",
            run: e19_data_islands::run,
        },
        ExperimentEntry {
            id: "E20",
            paper_ref: "§VI-B telemetry engine — event-driven vs fixed-step solving (extension)",
            run: e20_event_stepping::run,
        },
        ExperimentEntry {
            id: "E21",
            paper_ref: "LL13/LL14/§IV-E — operations console: live detectors over replayed incidents (extension)",
            run: e21_operations::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        let reg = registry();
        assert_eq!(reg.len(), 21, "15 paper experiments + 6 extensions");
        for (i, e) in reg.iter().enumerate() {
            assert_eq!(e.id, format!("E{}", i + 1));
        }
    }
}
