//! # spider-bench
//!
//! The reproduction harness:
//!
//! - the [`figures`](../src/bin/figures.rs) binary regenerates **every**
//!   table and figure of the paper's evaluation (every experiment in the
//!   `spider-core::experiments` registry) and optionally dumps them as JSON;
//! - the benches under `benches/` time each experiment and the
//!   load-bearing substrate components (DES engine, max-min solver,
//!   namespace, parallel tools), including the ablations called out in
//!   `DESIGN.md`;
//! - [`record`] is their one harness: the mode switch, the timer and the
//!   record path of the benches that write a committed `BENCH_*.json`.
//!
//! Run `cargo run -p spider-bench --release --bin figures` for the full
//! paper-scale reproduction, or `-- --scale small` for a quick pass.

pub mod record;

use spider_core::config::Scale;
use spider_core::experiments::registry;
use spider_core::report::Table;

/// Run one experiment's driver, charging its wall time to an `exp:<id>`
/// phase in the obs manifest (a no-op when observability is off).
fn run_timed(e: &spider_core::experiments::ExperimentEntry, scale: Scale) -> Vec<Table> {
    let _t = spider_obs::PhaseTimer::start(&format!("exp:{}", e.id));
    (e.run)(scale)
}

/// Run one experiment by its registry id ("E1", "e5", …; case-insensitive).
/// Returns `None` for unknown ids.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Vec<Table>> {
    registry()
        .into_iter()
        .find(|e| e.id.eq_ignore_ascii_case(id))
        .map(|e| run_timed(&e, scale))
}

/// Run every experiment, returning `(id, paper_ref, tables)` triples.
pub fn run_all(scale: Scale) -> Vec<(String, String, Vec<Table>)> {
    registry()
        .into_iter()
        .map(|e| {
            let tables = run_timed(&e, scale);
            (e.id.to_owned(), e.paper_ref.to_owned(), tables)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_experiment_runs_at_small_scale() {
        for (id, _, tables) in run_all(Scale::Small) {
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.is_empty(), "{id} produced an empty table: {}", t.title);
            }
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("E99", Scale::Small).is_none());
        assert!(run_experiment("e5", Scale::Small).is_some());
    }
}
