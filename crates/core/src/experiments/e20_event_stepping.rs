//! E20 — §VI-B telemetry engine: event-driven vs fixed-step solving.
//!
//! The operator-visible logs (DDN poller shape, IOSI input) come from
//! `run_timestep`. The legacy engine re-solved the whole max-min allocation
//! every 5 s wall step even when nothing changed; the event-driven engine
//! jumps between job arrivals and completions, so a checkpoint storm of
//! periodic identical waves costs O(#job events) solves instead of
//! O(horizon / step). This driver runs the same storm under both modes and
//! reports the solve counts and the fidelity of the cheap path — completions
//! must agree within one log interval and moved bytes must match exactly.
//!
//! The third engine cashes in the solver's component decomposition: the
//! storm alternates namespaces, and the two namespaces share no capacitated
//! resource, so the run splits into independent **router zones** — one
//! `ShardedEngine` shard each, private event loop, private resident
//! session, zero cross-shard messages, the whole horizon as the lookahead.
//! A zone's job events no longer cost anything in the other zone — not even
//! a memo probe — so the sharded engine executes no more water-filling
//! rounds than the global event loop while matching its completions within
//! the same one-log-interval bound.
//!
//! Tables deliberately contain no wall-clock numbers (the determinism
//! contract); wall-time speedups live in `BENCH_timestep.json` and
//! `BENCH_components.json`.

use spider_simkit::{SimDuration, SimTime, MIB};

use crate::center::Center;
use crate::config::{CenterConfig, Scale};
use crate::report::Table;
use crate::timestep::{run_timestep, run_timestep_sharded, Job, SteppingMode, TimestepConfig};

/// The checkpoint storm: `waves` waves, `jobs_per_wave` identical jobs each,
/// one wave every `period`. The `timestep_scale` bench times this shape.
pub fn storm(waves: u64, jobs_per_wave: u32, period: SimDuration) -> Vec<Job> {
    let mut jobs = Vec::new();
    for w in 0..waves {
        for k in 0..jobs_per_wave {
            jobs.push(Job {
                // Alternate namespaces so the storm exercises the shared
                // router plant, not just one filesystem.
                fs: (k % 2) as usize,
                clients: 16,
                // ~156 s of drain per wave: ~31 fixed 5 s steps, but still
                // a single analytic jump for the event engine.
                bytes_per_client: 8 << 30,
                transfer_size: MIB,
                start: SimTime::ZERO + period * w,
                write: true,
                optimal_placement: false,
            });
        }
    }
    jobs
}

/// Run E20.
pub fn run(scale: Scale) -> Vec<Table> {
    let (waves, jobs_per_wave, horizon) = match scale {
        Scale::Paper => (20u64, 10u32, SimDuration::from_hours(2)),
        Scale::Small => (6, 4, SimDuration::from_mins(36)),
    };
    let center = Center::build(CenterConfig::small());
    let jobs = storm(waves, jobs_per_wave, SimDuration::from_mins(6));
    let cfg = TimestepConfig {
        horizon,
        ..TimestepConfig::default()
    };
    let ev = run_timestep(&center, &jobs, &cfg);
    let fx = run_timestep(
        &center,
        &jobs,
        &TimestepConfig {
            mode: SteppingMode::FixedStep,
            ..cfg.clone()
        },
    );
    let (sh, pdes) = run_timestep_sharded(&center, &jobs, &cfg);

    let mut cost = Table::new(
        "E20a: solver cost for the checkpoint storm (no wall-clock; see BENCH_timestep.json)",
        &[
            "engine",
            "max-min solves",
            "time advances",
            "solves vs fixed",
        ],
    );
    cost.row(vec![
        "fixed-step (5 s)".into(),
        fx.solves.to_string(),
        fx.steps.to_string(),
        "1.0x".into(),
    ]);
    cost.row(vec![
        "event-driven".into(),
        ev.solves.to_string(),
        ev.steps.to_string(),
        format!("{:.1}x fewer", fx.solves as f64 / ev.solves.max(1) as f64),
    ]);
    cost.row(vec![
        format!("sharded ({} router zones)", pdes.shards),
        sh.solves.to_string(),
        sh.steps.to_string(),
        format!("{:.1}x fewer", fx.solves as f64 / sh.solves.max(1) as f64),
    ]);

    let mut gap_ns = 0u64;
    let mut finished = 0usize;
    let mut bytes_equal = true;
    for (i, (a, b)) in ev.completions.iter().zip(&fx.completions).enumerate() {
        if let (Some(a), Some(b)) = (a, b) {
            finished += 1;
            gap_ns = gap_ns.max(a.since(*b).max(b.since(*a)).as_nanos());
        }
        bytes_equal &= ev.bytes_moved[i] == fx.bytes_moved[i];
    }
    let mut fidelity = Table::new(
        "E20b: event-driven fidelity vs the fixed-step oracle",
        &["metric", "value", "bound"],
    );
    fidelity.row(vec![
        "jobs finished (both engines)".into(),
        format!("{finished}/{}", jobs.len()),
        jobs.len().to_string(),
    ]);
    fidelity.row(vec![
        "max completion gap (s)".into(),
        format!("{:.3}", gap_ns as f64 / 1e9),
        format!("{:.0} (one log interval)", cfg.log_interval.as_secs_f64()),
    ]);
    fidelity.row(vec![
        "per-job bytes identical".into(),
        bytes_equal.to_string(),
        "true".into(),
    ]);

    // The sharded engine cuts the timeline at different event points than
    // the global event loop, so bytes agree to rounding, not bitwise.
    let mut sh_gap_ns = 0u64;
    let mut sh_finished = 0usize;
    let mut sh_bytes_delta = 0u64;
    for (i, (a, b)) in ev.completions.iter().zip(&sh.completions).enumerate() {
        if let (Some(a), Some(b)) = (a, b) {
            sh_finished += 1;
            sh_gap_ns = sh_gap_ns.max(a.since(*b).max(b.since(*a)).as_nanos());
        }
        sh_bytes_delta = sh_bytes_delta.max(ev.bytes_moved[i].abs_diff(sh.bytes_moved[i]));
    }
    let mut zones = Table::new(
        "E20c: router-zone sharding of the flow engine (shard-per-component)",
        &["metric", "value", "bound"],
    );
    zones.row(vec![
        "router zones (shards)".into(),
        pdes.shards.to_string(),
        "2 (one per namespace)".into(),
    ]);
    zones.row(vec![
        "epoch barriers".into(),
        pdes.epochs.to_string(),
        "1 (horizon lookahead)".into(),
    ]);
    zones.row(vec![
        "cross-shard messages".into(),
        pdes.cross_messages.to_string(),
        "0 (independent zones)".into(),
    ]);
    // Per-zone solve counts sum over shards (coincident wave events solve
    // once per zone), so the comparable work metric is water-filling rounds:
    // a shard never even probes the other zone's memo, and within a zone the
    // event and sharded sessions see identical shapes.
    let ev_rounds = ev.solver.as_ref().map_or(0, |s| s.rounds_executed);
    let sh_rounds = sh.solver.as_ref().map_or(0, |s| s.rounds_executed);
    zones.row(vec![
        "solve rounds vs event-driven".into(),
        format!("{sh_rounds}/{ev_rounds}"),
        "no more than event-driven".into(),
    ]);
    zones.row(vec![
        "jobs finished (both engines)".into(),
        format!("{sh_finished}/{}", jobs.len()),
        jobs.len().to_string(),
    ]);
    zones.row(vec![
        "max completion gap vs event-driven (s)".into(),
        format!("{:.3}", sh_gap_ns as f64 / 1e9),
        format!("{:.0} (one log interval)", cfg.log_interval.as_secs_f64()),
    ]);
    zones.row(vec![
        "max per-job bytes delta".into(),
        sh_bytes_delta.to_string(),
        "<= 2 (completion rounding)".into(),
    ]);
    super::trace::experiment("E20", 1, 3);
    vec![cost, fidelity, zones]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e20_event_driven_cuts_solves_by_an_order_of_magnitude() {
        let tables = run(Scale::Small);
        let fixed: f64 = tables[0].rows[0][1].parse().unwrap();
        let event: f64 = tables[0].rows[1][1].parse().unwrap();
        assert!(
            fixed >= 10.0 * event,
            "fixed {fixed} vs event {event} solves"
        );
    }

    #[test]
    fn e20_fidelity_holds() {
        let tables = run(Scale::Small);
        let finished = tables[1].rows[0][1].clone();
        let (done, total) = finished.split_once('/').unwrap();
        assert_eq!(done, total, "every job finishes under both engines");
        let gap: f64 = tables[1].rows[1][1].parse().unwrap();
        let bound: f64 = 10.0;
        assert!(gap <= bound, "completion gap {gap}s exceeds {bound}s");
        assert_eq!(tables[1].rows[2][1], "true");
    }

    #[test]
    fn e20_sharded_zone_engine_is_faithful_and_message_free() {
        let tables = run(Scale::Small);
        let zones = &tables[2];
        assert_eq!(zones.rows[0][1], "2", "one shard per namespace");
        assert_eq!(zones.rows[1][1], "1", "a single epoch window");
        assert_eq!(zones.rows[2][1], "0", "no cross-shard traffic");
        let (sh, ev) = zones.rows[3][1].split_once('/').unwrap();
        let (sh, ev): (u64, u64) = (sh.parse().unwrap(), ev.parse().unwrap());
        assert!(sh <= ev, "sharded {sh} vs event {ev} solve rounds");
        let (done, total) = zones.rows[4][1].split_once('/').unwrap();
        assert_eq!(done, total, "every job finishes under both engines");
        let gap: f64 = zones.rows[5][1].parse().unwrap();
        assert!(
            gap <= 10.0,
            "completion gap {gap}s exceeds one log interval"
        );
        let delta: u64 = zones.rows[6][1].parse().unwrap();
        assert!(delta <= 2, "bytes delta {delta}");
    }
}
