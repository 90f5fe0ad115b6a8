//! Timestep engine scaling: event-driven vs fixed-step solving on E20's
//! checkpoint storm (20 waves of 10 co-starting identical jobs, one wave
//! every 6 minutes, over a 2 h horizon — 200 jobs total).
//!
//! The fixed-step engine re-solves the max-min allocation every 5 s wall
//! step whether or not anything changed: O(horizon / step) solves. The
//! event-driven engine holds one incremental `FlowSession` and solves only
//! at job arrivals and completions: O(#job events). This bench measures the
//! end-to-end `run_timestep` wall time for both and their solve counts.
//!
//! [`spider_bench::record`] decides the shape and where `BENCH_timestep.json`
//! goes. The smoke shape is E20's small storm: 6 waves of 4 jobs over 36 min.

use spider_bench::record::{self, case};
use spider_core::center::Center;
use spider_core::config::CenterConfig;
use spider_core::experiments::e20_event_stepping::storm;
use spider_core::timestep::{run_timestep, SteppingMode, TimestepConfig};
use spider_simkit::SimDuration;

const BENCH: &str = "timestep_scale";

fn main() {
    spider_obs::init_from_env();
    let (waves, jobs_per_wave, horizon) = if record::smoke() {
        (6u64, 4u32, SimDuration::from_mins(36))
    } else {
        (20, 10, SimDuration::from_hours(2))
    };
    let period = SimDuration::from_mins(6);
    let center = Center::build(CenterConfig::small());
    let jobs = storm(waves, jobs_per_wave, period);
    let event_cfg = TimestepConfig {
        horizon,
        ..TimestepConfig::default()
    };
    let fixed_cfg = TimestepConfig {
        mode: SteppingMode::FixedStep,
        ..event_cfg.clone()
    };

    let event_ms = case(BENCH, "storm_event_driven", || {
        run_timestep(&center, &jobs, &event_cfg)
    });
    let fixed_ms = case(BENCH, "storm_fixed_step", || {
        run_timestep(&center, &jobs, &fixed_cfg)
    });

    // Solve counts are deterministic, so count them once outside the timer.
    let ev = run_timestep(&center, &jobs, &event_cfg).solves;
    let fx = run_timestep(&center, &jobs, &fixed_cfg).solves;
    println!(
        "timestep_scale: {} jobs over {horizon}: event-driven {ev} solves, fixed-step {fx} solves",
        jobs.len()
    );

    let fields = format!(
        r#"  "scenario": "E20's checkpoint storm: waves of co-starting identical jobs, one wave every {period_s} s. Each wave drains in ~156 s, ~31 fixed 5 s steps but one analytic jump for the event-driven engine, so its solves scale with job events (arrivals and completions), not with horizon / step. Fidelity (completions within one log interval, per-job bytes equal) is asserted by E20's tests",
  "shape": {{"jobs": {n}, "waves": {waves}, "jobs_per_wave": {jobs_per_wave}, "wave_period_s": {period_s}, "horizon_s": {horizon_s}, "clients_per_job": {clients}, "bytes_per_client": {bytes}, "fixed_step_s": {step_s}}},
  "engine_ms_per_run": {{
    "event_driven": {event_ms:.3},
    "fixed_step": {fixed_ms:.3}
  }},
  "maxmin_solves_per_run": {{
    "event_driven": {ev},
    "fixed_step": {fx}
  }},
  "speedups": {{
    "wall_time_event_vs_fixed": {wall:.1},
    "solves_event_vs_fixed": {solves:.1}
  }}"#,
        n = jobs.len(),
        period_s = period.as_secs_f64(),
        horizon_s = horizon.as_secs_f64(),
        clients = jobs[0].clients,
        bytes = jobs[0].bytes_per_client,
        step_s = fixed_cfg.step.as_secs_f64(),
        wall = fixed_ms / event_ms,
        solves = fx as f64 / ev.max(1) as f64,
    );
    record::write(BENCH, "BENCH_timestep.json", &fields);
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
