//! Timestep engine scaling: event-driven vs fixed-step solving on the
//! checkpoint storm (the E20 shape: 20 waves of 10 co-starting identical
//! jobs, one wave every 6 minutes, over a 2 h horizon — 200 jobs total).
//!
//! The fixed-step engine re-solves the max-min allocation every 5 s wall
//! step whether or not anything changed: O(horizon / step) solves. The
//! event-driven engine holds one incremental `FlowSession` and solves only
//! at job arrivals and completions: O(#job events). This bench measures the
//! end-to-end `run_timestep` wall time for both and prints the solve
//! counts; `BENCH_timestep.json` records a full run.
//!
//! The smoke shape ([`spider_bench::record`] decides it) shrinks the storm
//! to 6 waves of 4 jobs over 36 min so the binary stays fast in CI and test
//! runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use spider_bench::record;
use spider_core::center::Center;
use spider_core::config::CenterConfig;
use spider_core::timestep::{run_timestep, Job, SteppingMode, TimestepConfig};
use spider_simkit::{SimDuration, SimTime, MIB};

/// The checkpoint storm: `waves` waves, `jobs_per_wave` identical jobs each,
/// one wave every `period` (the `e20_event_stepping` shape).
fn storm(waves: u64, jobs_per_wave: u32, period: SimDuration) -> Vec<Job> {
    let mut jobs = Vec::new();
    for w in 0..waves {
        for k in 0..jobs_per_wave {
            jobs.push(Job {
                fs: (k % 2) as usize,
                clients: 16,
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

fn bench_timestep_scale(c: &mut Criterion) {
    spider_obs::init_from_env();
    let (waves, jobs_per_wave, horizon) = if record::smoke() {
        (6u64, 4u32, SimDuration::from_mins(36))
    } else {
        (20, 10, SimDuration::from_hours(2))
    };
    let center = Center::build(CenterConfig::small());
    let jobs = storm(waves, jobs_per_wave, SimDuration::from_mins(6));
    let event_cfg = TimestepConfig {
        horizon,
        ..TimestepConfig::default()
    };
    let fixed_cfg = TimestepConfig {
        mode: SteppingMode::FixedStep,
        ..event_cfg.clone()
    };

    // Solve counts are deterministic, so report them once outside the timed
    // loops (they feed the "solves" fields of BENCH_timestep.json).
    let ev = run_timestep(&center, &jobs, &event_cfg);
    let fx = run_timestep(&center, &jobs, &fixed_cfg);
    println!(
        "timestep_scale: {} jobs over {horizon}: event-driven {} solves, \
         fixed-step {} solves ({:.1}x fewer)",
        jobs.len(),
        ev.solves,
        fx.solves,
        fx.solves as f64 / ev.solves.max(1) as f64
    );

    let mut g = c.benchmark_group("timestep_scale");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(10));
    g.sample_size(10);
    g.bench_function("storm_event_driven", |b| {
        b.iter(|| black_box(run_timestep(&center, &jobs, &event_cfg)));
    });
    g.bench_function("storm_fixed_step", |b| {
        b.iter(|| black_box(run_timestep(&center, &jobs, &fixed_cfg)));
    });
    g.finish();
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}

criterion_group!(benches, bench_timestep_scale);
criterion_main!(benches);
