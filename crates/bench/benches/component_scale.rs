//! Component-scoped warm starts and router-zone sharding of the flow engine
//! on a checkpoint storm.
//!
//! The storm is E20-shaped: heavy steady waves occupy seven namespaces
//! while a small churn job arrives and drains on the eighth every minute.
//! Two measurements, both against the same deterministic shape:
//!
//! 1. **Component-scoped warm starts**: the storm through the event-driven
//!    `run_timestep`. The resident session memoizes fixed points per
//!    connected component, so a churn event re-solves only the churned
//!    component and replays every steady one from its memo. The share of
//!    components replayed (the skip fraction) is asserted >= 0.85.
//! 2. **Router-zone sharding**: the same storm through
//!    `run_timestep_sharded` — shard-per-zone, zero cross-shard messages,
//!    a single epoch window.
//!
//! Both engines are timed side by side at spare-thread budgets 0, 1 and
//! `cores - 1` (deduplicated; `cores` from `available_parallelism`,
//! recorded with the results). Each engine's completions and bytes are
//! asserted identical across budgets outside the timed loops.
//!
//! `--bench` writes `BENCH_components.json` into the workspace root.
//! `--smoke` shrinks the storm and writes
//! `target/bench-smoke/BENCH_components.json` instead, so a smoke run
//! cannot overwrite the committed file. A bare invocation (`cargo test`
//! running the bench target) shrinks the storm and writes nothing.

use std::hint::black_box;
use std::time::Instant;

use spider_core::center::Center;
use spider_core::config::CenterConfig;
use spider_core::timestep::{run_timestep, run_timestep_sharded, Job, TimestepConfig};
use spider_simkit::{SimDuration, SimTime, MIB};

/// The bench fails below this share of components replayed from the memo.
const MIN_SKIP_FRACTION: f64 = 0.85;

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke") || !std::env::args().any(|a| a == "--bench")
}

/// JSON output is opt-in: `cargo test` runs this binary with neither flag
/// and must not dirty the worktree.
fn write_json() -> bool {
    std::env::args().any(|a| a == "--smoke" || a == "--bench")
}

/// Best-of-`iters` wall time in milliseconds.
fn time_ms<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The warm-start storm: `steady` heavy never-finishing jobs spread over
/// namespaces 1..`ns` (several large components whose shapes never change)
/// plus a staggered pair of short churn jobs per wave on fs 0 with strictly
/// increasing client counts (every churn event is a fresh shape, so only
/// the steady components' signatures can hit the memo).
fn warm_start_storm(ns: usize, steady: u32, waves: u64, period: SimDuration) -> Vec<Job> {
    let mut jobs = Vec::new();
    for k in 0..steady {
        jobs.push(Job {
            fs: 1 + (k as usize % (ns - 1)),
            clients: 4 + 3 * k,
            bytes_per_client: 1 << 40,
            transfer_size: MIB,
            start: SimTime::ZERO,
            write: true,
            optimal_placement: false,
        });
    }
    for w in 0..waves {
        for burst in 0..2u32 {
            jobs.push(Job {
                fs: 0,
                clients: 8 + 2 * w as u32 + burst,
                bytes_per_client: 1 << 30,
                transfer_size: MIB,
                start: SimTime::ZERO + period * w + SimDuration::from_secs(10 * burst as u64),
                write: true,
                optimal_placement: false,
            });
        }
    }
    jobs
}

#[allow(clippy::too_many_lines)]
fn main() {
    spider_obs::init_from_env();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let (steady, waves, iters) = if smoke() {
        (32u32, 12u64, 3u32)
    } else {
        (48, 40, 5)
    };
    // Spare-thread budgets 0, 1 and cores - 1, deduplicated: a 2-core host
    // times budgets 0 and 1.
    let full = cores.saturating_sub(1);
    let mut budgets = vec![0, 1, full];
    budgets.sort_unstable();
    budgets.dedup();

    // The small center widened to 8 namespaces (SSUs and router groups
    // scaled to keep the structure): 7 steady router zones the churn events
    // must not disturb.
    let mut center_cfg = CenterConfig::small();
    center_cfg.fleet.ssus = 8;
    center_cfg.router_groups = 8;
    center_cfg.io_modules = 16;
    center_cfg.namespaces = 8;
    let center = Center::build(center_cfg);
    let period = SimDuration::from_secs(60);
    let jobs = warm_start_storm(center.namespaces(), steady, waves, period);
    let cfg = TimestepConfig {
        horizon: period * waves + SimDuration::from_secs(60),
        ..TimestepConfig::default()
    };

    // ---- 1. component-scoped warm starts (event-driven) ----
    rayon::set_spare_thread_budget(0);
    let ev = run_timestep(&center, &jobs, &cfg);
    let es = ev
        .solver
        .clone()
        .expect("event-driven records session stats");
    let skip_fraction = es.components_skipped as f64
        / (es.components_skipped + es.components_resolved).max(1) as f64;
    assert!(
        skip_fraction >= MIN_SKIP_FRACTION,
        "component-scoped memo must replay >= {MIN_SKIP_FRACTION} of components, got \
         {skip_fraction:.3} ({} skipped, {} resolved)",
        es.components_skipped,
        es.components_resolved
    );

    // ---- 2. router-zone sharding ----
    let (sh, pdes) = run_timestep_sharded(&center, &jobs, &cfg);
    assert_eq!(pdes.cross_messages, 0, "zones are independent");
    assert!(pdes.shards >= 2, "the storm spans >= 2 router zones");
    for (i, (a, b)) in ev.completions.iter().zip(&sh.completions).enumerate() {
        assert_eq!(a.is_some(), b.is_some(), "job {i} finish disagreement");
    }
    let ss = sh.solver.clone().expect("sharded records session stats");

    // Same answers at every budget, checked outside the timed loops.
    for &b in &budgets {
        rayon::set_spare_thread_budget(b);
        let again = run_timestep(&center, &jobs, &cfg);
        assert_eq!(
            again.completions, ev.completions,
            "event-driven, budget {b}"
        );
        assert_eq!(
            again.bytes_moved, ev.bytes_moved,
            "event-driven, budget {b}"
        );
        let (again, _) = run_timestep_sharded(&center, &jobs, &cfg);
        assert_eq!(again.completions, sh.completions, "sharded, budget {b}");
        assert_eq!(again.bytes_moved, sh.bytes_moved, "sharded, budget {b}");
    }

    let mut ev_ms = Vec::new();
    let mut sh_ms = Vec::new();
    for &b in &budgets {
        rayon::set_spare_thread_budget(b);
        ev_ms.push(time_ms(iters, || run_timestep(&center, &jobs, &cfg)));
        sh_ms.push(time_ms(iters, || {
            run_timestep_sharded(&center, &jobs, &cfg)
        }));
    }
    rayon::set_spare_thread_budget(full);
    let by_budget = |ms: &[f64]| -> String {
        budgets
            .iter()
            .zip(ms)
            .map(|(b, t)| format!("\"{b}\": {t:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    };

    println!(
        "component_scale storm: {} jobs, {} solves, {} rounds, skip fraction {skip_fraction:.3}, \
         event-driven by spare-thread budget {{{}}} ms",
        jobs.len(),
        ev.solves,
        es.rounds_executed,
        by_budget(&ev_ms)
    );
    println!(
        "component_scale sharded: {} zones, {} epochs, {} cross-shard messages, {} solves, \
         by spare-thread budget {{{}}} ms",
        pdes.shards,
        pdes.epochs,
        pdes.cross_messages,
        sh.solves,
        by_budget(&sh_ms)
    );

    if write_json() {
        let json = format!(
            r#"{{
  "machine": {{"cores": {cores}, "note": "measured on this machine at spare-thread budgets 0, 1 and cores - 1 (deduplicated); a budget above cores - 1 would only time-share cores. The event-driven engine spends its budget on the session's parallel solves of missed components, the sharded engine on running router zones side by side. Solver counters (solves, rounds, skips, zones, cross-shard messages) are deterministic and machine-independent; the skip_fraction gate (>= 0.85) is checked by the bench itself"}},
  "command": "cargo bench -p spider-bench --bench component_scale -- --bench",
  "shape": {{"namespaces": {ns}, "steady_jobs": {steady}, "churn_waves": {waves}, "smoke": {is_smoke}}},
  "spare_thread_budgets": {budgets:?},
  "event_driven": {{
    "storm_jobs": {n_jobs},
    "solves": {esolves},
    "steps": {esteps},
    "rounds_executed": {erounds},
    "components_resolved": {eresolved},
    "components_skipped": {eskipped},
    "skip_fraction": {skip_fraction:.4},
    "wall_ms_by_budget": {{{ewall}}}
  }},
  "sharded": {{
    "router_zones": {n_zones},
    "epoch_barriers": {epochs},
    "cross_shard_messages": {cross},
    "solves": {ssolves},
    "steps": {ssteps},
    "rounds_executed": {srounds},
    "wall_ms_by_budget": {{{swall}}}
  }}
}}
"#,
            ns = center.namespaces(),
            is_smoke = smoke(),
            n_jobs = jobs.len(),
            esolves = ev.solves,
            esteps = ev.steps,
            erounds = es.rounds_executed,
            eresolved = es.components_resolved,
            eskipped = es.components_skipped,
            ewall = by_budget(&ev_ms),
            n_zones = pdes.shards,
            epochs = pdes.epochs,
            cross = pdes.cross_messages,
            ssolves = sh.solves,
            ssteps = sh.steps,
            srounds = ss.rounds_executed,
            swall = by_budget(&sh_ms),
        );
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let dir = if smoke() {
            root.join("target/bench-smoke")
        } else {
            root.to_path_buf()
        };
        std::fs::create_dir_all(&dir).expect("output directory is creatable");
        let path = dir.join("BENCH_components.json");
        std::fs::write(&path, json).expect("output directory is writable");
        println!("component_scale: wrote {}", path.display());
    }
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
