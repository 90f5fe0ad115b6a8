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
//! Both engines are timed side by side at the spare-thread budgets of
//! [`spider_bench::record`], which also decides the storm's shape and where
//! `BENCH_components.json` goes. Each engine's completions and bytes are
//! asserted identical across budgets outside the timed loops.

use spider_bench::record::{self, by_budget, time_ms};
use spider_core::center::Center;
use spider_core::config::CenterConfig;
use spider_core::timestep::{run_timestep, run_timestep_sharded, Job, TimestepConfig};
use spider_simkit::{SimDuration, SimTime, MIB};

/// The bench fails below this share of components replayed from the memo.
const MIN_SKIP_FRACTION: f64 = 0.85;

/// The warm-start storm: `steady` heavy never-finishing jobs spread over
/// namespaces 1..`ns` (several large components whose shapes never change)
/// plus a staggered pair of short churn jobs per wave on fs 0 with strictly
/// increasing client counts (every churn event is a fresh shape, so only
/// the steady components' memo keys can hit).
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
    let (steady, waves, iters) = if record::smoke() {
        (32u32, 12u64, 3u32)
    } else {
        (48, 40, 5)
    };
    let budgets = record::budgets();

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
    rayon::set_spare_thread_budget(record::cores() - 1);
    let (ewall, swall) = (by_budget(&ev_ms), by_budget(&sh_ms));

    println!(
        "component_scale storm: {} jobs, {} solves, {} rounds, skip fraction {skip_fraction:.3}, \
         event-driven by spare-thread budget {ewall} ms",
        jobs.len(),
        ev.solves,
        es.rounds_executed,
    );
    println!(
        "component_scale sharded: {} zones, {} epochs, {} cross-shard messages, {} solves, \
         by spare-thread budget {swall} ms",
        pdes.shards, pdes.epochs, pdes.cross_messages, sh.solves,
    );

    let fields = format!(
        r#"  "note": "timed at spare-thread budgets 0, 1 and cores - 1 (deduplicated); a budget above cores - 1 would only time-share cores. The event-driven engine spends its budget on the session's parallel solves of missed components, the sharded engine on running router zones side by side. Solver counters (solves, rounds, skips, zones, cross-shard messages) are deterministic and machine-independent; the skip_fraction gate (>= 0.85) is checked by the bench itself",
  "shape": {{"namespaces": {ns}, "steady_jobs": {steady}, "churn_waves": {waves}}},
  "spare_thread_budgets": {budgets:?},
  "event_driven": {{
    "storm_jobs": {n_jobs},
    "solves": {esolves},
    "steps": {esteps},
    "rounds_executed": {erounds},
    "components_resolved": {eresolved},
    "components_skipped": {eskipped},
    "skip_fraction": {skip_fraction:.4},
    "wall_ms_by_budget": {ewall}
  }},
  "sharded": {{
    "router_zones": {n_zones},
    "epoch_barriers": {epochs},
    "cross_shard_messages": {cross},
    "solves": {ssolves},
    "steps": {ssteps},
    "rounds_executed": {srounds},
    "wall_ms_by_budget": {swall}
  }}"#,
        ns = center.namespaces(),
        n_jobs = jobs.len(),
        esolves = ev.solves,
        esteps = ev.steps,
        erounds = es.rounds_executed,
        eresolved = es.components_resolved,
        eskipped = es.components_skipped,
        n_zones = pdes.shards,
        epochs = pdes.epochs,
        cross = pdes.cross_messages,
        ssolves = sh.solves,
        ssteps = sh.steps,
        srounds = ss.rounds_executed,
    );
    record::write("component_scale", "BENCH_components.json", &fields);
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
