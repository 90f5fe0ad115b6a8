//! Sharded PDES scaling: one big simulation split across shards.
//!
//! Two workloads, each asserted bit-identical across thread budgets
//! inside this bench:
//!
//! 1. **Interference storm** (`rpcsim`): a mixed analytics + checkpoint
//!    trace against >= 16 OSTs, one shard per OST. The client -> OST map is
//!    static, so there is zero cross-shard traffic and the legal lookahead
//!    is the whole horizon — a single epoch window, embarrassingly parallel.
//!    Every budget must reproduce budget 0's report.
//! 2. **Federation storm** (E8d): cross-namespace metadata traffic with the
//!    1 ms cross-namespace RPC hop as the lookahead — thousands of epoch
//!    barriers of ~76 events and real cross-shard message flow. Each window
//!    after the first is under the engine's grain (`pdes::GRAIN`), so it
//!    runs on the calling thread at every budget. Every budget must match
//!    `ShardedEngine::run_sequential`, the PDES layer's oracle, which is
//!    also timed.
//!
//! Both storms are timed at the spare-thread budgets of
//! [`spider_bench::record`], which also decides the shapes and where
//! `BENCH_pdes.json` (wall time per budget, events/sec, barrier count,
//! cross-shard message ratio) goes.

use spider_bench::record::{self, by_budget, time_ms};
use spider_core::experiments::e08_namespaces::federation_storm;
use spider_core::rpcsim::{run_interference_sharded, ClassStats};
use spider_pfs::ost::{Ost, OstId};
use spider_simkit::{SimDuration, SimRng};
use spider_storage::disk::{Disk, DiskId, DiskSpec};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};
use spider_workload::generator::{generate_trace, merge_traces};
use spider_workload::spec::{IoRequest, StreamSpec};

fn osts(n: u32) -> Vec<Ost> {
    let cfg = RaidConfig::raid6_8p2();
    (0..n)
        .map(|g| {
            let members = (0..cfg.width())
                .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                .collect();
            Ost::new(OstId(g), RaidGroup::new(RaidGroupId(g), cfg, members))
        })
        .collect()
}

fn storm_trace(clients: u32, secs: u64) -> Vec<IoRequest> {
    let mut rng = SimRng::seed_from_u64(0x5C41E);
    let dur = SimDuration::from_secs(secs);
    let mut traces: Vec<_> = (0..clients)
        .map(|c| {
            let mut child = rng.fork(c as u64);
            generate_trace(&StreamSpec::analytics_read(), c, dur, &mut child)
        })
        .collect();
    traces.extend((0..clients).map(|c| {
        let mut child = rng.fork(1_000 + c as u64);
        generate_trace(
            &StreamSpec::checkpoint_restart(),
            clients + c,
            dur,
            &mut child,
        )
    }));
    merge_traces(traces)
}

#[allow(clippy::too_many_lines)]
fn main() {
    spider_obs::init_from_env();
    let (n_osts, clients, secs, fed_ns, fed_ops, iters) = if record::smoke() {
        (16u32, 16u32, 120u64, 8usize, 1_000u32, 3u32)
    } else {
        (32, 64, 600, 16, 10_000, 5)
    };

    // ---- interference storm, one shard per OST ----
    let osts = osts(n_osts);
    let trace = storm_trace(clients, secs);
    let horizon = SimDuration::from_secs(secs);
    let budgets = record::budgets();

    let shard_ms: Vec<f64> = budgets
        .iter()
        .map(|&b| {
            rayon::set_spare_thread_budget(b);
            time_ms(iters, || run_interference_sharded(&osts, &trace, horizon))
        })
        .collect();

    // Determinism spot-check outside the timed loops: every thread budget
    // must reproduce budget 0's report bit for bit.
    let same = |a: &ClassStats, b: &ClassStats| {
        (a.completed, a.bytes, a.truncated) == (b.completed, b.bytes, b.truncated)
            && a.latency.mean().to_bits() == b.latency.mean().to_bits()
            && a.latency.variance().to_bits() == b.latency.variance().to_bits()
            && a.latency_percentile(0.99).to_bits() == b.latency_percentile(0.99).to_bits()
    };
    rayon::set_spare_thread_budget(budgets[0]);
    let (rep0, istats) = run_interference_sharded(&osts, &trace, horizon);
    for &b in &budgets[1..] {
        rayon::set_spare_thread_budget(b);
        let (rep, stats) = run_interference_sharded(&osts, &trace, horizon);
        assert_eq!(stats, istats, "budget {b}");
        assert!(same(&rep.reads, &rep0.reads), "budget {b} reads");
        assert!(same(&rep.writes, &rep0.writes), "budget {b} writes");
    }

    // ---- federation storm, one shard per namespace ----
    let fed_ms: Vec<f64> = budgets
        .iter()
        .map(|&b| {
            rayon::set_spare_thread_budget(b);
            time_ms(iters, || {
                federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run()
            })
        })
        .collect();
    let oracle_ms = time_ms(iters, || {
        federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run_sequential()
    });
    let fed_oracle = federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run_sequential();
    let mut fed = None;
    for &b in &budgets {
        rayon::set_spare_thread_budget(b);
        let run = federation_storm(fed_ns, fed_ops, 0.2, 0xFED).run();
        for (p, s) in run.outs.iter().zip(&fed_oracle.outs) {
            assert_eq!(p.latency.mean().to_bits(), s.latency.mean().to_bits());
        }
        fed.get_or_insert(run);
    }
    let fed = fed.expect("the budget list is never empty");
    rayon::set_spare_thread_budget(record::cores() - 1);

    let ievents_per_sec = istats.events as f64 / (shard_ms[0] / 1e3);
    let fevents_per_sec = fed.stats.events as f64 / (fed_ms[0] / 1e3);
    let fratio = fed.stats.cross_messages as f64 / fed.stats.events as f64;
    let (ishard, fpar) = (by_budget(&shard_ms), by_budget(&fed_ms));
    println!(
        "pdes_scale interference: {} shards, {} events, {} barriers, \
         by spare-thread budget {ishard} ms",
        istats.shards, istats.events, istats.epochs,
    );
    println!(
        "pdes_scale federation: {} shards, {} events, {} barriers, \
         cross-shard ratio {fratio:.3}, oracle {oracle_ms:.1}ms, by spare-thread budget {fpar} ms",
        fed.stats.shards, fed.stats.events, fed.stats.epochs,
    );

    let last = budgets.len() - 1;
    let fields = format!(
        r#"  "note": "timed at spare-thread budgets 0, 1 and cores - 1 (deduplicated); a budget above cores - 1 would only time-share cores. Helper threads come from the rayon shim's persistent pool, so a parallel window costs a handoff to a running helper, not a thread spawn; a window after one of fewer than spider_simkit::pdes::GRAIN events runs on the calling thread, as every federation window after the first does. Bit-identity across budgets (and, for the federation storm, against the sequential oracle) is asserted by this bench and by crates/simkit/tests/pdes_threads.rs",
  "shape": {{"interference_osts": {n_osts}, "interference_clients": {clients}, "trace_secs": {secs}, "federation_namespaces": {fed_ns}, "federation_ops_per_ns": {fed_ops}, "federation_remote_share": 0.2}},
  "spare_thread_budgets": {budgets:?},
  "interference": {{
    "shards": {n_shards},
    "events": {ievents},
    "epoch_barriers": {iepochs},
    "cross_shard_message_ratio": 0.0,
    "wall_ms": {{"sharded_by_budget": {ishard}}},
    "events_per_sec_sharded_budget0": {ievents_per_sec:.0}
  }},
  "federation": {{
    "shards": {fshards},
    "events": {fevents},
    "epoch_barriers": {fepochs},
    "cross_shard_messages": {fmsgs},
    "cross_shard_message_ratio": {fratio:.4},
    "wall_ms": {{"sequential_oracle": {oracle_ms:.2}, "parallel_by_budget": {fpar}}},
    "events_per_sec_budget0": {fevents_per_sec:.0}
  }},
  "speedups": {{
    "interference_budget{top}_vs_budget0": {iscale:.2},
    "federation_budget{top}_vs_budget0": {fscale:.2}
  }}"#,
        top = budgets[last],
        n_shards = istats.shards,
        ievents = istats.events,
        iepochs = istats.epochs,
        fshards = fed.stats.shards,
        fevents = fed.stats.events,
        fepochs = fed.stats.epochs,
        fmsgs = fed.stats.cross_messages,
        iscale = shard_ms[0] / shard_ms[last],
        fscale = fed_ms[0] / fed_ms[last],
    );
    record::write("pdes_scale", "BENCH_pdes.json", &fields);
    if let Some(files) = spider_obs::finish() {
        eprintln!("obs: wrote {}", files.dir.display());
    }
}
