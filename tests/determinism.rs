//! Whole-stack determinism: identical seeds reproduce identical results
//! through every layer — the property that makes the reproduction harness
//! trustworthy.

use spider::core::config::Scale;
use spider::core::experiments::registry;

#[test]
fn all_experiments_are_bitwise_reproducible() {
    // Run the registry twice; every rendered cell must match. E12 measures
    // real wall-clock (machine-dependent), so its timing columns are
    // excluded.
    let run_once = || -> Vec<(String, Vec<String>)> {
        registry()
            .into_iter()
            .map(|e| {
                let mut cells = Vec::new();
                for t in (e.run)(Scale::Small) {
                    for (ri, row) in t.rows.iter().enumerate() {
                        for (ci, cell) in row.iter().enumerate() {
                            // E12b columns 1..4 are wall-clock timings.
                            if e.id == "E12"
                                && t.title.contains("wall-clock")
                                && (1..4).contains(&ci)
                            {
                                continue;
                            }
                            cells.push(format!("{}:{}:{}:{}", t.title, ri, ci, cell));
                        }
                    }
                }
                (e.id.to_owned(), cells)
            })
            .collect()
    };
    let a = run_once();
    let b = run_once();
    for ((id_a, cells_a), (_, cells_b)) in a.iter().zip(&b) {
        assert_eq!(cells_a, cells_b, "{id_a} is not reproducible");
    }
}

#[test]
fn incremental_sessions_are_byte_stable() {
    // The same churn script replayed on a fresh session must reproduce
    // every intermediate rate vector bit for bit — including the solves
    // answered from the fixed-point memo.
    use spider::net::maxmin::{FlowSpec, MaxMinProblem};
    use spider::net::SolveSession;
    let script = || -> Vec<u64> {
        let mut p = MaxMinProblem::new();
        let res: Vec<_> = (0..6)
            .map(|i| p.add_resource(40.0 + f64::from(i)))
            .collect();
        let mut s = SolveSession::new(p);
        let mut bits = Vec::new();
        let mut ids = Vec::new();
        for k in 0..20u32 {
            let path = vec![res[k as usize % 6], res[(k as usize + 2) % 6]];
            let spec = FlowSpec::new(path)
                .with_cap(3.0 + f64::from(k % 5))
                .with_weight(1.0 + f64::from(k % 3));
            ids.push(s.add_flow(&spec));
            if k % 4 == 3 {
                s.remove_flow(ids[(k as usize) / 2]);
            }
            if k % 5 == 2 {
                s.update_weight(*ids.last().expect("just pushed"), 2.5);
            }
            s.solve();
            bits.extend(s.rates().iter().map(|r| r.to_bits()));
        }
        bits
    };
    assert_eq!(script(), script());
}

#[test]
fn event_driven_timestep_is_byte_stable() {
    use spider::core::center::Center;
    use spider::core::config::CenterConfig;
    use spider::core::timestep::{run_timestep, Job, TimestepConfig};
    use spider::prelude::*;
    let run_once = || {
        let center = Center::build(CenterConfig::small());
        let jobs: Vec<Job> = (0..12)
            .map(|k| Job {
                fs: (k % 2) as usize,
                clients: 8 + k % 3,
                bytes_per_client: 1 << 30,
                transfer_size: MIB,
                start: SimTime::ZERO + SimDuration::from_secs_f64(f64::from(k) * 7.25),
                write: true,
                optimal_placement: false,
            })
            .collect();
        let r = run_timestep(&center, &jobs, &TimestepConfig::default());
        (r.completions.clone(), r.bytes_moved.clone(), r.solves)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn sharded_pdes_matches_its_sequential_oracles_bitwise() {
    // Layer 1 — rpcsim: the one-shard-per-OST interference run, pinned to
    // the report a single global event engine replaying the same trace
    // produced, bit for bit. The unit tests check the shards against
    // `ShardedEngine::run_sequential`; these pins catch a change to the
    // queue model that both runs would share.
    use spider::core::rpcsim::run_interference_sharded;
    use spider::prelude::*;
    use spider::workload::generator::{generate_trace, merge_traces};
    use spider::workload::spec::StreamSpec;

    let center = spider::core::Center::build(spider::core::config::CenterConfig::small());
    let osts = &center.filesystems[0].osts;
    let mut rng = SimRng::seed_from_u64(11);
    let traces = (0..12)
        .map(|c| {
            let mut child = rng.fork(c as u64);
            generate_trace(
                &StreamSpec::analytics_read(),
                c,
                SimDuration::from_secs(120),
                &mut child,
            )
        })
        .collect();
    let trace = merge_traces(traces);
    let horizon = SimDuration::from_secs(90);
    let (rep, stats) = run_interference_sharded(osts, &trace, horizon);
    assert_eq!(stats.shards, osts.len());
    assert_eq!(rep.reads.completed, 24_464);
    assert_eq!(rep.truncated, 1);
    assert_eq!(rep.reads.latency.mean().to_bits(), 0x3f77_ed09_d36a_63df);
    assert_eq!(
        rep.reads.latency_percentile(0.99).to_bits(),
        0x3f98_deb1_75b5_3718
    );

    // Layer 2 — the E8d federation storm: epoch-parallel run vs the global
    // (time, shard)-order oracle, with real cross-shard traffic in flight.
    use spider::core::experiments::e08_namespaces::federation_storm;
    let par = federation_storm(6, 600, 0.2, 99).run();
    let orc = federation_storm(6, 600, 0.2, 99).run_sequential();
    assert!(par.stats.cross_messages > 0, "storm must cross shards");
    assert_eq!(par.stats.cross_messages, orc.stats.cross_messages);
    for (p, s) in par.outs.iter().zip(&orc.outs) {
        assert_eq!(p.local_ops, s.local_ops);
        assert_eq!(p.remote_ops, s.remote_ops);
        assert_eq!(p.latency.mean().to_bits(), s.latency.mean().to_bits());
        assert_eq!(
            p.latency.variance().to_bits(),
            s.latency.variance().to_bits()
        );
    }
}

#[test]
fn center_construction_is_seed_stable() {
    use spider::core::center::Center;
    use spider::core::config::CenterConfig;
    let fingerprint = |c: &Center| -> Vec<u64> {
        c.filesystems
            .iter()
            .flat_map(|f| {
                f.osts
                    .iter()
                    .map(|o| o.group.streaming_bandwidth().as_bytes_per_sec().to_bits())
            })
            .collect()
    };
    let a = Center::build(CenterConfig::small());
    let b = Center::build(CenterConfig::small());
    assert_eq!(fingerprint(&a), fingerprint(&b));

    let mut other_cfg = CenterConfig::small();
    other_cfg.seed ^= 1;
    let c = Center::build(other_cfg);
    assert_ne!(fingerprint(&a), fingerprint(&c), "seed must matter");
}
