//! Property-based tests for the interconnect substrate.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use spider_net::maxmin::{FlowSpec, MaxMinProblem};
use spider_net::session::{FlowBatch, FlowId, SolveSession, UnionFind};
use spider_net::torus::{Coord, LinkLoads, Torus};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Route composition: distance satisfies the triangle inequality under
    /// dimension-ordered routing path lengths.
    #[test]
    fn torus_triangle_inequality(
        dims in (2u16..8, 2u16..8, 2u16..8),
        a in (0u16..8, 0u16..8, 0u16..8),
        b in (0u16..8, 0u16..8, 0u16..8),
        c in (0u16..8, 0u16..8, 0u16..8),
    ) {
        let t = Torus::new(dims.0, dims.1, dims.2);
        let ca = Coord::new(a.0 % dims.0, a.1 % dims.1, a.2 % dims.2);
        let cb = Coord::new(b.0 % dims.0, b.1 % dims.1, b.2 % dims.2);
        let cc = Coord::new(c.0 % dims.0, c.1 % dims.1, c.2 % dims.2);
        prop_assert!(t.distance(ca, cc) <= t.distance(ca, cb) + t.distance(cb, cc));
    }

    /// Link loads: total accumulated load equals amount x hops.
    #[test]
    fn link_loads_accounting(
        dims in (2u16..6, 2u16..6, 2u16..6),
        routes in prop::collection::vec(
            ((0u16..6, 0u16..6, 0u16..6), (0u16..6, 0u16..6, 0u16..6), 0.1f64..10.0),
            1..20
        ),
    ) {
        let t = Torus::new(dims.0, dims.1, dims.2);
        let mut loads = LinkLoads::new(&t);
        let mut expected = 0.0;
        for ((ax, ay, az), (bx, by, bz), amount) in routes {
            let a = Coord::new(ax % dims.0, ay % dims.1, az % dims.2);
            let b = Coord::new(bx % dims.0, by % dims.1, bz % dims.2);
            loads.add_route(&t, a, b, amount);
            expected += amount * t.distance(a, b) as f64;
        }
        let total: f64 = loads.hotspots(usize::MAX).iter().map(|(_, l)| l).sum();
        prop_assert!((total - expected).abs() < 1e-6 * expected.max(1.0));
    }

    /// Max-min fairness property: for every pair of flows sharing a
    /// bottleneck, neither can be increased without decreasing a flow that
    /// has no more than its rate (approximated: flows sharing a saturated
    /// resource with no cap have equal rates).
    #[test]
    fn maxmin_equal_share_at_shared_bottleneck(
        cap in 1.0f64..100.0,
        n in 2usize..10,
    ) {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(cap);
        let flows: Vec<FlowSpec> = (0..n).map(|_| FlowSpec::new(vec![r])).collect();
        let rates = p.solve(&flows);
        for w in rates.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-9);
        }
        prop_assert!((rates.iter().sum::<f64>() - cap).abs() < 1e-6);
    }

    /// Incremental session solves — decomposed into components, the
    /// missed ones solved in parallel — are bit-identical to undecomposed
    /// from-scratch solves over the live flows in insertion order, after
    /// any sequence of deltas, at every thread budget (budget 0 is fully
    /// sequential; 7 is an odd worker count). The deltas: single adds and
    /// removes, weight updates, batch removals from the middle of the
    /// active set (every flow of a run, or every other one), re-adds of a
    /// removed shape under a fresh handle, a weight update that is undone
    /// so the next solve probes the memo for a shape it holds, multi-flow
    /// `add_flows` batches, one prepared `FlowBatch` added twice, removal
    /// of part of a batch, and a bridge flow that merges two components and
    /// whose removal splits them again. A flow removed after the last solve
    /// still reads that solve's rate, and after every op the session's
    /// components equal a from-scratch union-find partition of the live
    /// flows.
    #[test]
    fn session_churn_bitwise_across_thread_budgets(
        caps in prop::collection::vec(0.5f64..50.0, 2..8),
        ops in prop::collection::vec(
            // (op selector, path seeds, cap?, weight, victim seed, span)
            (0u8..11, prop::collection::vec(0usize..64, 1..4), prop::option::of(0.05f64..8.0),
             0.5f64..16.0, 0usize..64, 1usize..6),
            1..40
        ),
        budget_sel in 0usize..3,
    ) {
        rayon::set_spare_thread_budget([0usize, 1, 7][budget_sel]);
        let mut p = MaxMinProblem::new();
        let rs: Vec<_> = caps.iter().map(|&c| p.add_resource(c)).collect();
        let mut sess = SolveSession::new(p.clone());
        // Live flows in insertion (= solve) order, removed shapes, and the
        // bits each flow got at the last solve.
        let mut live: Vec<(FlowId, FlowSpec)> = Vec::new();
        let mut removed: Vec<FlowSpec> = Vec::new();
        let mut last_bits: BTreeMap<FlowId, u64> = BTreeMap::new();
        // The components of the live flows, from scratch: no resource here
        // is exhausted and every cap is positive, so no flow is prefrozen.
        let partition = |live: &[(FlowId, FlowSpec)]| -> Vec<Vec<FlowId>> {
            let mut uf = UnionFind::new(caps.len());
            for (_, f) in live {
                let path: Vec<u32> = f.resources.iter().map(|r| r.0 as u32).collect();
                uf.union_all(&path);
            }
            let mut groups: BTreeMap<u32, Vec<FlowId>> = BTreeMap::new();
            for (id, f) in live {
                groups.entry(uf.find(f.resources[0].0 as u32)).or_default().push(*id);
            }
            let mut groups: Vec<Vec<FlowId>> = groups.into_values().collect();
            groups.sort();
            groups
        };
        let check = |sess: &mut SolveSession,
                     live: &[(FlowId, FlowSpec)],
                     last_bits: &mut BTreeMap<FlowId, u64>| {
            let specs: Vec<FlowSpec> = live.iter().map(|(_, f)| f.clone()).collect();
            sess.solve();
            let session_bits: Vec<u64> = sess.rates().iter().map(|r| r.to_bits()).collect();
            let oracle_bits: Vec<u64> = p.solve(&specs).iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(&session_bits, &oracle_bits);
            prop_assert_eq!(sess.components(), partition(live));
            *last_bits = live.iter().map(|(id, _)| *id).zip(session_bits).collect();
        };
        // `n` flows from one path seed list, each shifted by its position.
        let batch_of = |path: &[usize], cap: Option<f64>, weight: f64, n: usize| -> Vec<FlowSpec> {
            (0..n)
                .map(|j| {
                    let mut f = FlowSpec::new(
                        path.iter().map(|&s| rs[(s + j) % rs.len()]).collect(),
                    ).with_weight(weight + j as f64);
                    if let Some(c) = cap {
                        f = f.with_cap(c);
                    }
                    f
                })
                .collect()
        };
        for (op, path, cap, weight, victim, span) in ops {
            let mut gone: Vec<FlowId> = Vec::new();
            match op {
                0 | 1 => {
                    let f = batch_of(&path, cap, weight, 1).remove(0);
                    let id = sess.add_flow(&f);
                    live.push((id, f));
                }
                2 if !live.is_empty() => {
                    let (id, f) = live.remove(victim % live.len());
                    sess.remove_flow(id);
                    gone.push(id);
                    removed.push(f);
                }
                3 if !live.is_empty() => {
                    let j = victim % live.len();
                    sess.update_weight(live[j].0, weight);
                    live[j].1.weight = weight;
                }
                4 if !live.is_empty() => {
                    // A batch from the middle: `span` flows from the
                    // victim's position on, adjacent or every other one,
                    // handed over in reverse order.
                    let start = victim % live.len();
                    let stride = 1 + victim % 2;
                    let picks: Vec<usize> =
                        (start..live.len()).step_by(stride).take(span).collect();
                    for &k in picks.iter().rev() {
                        let (id, f) = live.remove(k);
                        gone.push(id);
                        removed.push(f);
                    }
                    sess.remove_flows(&gone);
                }
                5 if !removed.is_empty() => {
                    let f = removed[victim % removed.len()].clone();
                    let id = sess.add_flow(&f);
                    live.push((id, f));
                }
                6 if !live.is_empty() => {
                    // Solve under a new weight, then restore the old one:
                    // the shape before the update was solved last round, so
                    // restoring it must replay from the memo.
                    let j = victim % live.len();
                    let old = live[j].1.weight;
                    sess.update_weight(live[j].0, weight);
                    live[j].1.weight = weight;
                    check(&mut sess, &live, &mut last_bits);
                    sess.update_weight(live[j].0, old);
                    live[j].1.weight = old;
                    let hits = sess.stats().cache_hits;
                    check(&mut sess, &live, &mut last_bits);
                    prop_assert_eq!(sess.stats().cache_hits, hits + 1);
                }
                7 => {
                    // One multi-flow batch.
                    let specs = batch_of(&path, cap, weight, span);
                    let ids = sess.add_flows(&specs);
                    live.extend(ids.into_iter().zip(specs));
                }
                8 => {
                    // One prepared batch, resident twice.
                    let specs = batch_of(&path, cap, weight, span);
                    let batch = Arc::new(FlowBatch::new(&p, &specs));
                    for _ in 0..2 {
                        let first = sess.add_batch(&batch);
                        let ids = sess.active_flows();
                        let ids = &ids[ids.len() - span..];
                        prop_assert_eq!(ids[0], first);
                        live.extend(ids.iter().copied().zip(specs.iter().cloned()));
                    }
                }
                9 => {
                    // A solved batch loses every other flow, from its
                    // second on: its survivors split into runs.
                    let specs = batch_of(&path, cap, weight, span + 1);
                    let ids = sess.add_flows(&specs);
                    live.extend(ids.iter().copied().zip(specs));
                    check(&mut sess, &live, &mut last_bits);
                    gone = ids.iter().copied().skip(1).step_by(2).collect();
                    for id in &gone {
                        let k = live.iter().position(|(l, _)| l == id).expect("live");
                        removed.push(live.remove(k).1);
                    }
                    sess.remove_flows(&gone);
                }
                10 if live.len() >= 2 => {
                    // A bridge between two live flows' first resources,
                    // solved, then removed again.
                    let a = live[victim % live.len()].1.resources[0];
                    let b = live[(victim / 2 + 1) % live.len()].1.resources[0];
                    let bridge = FlowSpec::new(vec![a, b]).with_weight(weight);
                    let id = sess.add_flow(&bridge);
                    live.push((id, bridge));
                    check(&mut sess, &live, &mut last_bits);
                    let (id, f) = live.pop().expect("just pushed");
                    sess.remove_flow(id);
                    gone.push(id);
                    removed.push(f);
                }
                _ => {}
            }
            for id in gone {
                prop_assert!(!sess.is_active(id));
                prop_assert_eq!(sess.rate_of(id).map(f64::to_bits), last_bits.get(&id).copied());
            }
            check(&mut sess, &live, &mut last_bits);
        }
        rayon::set_spare_thread_budget(0);
    }

    /// Adding a cap to one flow never hurts the others.
    #[test]
    fn maxmin_caps_release_capacity(
        cap in 10.0f64..100.0,
        flow_cap in 0.1f64..5.0,
        n in 2usize..8,
    ) {
        let mut p = MaxMinProblem::new();
        let r = p.add_resource(cap);
        let uncapped: Vec<FlowSpec> = (0..n).map(|_| FlowSpec::new(vec![r])).collect();
        let base = p.solve(&uncapped);
        let mut capped = uncapped.clone();
        capped[0] = capped[0].clone().with_cap(flow_cap);
        let after = p.solve(&capped);
        for i in 1..n {
            prop_assert!(after[i] + 1e-9 >= base[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The water-filling core's bitwise contract on adversarial shapes:
    /// capacities, caps and weights come from short lists, so many flows
    /// share a cap and many resources saturate at exactly the same level;
    /// some capacities and caps are zero (prefrozen flows); paths repeat
    /// resources. Fractional weights make the order of a tie's freezes show
    /// in the last bits. Paths mostly stay inside one block of resources,
    /// so a session splits the problem into components, and it gets the
    /// flows in several batches. Its component-local solves must equal the
    /// stateless solve bit for bit at thread budgets 0 and 1, and both
    /// allocations must pass the max-min certificate. Ties whose order shows
    /// are rare, hence the case count.
    #[test]
    fn component_local_solves_match_the_stateless_core_bitwise(
        capacity_sel in prop::collection::vec(0usize..8, 2..24),
        blocks in 1usize..5,
        flows in prop::collection::vec(
            // (block, path seeds, cap selector, weight selector)
            (0usize..8, prop::collection::vec(0usize..64, 1..5), 0usize..8, 0usize..4),
            1..80
        ),
        batch in 1usize..9,
    ) {
        const CAPACITY: [f64; 8] = [0.0, 1.0, 2.0, 2.0, 3.0, 6.0, 12.0, 7.5];
        const CAP: [Option<f64>; 8] =
            [None, None, None, Some(0.5), Some(0.5), Some(1.0), Some(1.5), Some(0.0)];
        const WEIGHT: [f64; 4] = [1.0, 2.0, 0.1, 0.7];
        let mut p = MaxMinProblem::new();
        let rs: Vec<_> = capacity_sel.iter().map(|&c| p.add_resource(CAPACITY[c])).collect();
        let per_block = rs.len().div_ceil(blocks);
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|(block, seeds, cap, weight)| {
                let lo = block % blocks * per_block;
                let path = seeds
                    .iter()
                    .map(|&s| {
                        if s >= 60 {
                            // A path entry outside the block couples blocks.
                            rs[s % rs.len()]
                        } else {
                            rs[(lo + s % per_block).min(rs.len() - 1)]
                        }
                    })
                    .collect();
                let f = FlowSpec::new(path).with_weight(WEIGHT[*weight]);
                match CAP[*cap] {
                    Some(c) => f.with_cap(c),
                    None => f,
                }
            })
            .collect();
        let whole = p.solve(&specs);
        prop_assert!(p.verify(&specs, &whole).is_ok(), "{:?}", p.verify(&specs, &whole));
        let whole: Vec<u64> = whole.iter().map(|r| r.to_bits()).collect();
        for budget in [0, 1] {
            rayon::set_spare_thread_budget(budget);
            let mut sess = SolveSession::new(p.clone());
            for chunk in specs.chunks(batch) {
                sess.add_flows(chunk);
            }
            sess.solve();
            let parts = sess.rates();
            prop_assert!(p.verify(&specs, &parts).is_ok(), "{:?}", p.verify(&specs, &parts));
            let parts: Vec<u64> = parts.iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(&parts, &whole);
        }
        rayon::set_spare_thread_budget(0);
    }
}
