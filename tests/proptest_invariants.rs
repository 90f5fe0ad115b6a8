//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;

use spider::net::maxmin::{FlowSpec, MaxMinProblem};
use spider::net::torus::{Coord, Torus};
use spider::pfs::layout::StripeLayout;
use spider::pfs::namespace::{FileMeta, Namespace};
use spider::pfs::ost::OstId;
use spider::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-min allocations never oversubscribe any resource and never give
    /// a flow more than its cap.
    #[test]
    fn maxmin_is_feasible(
        caps in prop::collection::vec(0.0f64..100.0, 1..20),
        flows in prop::collection::vec(
            (prop::collection::vec(0usize..20, 1..5), prop::option::of(0.1f64..50.0)),
            1..40
        )
    ) {
        let mut p = MaxMinProblem::new();
        let res: Vec<_> = caps.iter().map(|&c| p.add_resource(c)).collect();
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|(rs, cap)| {
                let mut f = FlowSpec::new(
                    rs.iter().map(|&i| res[i % res.len()]).collect(),
                );
                if let Some(c) = cap {
                    f = f.with_cap(*c);
                }
                f
            })
            .collect();
        let rates = p.solve(&specs);
        // Feasibility.
        let mut usage = vec![0.0f64; caps.len()];
        for (f, r) in specs.iter().zip(&rates) {
            prop_assert!(*r >= -1e-9);
            if let Some(c) = f.cap {
                prop_assert!(*r <= c + 1e-6);
            }
            for rr in &f.resources {
                usage[rr.0] += r;
            }
        }
        for (u, c) in usage.iter().zip(&caps) {
            prop_assert!(*u <= c + 1e-6, "resource oversubscribed: {u} > {c}");
        }
    }

    /// The event-driven solver and the reference full-rescan solver agree
    /// to 1e-6 on arbitrary problems: random paths (with duplicates),
    /// optional caps, fractional weights, and exhausted (zero-capacity)
    /// resources.
    #[test]
    fn maxmin_event_driven_matches_reference(
        caps in prop::collection::vec(
            prop::option::of(0.5f64..100.0), // None -> a dead resource
            1..16
        ),
        flows in prop::collection::vec(
            (
                prop::collection::vec(0usize..16, 1..5),
                prop::option::of(0.05f64..50.0),
                prop::option::of(0.25f64..16.0),
            ),
            1..50
        )
    ) {
        let mut p = MaxMinProblem::new();
        let res: Vec<_> = caps
            .iter()
            .map(|c| p.add_resource(c.unwrap_or(0.0)))
            .collect();
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|(rs, cap, weight)| {
                let mut f = FlowSpec::new(
                    rs.iter().map(|&i| res[i % res.len()]).collect(),
                );
                if let Some(c) = cap {
                    f = f.with_cap(*c);
                }
                if let Some(w) = weight {
                    f = f.with_weight(*w);
                }
                f
            })
            .collect();
        let fast = p.solve(&specs);
        let slow = p.solve_reference(&specs);
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "flow {i}: event-driven {a} vs reference {b}"
            );
        }
        // Conservation with weights: no resource carries more than its
        // capacity of weighted flow.
        let mut usage = vec![0.0f64; caps.len()];
        for (f, r) in specs.iter().zip(&fast) {
            for rr in &f.resources {
                usage[rr.0] += f.weight * r;
            }
        }
        for (u, c) in usage.iter().zip(&caps) {
            let c = c.unwrap_or(0.0);
            prop_assert!(*u <= c + 1e-6, "resource oversubscribed: {u} > {c}");
        }
        // Max-min bottleneck property: every flow is at its cap, on a
        // saturated resource, or (degenerately) on a dead resource.
        for (f, r) in specs.iter().zip(&fast) {
            let at_cap = f.cap.is_some_and(|c| *r >= c - 1e-6);
            let bottlenecked = f.resources.iter().any(|rr| {
                usage[rr.0] >= caps[rr.0].unwrap_or(0.0) - 1e-6
            });
            prop_assert!(
                at_cap || bottlenecked,
                "flow unconstrained at rate {r}"
            );
        }
    }

    /// Dimension-ordered routes have length equal to the wraparound
    /// distance and the distance is symmetric.
    #[test]
    fn torus_routes_are_shortest(
        dims in (1u16..10, 1u16..10, 1u16..10),
        a in (0u16..10, 0u16..10, 0u16..10),
        b in (0u16..10, 0u16..10, 0u16..10),
    ) {
        let t = Torus::new(dims.0, dims.1, dims.2);
        let ca = Coord::new(a.0 % dims.0, a.1 % dims.1, a.2 % dims.2);
        let cb = Coord::new(b.0 % dims.0, b.1 % dims.1, b.2 % dims.2);
        prop_assert_eq!(t.distance(ca, cb), t.distance(cb, ca));
        prop_assert_eq!(t.route(ca, cb).len() as u32, t.distance(ca, cb));
        // Distance bounded by half-perimeter.
        let bound = dims.0 / 2 + dims.1 / 2 + dims.2 / 2;
        prop_assert!(t.distance(ca, cb) <= bound as u32);
    }

    /// Stripe extent mapping conserves bytes, never touches OSTs outside
    /// the layout, and puts on every OST exactly what a chunk-by-chunk walk
    /// of the extent puts there.
    #[test]
    fn stripe_mapping_conserves_bytes(
        n_osts in 1u32..16,
        stripe_size in prop::sample::select(vec![4u64 << 10, 64 << 10, 1 << 20, 4 << 20]),
        offset in 0u64..(1 << 34),
        max_len in prop::sample::select(vec![16u64 << 10, 4 << 20, 64 << 20, 1 << 28]),
        len in 0u64..(1 << 28),
    ) {
        // Short extents (inside one chunk, or a few cycles) as well as
        // long ones spanning thousands of cycles.
        let len = len % (max_len + 1);
        let layout = StripeLayout::new((0..n_osts).map(OstId).collect())
            .with_stripe_size(stripe_size);
        let per = layout.bytes_per_ost(offset, len);
        prop_assert_eq!(per.len(), n_osts as usize);
        prop_assert_eq!(per.iter().sum::<u64>(), len);
        // Each OST gets at most ceil(len/stripe)+1 chunks' worth.
        for &b in &per {
            prop_assert!(b <= len);
        }
        // Reference: walk the extent one chunk at a time.
        let end = offset + len;
        let mut walk = vec![0u64; n_osts as usize];
        let mut at = offset;
        while at < end {
            let chunk = at / stripe_size;
            let next = ((chunk + 1) * stripe_size).min(end);
            walk[(chunk % u64::from(n_osts)) as usize] += next - at;
            at = next;
        }
        prop_assert_eq!(per, walk);
    }

    /// Namespace accounting stays consistent under arbitrary create/unlink
    /// sequences.
    #[test]
    fn namespace_accounting_is_consistent(
        ops in prop::collection::vec((0u8..3, 0u64..(1 << 24)), 1..60)
    ) {
        let mut ns = Namespace::new();
        let dir = ns.mkdir_p("/x").unwrap();
        let mut live: Vec<spider::pfs::namespace::InodeId> = Vec::new();
        let mut expected_bytes = 0u64;
        let mut counter = 0u32;
        for (op, size) in ops {
            match op {
                0 | 1 => {
                    let f = ns
                        .create_file(
                            dir,
                            &format!("f{counter}"),
                            FileMeta {
                                size,
                                atime: SimTime::ZERO,
                                mtime: SimTime::ZERO,
                                ctime: SimTime::ZERO,
                                stripe: StripeLayout::new(vec![OstId(0)]),
                                project: 0,
                            },
                        )
                        .unwrap();
                    counter += 1;
                    expected_bytes += size;
                    live.push(f);
                }
                _ => {
                    if let Some(f) = live.pop() {
                        let meta = ns.unlink(f).unwrap();
                        expected_bytes -= meta.size;
                    }
                }
            }
            prop_assert_eq!(ns.total_bytes(), expected_bytes);
            prop_assert_eq!(ns.file_count(), live.len() as u64);
        }
        prop_assert_eq!(ns.du(dir), expected_bytes);
    }

    /// The DES engine delivers every scheduled event exactly once, in
    /// non-decreasing time order.
    #[test]
    fn engine_delivers_everything_in_order(
        times in prop::collection::vec(0u64..1_000_000, 1..200)
    ) {
        let mut eng: Engine<usize> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule(SimTime(t), i);
        }
        let mut seen = vec![false; times.len()];
        let mut last = SimTime::ZERO;
        eng.run_to_completion(|ctx, ev| {
            assert!(ctx.now() >= last);
            last = ctx.now();
            assert!(!seen[ev]);
            seen[ev] = true;
        });
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Bandwidth::time_for and bytes_over are inverse within rounding.
    #[test]
    fn bandwidth_time_roundtrip(
        mbps in 1.0f64..2_000.0,
        bytes in 1u64..(1 << 40),
    ) {
        let bw = Bandwidth::mb_per_sec(mbps);
        let t = bw.time_for(bytes);
        let back = bw.bytes_over(t);
        let rel = (back - bytes as f64).abs() / bytes as f64;
        prop_assert!(rel < 1e-3, "{back} vs {bytes}");
    }
}
