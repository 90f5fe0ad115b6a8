//! Property tests for the million-client columnar layer: the stateless
//! flow solve must build the same problem as a one-test session wherever
//! both price OSTs alike, the class-collapsed IOR path must be
//! **bit-identical** to eager per-client expansion, and the event engine
//! must deliver in exactly the `(time, insertion-seq)` order the spec
//! promises, across a drain and refill. These are the guarantees that let
//! the SoA storage swap in under every existing paper table without moving
//! a single output byte.

use proptest::prelude::*;

use spider::core::center::Center;
use spider::core::config::CenterConfig;
use spider::core::flowsim::{solve, solve_concurrent, CenterTarget, FlowSolution, FlowTest};
use spider::prelude::*;
use spider::simkit::MemFootprint;
use spider::workload::ior::{run_ior, IorConfig, IorTarget};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `solve` and a one-test session build their problems through the
    /// same skeleton and class builder and differ only in the OST price:
    /// the test's own direction and RPC size against a 1 MiB write. Where
    /// the two prices coincide (writes at or above the RPC size) they must
    /// build the same problem, so the aggregate and every per-client rate
    /// agree bit for bit.
    #[test]
    fn solve_matches_a_one_test_session_bitwise(
        fs in 0usize..2,
        clients in 1u32..5_000,
        shift in 10u32..13,
        optimal in any::<bool>(),
    ) {
        let center = Center::build(CenterConfig::small());
        let t = FlowTest {
            fs,
            clients,
            transfer_size: KIB << shift,
            write: true,
            optimal_placement: optimal,
        };
        prop_assert!(t.transfer_size >= center.config.client.rpc_size);
        let bits = |sol: &FlowSolution| {
            let mut v = vec![sol.aggregate.as_bytes_per_sec().to_bits()];
            v.extend(sol.per_client().iter().map(|b| b.as_bytes_per_sec().to_bits()));
            v
        };
        let stateless = solve(&center, &t);
        let session = solve_concurrent(&center, std::slice::from_ref(&t));
        prop_assert_eq!(stateless.clients(), clients as usize);
        prop_assert_eq!(bits(&stateless), bits(&session[0]));
    }

    /// The class-collapsed IOR path produces a bit-identical report to the
    /// eager per-client path on the assembled center — the end-to-end form
    /// of the guarantee, covering `RateClasses` and `run_ior`'s class fold.
    #[test]
    fn class_level_ior_matches_eager_ior_bitwise(
        clients in 1u32..800,
        shift in 0u32..12,
        iterations in 1u32..3,
    ) {
        /// `CenterTarget` stripped of its `rate_classes` override: the
        /// default one-class-per-client (eager) path.
        struct Eager<'a>(&'a CenterTarget<'a>);
        impl IorTarget for Eager<'_> {
            fn client_rates(&self, cfg: &IorConfig) -> Vec<Bandwidth> {
                self.0.client_rates(cfg)
            }
        }
        let center = Center::build(CenterConfig::small());
        let target = CenterTarget { center: &center, fs: 0 };
        let mut cfg = IorConfig::paper_scaling(clients, KIB << shift);
        cfg.iterations = iterations;
        let lazy = run_ior(&target, &cfg);
        let eager = run_ior(&Eager(&target), &cfg);
        prop_assert_eq!(
            lazy.mean.as_bytes_per_sec().to_bits(),
            eager.mean.as_bytes_per_sec().to_bits()
        );
        prop_assert_eq!(lazy.bytes_moved, eager.bytes_moved);
        prop_assert_eq!(lazy.some_client_completed, eager.some_client_completed);
        for (a, b) in lazy.per_iteration.iter().zip(&eager.per_iteration) {
            prop_assert_eq!(
                a.as_bytes_per_sec().to_bits(),
                b.as_bytes_per_sec().to_bits()
            );
        }
    }

    /// The engine delivers in exactly `(time, insertion-seq)` order across
    /// arbitrary schedules, including a drain/refill cycle, where a
    /// bookkeeping slip would surface as payload corruption or
    /// misordering; the refill reuses the heap's capacity.
    #[test]
    fn engine_delivers_in_time_then_seq_order(
        first in prop::collection::vec(0u64..1_000, 1..80),
        second in prop::collection::vec(1_000u64..2_000, 1..80),
    ) {
        let mut engine: Engine<u32> = Engine::new();
        let mut expect: Vec<(SimTime, u32)> = Vec::new();
        for (k, &secs) in first.iter().enumerate() {
            let t = SimTime::from_secs(secs);
            engine.schedule(t, k as u32);
            expect.push((t, k as u32));
        }

        let mut got: Vec<(SimTime, u32)> = Vec::new();
        engine.run(SimTime::from_secs(1_000), |ctx, ev| {
            got.push((ctx.now(), ev));
        });
        let bytes_after_first = engine.mem_bytes();

        // Refill: the drained heap's capacity must be reused, not re-grown.
        for (k, &secs) in second.iter().enumerate() {
            let t = SimTime::from_secs(secs);
            let payload = 10_000 + k as u32;
            engine.schedule(t, payload);
            expect.push((t, payload));
        }
        prop_assert_eq!(engine.queue_high_water(), first.len().max(second.len()));
        if second.len() <= first.len() {
            prop_assert_eq!(engine.mem_bytes(), bytes_after_first, "the refill grew the heap");
        }
        engine.run_to_completion(|ctx, ev| {
            got.push((ctx.now(), ev));
        });

        // Oracle: stable sort by time — equal times keep insertion order,
        // which is exactly the engine's (at, seq) contract.
        expect.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(got, expect);
    }
}
