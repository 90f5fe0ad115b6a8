//! Property-based tests for workload generation and analysis.

use proptest::prelude::*;
use spider_simkit::{SimDuration, SimRng};
use spider_workload::generator::{generate_trace, merge_traces, trace_to_series};
use spider_workload::ior::{run_ior, IorConfig, IorTarget};
use spider_workload::s3d::S3dConfig;
use spider_workload::spec::StreamSpec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated traces are time-sorted, in-horizon, and deterministic.
    #[test]
    fn traces_are_sorted_bounded_deterministic(
        seed in any::<u64>(),
        horizon_s in 30u64..300,
    ) {
        let spec = StreamSpec::analytics_read();
        let horizon = SimDuration::from_secs(horizon_s);
        let gen = |s| {
            let mut rng = SimRng::seed_from_u64(s);
            generate_trace(&spec, 0, horizon, &mut rng)
        };
        let a = gen(seed);
        let b = gen(seed);
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        prop_assert!(a.iter().all(|r| r.at.as_nanos() < horizon.as_nanos()));
        prop_assert!(a.iter().all(|r| r.size >= 1));
    }

    /// Merging preserves every request and global time order.
    #[test]
    fn merge_preserves_requests(
        seeds in prop::collection::vec(any::<u64>(), 2..6),
    ) {
        let spec = StreamSpec::interactive();
        let horizon = SimDuration::from_secs(60);
        let traces: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mut rng = SimRng::seed_from_u64(s);
                generate_trace(&spec, i as u32, horizon, &mut rng)
            })
            .collect();
        let total: usize = traces.iter().map(std::vec::Vec::len).sum();
        let merged = merge_traces(traces);
        prop_assert_eq!(merged.len(), total);
        prop_assert!(merged.windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// The server-log binning conserves bytes for any interval.
    #[test]
    fn series_conserves_bytes(seed in any::<u64>(), interval_s in 1u64..30) {
        let mut rng = SimRng::seed_from_u64(seed);
        let trace = generate_trace(
            &StreamSpec::data_transfer(),
            0,
            SimDuration::from_secs(120),
            &mut rng,
        );
        prop_assume!(!trace.is_empty());
        let series = trace_to_series(&trace, SimDuration::from_secs(interval_s));
        let total: u64 = trace.iter().map(|r| r.size).sum();
        prop_assert!((series.total() - total as f64).abs() < 1.0);
    }

    /// IOR accounting: bytes moved never exceed rate x wall x clients, and
    /// the aggregate never exceeds clients x per-client rate.
    #[test]
    fn ior_accounting_bounds(
        clients in 1u32..200,
        per_client_mb in 1.0f64..200.0,
    ) {
        struct Flat(f64);
        impl IorTarget for Flat {
            fn client_rates(&self, cfg: &IorConfig) -> Vec<spider_simkit::Bandwidth> {
                vec![spider_simkit::Bandwidth::mb_per_sec(self.0); cfg.clients as usize]
            }
        }
        let mut cfg = IorConfig::paper_scaling(clients, 1 << 20);
        cfg.iterations = 2;
        let rep = run_ior(&Flat(per_client_mb), &cfg);
        let bound = per_client_mb * 1e6 * clients as f64;
        prop_assert!(rep.mean.as_bytes_per_sec() <= bound * 1.001);
        let wall = cfg.stonewall.as_secs_f64();
        prop_assert!(rep.bytes_moved as f64 <= bound * wall * cfg.iterations as f64 * 1.001);
    }

    /// S3D traces always conserve the checkpoint volume.
    #[test]
    fn s3d_volume_conserved(ranks in 1u32..64, seed in any::<u64>()) {
        let cfg = S3dConfig::small(ranks);
        let mut rng = SimRng::seed_from_u64(seed);
        let total: u64 = cfg.requests(&mut rng).map(|r| r.size).sum();
        prop_assert_eq!(
            total,
            cfg.checkpoint_bytes() * cfg.checkpoint_times().len() as u64
        );
    }
}
