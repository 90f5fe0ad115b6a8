//! Property-based tests for the operational toolkit.

use proptest::prelude::*;
use spider_simkit::{Bandwidth, SimDuration, SimRng};
use spider_storage::fleet::{FleetSpec, StorageFleet};
use spider_tools::culling::{run_culling_campaign, CullingConfig};
use spider_tools::iosi::IoSignature;
use spider_tools::libpio::{Libpio, PlacementRequest};
use spider_tools::planner::{CapacityPlan, Project};
use spider_tools::scheduler::{dephasing_gain, schedule_offsets, SchedulerConfig};

/// libPIO's OST picks by a full sort of every OST, the ranking
/// `Libpio::suggest` used before it ranked only the best `2n`. Scores are
/// rebuilt from the load snapshot with the library's OSS weight of 0.5.
fn full_sort_suggest(lib: &Libpio, req: &PlacementRequest) -> Vec<usize> {
    let loads = lib.snapshot();
    let score = |o: usize| loads.ost[o] + 0.5 * loads.oss[lib.oss_of(o)];
    let n = req.n_osts.clamp(1, loads.ost.len());
    let mut ranked: Vec<usize> = (0..loads.ost.len()).collect();
    ranked.sort_by(|&a, &b| score(a).total_cmp(&score(b)).then(a.cmp(&b)));
    let threshold = score(ranked[n - 1]) * 1.5 + 1e-9;
    let mut picked = Vec::with_capacity(n);
    let mut used_oss = std::collections::BTreeSet::new();
    for &o in ranked.iter().take(2 * n) {
        if picked.len() == n || score(o) > threshold {
            break;
        }
        if used_oss.insert(lib.oss_of(o)) {
            picked.push(o);
        }
    }
    for &o in &ranked {
        if picked.len() == n {
            break;
        }
        if !picked.contains(&o) {
            picked.push(o);
        }
    }
    picked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The culling campaign always terminates, never replaces more disks
    /// than exist, and never lowers the fleet's mean group rate.
    #[test]
    fn culling_terminates_and_improves(seed in any::<u64>()) {
        let mut spec = FleetSpec::spider2();
        spec.ssus = 2;
        spec.ssu.groups = 6;
        let mut fleet = StorageFleet::sample(spec, &mut SimRng::seed_from_u64(seed));
        let before_mean = fleet.fleet_envelope().mean();
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC0FFEE);
        let report = run_culling_campaign(&mut fleet, &CullingConfig::default(), &mut rng);
        prop_assert!(report.total_replaced <= fleet.spec.total_disks());
        prop_assert!(report.rounds.len() <= CullingConfig::default().max_rounds);
        let after_mean = fleet.fleet_envelope().mean();
        prop_assert!(after_mean + 1e-6 >= before_mean);
        prop_assert!(report.sync_bandwidth_gain >= 0.999);
    }

    /// libPIO suggestions are always valid: distinct, in-range, requested
    /// count (clamped). They are also exactly the picks of a full sort of
    /// every OST, including under score ties (loads from a few repeated
    /// values) and when `2n >= N` keeps every OST.
    #[test]
    fn libpio_suggestions_valid(
        n_osts in 1usize..64,
        n_oss in 1usize..8,
        req in 1usize..80,
        loads in prop::collection::vec((0usize..64, 0.0f64..1e6), 0..30),
        tied in prop::collection::vec(
            (0usize..64, prop::sample::select(vec![1.0f64, 10.0, 100.0, 1e6])),
            0..60,
        ),
    ) {
        let mut lib = Libpio::new(n_osts, n_oss, 2);
        for (o, l) in loads.into_iter().chain(tied) {
            lib.record_ost_io(o % n_osts, l);
        }
        let request = PlacementRequest {
            n_osts: req,
            router_options: vec![0, 1],
        };
        let (picked, _) = lib.suggest(&request);
        prop_assert_eq!(picked.len(), req.min(n_osts));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), picked.len(), "distinct");
        prop_assert!(picked.iter().all(|&o| o < n_osts));
        prop_assert_eq!(picked, full_sort_suggest(&lib, &request));
    }

    /// Capacity plans assign every project and conserve totals.
    #[test]
    fn planner_conserves_projects(
        caps in prop::collection::vec(1u64..(1 << 45), 1..20),
        namespaces in 1usize..5,
    ) {
        let projects: Vec<Project> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| Project {
                name: format!("p{i}"),
                capacity: c,
                bandwidth: Bandwidth::gb_per_sec((i % 7 + 1) as f64 * 10.0),
            })
            .collect();
        let plan = CapacityPlan::balance(
            &projects,
            namespaces,
            1 << 50,
            Bandwidth::tb_per_sec(1.0),
        );
        prop_assert_eq!(plan.assignment.len(), projects.len());
        prop_assert!(plan.assignment.iter().all(|&n| n < namespaces));
        let total: u64 = plan.capacity_per_ns.iter().sum();
        prop_assert_eq!(total, caps.iter().sum::<u64>());
        prop_assert!(plan.capacity_imbalance() >= 0.0 && plan.capacity_imbalance() <= 1.0);
    }

    /// The scheduler never makes the peak worse than naive co-start, and
    /// offsets stay within each job's period.
    #[test]
    fn scheduler_never_hurts(
        jobs in prop::collection::vec(
            (60u64..1_800, 5u64..120, 1.0f64..1e4),
            1..6
        ),
    ) {
        let sigs: Vec<IoSignature> = jobs
            .iter()
            .map(|&(period_s, burst_s, vol)| IoSignature {
                period: SimDuration::from_secs(period_s),
                burst_duration: SimDuration::from_secs(burst_s.min(period_s)),
                burst_volume: vol,
                bursts_per_run: 5.0,
            })
            .collect();
        let cfg = SchedulerConfig::default();
        let (naive, scheduled) = dephasing_gain(&sigs, &cfg);
        prop_assert!(scheduled <= naive * 1.0001, "{scheduled} vs {naive}");
        let offsets = schedule_offsets(&sigs, &cfg);
        for (s, o) in sigs.iter().zip(&offsets) {
            prop_assert!(*o < s.period);
        }
    }
}
