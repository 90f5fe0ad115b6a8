//! Bench for E4: the slow-disk culling campaign, plus the threshold
//! ablation (5% vs 7.5% vs none) called out in DESIGN.md.

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e04_culling;
use spider_simkit::SimRng;
use spider_storage::fleet::{FleetSpec, StorageFleet};
use spider_tools::culling::{run_culling_campaign, CullingConfig};

const BENCH: &str = "tbl_culling";

fn small_fleet(seed: u64) -> StorageFleet {
    let mut spec = FleetSpec::spider2();
    spec.ssus = 4;
    spec.ssu.groups = 14;
    StorageFleet::sample(spec, &mut SimRng::seed_from_u64(seed))
}

fn main() {
    case(BENCH, "experiment_e4_small", || {
        e04_culling::run(Scale::Small)
    });
    for (name, tol) in [("5pct", 0.05), ("7_5pct", 0.075), ("none", 1.0)] {
        case(BENCH, &format!("campaign_560_disks_tol_{name}"), || {
            let mut fleet = small_fleet(7);
            let cfg = CullingConfig {
                intra_ssu_tolerance: tol,
                fleet_tolerance: tol,
                ..CullingConfig::default()
            };
            let mut rng = SimRng::seed_from_u64(8);
            run_culling_campaign(&mut fleet, &cfg, &mut rng)
        });
    }
}
