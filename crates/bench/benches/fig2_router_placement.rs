//! Bench for E1 / Figure 2: the router-placement + FGR congestion study,
//! plus the FGR-vs-baseline assignment ablation at production scale.

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e01_router_placement;
use spider_net::fgr::{assign, AssignmentPolicy};
use spider_net::gemini::TitanGeometry;
use spider_net::lnet::{ModulePlacement, RouterGroupId, RouterSet};
use spider_simkit::SimRng;

const BENCH: &str = "fig2_router_placement";

fn main() {
    case(BENCH, "experiment_e1_small", || {
        e01_router_placement::run(Scale::Small)
    });

    // Ablation: FGR vs naive assignment cost at full Titan scale.
    let geometry = TitanGeometry::titan();
    let mut rng = SimRng::seed_from_u64(1);
    let routers = RouterSet::titan_production(&geometry, ModulePlacement::SpreadBands, &mut rng);
    let clients: Vec<_> = (0..4_000u32)
        .map(|i| {
            (
                geometry.torus.coord_of(rng.index(geometry.torus.nodes())),
                RouterGroupId(i % 36),
            )
        })
        .collect();
    for policy in [AssignmentPolicy::Fgr, AssignmentPolicy::RoundRobin] {
        let mut r = SimRng::seed_from_u64(2);
        case(BENCH, &format!("assign_{policy:?}_4k_clients"), || {
            assign(policy, &geometry, &routers, &clients, &mut r)
        });
    }
}
