//! Bench for E2 / Figure 3: the IOR transfer-size sweep.

use spider_bench::record::case;
use spider_core::center::Center;
use spider_core::config::{CenterConfig, Scale};
use spider_core::experiments::e02_transfer_size;
use spider_core::flowsim::{solve, FlowTest};
use spider_simkit::MIB;

const BENCH: &str = "fig3_transfer_size";

fn main() {
    case(BENCH, "experiment_e2_small", || {
        e02_transfer_size::run(Scale::Small)
    });

    // Single flow solve at both scales: the per-point cost of the sweep.
    let test = |clients| FlowTest {
        fs: 0,
        clients,
        transfer_size: MIB,
        write: true,
        optimal_placement: false,
    };
    let small = Center::build(CenterConfig::small());
    case(BENCH, "flow_solve_small_64_clients", || {
        solve(&small, &test(64))
    });
    let paper = Center::build(CenterConfig::spider2());
    case(BENCH, "flow_solve_paper_2000_clients", || {
        solve(&paper, &test(2_000))
    });
}
