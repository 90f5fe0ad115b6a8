//! Bench for E3 / Figure 4: the IOR client-count sweep, including the
//! full 13,000-client paper-scale solve.

use spider_bench::record::case;
use spider_core::center::Center;
use spider_core::config::{CenterConfig, Scale};
use spider_core::experiments::e03_client_scaling;
use spider_core::flowsim::{solve, FlowTest};
use spider_simkit::MIB;

const BENCH: &str = "fig4_client_scaling";

fn main() {
    case(BENCH, "experiment_e3_small", || {
        e03_client_scaling::run(Scale::Small)
    });
    let paper = Center::build(CenterConfig::spider2());
    let test = FlowTest {
        fs: 0,
        clients: 13_000,
        transfer_size: MIB,
        write: true,
        optimal_placement: false,
    };
    case(BENCH, "flow_solve_paper_13000_clients", || {
        solve(&paper, &test)
    });
}
