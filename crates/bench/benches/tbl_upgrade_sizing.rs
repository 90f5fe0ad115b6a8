//! Bench for E9 (controller upgrade) and E10 (sizing rules).

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::{e09_upgrade, e10_sizing};

const BENCH: &str = "tbl_upgrade_sizing";

fn main() {
    case(BENCH, "experiment_e9_small", || {
        e09_upgrade::run(Scale::Small)
    });
    case(BENCH, "experiment_e9_paper", || {
        e09_upgrade::run(Scale::Paper)
    });
    case(BENCH, "experiment_e10_small", || {
        e10_sizing::run(Scale::Small)
    });
}
