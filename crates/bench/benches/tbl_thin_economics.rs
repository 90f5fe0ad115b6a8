//! Bench for E13 (thin file system QA) and E14 (center economics).

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::{e13_thin_fs, e14_economics};

const BENCH: &str = "tbl_thin_economics";

fn main() {
    case(BENCH, "experiment_e13", || e13_thin_fs::run(Scale::Small));
    case(BENCH, "experiment_e14", || e14_economics::run(Scale::Small));
}
