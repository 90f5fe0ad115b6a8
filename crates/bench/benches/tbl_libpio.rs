//! Bench for E6: libPIO placement — the suggestion path itself and the
//! end-to-end experiment.

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e06_libpio;
use spider_tools::libpio::{Libpio, PlacementRequest};

const BENCH: &str = "tbl_libpio";

fn main() {
    case(BENCH, "experiment_e6_small", || {
        e06_libpio::run(Scale::Small)
    });
    // Spider II-sized suggestion: 2,016 OSTs, 288 OSS.
    let mut lib = Libpio::new(2_016, 288, 440);
    for o in 0..600 {
        lib.record_ost_io(o * 3, (o % 17) as f64 * 10.0);
    }
    let req = PlacementRequest {
        n_osts: 8,
        router_options: (0..12).collect(),
    };
    case(BENCH, "suggest_8_of_2016_osts", || lib.suggest(&req));
}
