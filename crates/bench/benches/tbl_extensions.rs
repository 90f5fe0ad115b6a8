//! Bench for the extension experiments: E16 (reliability), E17
//! (I/O-aware scheduling), E18 (release testing + create storm).

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::{e16_reliability, e17_scheduling, e18_release_testing};
use spider_core::rpcsim::run_create_storm;
use spider_pfs::mds::MdsCluster;
use spider_simkit::SimRng;
use spider_storage::reliability::{run_reliability, ReliabilityConfig};

const BENCH: &str = "tbl_extensions";

fn main() {
    case(BENCH, "experiment_e16_small", || {
        e16_reliability::run(Scale::Small)
    });
    case(BENCH, "experiment_e17_small", || {
        e17_scheduling::run(Scale::Small)
    });
    case(BENCH, "experiment_e18", || {
        e18_release_testing::run(Scale::Small)
    });
    // One year of the full 2,016-group fleet's failures.
    case(BENCH, "reliability_year_full_fleet", || {
        let mut rng = SimRng::seed_from_u64(1);
        run_reliability(&ReliabilityConfig::spider2(), &mut rng)
    });
    // The Titan-wide create storm.
    case(BENCH, "create_storm_18688_clients", || {
        run_create_storm(&MdsCluster::single(), 18_688)
    });
}
