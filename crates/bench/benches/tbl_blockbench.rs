//! Bench for E15: the acquisition benchmark suite (fair-lio sweep and the
//! obdfilter survey) over one SSU.

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e15_blockbench;
use spider_simkit::SimRng;
use spider_storage::blockbench::BlockSweep;
use spider_storage::ssu::{Ssu, SsuId, SsuSpec};

const BENCH: &str = "tbl_blockbench";

fn main() {
    case(BENCH, "experiment_e15_small", || {
        e15_blockbench::run(Scale::Small)
    });
    // The full fair-lio cartesian product over a full 56-group SSU.
    let mut rng = SimRng::seed_from_u64(1);
    let ssu = Ssu::sample(SsuId(0), &SsuSpec::spider2(), 0, &mut rng);
    case(BENCH, "fairlio_sweep_full_ssu_168_points", || {
        BlockSweep::acquisition().run_ssu(&ssu)
    });
}
