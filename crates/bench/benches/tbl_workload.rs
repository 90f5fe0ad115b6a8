//! Bench for E5 and E7's background: workload generation and
//! characterization throughput.

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e05_workload;
use spider_simkit::{SimDuration, SimRng};
use spider_workload::characterize::Tally;
use spider_workload::mix::CenterWorkload;

const BENCH: &str = "tbl_workload";

fn main() {
    case(BENCH, "experiment_e5_small", || {
        e05_workload::run(Scale::Small)
    });
    case(BENCH, "generate_production_mix_10min", || {
        let mut rng = SimRng::seed_from_u64(1);
        CenterWorkload::olcf_production().generate(SimDuration::from_mins(10), &mut rng)
    });
    // E7's background: only the analytics and visualization streams of one
    // hour-long application run.
    case(BENCH, "generate_e7_background_streams_1h", || {
        let mut rng = SimRng::seed_from_u64(1);
        CenterWorkload::olcf_production().generate_streams(
            SimDuration::from_hours(1),
            &mut rng,
            48..76,
            |t| t,
        )
    });
    // E5's path: every stream tallied as it is generated, the tallies
    // collected in client order and finished.
    case(BENCH, "generate_and_tally_production_mix_10min", || {
        let wl = CenterWorkload::olcf_production();
        let mut rng = SimRng::seed_from_u64(2);
        wl.generate_streams(
            SimDuration::from_mins(10),
            &mut rng,
            0..wl.total_streams(),
            |stream| stream.iter().collect::<Tally>(),
        )
        .into_iter()
        .collect::<Tally>()
        .finish()
    });
}
