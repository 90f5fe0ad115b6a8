//! Bench for E11: the 2010 incident replay (both enclosure wirings).

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e11_incident;
use spider_simkit::SimRng;
use spider_storage::disk::DiskPopulationSpec;
use spider_storage::enclosure::{EnclosureId, EnclosureLayout, EnclosureSet};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};

const BENCH: &str = "tbl_incident";

fn main() {
    case(BENCH, "experiment_e11_small", || {
        e11_incident::run(Scale::Small)
    });
    // The core fault-propagation step at controller-pair scale (56 groups).
    case(BENCH, "enclosure_offline_56_groups", || {
        let mut rng = SimRng::seed_from_u64(1);
        let pop = DiskPopulationSpec::default();
        let cfg = RaidConfig::raid6_8p2();
        let mut groups: Vec<RaidGroup> = (0..56u32)
            .map(|i| RaidGroup::sample(RaidGroupId(i), cfg, &pop, i * 10, &mut rng))
            .collect();
        let mut set = EnclosureSet::new(EnclosureLayout::spider1());
        set.take_offline(EnclosureId(0), &mut groups)
    });
}
