//! Bench for E8: namespace strategy, fullness and purge — plus the
//! stripe-count stat-cost ablation from DESIGN.md (Lustre best practices).

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e08_namespaces;
use spider_pfs::layout::StripeLayout;
use spider_pfs::namespace::{FileMeta, Namespace};
use spider_pfs::ost::OstId;
use spider_simkit::SimTime;

const BENCH: &str = "tbl_namespaces";

fn populated(stripe_count: u32, files: usize) -> Namespace {
    let mut ns = Namespace::new();
    let dir = ns.mkdir_p("/proj").unwrap();
    for f in 0..files {
        ns.create_file(
            dir,
            &format!("f{f}"),
            FileMeta {
                size: 64 << 20,
                atime: SimTime::ZERO,
                mtime: SimTime::ZERO,
                ctime: SimTime::ZERO,
                stripe: StripeLayout::new((0..stripe_count).map(OstId).collect()),
                project: 0,
            },
        )
        .unwrap();
    }
    ns
}

fn stat_storm_cost(ns: &Namespace) -> u64 {
    // One MDS stat per inode + one glimpse per stripe object.
    let mut ops = 0u64;
    ns.visit(ns.root(), |n| {
        ops += 1;
        if let Some(m) = n.file() {
            ops += m.stripe.stat_fanout(m.size) as u64;
        }
    });
    ops
}

fn main() {
    case(BENCH, "experiment_e8_small", || {
        e08_namespaces::run(Scale::Small)
    });
    // Ablation: stat cost by stripe count (the §VII best practice).
    for stripes in [1u32, 4, 16] {
        let ns = populated(stripes, 20_000);
        case(
            BENCH,
            &format!("stat_storm_20k_files_stripe{stripes}"),
            || stat_storm_cost(&ns),
        );
    }
}
