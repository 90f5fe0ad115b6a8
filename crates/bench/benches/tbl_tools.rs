//! Bench for E12: scalable tools — the real serial-vs-parallel speedup of
//! the LL19 argument, measured on this machine's cores.

use spider_bench::record::case;
use spider_core::config::Scale;
use spider_core::experiments::e12_tools;
use spider_pfs::layout::StripeLayout;
use spider_pfs::namespace::{FileMeta, Namespace};
use spider_pfs::ost::OstId;
use spider_simkit::SimTime;
use spider_tools::lustredu::DuDatabase;
use spider_tools::ptools::{dwalk, walk_serial};

const BENCH: &str = "tbl_tools";

fn big_tree(dirs: usize, files_per_dir: usize) -> Namespace {
    let mut ns = Namespace::new();
    for d in 0..dirs {
        let dir = ns.mkdir_p(&format!("/p/run{d}")).unwrap();
        for f in 0..files_per_dir {
            ns.create_file(
                dir,
                &format!("f{f:05}"),
                FileMeta {
                    size: (f as u64 + 1) * 4096,
                    atime: SimTime::ZERO,
                    mtime: SimTime::ZERO,
                    ctime: SimTime::ZERO,
                    stripe: StripeLayout::new(vec![OstId((f % 64) as u32)]),
                    project: d as u32,
                },
            )
            .unwrap();
        }
    }
    ns
}

fn main() {
    case(BENCH, "experiment_e12_small", || {
        e12_tools::run(Scale::Small)
    });
    let ns = big_tree(128, 1_000); // 128k files
    case(BENCH, "walk_serial_128k_files", || {
        walk_serial(&ns, ns.root())
    });
    case(BENCH, "dwalk_parallel_128k_files", || dwalk(&ns, ns.root()));
    case(BENCH, "lustredu_build_128k_files", || {
        DuDatabase::build(&ns, SimTime::ZERO)
    });
}
