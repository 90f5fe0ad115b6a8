//! E12 — §VI-C / LL19: scalable tools vs stock Linux tools.
//!
//! Two comparisons:
//!
//! - **`du` vs LustreDU**: the metadata cost of a client-side `du` over a
//!   populated project tree (one MDS stat per inode plus per-stripe OST
//!   glimpses) against the free query into the daily server-side database.
//! - **serial vs parallel tree tools**: `find`/walk and the `dcp` manifest
//!   phase, serial vs rayon work-stealing — real wall-clock on this
//!   machine.

use std::fmt::Write as _;
// spider-lint: allow(wall-clock, reason = "E12b reports measured tool wall time, labelled 'this machine'")
use std::time::Instant;

use spider_obs::PhaseTimer;
use spider_pfs::layout::StripeLayout;
use spider_pfs::mds::MdsCluster;
use spider_pfs::namespace::{FileMeta, Namespace};
use spider_pfs::ost::OstId;
use spider_simkit::SimTime;
use spider_tools::lustredu::{client_du_cost, DuDatabase};
use spider_tools::ptools::{dfind, dwalk, find_serial, walk_serial};

use crate::config::Scale;
use crate::report::Table;

/// E12's project tree: `dirs` run directories under `/proj`, each holding
/// `files_per_dir` files of 1-100 MiB striped over 4 of 64 OSTs, all at
/// time zero.
pub fn build_tree(dirs: usize, files_per_dir: usize) -> Namespace {
    let mut ns = Namespace::new();
    // One buffer for every path and name: a file's name costs no
    // allocation, and a `Name` copies it inline.
    let mut name = String::new();
    for d in 0..dirs {
        name.clear();
        write!(name, "/proj/run{d}").expect("writing to a String cannot fail");
        let dir = ns.mkdir_p(&name).expect("/proj tree paths are well-formed");
        for f in 0..files_per_dir {
            name.clear();
            write!(name, "f{f:06}").expect("writing to a String cannot fail");
            let osts: [OstId; 4] = std::array::from_fn(|s| OstId((f as u32 + s as u32) % 64));
            ns.create_file(
                dir,
                &name,
                FileMeta {
                    size: ((f % 100) as u64 + 1) << 20,
                    atime: SimTime::ZERO,
                    mtime: SimTime::ZERO,
                    ctime: SimTime::ZERO,
                    stripe: StripeLayout::from_slice(&osts),
                    project: d as u32,
                },
            )
            .expect("file names are unique within their run dir");
        }
    }
    ns
}

/// Run E12.
pub fn run(scale: Scale) -> Vec<Table> {
    let (dirs, files) = match scale {
        Scale::Paper => (256, 2_000),
        Scale::Small => (64, 500),
    };
    // Wall-time sub-phases, recorded only in the obs manifest's `wall`
    // section: building the tree, every walk over it, and freeing it.
    let build = PhaseTimer::start("exp:E12/build");
    let ns = build_tree(dirs, files);
    drop(build);
    let walks = PhaseTimer::start("exp:E12/walks");
    let mds = MdsCluster::single();

    // du vs LustreDU.
    let mut du_table = Table::new(
        "E12a: client-side du vs LustreDU (server-side daily aggregation)",
        &[
            "tool",
            "MDS stat ops",
            "OST glimpses",
            "MDS busy (s)",
            "answer",
        ],
    );
    let root = ns.lookup("/proj").expect("tree was built under /proj");
    let cost = client_du_cost(&ns, root, &mds, 25_000.0);
    du_table.row(vec![
        "client du".into(),
        cost.mds_stats.to_string(),
        cost.ost_glimpses.to_string(),
        format!("{:.1}", cost.duration.as_secs_f64()),
        ns.du(root).to_string(),
    ]);
    let db = DuDatabase::build(&ns, SimTime::ZERO);
    du_table.row(vec![
        "LustreDU query".into(),
        "0".into(),
        "0".into(),
        "0.0".into(),
        db.query(root)
            .expect("DuDatabase indexes every directory")
            .to_string(),
    ]);

    // Serial vs parallel tools (real time, best of 3).
    let mut tool_table = Table::new(
        "E12b: serial vs parallel tree tools (wall-clock, this machine)",
        &["tool", "serial ms", "parallel ms", "speedup", "result"],
    );
    let best_of = |f: &dyn Fn() -> u64| -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut out = 0;
        for _ in 0..3 {
            // spider-lint: allow(wall-clock, reason = "E12b reports measured tool wall time, labelled 'this machine'")
            let t = Instant::now();
            out = f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        (best, out)
    };
    let (ser_ms, ser_files) = best_of(&|| walk_serial(&ns, ns.root()).files);
    let (par_ms, par_files) = best_of(&|| dwalk(&ns, ns.root()).files);
    assert_eq!(ser_files, par_files);
    tool_table.row(vec![
        "walk (find .)".into(),
        format!("{ser_ms:.1}"),
        format!("{par_ms:.1}"),
        format!("{:.2}x", ser_ms / par_ms),
        format!("{ser_files} files"),
    ]);
    let pred = |n: &spider_pfs::namespace::Inode| n.file().is_some_and(|m| m.size > 90 << 20);
    let (fser_ms, fser) = best_of(&|| find_serial(&ns, ns.root(), pred).len() as u64);
    let (fpar_ms, fpar) = best_of(&|| dfind(&ns, ns.root(), pred).len() as u64);
    assert_eq!(fser, fpar);
    tool_table.row(vec![
        "find (size>90MiB)".into(),
        format!("{fser_ms:.1}"),
        format!("{fpar_ms:.1}"),
        format!("{:.2}x", fser_ms / fpar_ms),
        format!("{fser} matches"),
    ]);
    drop(walks);
    let free = PhaseTimer::start("exp:E12/free");
    drop(ns);
    drop(free);

    super::trace::experiment("E12", 1, 2);
    vec![du_table, tool_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12a_lustredu_answers_match_and_cost_nothing() {
        let tables = run(Scale::Small);
        let du = &tables[0];
        assert_eq!(du.rows[0][4], du.rows[1][4], "answers agree");
        assert_eq!(du.rows[1][1], "0", "zero MDS ops for the query");
        let stats: u64 = du.rows[0][1].parse().unwrap();
        assert!(stats > 30_000, "client du stats every inode: {stats}");
    }

    #[test]
    fn e12b_parallel_tools_agree_with_serial() {
        let tables = run(Scale::Small);
        let tools = &tables[1];
        assert_eq!(tools.len(), 2);
        for row in &tools.rows {
            let speedup: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(speedup > 0.2, "sanity: {row:?}");
        }
    }
}
