//! Scalable parallel file tools (§VI-C, Lesson Learned 19).
//!
//! "There are other Linux tools inefficient at scale, such as copy (cp),
//! archive (tar), and query (find). These are single threaded commands,
//! designed to run on a single file system client." The OLCF/LLNL/LANL/DDN
//! collaboration produced parallel dcp, dtar and dfind; these are their
//! equivalents over the simulated namespace, with *real* work-stealing
//! parallelism (rayon) so the speedup the paper argues for is measurable
//! (experiment E12), alongside serial baselines.

use rayon::prelude::*;

use spider_pfs::namespace::{FileMeta, Inode, InodeId, InodeKind, Namespace, NsError};

/// Result of a tree walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// Files visited.
    pub files: u64,
    /// Directories visited (including the root).
    pub dirs: u64,
    /// Sum of file sizes.
    pub bytes: u64,
}

impl WalkStats {
    fn merge(self, other: WalkStats) -> WalkStats {
        WalkStats {
            files: self.files + other.files,
            dirs: self.dirs + other.dirs,
            bytes: self.bytes + other.bytes,
        }
    }
}

fn walk_rec(ns: &Namespace, id: InodeId) -> WalkStats {
    let node = ns.get(id);
    match &node.kind {
        InodeKind::File(meta) => WalkStats {
            files: 1,
            dirs: 0,
            bytes: meta.size,
        },
        InodeKind::Dir { children } => {
            // Grain control: fold files serially (trivial per-item work),
            // recurse into subdirectories in parallel (real work units).
            let mut local = WalkStats {
                files: 0,
                dirs: 1,
                bytes: 0,
            };
            let mut subdirs: Vec<InodeId> = Vec::new();
            for &c in children.values() {
                match ns.get(c).file() {
                    Some(meta) => {
                        local.files += 1;
                        local.bytes += meta.size;
                    }
                    None => subdirs.push(c),
                }
            }
            // spider-lint: allow(taint-path, reason = "WalkStats is a bag of u64 counters and merge is commutative and associative, so the reduction result is identical for every combination order rayon picks")
            let below = subdirs
                .par_iter()
                .map(|&c| walk_rec(ns, c))
                // spider-lint: allow(par-float-reduce, reason = "WalkStats holds u64 counters; merge is commutative and associative")
                .reduce(WalkStats::default, WalkStats::merge);
            local.merge(below)
        }
    }
}

/// Parallel tree walk (`dwalk`).
pub fn dwalk(ns: &Namespace, root: InodeId) -> WalkStats {
    walk_rec(ns, root)
}

/// Serial baseline walk (single-threaded `find .`-style traversal).
pub fn walk_serial(ns: &Namespace, root: InodeId) -> WalkStats {
    let mut stats = WalkStats::default();
    ns.visit(root, |node| match node.file() {
        Some(meta) => {
            stats.files += 1;
            stats.bytes += meta.size;
        }
        None => stats.dirs += 1,
    });
    stats
}

/// Parallel `du`: recursive byte total.
pub fn du_parallel(ns: &Namespace, root: InodeId) -> u64 {
    dwalk(ns, root).bytes
}

fn find_rec<P>(ns: &Namespace, id: InodeId, pred: &P, out: &mut Vec<InodeId>)
where
    P: Fn(&Inode) -> bool + Sync,
{
    let node = ns.get(id);
    if pred(node) {
        out.push(id);
    }
    if let InodeKind::Dir { children } = &node.kind {
        // Per-child map preserves DFS name order; rayon coalesces adjacent
        // cheap (file) items into chunks, so the parallel grain stays at
        // subtree level.
        let kids: Vec<InodeId> = children.values().copied().collect();
        // spider-lint: allow(taint-path, reason = "indexed collect places each child's matches at the child's position, and the sequential append below concatenates in DFS name order — scheduling order never reaches the result")
        let mut sub: Vec<Vec<InodeId>> = kids
            .par_iter()
            .map(|&c| {
                let child = ns.get(c);
                if child.is_dir() {
                    let mut v = Vec::new();
                    find_rec(ns, c, pred, &mut v);
                    v
                } else if pred(child) {
                    vec![c]
                } else {
                    Vec::new()
                }
            })
            .collect();
        for s in &mut sub {
            out.append(s);
        }
    }
}

/// Parallel `dfind`: every inode matching `pred`, in deterministic DFS
/// order.
pub fn dfind<P>(ns: &Namespace, root: InodeId, pred: P) -> Vec<InodeId>
where
    P: Fn(&Inode) -> bool + Sync,
{
    let mut out = Vec::new();
    find_rec(ns, root, &pred, &mut out);
    out
}

/// Serial `find` baseline.
pub fn find_serial<P>(ns: &Namespace, root: InodeId, pred: P) -> Vec<InodeId>
where
    P: Fn(&Inode) -> bool,
{
    let mut out = Vec::new();
    ns.visit(root, |node| {
        if pred(node) {
            out.push(node.id);
        }
    });
    out
}

/// Result of a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyStats {
    /// Files copied.
    pub files: u64,
    /// Directories created.
    pub dirs: u64,
    /// Bytes of file data copied.
    pub bytes: u64,
}

/// Parallel `dcp`: copy the subtree at `src_root` under `dst_dir`.
///
/// The expensive phase — walking the source and assembling the manifest —
/// runs in parallel; applying the manifest (metadata inserts) is serial,
/// mirroring real dcp where data movement parallelizes but each metadata
/// insert is an MDS RPC.
pub fn dcp(
    src: &Namespace,
    src_root: InodeId,
    dst: &mut Namespace,
    dst_dir: InodeId,
) -> Result<CopyStats, NsError> {
    let manifest = dtar_manifest(src, src_root);
    let mut stats = CopyStats {
        files: 0,
        dirs: 0,
        bytes: 0,
    };
    let dst_base = dst.path_of(dst_dir);
    for (rel, entry) in &manifest {
        let joined = if dst_base == "/" {
            format!("/{rel}")
        } else {
            format!("{dst_base}/{rel}")
        };
        match entry {
            None => {
                dst.mkdir_p(&joined)?;
                stats.dirs += 1;
            }
            Some(meta) => {
                let (dir_part, name) = joined.rsplit_once('/').expect("absolute path");
                let parent = if dir_part.is_empty() {
                    dst.root()
                } else {
                    dst.mkdir_p(dir_part)?
                };
                dst.create_file(parent, name, meta.clone())?;
                stats.files += 1;
                stats.bytes += meta.size;
            }
        }
    }
    Ok(stats)
}

/// Parallel `dtar`-style manifest: `(relative path, Some(meta) | None for
/// dirs)` for every inode under `root` (excluding the root itself), in
/// deterministic DFS order.
pub fn dtar_manifest(ns: &Namespace, root: InodeId) -> Vec<(String, Option<FileMeta>)> {
    fn rec(ns: &Namespace, id: InodeId, prefix: &str, out: &mut Vec<(String, Option<FileMeta>)>) {
        let node = ns.get(id);
        let path = if prefix.is_empty() {
            node.name.to_string()
        } else {
            format!("{prefix}/{}", node.name)
        };
        match &node.kind {
            InodeKind::File(meta) => out.push((path, Some(meta.clone()))),
            InodeKind::Dir { children } => {
                if !path.is_empty() {
                    out.push((path.clone(), None));
                }
                let kids: Vec<InodeId> = children.values().copied().collect();
                let mut sub: Vec<Vec<(String, Option<FileMeta>)>> = kids
                    .par_iter()
                    .map(|&c| {
                        let mut v = Vec::new();
                        rec(ns, c, &path, &mut v);
                        v
                    })
                    .collect();
                for s in &mut sub {
                    out.append(s);
                }
            }
        }
    }
    let mut out = Vec::new();
    rec(ns, root, "", &mut out);
    // The root directory's own entry (empty path) is excluded by
    // construction when root is a dir with an empty name; for a named root
    // we drop its own entry to copy *contents*.
    let root_name = ns.get(root).name.as_str();
    if !root_name.is_empty() {
        out.retain(|(p, _)| p != root_name);
        let prefix = format!("{root_name}/");
        for (p, _) in &mut out {
            if let Some(stripped) = p.strip_prefix(&prefix) {
                *p = stripped.to_owned();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_pfs::layout::StripeLayout;
    use spider_pfs::ost::OstId;
    use spider_simkit::SimTime;

    fn meta(size: u64) -> FileMeta {
        FileMeta {
            size,
            atime: SimTime::ZERO,
            mtime: SimTime::ZERO,
            ctime: SimTime::ZERO,
            stripe: StripeLayout::new(vec![OstId(0)]),
            project: 0,
        }
    }

    fn big_tree(dirs: usize, files_per_dir: usize) -> Namespace {
        let mut ns = Namespace::new();
        for d in 0..dirs {
            let dir = ns.mkdir_p(&format!("/data/run{d}")).unwrap();
            for f in 0..files_per_dir {
                ns.create_file(dir, &format!("f{f:05}"), meta((f as u64 + 1) * 1024))
                    .unwrap();
            }
        }
        ns
    }

    #[test]
    fn parallel_walk_matches_serial() {
        let ns = big_tree(32, 200);
        let par = dwalk(&ns, ns.root());
        let ser = walk_serial(&ns, ns.root());
        assert_eq!(par, ser);
        assert_eq!(par.files, 32 * 200);
        assert_eq!(par.dirs, 1 + 1 + 32); // root + /data + runs
        assert_eq!(par.bytes, ns.total_bytes());
    }

    #[test]
    fn du_parallel_equals_namespace_du() {
        let ns = big_tree(8, 100);
        let data = ns.lookup("/data").unwrap();
        assert_eq!(du_parallel(&ns, data), ns.du(data));
    }

    #[test]
    fn dfind_matches_serial_find_in_order() {
        let ns = big_tree(16, 50);
        let pred = |n: &Inode| n.file().is_some_and(|m| m.size > 40 * 1024);
        let par = dfind(&ns, ns.root(), pred);
        let ser = find_serial(&ns, ns.root(), pred);
        assert_eq!(par, ser);
        assert_eq!(par.len(), 16 * 10); // sizes 41..=50 KiB per dir
    }

    #[test]
    fn dcp_copies_structure_and_bytes() {
        let src = big_tree(4, 25);
        let src_data = src.lookup("/data").unwrap();
        let mut dst = Namespace::new();
        let backup = dst.mkdir_p("/backup").unwrap();
        let stats = dcp(&src, src_data, &mut dst, backup).unwrap();
        assert_eq!(stats.files, 100);
        assert_eq!(stats.bytes, src.du(src_data));
        assert_eq!(dst.du(dst.lookup("/backup").unwrap()), src.du(src_data));
        // Structure preserved.
        assert!(dst.lookup("/backup/run3/f00024").is_some());
        assert!(dst.lookup("/backup/run4").is_none());
    }

    #[test]
    fn dcp_into_root_works() {
        let src = big_tree(2, 3);
        let src_data = src.lookup("/data").unwrap();
        let mut dst = Namespace::new();
        let root = dst.root();
        let stats = dcp(&src, src_data, &mut dst, root).unwrap();
        assert_eq!(stats.files, 6);
        assert!(dst.lookup("/run0/f00000").is_some());
    }

    #[test]
    fn manifest_is_deterministic_and_relative() {
        let ns = big_tree(3, 4);
        let data = ns.lookup("/data").unwrap();
        let m1 = dtar_manifest(&ns, data);
        let m2 = dtar_manifest(&ns, data);
        assert_eq!(m1, m2);
        assert!(m1.iter().any(|(p, e)| p == "run0" && e.is_none()));
        assert!(m1.iter().any(|(p, e)| p == "run2/f00003" && e.is_some()));
        assert_eq!(m1.len(), 3 + 12);
    }

    #[test]
    fn parallel_walk_is_not_slower_at_scale() {
        // The LL19 claim, measured for real: on a multi-core box the
        // work-stealing walk should at minimum not lose to serial. (The
        // bench harness measures the actual speedup.)
        let ns = big_tree(64, 400); // 25,600 files
                                    // spider-lint: allow(wall-clock, reason = "test measures real parallel speedup")
        let t0 = std::time::Instant::now();
        let ser = walk_serial(&ns, ns.root());
        let serial_time = t0.elapsed();
        // spider-lint: allow(wall-clock, reason = "test measures real parallel speedup")
        let t1 = std::time::Instant::now();
        let par = dwalk(&ns, ns.root());
        let parallel_time = t1.elapsed();
        assert_eq!(ser, par);
        assert!(
            parallel_time < serial_time * 3,
            "parallel {parallel_time:?} vs serial {serial_time:?}"
        );
    }
}
