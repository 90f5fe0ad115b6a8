//! The automatic purge.
//!
//! §IV-C: "Files that are not created, modified, or accessed within a
//! contiguous 14 day range are deleted by an automated process. This
//! mechanism allows for automatic capacity trimming." Keeping fullness below
//! the 70% degradation knee is the whole point (Lesson Learned 10).
//!
//! A sweep visits only its victims: it drains the namespace's last-activity
//! index below `now - window` (see [`crate::namespace`]) instead of walking
//! the tree, and unlinks the victims in ascending inode-id order, a pure
//! function of the namespace. [`PurgeReport::scanned`] still counts what a
//! full sweep would examine, the live files when the sweep starts.

use spider_simkit::{SimDuration, SimTime};

use crate::fs::FileSystem;

/// The production purge window.
pub const PURGE_WINDOW: SimDuration = SimDuration::from_days(14);

/// Outcome of one purge sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurgeReport {
    /// Files examined: the live files when the sweep starts.
    pub scanned: u64,
    /// Files deleted.
    pub deleted: u64,
    /// Bytes released back to the OSTs.
    pub bytes_freed: u64,
    /// Fullness before the sweep.
    pub fullness_before_milli: u32,
    /// Fullness after the sweep.
    pub fullness_after_milli: u32,
}

/// Sweep the namespace at time `now`, deleting every file whose last
/// activity (newest of atime/mtime/ctime) is older than `window`.
pub fn purge(fs: &mut FileSystem, now: SimTime, window: SimDuration) -> PurgeReport {
    let before = (fs.fullness() * 1000.0) as u32;
    let scanned = fs.ns.file_count();
    // Older than the window: `now.since(t) > window`, so `t < now - window`.
    // Before the first full window nothing is old enough.
    let victims = match now.0.checked_sub(window.0) {
        Some(cutoff) => fs.ns.take_inactive(SimTime(cutoff)),
        None => Vec::new(),
    };
    let mut bytes_freed = 0u64;
    let deleted = victims.len() as u64;
    for v in victims {
        bytes_freed += fs.unlink(v).expect("victim is a file");
    }
    fs.ns.debug_check();
    PurgeReport {
        scanned,
        deleted,
        bytes_freed,
        fullness_before_milli: before,
        fullness_after_milli: (fs.fullness() * 1000.0) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FileSystem, FsConfig};
    use crate::mds::MdsCluster;
    use crate::namespace::InodeId;
    use spider_simkit::{SimRng, MIB};
    use spider_storage::disk::{Disk, DiskId, DiskSpec};
    use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};

    fn fs() -> FileSystem {
        let cfg = RaidConfig::raid6_8p2();
        let groups = (0..2u32)
            .map(|g| {
                let members = (0..cfg.width())
                    .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                    .collect();
                RaidGroup::new(RaidGroupId(g), cfg, members)
            })
            .collect();
        let mut c = FsConfig::spider2("t");
        c.n_oss = 1;
        FileSystem::build(c, groups, MdsCluster::single())
    }

    fn day(d: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(d)
    }

    #[test]
    fn purge_deletes_only_stale_files() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(1);
        let dir = fs.ns.mkdir_p("/scratch").unwrap();
        let old = fs.create(dir, "old", 1, 0, day(0), &mut rng).unwrap();
        fs.append(old, 4 * MIB, day(0)).unwrap();
        let fresh = fs.create(dir, "fresh", 1, 0, day(20), &mut rng).unwrap();
        fs.append(fresh, 2 * MIB, day(20)).unwrap();

        let report = purge(&mut fs, day(21), PURGE_WINDOW);
        assert_eq!(report.scanned, 2);
        assert_eq!(report.deleted, 1);
        assert_eq!(report.bytes_freed, 4 * MIB);
        assert!(fs.ns.lookup("/scratch/old").is_none());
        assert!(fs.ns.lookup("/scratch/fresh").is_some());
    }

    #[test]
    fn recent_access_saves_a_file() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(2);
        let dir = fs.ns.root();
        let f = fs.create(dir, "paper.dat", 1, 0, day(0), &mut rng).unwrap();
        fs.append(f, MIB, day(0)).unwrap();
        // Read it on day 15: atime refreshes.
        fs.read(f, day(15)).unwrap();
        let report = purge(&mut fs, day(22), PURGE_WINDOW);
        assert_eq!(report.deleted, 0, "accessed within 14 days");
        // Without further activity, day 30 kills it.
        let report = purge(&mut fs, day(30), PURGE_WINDOW);
        assert_eq!(report.deleted, 1);
    }

    #[test]
    fn exact_boundary_is_kept() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(3);
        let f = fs
            .create(fs.ns.root(), "edge", 1, 0, day(0), &mut rng)
            .unwrap();
        let _ = f;
        // Exactly 14 days old: not *older than* the window -> kept.
        let report = purge(&mut fs, day(14), PURGE_WINDOW);
        assert_eq!(report.deleted, 0);
    }

    #[test]
    fn purge_releases_ost_space() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(4);
        let dir = fs.ns.root();
        for i in 0..10 {
            let f = fs
                .create(dir, &format!("f{i}"), 2, 0, day(0), &mut rng)
                .unwrap();
            fs.append(f, 8 * MIB, day(0)).unwrap();
        }
        let used_before = fs.used();
        assert_eq!(used_before, 80 * MIB);
        let report = purge(&mut fs, day(30), PURGE_WINDOW);
        assert_eq!(report.deleted, 10);
        assert_eq!(fs.used(), 0);
        assert!(report.fullness_after_milli <= report.fullness_before_milli);
    }

    #[test]
    fn empty_namespace_is_fine() {
        let mut fs = fs();
        let report = purge(&mut fs, day(100), PURGE_WINDOW);
        assert_eq!(report.scanned, 0);
        assert_eq!(report.deleted, 0);
    }

    /// Set all three timestamps, so the last activity can move backwards.
    fn touch(fs: &mut FileSystem, f: InodeId, t: SimTime) {
        fs.ns
            .update_file(f, |m| {
                m.atime = t;
                m.mtime = t;
                m.ctime = t;
            })
            .unwrap();
    }

    #[test]
    fn activity_moved_backwards_is_purged_at_its_new_time() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(5);
        let f = fs
            .create(fs.ns.root(), "f", 1, 0, day(20), &mut rng)
            .unwrap();
        touch(&mut fs, f, day(1));
        let report = purge(&mut fs, day(16), PURGE_WINDOW);
        assert_eq!((report.scanned, report.deleted), (1, 1));
        assert_eq!(fs.ns.file_count(), 0);
    }

    #[test]
    fn activity_returning_to_an_earlier_time_is_purged_once() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(6);
        let f = fs
            .create(fs.ns.root(), "f", 1, 0, day(1), &mut rng)
            .unwrap();
        fs.append(f, MIB, day(1)).unwrap();
        // t1 -> t2 -> t1: the file sits in day 1's bucket twice.
        touch(&mut fs, f, day(3));
        touch(&mut fs, f, day(1));
        // Day 3's bucket is stale: at day 17 the file is 16 days old.
        let report = purge(&mut fs, day(17), PURGE_WINDOW);
        assert_eq!((report.deleted, report.bytes_freed), (1, MIB));
        assert_eq!(fs.used(), 0);
    }

    #[test]
    fn moved_forward_activity_survives_its_old_bucket() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(7);
        let f = fs
            .create(fs.ns.root(), "f", 1, 0, day(0), &mut rng)
            .unwrap();
        fs.read(f, day(10)).unwrap();
        // Day 0's bucket drains, but the file's activity is day 10.
        assert_eq!(purge(&mut fs, day(20), PURGE_WINDOW).deleted, 0);
        assert_eq!(purge(&mut fs, day(25), PURGE_WINDOW).deleted, 1);
    }

    #[test]
    fn an_id_reused_at_the_same_time_is_purged_once() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(8);
        let root = fs.ns.root();
        let old = fs.create(root, "old", 1, 0, day(2), &mut rng).unwrap();
        fs.unlink(old).unwrap();
        let new = fs.create(root, "new", 1, 0, day(2), &mut rng).unwrap();
        assert_eq!(old, new, "the freed slot is reused");
        let report = purge(&mut fs, day(30), PURGE_WINDOW);
        assert_eq!((report.scanned, report.deleted), (1, 1));
    }

    #[test]
    fn an_id_reused_by_a_directory_is_not_a_victim() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(9);
        let root = fs.ns.root();
        let f = fs.create(root, "f", 1, 0, day(0), &mut rng).unwrap();
        fs.unlink(f).unwrap();
        assert_eq!(fs.ns.mkdir(root, "d").unwrap(), f);
        let report = purge(&mut fs, day(30), PURGE_WINDOW);
        assert_eq!((report.scanned, report.deleted), (0, 0));
        assert_eq!(fs.ns.lookup("/d"), Some(f));
    }

    #[test]
    fn now_earlier_than_the_window_purges_nothing() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(10);
        fs.create(fs.ns.root(), "f", 1, 0, day(0), &mut rng)
            .unwrap();
        let report = purge(&mut fs, day(3), PURGE_WINDOW);
        assert_eq!((report.scanned, report.deleted), (1, 0));
        // A zero window purges anything strictly older than `now`.
        let report = purge(&mut fs, day(3), SimDuration::ZERO);
        assert_eq!(report.deleted, 1);
    }

    #[test]
    fn victims_are_unlinked_in_ascending_id_order() {
        let mut fs = fs();
        let mut rng = SimRng::seed_from_u64(11);
        let root = fs.ns.root();
        // Ids ascend with creation while names and activity times descend,
        // so both name order and bucket order would unlink the newest id
        // first.
        let ids: Vec<InodeId> = (0..4)
            .map(|i| {
                let name = format!("f{}", 9 - i);
                fs.create(root, &name, 1, 0, day(3 - i), &mut rng).unwrap()
            })
            .collect();
        purge(&mut fs, day(30), PURGE_WINDOW);
        // The free list hands the ids back in reverse unlink order.
        let reused: Vec<InodeId> = (0..4)
            .map(|i| {
                fs.create(root, &format!("g{i}"), 1, 0, day(30), &mut rng)
                    .unwrap()
            })
            .collect();
        let mut expected = ids;
        expected.reverse();
        assert_eq!(reused, expected);
    }
}
