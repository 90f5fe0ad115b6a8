//! Property-based tests for the file system layer.

use std::collections::BTreeMap;

use proptest::prelude::*;
use spider_pfs::fs::{FileSystem, FsConfig};
use spider_pfs::layout::StripeLayout;
use spider_pfs::mds::MdsCluster;
use spider_pfs::namespace::{FileMeta, InodeId, Namespace};
use spider_pfs::ost::OstId;
use spider_pfs::purge::{purge, PurgeReport, PURGE_WINDOW};
use spider_simkit::{SimDuration, SimRng, SimTime};
use spider_storage::disk::{Disk, DiskId, DiskSpec};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};

fn small_fs(n_osts: u32) -> FileSystem {
    let cfg = RaidConfig::raid6_8p2();
    let groups = (0..n_osts)
        .map(|g| {
            let members = (0..cfg.width())
                .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                .collect();
            RaidGroup::new(RaidGroupId(g), cfg, members)
        })
        .collect();
    let mut c = FsConfig::spider2("prop");
    c.n_oss = 1;
    FileSystem::build(c, groups, MdsCluster::single())
}

/// The full-tree purge: visit every file and take those whose last
/// activity is older than the window. Victims are unlinked in ascending id
/// order, as [`purge`] unlinks them, so both file systems of a differential
/// run hand out the same ids afterwards.
fn oracle_purge(fs: &mut FileSystem, now: SimTime, window: SimDuration) -> PurgeReport {
    let before = (fs.fullness() * 1000.0) as u32;
    let mut victims: Vec<InodeId> = Vec::new();
    let mut scanned = 0u64;
    fs.ns.visit(fs.ns.root(), |node| {
        if let Some(meta) = node.file() {
            scanned += 1;
            if now.since(meta.last_activity()) > window {
                victims.push(node.id);
            }
        }
    });
    victims.sort_unstable();
    let mut bytes_freed = 0u64;
    for &v in &victims {
        bytes_freed += fs.unlink(v).unwrap();
    }
    PurgeReport {
        scanned,
        deleted: victims.len() as u64,
        bytes_freed,
        fullness_before_milli: before,
        fullness_after_milli: (fs.fullness() * 1000.0) as u32,
    }
}

/// Every live file: id, path, size and last activity, in DFS order.
fn files_of(fs: &FileSystem) -> Vec<(InodeId, String, u64, SimTime)> {
    let mut out = Vec::new();
    fs.ns.visit(fs.ns.root(), |node| {
        if let Some(meta) = node.file() {
            out.push((
                node.id,
                fs.ns.path_of(node.id),
                meta.size,
                meta.last_activity(),
            ));
        }
    });
    out
}

fn hours(h: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(3_600 * h)
}

/// Names for the child-order property: the edge lengths around the inline
/// limit (22 bytes), multi-byte UTF-8, and a random mix.
fn child_names(picks: &[(usize, usize)]) -> Vec<String> {
    const PIECES: [&str; 10] = ["a", "b", "z", "A", "0", "_", "é", "日", "🦀", "~"];
    let mut names: Vec<String> = [
        "",
        "x",
        "abcdefghijklmnopqrstuv",
        "abcdefghijklmnopqrstuvw",
        "üüüüüüüüüüü",
        "üüüüüüüüüüüx",
        "日本語のファイル名",
        "🦀",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    for &(len, seed) in picks {
        names.push(
            (0..len)
                .map(|k| PIECES[(seed / 10usize.pow((k % 6) as u32) + k) % PIECES.len()])
                .collect(),
        );
    }
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The index-driven purge against the full-tree oracle, over random
    /// create/append/read/update/unlink sequences in three directories.
    /// Times come from a 16-hour domain and windows from 0-5 hours, so
    /// activities move backwards, return to earlier times, ids are reused at
    /// the same time, and some sweeps run before a full window has passed.
    #[test]
    fn indexed_purge_matches_the_full_tree_sweep(
        ops in prop::collection::vec((0u8..6, 0u64..64, 0u64..64, 0u64..64), 1..80),
    ) {
        let mut fast = small_fs(6);
        let mut oracle = small_fs(6);
        let mut rng_fast = SimRng::seed_from_u64(4);
        let mut rng_oracle = SimRng::seed_from_u64(4);
        let dirs: Vec<InodeId> = ["/a", "/b", "/a/c"]
            .iter()
            .map(|d| {
                let id = fast.ns.mkdir_p(d).unwrap();
                assert_eq!(oracle.ns.mkdir_p(d).unwrap(), id);
                id
            })
            .collect();
        let mut live: Vec<InodeId> = Vec::new();
        for (n, &(kind, a, b, c)) in ops.iter().enumerate() {
            let pick = |live: &[InodeId]| live[a as usize % live.len()];
            match kind {
                0 => {
                    let (dir, name) = (dirs[(a % 3) as usize], format!("f{n}"));
                    let stripes = 1 + (c % 6) as usize;
                    let f = fast.create(dir, &name, stripes, 0, hours(b % 16), &mut rng_fast).unwrap();
                    let g = oracle.create(dir, &name, stripes, 0, hours(b % 16), &mut rng_oracle).unwrap();
                    prop_assert_eq!(f, g);
                    live.push(f);
                }
                1 if !live.is_empty() => {
                    let (f, bytes) = (pick(&live), (b << 20) + c);
                    prop_assert!(fast.append(f, bytes, hours(c % 16)).unwrap());
                    prop_assert!(oracle.append(f, bytes, hours(c % 16)).unwrap());
                }
                2 if !live.is_empty() => {
                    let f = pick(&live);
                    fast.read(f, hours(b % 16)).unwrap();
                    oracle.read(f, hours(b % 16)).unwrap();
                }
                3 if !live.is_empty() => {
                    // All three timestamps at once: the activity can move
                    // backwards.
                    let f = pick(&live);
                    let set = |m: &mut FileMeta| {
                        m.atime = hours(b % 16);
                        m.mtime = hours(c % 16);
                        m.ctime = hours((b + c) % 16);
                    };
                    fast.ns.update_file(f, set).unwrap();
                    oracle.ns.update_file(f, set).unwrap();
                }
                4 if !live.is_empty() => {
                    let f = pick(&live);
                    prop_assert_eq!(fast.unlink(f).unwrap(), oracle.unlink(f).unwrap());
                    live.retain(|&x| x != f);
                }
                5 => {
                    let (now, window) = (hours(a % 20), SimDuration::from_secs(3_600 * (b % 6)));
                    let got = purge(&mut fast, now, window);
                    let want = oracle_purge(&mut oracle, now, window);
                    prop_assert_eq!(got, want);
                    let survivors = files_of(&fast);
                    prop_assert_eq!(&survivors, &files_of(&oracle));
                    live = survivors.iter().map(|s| s.0).collect();
                    live.sort_unstable();
                }
                _ => {}
            }
            prop_assert_eq!(fast.ns.file_count(), oracle.ns.file_count());
            prop_assert_eq!(fast.ns.total_bytes(), oracle.ns.total_bytes());
        }
        let used = |fs: &FileSystem| fs.osts.iter().map(|o| o.used).collect::<Vec<_>>();
        prop_assert_eq!(used(&fast), used(&oracle));
    }

    /// `children()` iterates in exactly the order of a `String`-keyed map,
    /// and every name resolves: by path through `lookup`, and the empty
    /// name (which no path can spell) through the child map's byte key.
    #[test]
    fn children_iterate_in_string_order(
        picks in prop::collection::vec((0usize..30, 0usize..1_000_000), 0..40),
    ) {
        let mut ns = Namespace::new();
        let dir = ns.mkdir_p("/d").unwrap();
        let mut reference: BTreeMap<String, InodeId> = BTreeMap::new();
        for name in child_names(&picks) {
            if reference.contains_key(&name) {
                continue;
            }
            let meta = FileMeta {
                size: 1,
                atime: SimTime::ZERO,
                mtime: SimTime::ZERO,
                ctime: SimTime::ZERO,
                stripe: StripeLayout::from_slice(&[OstId(0)]),
                project: 0,
            };
            let id = ns.create_file(dir, &name, meta).unwrap();
            reference.insert(name, id);
        }
        let got: Vec<(&str, InodeId)> = ns
            .children(dir)
            .unwrap()
            .iter()
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        let want: Vec<(&str, InodeId)> = reference.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        prop_assert_eq!(got, want);
        for (name, &id) in &reference {
            prop_assert_eq!(ns.children(dir).unwrap().get(name.as_bytes()), Some(&id));
            prop_assert_eq!(ns.get(id).name.as_str(), name.as_str());
            if !name.is_empty() {
                prop_assert_eq!(ns.lookup(&format!("/d/{name}")), Some(id));
            }
        }
    }

    /// The purge never deletes a file whose last activity is within the
    /// window, and always deletes those strictly older.
    #[test]
    fn purge_boundary_is_exact(
        ages_days in prop::collection::vec(0u64..40, 1..30),
        now_day in 41u64..60,
    ) {
        let mut fs = small_fs(2);
        let mut rng = SimRng::seed_from_u64(1);
        let dir = fs.ns.mkdir_p("/p").unwrap();
        let now = SimTime::ZERO + SimDuration::from_days(now_day);
        let mut should_survive = 0u64;
        for (i, age) in ages_days.iter().enumerate() {
            let created = now - SimDuration::from_days(*age);
            let f = fs.create(dir, &format!("f{i}"), 1, 0, created, &mut rng).unwrap();
            fs.append(f, 1 << 20, created).unwrap();
            if now.since(created) <= PURGE_WINDOW {
                should_survive += 1;
            }
        }
        let report = purge(&mut fs, now, PURGE_WINDOW);
        prop_assert_eq!(fs.ns.file_count(), should_survive);
        prop_assert_eq!(report.deleted as usize, ages_days.len() - should_survive as usize);
    }

    /// Stripe count clamping: any requested count yields a valid layout.
    #[test]
    fn create_clamps_stripe_count(req in 0usize..64, n_osts in 1u32..8) {
        let mut fs = small_fs(n_osts);
        let mut rng = SimRng::seed_from_u64(2);
        let f = fs
            .create(fs.ns.root(), "f", req, 0, SimTime::ZERO, &mut rng)
            .unwrap();
        let meta = fs.ns.get(f).file().unwrap();
        let count = meta.stripe.stripe_count();
        prop_assert!(count >= 1 && count <= n_osts as usize);
        // All OSTs in range and distinct.
        let mut ids: Vec<u32> = meta.stripe.osts().iter().map(|o| o.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), count);
        prop_assert!(ids.iter().all(|&i| i < n_osts));
    }

    /// Append/unlink round-trips leave the OSTs exactly as before.
    #[test]
    fn append_unlink_roundtrip(
        sizes in prop::collection::vec(1u64..(64 << 20), 1..20),
    ) {
        let mut fs = small_fs(4);
        let mut rng = SimRng::seed_from_u64(3);
        let before: Vec<u64> = fs.osts.iter().map(|o| o.used).collect();
        let mut files = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let f = fs
                .create(fs.ns.root(), &format!("f{i}"), 0, 0, SimTime::ZERO, &mut rng)
                .unwrap();
            prop_assert!(fs.append(f, *size, SimTime::ZERO).unwrap());
            files.push(f);
        }
        for f in files {
            fs.unlink(f).unwrap();
        }
        let after: Vec<u64> = fs.osts.iter().map(|o| o.used).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(fs.ns.total_bytes(), 0);
    }

    /// Fullness factor is monotone non-increasing and bounded.
    #[test]
    fn fullness_factor_monotone(steps in 2usize..50) {
        let mut fs = small_fs(1);
        let cap = fs.osts[0].capacity();
        let mut prev = f64::INFINITY;
        for s in 0..=steps {
            fs.osts[0].used = (cap as f64 * s as f64 / steps as f64) as u64;
            let f = fs.osts[0].fullness_factor();
            prop_assert!((0.25..=1.0).contains(&f));
            prop_assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    /// stat fanout never exceeds stripe count nor chunk count.
    #[test]
    fn stat_fanout_bounds(stripes in 1u32..32, size in 0u64..(1u64 << 36)) {
        let layout = StripeLayout::new((0..stripes).map(OstId).collect());
        let fan = layout.stat_fanout(size);
        prop_assert!(fan >= 1);
        prop_assert!(fan <= stripes as usize);
        if size > 0 {
            prop_assert!(fan as u64 <= size.div_ceil(layout.stripe_size).max(1));
        }
    }
}
