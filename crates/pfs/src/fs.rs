//! A mounted file system instance: MDS + OSTs + namespace.
//!
//! Spider II divided its 2,016 OSTs into two namespaces (`atlas1`,
//! `atlas2`), each spanning half the hardware (§IV-C). A [`FileSystem`]
//! owns its OSTs (built from RAID groups handed over by the storage fleet),
//! its OSS mapping, its metadata cluster, and its namespace tree, and
//! exposes the object-allocation and I/O accounting the higher-level tools
//! exercise.

use spider_simkit::{Bandwidth, SimRng, SimTime};
use spider_storage::raid::RaidGroup;

use crate::layout::StripeLayout;
use crate::mds::MdsCluster;
use crate::namespace::{FileMeta, InodeId, Namespace, NsError};
use crate::oss::{assign_osts, ObjectStorageServer};
use crate::ost::{Ost, OstId};

/// How new files pick their OSTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OstAllocPolicy {
    /// Classic round-robin over all OSTs.
    RoundRobin,
    /// Weighted by free space (Lustre's QOS allocator): emptier OSTs are
    /// chosen first, evening out fullness.
    WeightedFree,
}

/// File system build parameters.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Mount name (e.g. `atlas1`).
    pub name: String,
    /// Default stripe count for new files.
    pub default_stripe_count: usize,
    /// Default stripe size.
    pub default_stripe_size: u64,
    /// OST allocation policy.
    pub alloc: OstAllocPolicy,
    /// Number of OSS nodes serving this namespace.
    pub n_oss: u32,
}

impl FsConfig {
    /// A Spider II namespace: stripe count 4, 1 MiB stripes, 144 OSS.
    pub fn spider2(name: &str) -> Self {
        FsConfig {
            name: name.to_owned(),
            default_stripe_count: 4,
            default_stripe_size: 1 << 20,
            alloc: OstAllocPolicy::RoundRobin,
            n_oss: 144,
        }
    }
}

/// A mounted namespace.
#[derive(Debug)]
pub struct FileSystem {
    /// Build parameters.
    pub config: FsConfig,
    /// Metadata service.
    pub mds: MdsCluster,
    /// Object storage targets.
    pub osts: Vec<Ost>,
    /// Object storage servers (each exporting several OSTs).
    pub oss: Vec<ObjectStorageServer>,
    /// The namespace tree.
    pub ns: Namespace,
    rr_cursor: usize,
    /// The OSTs the last allocation picked.
    picked: Vec<OstId>,
    /// The per-OST split of the extent an append or unlink is charging.
    split: Vec<u64>,
}

impl FileSystem {
    /// Build a file system over RAID groups (one OST per group).
    pub fn build(config: FsConfig, groups: Vec<RaidGroup>, mds: MdsCluster) -> FileSystem {
        assert!(!groups.is_empty(), "a file system needs OSTs");
        let osts: Vec<Ost> = groups
            .into_iter()
            .enumerate()
            .map(|(i, g)| Ost::new(OstId(i as u32), g))
            .collect();
        let oss = assign_osts(osts.len() as u32, config.n_oss.min(osts.len() as u32));
        FileSystem {
            config,
            mds,
            osts,
            oss,
            ns: Namespace::new(),
            rr_cursor: 0,
            picked: Vec::new(),
            split: Vec::new(),
        }
    }

    /// Number of OSTs.
    pub fn ost_count(&self) -> usize {
        self.osts.len()
    }

    /// Borrow an OST.
    pub fn ost(&self, id: OstId) -> &Ost {
        &self.osts[id.0 as usize]
    }

    /// Mutably borrow an OST.
    pub fn ost_mut(&mut self, id: OstId) -> &mut Ost {
        &mut self.osts[id.0 as usize]
    }

    /// Index of the OSS exporting an OST.
    pub fn oss_index_of(&self, ost: OstId) -> usize {
        let per = self.ost_count() as u32 / self.oss.len() as u32;
        (ost.0 / per.max(1)).min(self.oss.len() as u32 - 1) as usize
    }

    /// The OSS exporting an OST.
    pub fn oss_of(&self, ost: OstId) -> &ObjectStorageServer {
        &self.oss[self.oss_index_of(ost)]
    }

    /// Total usable capacity.
    pub fn capacity(&self) -> u64 {
        self.osts.iter().map(super::ost::Ost::capacity).sum()
    }

    /// Bytes allocated.
    pub fn used(&self) -> u64 {
        self.osts.iter().map(|o| o.used).sum()
    }

    /// Overall fullness in `[0, 1]`.
    pub fn fullness(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            1.0
        } else {
            self.used() as f64 / cap as f64
        }
    }

    /// Pick `count` OSTs for a new file under the configured policy, into a
    /// buffer the file system owns and reuses.
    pub fn allocate_osts(&mut self, count: usize, rng: &mut SimRng) -> &[OstId] {
        let n = self.osts.len();
        let count = count.clamp(1, n);
        self.picked.clear();
        match self.config.alloc {
            OstAllocPolicy::RoundRobin => {
                let start = self.rr_cursor;
                self.rr_cursor = (self.rr_cursor + count) % n;
                self.picked
                    .extend((0..count).map(|i| OstId(((start + i) % n) as u32)));
            }
            OstAllocPolicy::WeightedFree => {
                // Sample OSTs proportionally to free space, without
                // replacement, using a weighted reservoir shortcut: sort a
                // random key scaled by weight.
                let mut keyed: Vec<(f64, u32)> = self
                    .osts
                    .iter()
                    .map(|o| {
                        let w = (o.free() as f64).max(1.0);
                        // Efraimidis-Spirakis weighted sampling key.
                        (rng.f64().powf(1.0 / w), o.id.0)
                    })
                    .collect();
                keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
                keyed.truncate(count);
                self.picked
                    .extend(keyed.into_iter().map(|(_, id)| OstId(id)));
            }
        }
        &self.picked
    }

    /// Create a file at `dir/name` with `stripe_count` OSTs (0 = default).
    pub fn create(
        &mut self,
        dir: InodeId,
        name: &str,
        stripe_count: usize,
        project: u32,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<InodeId, NsError> {
        let count = if stripe_count == 0 {
            self.config.default_stripe_count
        } else {
            stripe_count
        };
        self.allocate_osts(count, rng);
        for o in &self.picked {
            // Object creation reserves no space yet; just count the object.
            self.osts[o.0 as usize].allocate(0);
        }
        let stripe = StripeLayout::from_slice(&self.picked)
            .with_stripe_size(self.config.default_stripe_size);
        self.ns.create_file(
            dir,
            name,
            FileMeta {
                size: 0,
                atime: now,
                mtime: now,
                ctime: now,
                stripe,
                project,
            },
        )
    }

    /// Append `bytes` to a file, charging its OSTs. Returns `false` if any
    /// OST ran out of space (the write fails with `ENOSPC` semantics:
    /// nothing is charged).
    pub fn append(&mut self, file: InodeId, bytes: u64, now: SimTime) -> Result<bool, NsError> {
        let meta = self.ns.get(file).file().ok_or(NsError::NotADirectory)?;
        meta.stripe.split_extent(meta.size, bytes, &mut self.split);
        let osts = meta.stripe.osts();
        // Check space first.
        for (ost, b) in osts.iter().zip(&self.split) {
            if self.osts[ost.0 as usize].free() < *b {
                return Ok(false);
            }
        }
        for (ost, b) in osts.iter().zip(&self.split) {
            let ok = self.osts[ost.0 as usize].grow(*b);
            debug_assert!(ok);
        }
        self.ns.update_file(file, |m| {
            m.size += bytes;
            m.mtime = now;
            m.ctime = now;
        })?;
        Ok(true)
    }

    /// Read a file (touches atime).
    pub fn read(&mut self, file: InodeId, now: SimTime) -> Result<u64, NsError> {
        let mut size = 0;
        self.ns.update_file(file, |m| {
            m.atime = now;
            size = m.size;
        })?;
        Ok(size)
    }

    /// Unlink a file and release its OST space.
    pub fn unlink(&mut self, file: InodeId) -> Result<u64, NsError> {
        let meta = self.ns.unlink(file)?;
        meta.stripe.split_extent(0, meta.size, &mut self.split);
        for (ost, b) in meta.stripe.osts().iter().zip(&self.split) {
            self.osts[ost.0 as usize].release(*b);
        }
        Ok(meta.size)
    }

    /// Namespace-level sequential write ceiling at a request size: the sum
    /// of OST rates (with OSS software efficiency), capped by the sum of
    /// OSS network links.
    pub fn write_ceiling(&self, io_size: u64, sequential: bool) -> Bandwidth {
        let eff = self
            .oss
            .first()
            .map_or(1.0, super::oss::ObjectStorageServer::write_efficiency);
        let disks: Bandwidth = self
            .osts
            .iter()
            .map(|o| o.write_bandwidth(io_size, sequential))
            .sum::<Bandwidth>()
            * eff;
        let network: Bandwidth = self
            .oss
            .iter()
            .map(super::oss::ObjectStorageServer::network_cap)
            .sum();
        disks.min(network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simkit::MIB;
    use spider_storage::disk::{Disk, DiskId, DiskSpec};
    use spider_storage::raid::{RaidConfig, RaidGroupId};

    fn groups(n: u32) -> Vec<RaidGroup> {
        let cfg = RaidConfig::raid6_8p2();
        (0..n)
            .map(|g| {
                let members = (0..cfg.width())
                    .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                    .collect();
                RaidGroup::new(RaidGroupId(g), cfg, members)
            })
            .collect()
    }

    fn fs(n_osts: u32) -> FileSystem {
        let mut config = FsConfig::spider2("atlas-test");
        config.n_oss = 2;
        FileSystem::build(config, groups(n_osts), MdsCluster::single())
    }

    #[test]
    fn build_shape() {
        let fs = fs(8);
        assert_eq!(fs.ost_count(), 8);
        assert_eq!(fs.oss.len(), 2);
        assert_eq!(fs.capacity(), 8 * 16 * spider_simkit::TB);
        assert_eq!(fs.fullness(), 0.0);
    }

    #[test]
    fn round_robin_allocation_cycles() {
        let mut fs = fs(4);
        let mut rng = SimRng::seed_from_u64(1);
        let a = fs.allocate_osts(2, &mut rng).to_vec();
        let b = fs.allocate_osts(2, &mut rng).to_vec();
        let c = fs.allocate_osts(2, &mut rng).to_vec();
        assert_eq!(a, vec![OstId(0), OstId(1)]);
        assert_eq!(b, vec![OstId(2), OstId(3)]);
        assert_eq!(c, vec![OstId(0), OstId(1)], "wraps");
    }

    #[test]
    fn weighted_allocation_prefers_empty_osts() {
        let mut fs = fs(4);
        fs.config.alloc = OstAllocPolicy::WeightedFree;
        // Fill OST 0 almost completely.
        let cap = fs.ost(OstId(0)).capacity();
        fs.ost_mut(OstId(0)).allocate(cap - 1024);
        let mut rng = SimRng::seed_from_u64(2);
        let mut picks_of_zero = 0;
        for _ in 0..200 {
            let picked = fs.allocate_osts(1, &mut rng);
            if picked[0] == OstId(0) {
                picks_of_zero += 1;
            }
        }
        assert!(
            picks_of_zero < 5,
            "full OST picked {picks_of_zero}/200 times"
        );
    }

    #[test]
    fn create_append_read_unlink_lifecycle() {
        let mut fs = fs(4);
        let mut rng = SimRng::seed_from_u64(3);
        let dir = fs.ns.mkdir_p("/proj").unwrap();
        let t0 = SimTime::from_secs(100);
        let f = fs.create(dir, "ckpt.0", 4, 7, t0, &mut rng).unwrap();
        assert!(fs.append(f, 8 * MIB, SimTime::from_secs(200)).unwrap());
        // 8 MiB over 4 OSTs = 2 MiB each.
        for o in 0..4 {
            assert_eq!(fs.ost(OstId(o)).used, 2 * MIB);
        }
        let meta = fs.ns.get(f).file().unwrap();
        assert_eq!(meta.size, 8 * MIB);
        assert_eq!(meta.mtime, SimTime::from_secs(200));
        assert_eq!(meta.project, 7);

        let size = fs.read(f, SimTime::from_secs(300)).unwrap();
        assert_eq!(size, 8 * MIB);
        assert_eq!(fs.ns.get(f).file().unwrap().atime, SimTime::from_secs(300));

        let freed = fs.unlink(f).unwrap();
        assert_eq!(freed, 8 * MIB);
        assert_eq!(fs.used(), 0);
    }

    #[test]
    fn append_fails_cleanly_when_ost_full() {
        let mut fs = fs(2);
        let mut rng = SimRng::seed_from_u64(4);
        let dir = fs.ns.root();
        let f = fs
            .create(dir, "big", 1, 0, SimTime::ZERO, &mut rng)
            .unwrap();
        let target_ost = fs.ns.get(f).file().unwrap().stripe.osts()[0];
        let cap = fs.ost(target_ost).capacity();
        fs.ost_mut(target_ost).allocate(cap - MIB);
        let used_before = fs.used();
        assert!(!fs.append(f, 2 * MIB, SimTime::ZERO).unwrap());
        assert_eq!(fs.used(), used_before, "failed write charges nothing");
        assert!(fs.append(f, MIB / 2, SimTime::ZERO).unwrap());
    }

    #[test]
    fn default_stripe_count_applies() {
        let mut fs = fs(8);
        let mut rng = SimRng::seed_from_u64(5);
        let f = fs
            .create(fs.ns.root(), "f", 0, 0, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(fs.ns.get(f).file().unwrap().stripe.stripe_count(), 4);
    }

    #[test]
    fn write_ceiling_is_network_or_disk_bound() {
        let fs = fs(4);
        let ceiling = fs.write_ceiling(MIB, true);
        // 4 OSTs x ~1.1 GB/s x 0.91 software > 2 OSS x 6 GB/s? No:
        // disks ~4.1 GB/s < network 12 GB/s, so disk-bound here.
        assert!(
            ceiling.as_gb_per_sec() > 3.0 && ceiling.as_gb_per_sec() < 4.5,
            "{}",
            ceiling.as_gb_per_sec()
        );
    }

    #[test]
    fn fullness_tracks_usage() {
        let mut fs = fs(2);
        let cap = fs.capacity();
        fs.ost_mut(OstId(0)).allocate(cap / 4);
        assert!((fs.fullness() - 0.25).abs() < 0.01);
    }
}
