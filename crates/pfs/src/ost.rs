//! Object Storage Targets.
//!
//! An OST is a RAID-6 group exported through the Lustre object protocol.
//! Beyond the raw device, the OST adds the two lifecycle effects the paper
//! manages operationally:
//!
//! - **Fullness degradation**: allocator fragmentation and inner-track
//!   placement slow a filling OST. The paper gives two calibration points:
//!   degradation is measurable past 50% utilization (§VI-C) and severe past
//!   70% (§IV-C) — the reason for the purge policy and the "30% or more
//!   above aggregate user workload" capacity target (Lesson Learned 10).
//! - **Aging/fragmentation**: an aged file system underperforms a freshly
//!   formatted one even at the same fullness (§V-D's thin-file-system QA
//!   exists to measure exactly this).
//!
//! [`OstRates`] multiplies both factors onto the group's [`RaidRates`]; it
//! is the one place an OST's bandwidth is computed.

use spider_simkit::{Bandwidth, SimRng};
use spider_storage::raid::{RaidGroup, RaidRates, RaidState};

/// Identifier of an OST within a file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OstId(pub u32);

/// An OST: a RAID group plus allocation state.
#[derive(Debug)]
pub struct Ost {
    /// Identifier within its file system.
    pub id: OstId,
    /// Backing RAID group.
    pub group: RaidGroup,
    /// Bytes currently allocated to objects.
    pub used: u64,
    /// Fragmentation factor in `[0, 1]`: 0 = freshly formatted, 1 = heavily
    /// aged. Grows as objects churn.
    pub aging: f64,
    /// Objects currently stored (object id -> size).
    objects: u64,
}

impl Ost {
    /// A fresh OST over a RAID group.
    pub fn new(id: OstId, group: RaidGroup) -> Self {
        Ost {
            id,
            group,
            used: 0,
            aging: 0.0,
            objects: 0,
        }
    }

    /// Usable capacity.
    pub fn capacity(&self) -> u64 {
        self.group.capacity()
    }

    /// Current utilization in `[0, 1]`.
    pub fn fullness(&self) -> f64 {
        if self.capacity() == 0 {
            1.0
        } else {
            self.used as f64 / self.capacity() as f64
        }
    }

    /// Free bytes.
    pub fn free(&self) -> u64 {
        self.capacity().saturating_sub(self.used)
    }

    /// Number of live objects.
    pub fn object_count(&self) -> u64 {
        self.objects
    }

    /// The fullness-dependent throughput multiplier.
    ///
    /// Piecewise-linear through the paper's calibration points: 1.0 up to
    /// 50% full, 0.85 at 70% (degradation "direct" past 50%), then a steep
    /// fall to 0.45 at 90% and 0.30 when full ("severe ... after 70% or
    /// more full").
    pub fn fullness_factor(&self) -> f64 {
        let f = self.fullness().clamp(0.0, 1.0);
        let pts = [
            (0.0, 1.0),
            (0.5, 1.0),
            (0.7, 0.85),
            (0.9, 0.45),
            (1.0, 0.30),
        ];
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if f <= x1 {
                return y0 + (y1 - y0) * (f - x0) / (x1 - x0);
            }
        }
        0.30
    }

    /// The aging multiplier: a fully aged OST loses ~25% to fragmentation.
    pub fn aging_factor(&self) -> f64 {
        1.0 - 0.25 * self.aging.clamp(0.0, 1.0)
    }

    /// The OST's request-independent rate inputs, for pricing requests
    /// against it while it does not change.
    pub fn rates(&self) -> OstRates<'_> {
        OstRates {
            group: self.group.rates(),
            fullness: self.fullness_factor(),
            aging: self.aging_factor(),
        }
    }

    /// Effective write bandwidth at the Lustre object layer.
    pub fn write_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        self.rates().write_bandwidth(io_size, sequential)
    }

    /// Effective read bandwidth at the Lustre object layer.
    pub fn read_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        self.rates().read_bandwidth(io_size, sequential)
    }

    /// Allocate an object of `bytes`. Returns `false` (and allocates
    /// nothing) when the OST lacks space or has failed.
    pub fn allocate(&mut self, bytes: u64) -> bool {
        if self.group.state() == RaidState::Failed || self.free() < bytes {
            return false;
        }
        self.used += bytes;
        self.objects += 1;
        // Every allocation ages the allocator a little; churn dominates.
        self.aging = (self.aging + 1e-7).min(1.0);
        true
    }

    /// Release an object of `bytes` (purge/unlink). Deletion fragments free
    /// space, aging the OST faster than allocation does.
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
        self.objects = self.objects.saturating_sub(1);
        self.aging = (self.aging + 5e-7).min(1.0);
    }

    /// Grow an existing object by `bytes` (append). Returns `false` when out
    /// of space.
    pub fn grow(&mut self, bytes: u64) -> bool {
        if self.group.state() == RaidState::Failed || self.free() < bytes {
            return false;
        }
        self.used += bytes;
        true
    }

    /// Reformat: drop every object and reset aging (the §V-D "freshly
    /// formatted" comparison baseline).
    pub fn reformat(&mut self) {
        self.used = 0;
        self.objects = 0;
        self.aging = 0.0;
    }

    /// Synthetic aging for experiments: simulate `churn_cycles` of fill/
    /// delete churn without tracking individual objects.
    pub fn age_synthetically(&mut self, churn_cycles: f64, rng: &mut SimRng) {
        let jitter = 0.9 + 0.2 * rng.f64();
        self.aging = (self.aging + 0.1 * churn_cycles * jitter).min(1.0);
    }
}

/// An [`Ost`]'s request-independent rate inputs: its group's
/// [`RaidRates`] and the fullness and aging factors, applied as
/// `(group × fullness) × aging`. Built by [`Ost::rates`].
#[derive(Debug, Clone, Copy)]
pub struct OstRates<'a> {
    group: RaidRates<'a>,
    fullness: f64,
    aging: f64,
}

impl OstRates<'_> {
    /// Effective write bandwidth at the Lustre object layer.
    pub fn write_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        self.group.write_bandwidth(io_size, sequential) * self.fullness * self.aging
    }

    /// Effective read bandwidth at the Lustre object layer.
    pub fn read_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        self.group.read_bandwidth(io_size, sequential) * self.fullness * self.aging
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_simkit::{MIB, TB};
    use spider_storage::disk::{Disk, DiskId, DiskSpec};
    use spider_storage::raid::{RaidConfig, RaidGroupId};

    fn ost() -> Ost {
        let cfg = RaidConfig::raid6_8p2();
        let members = (0..cfg.width())
            .map(|i| Disk::nominal(DiskId(i as u32), DiskSpec::nearline_sas_2tb()))
            .collect();
        Ost::new(OstId(0), RaidGroup::new(RaidGroupId(0), cfg, members))
    }

    #[test]
    fn fresh_ost_runs_at_device_speed() {
        let o = ost();
        assert_eq!(o.fullness(), 0.0);
        assert_eq!(o.fullness_factor(), 1.0);
        assert_eq!(o.aging_factor(), 1.0);
        let dev = o.group.write_bandwidth(MIB, true);
        let eff = o.write_bandwidth(MIB, true);
        assert!((dev.as_bytes_per_sec() - eff.as_bytes_per_sec()).abs() < 1e-6);
    }

    #[test]
    fn fullness_curve_matches_paper_calibration() {
        let mut o = ost();
        let cap = o.capacity();
        // 50% full: no degradation yet.
        o.used = cap / 2;
        assert!((o.fullness_factor() - 1.0).abs() < 1e-9);
        // 70% full: measurable degradation.
        o.used = cap * 7 / 10;
        let at70 = o.fullness_factor();
        assert!((0.80..0.90).contains(&at70), "{at70}");
        // 90% full: severe.
        o.used = cap * 9 / 10;
        let at90 = o.fullness_factor();
        assert!(at90 < 0.5, "{at90}");
        // Monotone non-increasing along the curve.
        let mut prev = 2.0;
        for pct in 0..=100 {
            o.used = cap / 100 * pct;
            let f = o.fullness_factor();
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    #[test]
    fn allocation_accounting() {
        let mut o = ost();
        assert!(o.allocate(TB));
        assert!(o.allocate(2 * TB));
        assert_eq!(o.used, 3 * TB);
        assert_eq!(o.object_count(), 2);
        o.release(TB);
        assert_eq!(o.used, 2 * TB);
        assert_eq!(o.object_count(), 1);
    }

    #[test]
    fn allocation_fails_when_full() {
        let mut o = ost();
        let cap = o.capacity();
        assert!(o.allocate(cap));
        assert!(!o.allocate(1));
        assert!(!o.grow(1));
        assert_eq!(o.object_count(), 1);
    }

    #[test]
    fn failed_group_rejects_allocation() {
        let mut o = ost();
        for m in 0..3 {
            o.group.fail_member(m);
        }
        assert!(!o.allocate(1024));
    }

    #[test]
    fn aging_slows_io_and_reformat_resets() {
        let mut o = ost();
        let fresh = o.write_bandwidth(MIB, true);
        let mut rng = SimRng::seed_from_u64(1);
        o.age_synthetically(5.0, &mut rng);
        assert!(o.aging > 0.4);
        let aged = o.write_bandwidth(MIB, true);
        assert!(aged.as_bytes_per_sec() < 0.95 * fresh.as_bytes_per_sec());
        o.reformat();
        let reformatted = o.write_bandwidth(MIB, true);
        assert!((reformatted.as_bytes_per_sec() - fresh.as_bytes_per_sec()).abs() < 1e-6);
    }

    #[test]
    fn deletion_ages_faster_than_allocation() {
        let mut a = ost();
        let mut b = ost();
        for _ in 0..1000 {
            a.allocate(MIB);
        }
        for _ in 0..1000 {
            b.allocate(MIB);
            b.release(MIB);
        }
        assert!(b.aging > a.aging);
    }
}
