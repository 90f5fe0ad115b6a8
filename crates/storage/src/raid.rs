//! RAID-6 groups: the backing device of every Lustre OST.
//!
//! "Spider II disks are organized as RAID level 6 arrays (8 data and 2
//! parity disks). Each RAID group is then used as a Lustre Object Storage
//! Target (OST)." (§V-A). The group model captures the behaviours the paper's
//! lessons depend on:
//!
//! - **Slowest-member coupling**: a stripe completes when its slowest disk
//!   completes, so group bandwidth is `data_disks x min(member rate)` — the
//!   mechanism behind Lesson Learned 13 (cull slow disks).
//! - **Full-stripe vs read-modify-write**: writes that are not whole-stripe
//!   aligned pay the RAID-6 RMW penalty, which is why file-system-level
//!   transfer sizes below 1 MiB underperform (Figure 3).
//! - **Degraded modes and rebuild**: disk failures degrade service;
//!   losing more members than the parity count loses data (the §IV-E
//!   incident).
//!
//! The bandwidth formula exists once, in [`RaidRates`]: a group's
//! request-independent inputs (failure, geometry, slowest member, degrade
//! factors), built by [`RaidGroup::rates`]. `RaidGroup::{read,write}_bandwidth`
//! evaluate through a fresh view; a caller pricing many requests against one
//! unchanged group (rpcsim's per-OST replay) builds the view once.

use spider_simkit::{Bandwidth, SimDuration, SimRng};

use crate::disk::{Disk, DiskHealth, DiskId, DiskPopulationSpec};

/// Identifier of a RAID group (equivalently, of the OST it backs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaidGroupId(pub u32);

/// Geometry of a RAID group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaidConfig {
    /// Data disks per stripe.
    pub data: usize,
    /// Parity disks per stripe (failure tolerance).
    pub parity: usize,
    /// Per-disk segment size in bytes.
    pub segment: u64,
}

impl RaidConfig {
    /// Spider II geometry: RAID-6, 8 data + 2 parity, 128 KiB segments
    /// (1 MiB full stripe, matching the Lustre RPC size).
    pub fn raid6_8p2() -> Self {
        RaidConfig {
            data: 8,
            parity: 2,
            segment: 128 * 1024,
        }
    }

    /// Disks per group.
    pub fn width(&self) -> usize {
        self.data + self.parity
    }

    /// Bytes in one full stripe (data portion).
    pub fn full_stripe(&self) -> u64 {
        self.segment * self.data as u64
    }
}

/// Service state of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidState {
    /// All members healthy.
    Optimal,
    /// `n` members lost but within parity; parity reconstruction active.
    Degraded(usize),
    /// A replacement member is being rebuilt (count includes it).
    Rebuilding(usize),
    /// More members lost than parity: data loss.
    Failed,
}

/// Penalty model constants.
const RMW_FACTOR: f64 = 4.0; // partial-stripe writes cost ~4x the bytes
const DEGRADED_READ: [f64; 3] = [1.0, 0.65, 0.40]; // by #missing members
const DEGRADED_WRITE: [f64; 3] = [1.0, 0.75, 0.55];
const REBUILD_SHARE: f64 = 0.30; // fraction of group time spent rebuilding

/// A RAID-6 group and its member drives.
#[derive(Debug, Clone)]
pub struct RaidGroup {
    /// Group identifier (== OST index).
    pub id: RaidGroupId,
    /// Geometry.
    pub config: RaidConfig,
    /// Member drives, `config.width()` of them.
    pub members: Vec<Disk>,
    /// Bytes of rebuild work remaining (0 when not rebuilding).
    rebuild_remaining: u64,
    /// Members currently missing (failed/removed, not yet rebuilt).
    missing: usize,
    /// Data loss is permanent: once more members are lost than parity, the
    /// group stays failed even if paths are later restored.
    dead: bool,
}

impl RaidGroup {
    /// Assemble a group from member drives.
    pub fn new(id: RaidGroupId, config: RaidConfig, members: Vec<Disk>) -> Self {
        assert_eq!(
            members.len(),
            config.width(),
            "group {id:?} needs exactly {} members",
            config.width()
        );
        RaidGroup {
            id,
            config,
            members,
            rebuild_remaining: 0,
            missing: 0,
            dead: false,
        }
    }

    /// Sample a whole group from a disk population.
    pub fn sample(
        id: RaidGroupId,
        config: RaidConfig,
        pop: &DiskPopulationSpec,
        first_disk_id: u32,
        rng: &mut SimRng,
    ) -> Self {
        let members = (0..config.width())
            .map(|i| Disk::sample(DiskId(first_disk_id + i as u32), pop, rng))
            .collect();
        RaidGroup::new(id, config, members)
    }

    /// Current service state.
    pub fn state(&self) -> RaidState {
        if self.dead || self.missing > self.config.parity {
            RaidState::Failed
        } else if self.rebuild_remaining > 0 {
            RaidState::Rebuilding(self.missing)
        } else if self.missing > 0 {
            RaidState::Degraded(self.missing)
        } else {
            RaidState::Optimal
        }
    }

    /// Usable (data) capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.members
            .first()
            .map_or(0, |d| d.spec.capacity * self.config.data as u64)
    }

    /// Slowest in-service member's sequential bandwidth; zero if the group
    /// has failed.
    pub fn min_member_seq(&self) -> Bandwidth {
        if self.state() == RaidState::Failed {
            return Bandwidth::ZERO;
        }
        self.members
            .iter()
            .filter(|d| d.in_service())
            .map(super::disk::Disk::seq_bandwidth)
            .fold(Bandwidth(f64::INFINITY), Bandwidth::min)
    }

    fn degrade_factor(&self, write: bool) -> f64 {
        let table = if write { DEGRADED_WRITE } else { DEGRADED_READ };
        let mut f = table[self.missing.min(2)];
        if self.rebuild_remaining > 0 {
            f *= 1.0 - REBUILD_SHARE;
        }
        f
    }

    /// The group's request-independent rate inputs, for pricing requests
    /// against it while it does not change.
    pub fn rates(&self) -> RaidRates<'_> {
        // One pass over the in-service members: the slowest sequential rate
        // (`min_member_seq`'s fold; a failed group never reads it), the
        // largest positioning time and the largest command overhead.
        let serving = || self.members.iter().filter(|d| d.in_service());
        let (seq, positioning, overhead) = serving().fold(
            (Bandwidth(f64::INFINITY), None, None),
            |(seq, positioning, overhead), d| {
                (
                    seq.min(d.seq_bandwidth()),
                    positioning.max(Some(d.spec.positioning)),
                    overhead.max(Some(d.spec.command_overhead)),
                )
            },
        );
        // The member whose random rate is the fold's minimum at every size:
        // slowest sequentially, and largest in positioning and in command
        // overhead (ties allowed).
        let dominant = serving().find(|d| {
            d.actual_seq == seq
                && Some(d.spec.positioning) == positioning
                && Some(d.spec.command_overhead) == overhead
        });
        RaidRates {
            members: &self.members,
            failed: self.state() == RaidState::Failed,
            stripe: self.config.full_stripe(),
            data: self.config.data as f64,
            min_member_seq: seq,
            degrade_read: self.degrade_factor(false),
            degrade_write: self.degrade_factor(true),
            dominant,
        }
    }

    /// Sustained write bandwidth at the given request size (see
    /// [`RaidRates::write_bandwidth`]).
    pub fn write_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        self.rates().write_bandwidth(io_size, sequential)
    }

    /// Sustained read bandwidth at the given request size (see
    /// [`RaidRates::read_bandwidth`]).
    pub fn read_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        self.rates().read_bandwidth(io_size, sequential)
    }

    /// Peak streaming bandwidth (full-stripe sequential writes) — the number
    /// the block-level acceptance tests bin groups by.
    pub fn streaming_bandwidth(&self) -> Bandwidth {
        self.write_bandwidth(self.config.full_stripe(), true)
    }

    /// Mark member `m` failed. Returns the resulting state; transitioning
    /// past parity is data loss.
    pub fn fail_member(&mut self, m: usize) -> RaidState {
        assert!(m < self.members.len(), "no member {m}");
        if self.members[m].in_service() {
            self.members[m].health = DiskHealth::Failed;
            self.missing += 1;
            if self.missing > self.config.parity {
                self.dead = true;
            }
        }
        self.state()
    }

    /// Make member `m` temporarily inaccessible (enclosure/path loss). Same
    /// service impact as a failure, but reversible via [`Self::restore_member`].
    pub fn isolate_member(&mut self, m: usize) -> RaidState {
        self.fail_member(m)
    }

    /// Restore an isolated/failed member without a rebuild (path restored,
    /// data still valid). A no-op on a failed group: the stripes are
    /// already inconsistent and restoring a path cannot bring them back.
    pub fn restore_member(&mut self, m: usize) {
        assert!(m < self.members.len(), "no member {m}");
        if self.dead {
            return;
        }
        if !self.members[m].in_service() {
            self.members[m].health = DiskHealth::Healthy;
            self.missing = self.missing.saturating_sub(1);
        }
    }

    /// Start rebuilding one missing member onto a screened replacement.
    /// Panics if nothing is missing.
    pub fn start_rebuild(&mut self, pop: &DiskPopulationSpec, rng: &mut SimRng) {
        assert!(self.missing > 0, "nothing to rebuild");
        assert!(self.state() != RaidState::Failed, "group has failed");
        let m = self
            .members
            .iter()
            .position(|d| !d.in_service())
            .expect("missing member exists");
        self.members[m].replace_with_screened(pop, rng);
        self.rebuild_remaining = self.members[m].spec.capacity;
    }

    /// Advance rebuild work by `dt`. Returns `true` if a rebuild completed.
    pub fn advance_rebuild(&mut self, dt: SimDuration) -> bool {
        if self.rebuild_remaining == 0 {
            return false;
        }
        let disk = self
            .members
            .iter()
            .find(|d| d.in_service())
            .expect("serviceable member");
        let rate = disk.seq_bandwidth() * disk.spec.rebuild_fraction;
        let done = rate.bytes_over(dt) as u64;
        if done >= self.rebuild_remaining {
            self.rebuild_remaining = 0;
            self.missing = self.missing.saturating_sub(1);
            true
        } else {
            self.rebuild_remaining -= done;
            false
        }
    }

    /// Wall-clock estimate for the in-flight rebuild (`None` if idle).
    pub fn rebuild_eta(&self) -> Option<SimDuration> {
        if self.rebuild_remaining == 0 {
            return None;
        }
        let disk = self.members.iter().find(|d| d.in_service())?;
        let rate = disk.seq_bandwidth() * disk.spec.rebuild_fraction;
        Some(rate.time_for(self.rebuild_remaining))
    }
}

/// A [`RaidGroup`]'s request-independent rate inputs: the one place the
/// group bandwidth formula lives. Built by [`RaidGroup::rates`]; valid while
/// the group is unchanged.
///
/// Random access prices each in-service member at the request size and
/// takes the slowest. When one member is slowest sequentially and largest in
/// positioning and command overhead, its rate is that minimum at every size
/// (IEEE division and addition are monotone), so the view evaluates that
/// member alone; otherwise it folds over the members in order.
#[derive(Debug, Clone, Copy)]
pub struct RaidRates<'a> {
    members: &'a [Disk],
    failed: bool,
    stripe: u64,
    data: f64,
    min_member_seq: Bandwidth,
    degrade_read: f64,
    degrade_write: f64,
    dominant: Option<&'a Disk>,
}

impl RaidRates<'_> {
    /// One data member's rate: the slowest in-service member, streaming or
    /// at random `io_size` requests.
    fn member_rate(&self, io_size: u64, sequential: bool) -> Bandwidth {
        if sequential {
            self.min_member_seq
        } else if let Some(d) = self.dominant {
            d.random_bandwidth(io_size)
        } else {
            // Controller coalescing presents the request stream to each
            // member at the request size; positioning dominates.
            self.members
                .iter()
                .filter(|d| d.in_service())
                .map(|d| d.random_bandwidth(io_size))
                .fold(Bandwidth(f64::INFINITY), Bandwidth::min)
        }
    }

    /// Sustained write bandwidth at the given request size.
    ///
    /// Whole multiples of the full stripe stream at `data x min_member`;
    /// partial-stripe remainders pay the RAID-6 read-modify-write penalty.
    /// Random access additionally pays per-request positioning on every
    /// member. Zero for a failed group or an empty request.
    pub fn write_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        if self.failed || io_size == 0 {
            return Bandwidth::ZERO;
        }
        let full_bytes = (io_size / self.stripe) * self.stripe;
        let partial_bytes = io_size - full_bytes;
        let stream = self.member_rate(io_size, sequential) * self.data;
        if stream.is_zero() {
            return Bandwidth::ZERO;
        }
        // Time for the full-stripe portion plus the penalized partial tail.
        let t = full_bytes as f64 / stream.as_bytes_per_sec()
            + (partial_bytes as f64 * RMW_FACTOR) / stream.as_bytes_per_sec();
        Bandwidth::bytes_per_sec(io_size as f64 / t) * self.degrade_write
    }

    /// Sustained read bandwidth at the given request size. Zero for a failed
    /// group or an empty request.
    pub fn read_bandwidth(&self, io_size: u64, sequential: bool) -> Bandwidth {
        if self.failed || io_size == 0 {
            return Bandwidth::ZERO;
        }
        self.member_rate(io_size, sequential) * self.data * self.degrade_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSpec;
    use spider_simkit::MIB;

    fn nominal_group() -> RaidGroup {
        let cfg = RaidConfig::raid6_8p2();
        let members = (0..cfg.width())
            .map(|i| Disk::nominal(DiskId(i as u32), DiskSpec::nearline_sas_2tb()))
            .collect();
        RaidGroup::new(RaidGroupId(0), cfg, members)
    }

    #[test]
    fn geometry() {
        let cfg = RaidConfig::raid6_8p2();
        assert_eq!(cfg.width(), 10);
        assert_eq!(cfg.full_stripe(), MIB);
    }

    #[test]
    fn full_stripe_write_streams_at_8x_member() {
        let g = nominal_group();
        let bw = g.write_bandwidth(MIB, true);
        let expect = 8.0 * 140.0; // MB/s
        assert!(
            (bw.as_mb_per_sec() - expect).abs() < 1.0,
            "{} vs {expect}",
            bw.as_mb_per_sec()
        );
    }

    #[test]
    fn partial_stripe_writes_pay_rmw() {
        let g = nominal_group();
        let full = g.write_bandwidth(MIB, true);
        let half = g.write_bandwidth(MIB / 2, true);
        let ratio = half.as_bytes_per_sec() / full.as_bytes_per_sec();
        assert!(
            (0.2..=0.35).contains(&ratio),
            "sub-stripe writes should run at ~1/4 of full-stripe: {ratio:.3}"
        );
        // Multi-stripe unaligned: 1.5 MiB = 1 full + 1 penalized half.
        let mixed = g.write_bandwidth(MIB * 3 / 2, true);
        assert!(mixed.as_bytes_per_sec() < full.as_bytes_per_sec());
        assert!(mixed.as_bytes_per_sec() > half.as_bytes_per_sec());
    }

    #[test]
    fn aligned_multiples_of_stripe_all_stream() {
        let g = nominal_group();
        let one = g.write_bandwidth(MIB, true);
        let four = g.write_bandwidth(4 * MIB, true);
        assert!((one.as_bytes_per_sec() - four.as_bytes_per_sec()).abs() < 1.0);
    }

    #[test]
    fn random_group_write_matches_paper_ratio() {
        // Group-level random 1 MiB lands in the 20-25% window too, which is
        // what scaled to the 240 GB/s random requirement at the system level.
        let g = nominal_group();
        let seq = g.write_bandwidth(MIB, true);
        let rnd = g.write_bandwidth(MIB, false);
        let ratio = rnd.as_bytes_per_sec() / seq.as_bytes_per_sec();
        assert!((0.15..=0.30).contains(&ratio), "ratio {ratio:.3}");
    }

    #[test]
    fn slowest_member_gates_the_group() {
        let mut g = nominal_group();
        let before = g.streaming_bandwidth();
        g.members[3].actual_seq = Bandwidth::mb_per_sec(80.0);
        let after = g.streaming_bandwidth();
        assert!(
            (after.as_mb_per_sec() - 8.0 * 80.0).abs() < 1.0,
            "group follows its slowest disk: {}",
            after.as_mb_per_sec()
        );
        assert!(after < before);
    }

    #[test]
    fn a_member_dominates_only_when_it_is_slowest_in_every_term() {
        // All-nominal members tie on every term: the first dominates.
        let mut g = nominal_group();
        assert_eq!(g.rates().dominant.map(|d| d.id), Some(DiskId(0)));
        // A slow member is slowest sequentially and ties on the rest.
        g.members[3].actual_seq = Bandwidth::mb_per_sec(80.0);
        assert_eq!(g.rates().dominant.map(|d| d.id), Some(DiskId(3)));
        // Another member's larger positioning time: nobody dominates.
        g.members[5].spec.positioning = SimDuration::from_micros(40_000);
        assert!(g.rates().dominant.is_none());
        // Out of service, the slowest member is no candidate.
        g.fail_member(5);
        g.fail_member(3);
        assert_eq!(g.rates().dominant.map(|d| d.id), Some(DiskId(0)));
    }

    #[test]
    fn failure_tolerance_is_exactly_parity() {
        let mut g = nominal_group();
        assert_eq!(g.fail_member(0), RaidState::Degraded(1));
        assert_eq!(g.fail_member(1), RaidState::Degraded(2));
        assert!(!g.read_bandwidth(MIB, true).is_zero(), "still serving");
        assert_eq!(g.fail_member(2), RaidState::Failed);
        assert!(g.read_bandwidth(MIB, true).is_zero());
        assert!(g.write_bandwidth(MIB, true).is_zero());
    }

    #[test]
    fn failing_the_same_member_twice_counts_once() {
        let mut g = nominal_group();
        g.fail_member(0);
        assert_eq!(g.fail_member(0), RaidState::Degraded(1));
    }

    #[test]
    fn degraded_modes_reduce_service() {
        let mut g = nominal_group();
        let healthy = g.read_bandwidth(MIB, true);
        g.fail_member(0);
        let degraded = g.read_bandwidth(MIB, true);
        assert!(degraded.as_bytes_per_sec() < healthy.as_bytes_per_sec());
        g.fail_member(1);
        let double = g.read_bandwidth(MIB, true);
        assert!(double.as_bytes_per_sec() < degraded.as_bytes_per_sec());
    }

    #[test]
    fn isolate_and_restore_roundtrip() {
        let mut g = nominal_group();
        let before = g.streaming_bandwidth();
        g.isolate_member(4);
        assert_eq!(g.state(), RaidState::Degraded(1));
        g.restore_member(4);
        assert_eq!(g.state(), RaidState::Optimal);
        let after = g.streaming_bandwidth();
        assert!((before.as_bytes_per_sec() - after.as_bytes_per_sec()).abs() < 1e-6);
    }

    #[test]
    fn rebuild_lifecycle() {
        let mut g = nominal_group();
        let pop = DiskPopulationSpec::default();
        let mut rng = SimRng::seed_from_u64(3);
        g.fail_member(5);
        g.start_rebuild(&pop, &mut rng);
        assert!(matches!(g.state(), RaidState::Rebuilding(1)));
        let eta = g.rebuild_eta().expect("rebuilding");
        // ~26 hours for 2 TB at 15% of ~140 MB/s (rebuild under load).
        assert!(eta > SimDuration::from_hours(18) && eta < SimDuration::from_hours(48));
        // Service is further reduced during rebuild.
        let mut g2 = nominal_group();
        g2.fail_member(5);
        assert!(
            g.read_bandwidth(MIB, true).as_bytes_per_sec()
                < g2.read_bandwidth(MIB, true).as_bytes_per_sec()
        );
        // Advance past the ETA: rebuild completes, group returns to optimal.
        assert!(g.advance_rebuild(eta + SimDuration::from_secs(1)));
        assert_eq!(g.state(), RaidState::Optimal);
        assert!(g.rebuild_eta().is_none());
    }

    #[test]
    fn partial_rebuild_progress_accumulates() {
        let mut g = nominal_group();
        let pop = DiskPopulationSpec::default();
        let mut rng = SimRng::seed_from_u64(4);
        g.fail_member(0);
        g.start_rebuild(&pop, &mut rng);
        assert!(!g.advance_rebuild(SimDuration::from_hours(1)));
        let eta1 = g.rebuild_eta().unwrap();
        assert!(!g.advance_rebuild(SimDuration::from_hours(1)));
        let eta2 = g.rebuild_eta().unwrap();
        assert!(eta2 < eta1, "progress reduces the ETA");
    }

    #[test]
    fn incident_prelude_rebuild_plus_two_path_losses_kills_group() {
        // The §IV-E scenario shape at group level: one member rebuilding
        // (missing), then an enclosure drop takes two more members of the
        // same group -> 3 missing > parity -> failed.
        let mut g = nominal_group();
        g.fail_member(0);
        assert_eq!(g.isolate_member(1), RaidState::Degraded(2));
        assert_eq!(g.isolate_member(2), RaidState::Failed);
    }

    #[test]
    fn sampled_group_capacity() {
        let pop = DiskPopulationSpec::default();
        let mut rng = SimRng::seed_from_u64(8);
        let g = RaidGroup::sample(RaidGroupId(1), RaidConfig::raid6_8p2(), &pop, 100, &mut rng);
        assert_eq!(g.capacity(), 8 * 2 * spider_simkit::TB);
        assert_eq!(g.members[0].id, DiskId(100));
        assert_eq!(g.members[9].id, DiskId(109));
    }
}
