//! The OST rate model against the per-member formula it replaced.
//!
//! [`Ost::rates`] and [`RaidGroup::rates`] build a request-independent view
//! once and may evaluate a single dominant member in place of the fold over
//! all members. Both must reproduce, bit for bit, the formula that folds
//! every in-service member's rate for each request and applies the degrade,
//! fullness and aging factors in turn. The oracle below restates that
//! formula with the model's constants.

use proptest::prelude::*;
use spider_pfs::ost::{Ost, OstId};
use spider_simkit::{Bandwidth, SimDuration, SimRng, MIB};
use spider_storage::disk::{Disk, DiskId, DiskPopulationSpec, DiskSpec};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId, RaidState};

const RMW_FACTOR: f64 = 4.0;
const DEGRADED_READ: [f64; 3] = [1.0, 0.65, 0.40];
const DEGRADED_WRITE: [f64; 3] = [1.0, 0.75, 0.55];
const REBUILD_SHARE: f64 = 0.30;

/// The slowest in-service member, folded in member order from infinity.
fn member_rate(g: &RaidGroup, io: u64, sequential: bool) -> Bandwidth {
    g.members
        .iter()
        .filter(|d| d.in_service())
        .map(|d| {
            if sequential {
                d.seq_bandwidth()
            } else {
                d.random_bandwidth(io)
            }
        })
        .fold(Bandwidth(f64::INFINITY), Bandwidth::min)
}

fn degrade(g: &RaidGroup, write: bool) -> f64 {
    let table = if write { DEGRADED_WRITE } else { DEGRADED_READ };
    match g.state() {
        RaidState::Optimal => table[0],
        RaidState::Degraded(n) => table[n.min(2)],
        RaidState::Rebuilding(n) => table[n.min(2)] * (1.0 - REBUILD_SHARE),
        RaidState::Failed => unreachable!("a failed group has no rate"),
    }
}

fn group_write(g: &RaidGroup, io: u64, sequential: bool) -> Bandwidth {
    if g.state() == RaidState::Failed || io == 0 {
        return Bandwidth::ZERO;
    }
    let stripe = g.config.full_stripe();
    let full_bytes = (io / stripe) * stripe;
    let partial_bytes = io - full_bytes;
    let stream = member_rate(g, io, sequential) * g.config.data as f64;
    if stream.is_zero() {
        return Bandwidth::ZERO;
    }
    let t = full_bytes as f64 / stream.as_bytes_per_sec()
        + (partial_bytes as f64 * RMW_FACTOR) / stream.as_bytes_per_sec();
    Bandwidth::bytes_per_sec(io as f64 / t) * degrade(g, true)
}

fn group_read(g: &RaidGroup, io: u64, sequential: bool) -> Bandwidth {
    if g.state() == RaidState::Failed || io == 0 {
        return Bandwidth::ZERO;
    }
    member_rate(g, io, sequential) * g.config.data as f64 * degrade(g, false)
}

fn nominal_group() -> RaidGroup {
    let cfg = RaidConfig::raid6_8p2();
    let members = (0..cfg.width())
        .map(|i| Disk::nominal(DiskId(i as u32), DiskSpec::nearline_sas_2tb()))
        .collect();
    RaidGroup::new(RaidGroupId(0), cfg, members)
}

/// Group shapes, `m` picking the member a shape singles out.
fn group(kind: usize, m: usize) -> RaidGroup {
    let mut g = nominal_group();
    let other = (m + 1) % g.members.len();
    match kind {
        // Optimal.
        0 => {}
        // Degraded by one and by two members.
        1 => {
            g.fail_member(m);
        }
        2 => {
            g.fail_member(m);
            g.fail_member(other);
        }
        // Rebuilding onto a screened replacement.
        3 => {
            g.fail_member(m);
            g.start_rebuild(
                &DiskPopulationSpec::default(),
                &mut SimRng::seed_from_u64(3),
            );
        }
        // Failed.
        4 => {
            for k in 0..3 {
                g.fail_member((m + k) % 10);
            }
        }
        // One slow member: it dominates.
        5 => g.members[m].actual_seq = Bandwidth::mb_per_sec(80.0),
        // One member slowest sequentially, another with the largest
        // positioning time: neither dominates (each is the slower one on
        // one side of about 29 MB), so the fold runs.
        6 => {
            g.members[m].actual_seq = Bandwidth::mb_per_sec(130.0);
            g.members[other].spec.positioning = SimDuration::from_micros(40_000);
        }
        // The member that would dominate is out of service.
        7 => {
            g.members[m].actual_seq = Bandwidth::mb_per_sec(60.0);
            g.members[m].spec.positioning = SimDuration::from_micros(40_000);
            g.members[m].spec.command_overhead = SimDuration::from_micros(900);
            g.fail_member(m);
        }
        // A sampled group: sequential rates vary, with a slow tail.
        _ => {
            let mut rng = SimRng::seed_from_u64(m as u64);
            g = RaidGroup::sample(
                RaidGroupId(0),
                RaidConfig::raid6_8p2(),
                &DiskPopulationSpec::default(),
                0,
                &mut rng,
            );
        }
    }
    g
}

/// An OST over `group(kind, m)`: empty, 60% full, 95% full, or aged.
fn ost(kind: usize, m: usize, fill: usize) -> Ost {
    let mut o = Ost::new(OstId(0), group(kind, m));
    let cap = o.capacity();
    match fill {
        0 => {}
        1 => o.used = cap / 10 * 6,
        2 => o.used = cap / 100 * 95,
        _ => o.aging = 0.7,
    }
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_rate_model_matches_the_per_member_formula_bitwise(
        kind in 0usize..9,
        m in 0usize..10,
        fill in 0usize..4,
        size in 0u64..=(1u64 << 26),
        stripes in 0u64..64,
        offset in 0u64..3,
    ) {
        let o = ost(kind, m, fill);
        let (fullness, aging) = (o.fullness_factor(), o.aging_factor());
        let view = o.rates();
        // A multiple of the full stripe, one below or one above it.
        let aligned = (stripes * MIB + offset).saturating_sub(1);
        for io in [size, aligned] {
            for sequential in [false, true] {
                let cases = [
                    (
                        group_read(&o.group, io, sequential),
                        o.group.read_bandwidth(io, sequential),
                        view.read_bandwidth(io, sequential),
                        o.read_bandwidth(io, sequential),
                    ),
                    (
                        group_write(&o.group, io, sequential),
                        o.group.write_bandwidth(io, sequential),
                        view.write_bandwidth(io, sequential),
                        o.write_bandwidth(io, sequential),
                    ),
                ];
                for (want_group, group, via_view, via_ost) in cases {
                    let want = want_group * fullness * aging;
                    let bits = |b: Bandwidth| b.as_bytes_per_sec().to_bits();
                    prop_assert_eq!(bits(group), bits(want_group), "group, io {}", io);
                    prop_assert_eq!(bits(via_view), bits(want), "view, io {}", io);
                    prop_assert_eq!(bits(via_ost), bits(want), "ost, io {}", io);
                }
            }
        }
    }
}

#[test]
fn empty_requests_and_failed_groups_take_forever() {
    for (o, io) in [(ost(0, 0, 0), 0), (ost(4, 0, 0), MIB)] {
        let view = o.rates();
        for sequential in [false, true] {
            assert!(view.read_bandwidth(io, sequential).is_zero());
            assert!(view.write_bandwidth(io, sequential).is_zero());
            assert_eq!(
                view.read_bandwidth(io, sequential).time_for(io),
                SimDuration(u64::MAX)
            );
        }
    }
}
