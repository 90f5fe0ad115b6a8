//! E8 — §IV-C / LL10: namespace strategy, MDS limits, fullness and purge.
//!
//! Three sub-results:
//!
//! 1. **Metadata scaling**: a single MDS per namespace "cannot sustain the
//!    necessary rate of concurrent file system metadata operations"; two
//!    independent namespaces double capacity; DNE helps but sub-linearly —
//!    hence the recommendation to use both.
//! 2. **Fullness degradation**: throughput vs fullness, with the published
//!    knees (measurable past 50%, severe past 70%).
//! 3. **Purge**: a 14-day purge keeps a continuously-written scratch volume
//!    below the knee.
//! 4. **Federation storm** (E8d): cross-namespace metadata traffic — the
//!    data-centric center's namespaces referencing each other — run on the
//!    sharded PDES engine, one shard per namespace, with the cross-namespace
//!    RPC hop as the lookahead.

use std::fmt::Write as _;

use spider_obs::PhaseTimer;
use spider_pfs::fs::{FileSystem, FsConfig};
use spider_pfs::mds::{MdsCluster, MdsOp};
use spider_pfs::purge::{purge, PURGE_WINDOW};
use spider_simkit::{
    Merge, OnlineStats, PdesConfig, PdesStats, Shard, ShardCtx, ShardedEngine, SimDuration, SimRng,
    SimTime, MIB,
};
use spider_storage::disk::{Disk, DiskId, DiskSpec};
use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};

use crate::config::Scale;
use crate::report::{pct, Table};

fn metadata_table() -> Table {
    let mix = vec![
        (MdsOp::Create, 0.35),
        (MdsOp::Open, 0.15),
        (MdsOp::Stat, 0.35),
        (MdsOp::Unlink, 0.10),
        (MdsOp::Setattr, 0.05),
    ];
    let mut t = Table::new(
        "E8a: metadata capacity by namespace strategy (mixed op workload)",
        &["strategy", "sustainable ops/s", "vs single"],
    );
    let single = MdsCluster::single().max_throughput(&mix);
    let rows: Vec<(&str, f64)> = vec![
        ("1 namespace, 1 MDS", single),
        (
            "1 namespace, DNE x2",
            MdsCluster::dne(2).max_throughput(&mix),
        ),
        (
            "1 namespace, DNE x4",
            MdsCluster::dne(4).max_throughput(&mix),
        ),
        ("2 namespaces (Spider II)", 2.0 * single),
        (
            "2 namespaces + DNE x2 (recommended)",
            2.0 * MdsCluster::dne(2).max_throughput(&mix),
        ),
    ];
    for (name, cap) in rows {
        t.row(vec![
            name.into(),
            format!("{cap:.0}"),
            format!("{:.2}x", cap / single),
        ]);
    }
    t
}

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
    let mut fsc = FsConfig::spider2("e8");
    fsc.n_oss = 2;
    FileSystem::build(fsc, groups, MdsCluster::single())
}

fn fullness_table() -> Table {
    let mut t = Table::new(
        "E8b: write throughput vs fullness (paper: degrades past 50%, severe past 70%)",
        &["fullness", "relative throughput"],
    );
    let mut fs = small_fs(2);
    let fresh = fs.write_ceiling(MIB, true).as_bytes_per_sec();
    for pct_full in [0u64, 30, 50, 60, 70, 80, 90, 100] {
        for ost in &mut fs.osts {
            ost.used = ost.capacity() * pct_full / 100;
        }
        let now = fs.write_ceiling(MIB, true).as_bytes_per_sec();
        t.row(vec![format!("{pct_full}%"), pct(now / fresh)]);
    }
    t
}

fn purge_table(scale: Scale) -> Table {
    let days = match scale {
        Scale::Paper => 60,
        Scale::Small => 35,
    };
    let mut t = Table::new(
        "E8c: 35-day scratch simulation with daily 14-day purge",
        &[
            "day",
            "fullness",
            "files",
            "purged today",
            "bytes freed (GiB)",
        ],
    );
    let mut fs = small_fs(4);
    let mut rng = SimRng::seed_from_u64(0xE8);
    let dir = fs
        .ns
        .mkdir_p("/scratch")
        .expect("fresh namespace accepts /scratch");
    // Daily production sized so ~20 days of data would pass the 70% knee:
    // capacity 64 TB, so write ~2.5 TB/day as 2,500 1 GiB files.
    let daily_files = 2_500u32;
    let file_bytes = 1u64 << 30;
    // One buffer for every name and path.
    let mut name = String::new();
    for day in 0..days {
        let now = SimTime::ZERO + SimDuration::from_days(day);
        for i in 0..daily_files {
            name.clear();
            write!(name, "d{day}_f{i}").expect("writing to a String cannot fail");
            let f = fs
                .create(dir, &name, 4, 0, now, &mut rng)
                .expect("scratch dir exists and names are unique per day");
            fs.append(f, file_bytes, now)
                .expect("fullness stays below the append ceiling in this sweep");
        }
        // ~10% of yesterday's files are re-read (they survive purges).
        if day > 0 {
            for i in 0..daily_files / 10 {
                name.clear();
                write!(name, "/scratch/d{}_f{i}", day - 1)
                    .expect("writing to a String cannot fail");
                if let Some(f) = fs.ns.lookup(&name) {
                    fs.read(f, now).expect("file was just looked up");
                }
            }
        }
        let report = purge(&mut fs, now, PURGE_WINDOW);
        if day % 5 == 4 || day == days - 1 {
            t.row(vec![
                day.to_string(),
                pct(fs.fullness()),
                fs.ns.file_count().to_string(),
                report.deleted.to_string(),
                format!("{:.0}", report.bytes_freed as f64 / (1u64 << 30) as f64),
            ]);
        }
    }
    t
}

/// Cross-namespace RPC hop: metadata references between namespaces travel
/// an extra network round-trip. This is the model's minimum cross-shard
/// latency — the PDES lookahead.
pub const FEDERATION_HOP: SimDuration = SimDuration::from_millis(1);

/// Per-namespace accumulator for the federation storm.
#[derive(Debug, Clone, Default)]
pub struct NsStats {
    /// Metadata ops issued by this namespace's own clients.
    pub local_ops: u64,
    /// Ops that arrived from other namespaces.
    pub remote_ops: u64,
    /// Federated requests this namespace sent out.
    pub sent: u64,
    /// Service latency over all ops handled here (seconds).
    pub latency: OnlineStats,
}

impl Merge for NsStats {
    fn merge(&mut self, other: Self) {
        self.local_ops += other.local_ops;
        self.remote_ops += other.remote_ops;
        self.sent += other.sent;
        self.latency.merge(&other.latency);
    }
}

/// One namespace: a FIFO metadata server fed by a self-clocked local op
/// generator; a `remote_share` fraction of ops also spawn a federated
/// request to a random peer namespace, arriving one [`FEDERATION_HOP`]
/// (plus float jitter) later. All timestamps are float-derived, so runs
/// are tie-free and the epoch-parallel engine matches the sequential
/// oracle bit for bit.
pub struct NsShard {
    service: SimDuration,
    mean_gap: f64,
    remote_share: f64,
    next_free: SimTime,
    out: NsStats,
    /// Test hook: every op's sojourn in seconds, in service order.
    #[cfg(test)]
    sojourns: Vec<f64>,
}

/// Federation storm event.
#[derive(Debug, Clone, Copy)]
pub enum FedEv {
    /// Local generator tick with remaining op count.
    Gen(u32),
    /// Federated request from another namespace.
    Req,
}

impl NsShard {
    fn serve(&mut self, now: SimTime) {
        let start = self.next_free.max(now);
        let done = start + self.service;
        self.next_free = done;
        let sojourn = done.since(now).as_secs_f64();
        self.out.latency.push(sojourn);
        #[cfg(test)]
        self.sojourns.push(sojourn);
    }
}

impl Shard for NsShard {
    type Event = FedEv;
    type Out = NsStats;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, FedEv>, ev: FedEv) {
        match ev {
            FedEv::Gen(remaining) => {
                self.serve(ctx.now());
                self.out.local_ops += 1;
                let roll = ctx.rng().f64();
                if roll < self.remote_share && ctx.shards() > 1 {
                    // Deterministic peer pick, skipping self.
                    let peers = ctx.shards() - 1;
                    let pick = ctx.rng().index(peers);
                    let dst = if pick >= ctx.shard() { pick + 1 } else { pick };
                    let jitter = ctx.rng().f64() * 0.5e-3;
                    self.out.sent += 1;
                    ctx.send_in(
                        dst,
                        FEDERATION_HOP + SimDuration::from_secs_f64(jitter),
                        FedEv::Req,
                    );
                }
                if remaining > 0 {
                    let mean = self.mean_gap;
                    let gap = ctx.rng().exp(mean);
                    ctx.schedule_in(SimDuration::from_secs_f64(gap), FedEv::Gen(remaining - 1));
                }
            }
            FedEv::Req => {
                self.serve(ctx.now());
                self.out.remote_ops += 1;
            }
        }
    }

    fn finish(self) -> NsStats {
        #[cfg(test)]
        tests::SOJOURNS.with(|s| s.borrow_mut().push(self.sojourns));
        self.out
    }
}

/// Build the federation storm: `namespaces` shards, `ops_per_ns` local ops
/// each, a `remote_share` fraction of them fanning out cross-namespace.
pub fn federation_storm(
    namespaces: usize,
    ops_per_ns: u32,
    remote_share: f64,
    seed: u64,
) -> ShardedEngine<NsShard> {
    let rate = MdsCluster::single().mdts[0].rate(MdsOp::Create);
    let cfg = PdesConfig::new(FEDERATION_HOP, SimTime::from_secs(3_600), seed);
    let shards = (0..namespaces)
        .map(|_| NsShard {
            service: SimDuration::from_secs_f64(1.0 / rate),
            // Offered load at 80% of a single MDS; federated traffic on
            // top pushes busy namespaces past saturation.
            mean_gap: 1.0 / (0.8 * rate),
            remote_share,
            next_free: SimTime::ZERO,
            out: NsStats::default(),
            #[cfg(test)]
            sojourns: Vec::new(),
        })
        .collect();
    let mut eng = ShardedEngine::new(cfg, shards);
    for ns in 0..namespaces {
        // Stagger starts by a fraction of a service time, tie-free.
        let t0 = SimTime::from_secs_f64(1e-5 * (ns as f64 + 1.0));
        eng.schedule(ns, t0, FedEv::Gen(ops_per_ns - 1));
    }
    eng
}

/// Run the storm on the epoch-parallel engine with obs wiring.
pub fn run_federation(
    namespaces: usize,
    ops_per_ns: u32,
    remote_share: f64,
    seed: u64,
) -> (Vec<NsStats>, PdesStats) {
    let run = federation_storm(namespaces, ops_per_ns, remote_share, seed)
        .run_with_observer(crate::pdesobs::epoch_observer("e8_federation"));
    crate::pdesobs::record_run(&run.stats);
    (run.outs, run.stats)
}

fn federation_table(scale: Scale) -> Table {
    let (namespaces, ops) = match scale {
        Scale::Paper => (8, 4_000),
        Scale::Small => (4, 1_500),
    };
    let mut t = Table::new(
        "E8d: cross-namespace federation storm (sharded PDES, 1 shard/namespace)",
        &[
            "remote share",
            "ops served",
            "mean latency",
            "max latency",
            "cross-ns msgs",
            "epoch barriers",
        ],
    );
    for share in [0.0, 0.1, 0.3] {
        let (outs, stats) = run_federation(namespaces, ops, share, 0xE8D);
        let mut all = NsStats::default();
        for o in outs {
            all.merge(o);
        }
        t.row(vec![
            pct(share),
            (all.local_ops + all.remote_ops).to_string(),
            format!("{:.3}ms", all.latency.mean() * 1e3),
            format!("{:.3}ms", all.latency.max() * 1e3),
            stats.cross_messages.to_string(),
            stats.epochs.to_string(),
        ]);
    }
    t
}

/// Run E8.
pub fn run(scale: Scale) -> Vec<Table> {
    let mut tables = vec![metadata_table(), fullness_table()];
    // Wall-time sub-phases, recorded only in the obs manifest's `wall`
    // section.
    let purge_sim = PhaseTimer::start("exp:E8/purge_sim");
    tables.push(purge_table(scale));
    drop(purge_sim);
    let federation = PhaseTimer::start("exp:E8/federation");
    tables.push(federation_table(scale));
    drop(federation);
    super::trace::experiment("E8", 1, tables.len());
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Each finished shard's per-op sojourns, in finish (shard) order.
        /// `run_sequential` runs and finishes every shard on the calling
        /// thread, so a test reads its own run here.
        pub(super) static SOJOURNS: std::cell::RefCell<Vec<Vec<f64>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Run the storm sequentially and return each shard's per-op sojourns.
    fn sojourns(namespaces: usize, ops_per_ns: u32, remote_share: f64, seed: u64) -> Vec<Vec<f64>> {
        SOJOURNS.with(|s| s.borrow_mut().clear());
        federation_storm(namespaces, ops_per_ns, remote_share, seed).run_sequential();
        SOJOURNS.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }

    #[test]
    fn e8d_shards_match_the_md1_mean_sojourn() {
        // Each namespace is a FIFO server with a fixed 1/μ service time,
        // μ = 5,000 creates/s. Its own clients send Poisson arrivals at
        // 0.8μ; a remote share r of every peer's ops arrives thinned and
        // independently delayed, which keeps the sum Poisson, at 0.8μr in
        // all (for any number of namespaces above one). So each shard is an
        // M/D/1 queue at ρ = 0.8(1 + r), with mean sojourn
        // 1/μ + ρ/(2μ(1 − ρ)): 0.600 ms at r = 0 and 0.933 ms at r = 0.1.
        //
        // Fixed before the first run, as the rpcsim M/G/1 test does: the
        // heavy-traffic relaxation time τ = 2(1 + c_s²)E[S]/(1 − ρ)² with
        // c_s² = 0, batches of 50 λτ ops, one batch of warm-up from the
        // empty start, 10 batches on each of two namespaces (20 batch
        // means), and a 99% Student-t interval on the batch means.
        const SHARDS: usize = 2;
        const BATCHES: usize = 10;
        const T_19_995: f64 = 2.861;
        let mu = MdsCluster::single().mdts[0].rate(MdsOp::Create);
        assert_eq!(mu, 5_000.0);
        for (r, expected_ms) in [(0.0f64, 0.600), (0.1, 0.933)] {
            let rho = 0.8 * (1.0 + r);
            let md1 = 1.0 / mu + rho / (2.0 * mu * (1.0 - rho));
            assert!((md1 * 1e3 - expected_ms).abs() < 5e-4, "{md1}");
            let n_tau = (2.0 * rho / (1.0 - rho).powi(2)).ceil() as usize;
            let batch = 50 * n_tau;
            // Local ops alone fill the batches; remote ones only add.
            let ops = (batch * (BATCHES + 1)) as u32;
            let means: Vec<f64> = sojourns(SHARDS, ops, r, 0xE8D)
                .iter()
                .flat_map(|s| {
                    assert!(s.len() >= batch * (BATCHES + 1));
                    s[batch..batch * (BATCHES + 1)]
                        .chunks(batch)
                        .map(|b| b.iter().sum::<f64>() / b.len() as f64)
                })
                .collect();
            assert_eq!(means.len(), SHARDS * BATCHES);
            let stats = OnlineStats::from_iter(means.iter().copied());
            let half = T_19_995 * (stats.variance() / means.len() as f64).sqrt();
            assert!(
                (stats.mean() - md1).abs() <= half,
                "r {r}: batch-means mean {:.6} s ± {half:.6}, M/D/1 {md1:.6} s",
                stats.mean()
            );
        }
    }

    #[test]
    fn e8d_overloaded_shards_grow_their_latency_with_run_length() {
        // r = 0.3 gives ρ = 1.04: no steady state, so the mean sojourn
        // keeps growing as the run lengthens.
        let mean_ms = |ops: u32| {
            let run = federation_storm(2, ops, 0.3, 0xE8D).run_sequential();
            run.merged().latency.mean() * 1e3
        };
        let means: Vec<f64> = [2_000, 8_000, 32_000].map(mean_ms).to_vec();
        assert!(
            means.windows(2).all(|w| w[1] > 1.5 * w[0]),
            "mean latency by run length: {means:?} ms"
        );
    }

    #[test]
    fn e8a_two_namespaces_beat_dne2() {
        let t = metadata_table();
        let cap = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(cap("2 namespaces (Spider II)") > cap("1 namespace, DNE x2"));
        assert!(cap("2 namespaces + DNE x2 (recommended)") > cap("2 namespaces (Spider II)"));
    }

    #[test]
    fn e8b_knees_at_50_and_70() {
        let t = fullness_table();
        let rel = |f: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == f).unwrap()[1]
                .trim_end_matches('%')
                .parse()
                .unwrap()
        };
        assert!((rel("50%") - 100.0).abs() < 0.5, "no loss at 50%");
        assert!(rel("70%") < 90.0, "measurable loss at 70%: {}", rel("70%"));
        assert!(rel("90%") < 50.0, "severe past 70%: {}", rel("90%"));
    }

    #[test]
    fn e8d_parallel_federation_matches_the_sequential_oracle_bitwise() {
        let par = federation_storm(4, 800, 0.25, 0xE8D).run();
        let seq = federation_storm(4, 800, 0.25, 0xE8D).run_sequential();
        assert_eq!(par.outs.len(), seq.outs.len());
        for (p, s) in par.outs.iter().zip(&seq.outs) {
            assert_eq!(p.local_ops, s.local_ops);
            assert_eq!(p.remote_ops, s.remote_ops);
            assert_eq!(p.sent, s.sent);
            assert_eq!(p.latency.mean().to_bits(), s.latency.mean().to_bits());
            assert_eq!(
                p.latency.variance().to_bits(),
                s.latency.variance().to_bits()
            );
        }
        assert_eq!(par.stats.cross_messages, seq.stats.cross_messages);
        assert!(par.stats.cross_messages > 0, "federation traffic flows");
        assert!(par.stats.epochs > 1, "the run spans many epoch windows");
    }

    #[test]
    fn e8d_remote_traffic_inflates_metadata_latency() {
        let t = federation_table(Scale::Small);
        let mean_ms =
            |row: usize| -> f64 { t.rows[row][2].trim_end_matches("ms").parse().unwrap() };
        assert!(
            mean_ms(2) > mean_ms(0),
            "30% federated load should cost latency: {} vs {}",
            mean_ms(2),
            mean_ms(0)
        );
        // Conservation: sent == received across the federation.
        let (outs, stats) = run_federation(4, 500, 0.3, 7);
        let sent: u64 = outs.iter().map(|o| o.sent).sum();
        let recv: u64 = outs.iter().map(|o| o.remote_ops).sum();
        assert_eq!(sent, recv);
        assert_eq!(sent, stats.cross_messages);
    }

    #[test]
    fn e8c_purge_holds_fullness_below_the_knee() {
        let t = purge_table(Scale::Small);
        let last = t.rows.last().unwrap();
        let fullness: f64 = last[1].trim_end_matches('%').parse().unwrap();
        assert!(
            fullness < 70.0,
            "purge failed to hold the knee: {fullness}%"
        );
        let purged: u64 = last[3].parse().unwrap();
        assert!(purged > 0, "steady-state purging is active");
        // Steady state: file count stabilizes near 14 days x daily rate
        // (plus the re-read survivors).
        let files: u64 = last[2].parse().unwrap();
        assert!(files < 16 * 2_500 * 2, "{files}");
    }
}
