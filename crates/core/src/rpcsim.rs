//! Request-level discrete-event simulation for interference studies.
//!
//! The flow engine answers "how fast"; this answers "how *responsive*".
//! §II/LL1: "competing workloads can significantly impact application
//! runtime of simulations or the responsiveness of interactive analysis
//! workloads" — a latency effect, visible only at request granularity.
//! Each OST is a FIFO server whose service time comes from the RAID model,
//! run as one shard of the sharded PDES engine; a trace (e.g. analytics
//! alone, or analytics + checkpoint) is replayed through the queues and
//! per-class latency is recorded.

use std::collections::VecDeque;

use spider_pfs::ost::Ost;
use spider_simkit::{
    Engine, OnlineStats, PdesConfig, PdesStats, Shard, ShardCtx, ShardedEngine, SimDuration,
    SimTime,
};
use spider_workload::spec::IoRequest;

/// Per-class (read/write) latency and throughput summary.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Completed requests.
    pub completed: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Requests of this class that arrived but were still queued or in
    /// service when the horizon fired — absent from every other field.
    pub truncated: u64,
    /// Response-time statistics (seconds).
    pub latency: OnlineStats,
    /// Response-time samples for percentiles (seconds).
    samples: Vec<f64>,
}

impl ClassStats {
    fn new() -> Self {
        ClassStats {
            completed: 0,
            bytes: 0,
            truncated: 0,
            latency: OnlineStats::new(),
            samples: Vec::new(),
        }
    }

    /// Latency percentile in seconds.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            spider_simkit::percentile(&self.samples, q)
        }
    }
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct InterferenceReport {
    /// Read-class summary.
    pub reads: ClassStats,
    /// Write-class summary.
    pub writes: ClassStats,
    /// Requests still queued at the horizon (overload indicator), derived
    /// as issued minus completed.
    pub unfinished: u64,
    /// The same end-state count as `unfinished`, summed from the per-class
    /// [`ClassStats::truncated`]. The two are equal by construction, so
    /// comparing them checks nothing; conservation against the trace is
    /// asserted when the report is built.
    pub truncated: u64,
}

/// One completion: (done time, trace index, latency seconds). Collected
/// raw and sorted canonically afterwards so per-class accumulation order —
/// and therefore every Welford intermediate — is a pure function of the
/// trace, identical however the shards were scheduled.
type Record = (SimTime, u32, f64);

fn service_time(req: &IoRequest, ost: &Ost) -> SimDuration {
    let bw = if req.is_read {
        ost.read_bandwidth(req.size, !req.random)
    } else {
        ost.write_bandwidth(req.size, !req.random)
    };
    bw.time_for(req.size)
}

/// Sort the shards' completions into canonical `(done, index)` order and
/// fold them into per-class stats; each shard's leftover holds the trace
/// indices still queued or in service at the horizon.
fn build_report(
    trace: &[IoRequest],
    n_osts: usize,
    horizon: SimDuration,
    outs: Vec<(Vec<Record>, Vec<u32>)>,
) -> InterferenceReport {
    let mut records: Vec<Record> = Vec::new();
    let mut leftover: Vec<u32> = Vec::new();
    for (recs, left) in outs {
        records.extend(recs);
        leftover.extend(left);
    }
    // Conservation: every request that arrived by the (inclusive) horizon
    // either completed or is still queued or in service.
    let end = SimTime::ZERO + horizon;
    debug_assert_eq!(
        records.len() + leftover.len(),
        trace.iter().filter(|r| r.at <= end).count(),
        "rpcsim lost or duplicated requests"
    );
    records.sort_unstable_by_key(|&(done, idx, _)| (done, idx));
    // Live telemetry replays the canonical completion stream: the poller
    // ticks to each completion time and sees per-OST latency samples in
    // `(done, index)` order, which does not depend on the thread count —
    // alarm logs are therefore byte-stable across thread budgets.
    if spider_obs::live_enabled() {
        for &(done, idx, lat) in &records {
            spider_obs::live_tick(done.as_nanos());
            let ost = (trace[idx as usize].client as usize) % n_osts.max(1);
            spider_obs::live_sample("rpcsim_latency_ms", &format!("ost{ost:03}"), lat * 1e3);
        }
    }
    let mut reads = ClassStats::new();
    let mut writes = ClassStats::new();
    for &(_, idx, lat) in &records {
        let req = &trace[idx as usize];
        let class = if req.is_read { &mut reads } else { &mut writes };
        class.completed += 1;
        class.bytes += req.size;
        class.latency.push(lat);
        class.samples.push(lat);
    }
    for &idx in &leftover {
        let class = if trace[idx as usize].is_read {
            &mut reads
        } else {
            &mut writes
        };
        class.truncated += 1;
    }
    let issued = records.len() as u64 + leftover.len() as u64;
    InterferenceReport {
        unfinished: issued - reads.completed - writes.completed,
        truncated: reads.truncated + writes.truncated,
        reads,
        writes,
    }
}

/// One OST as a PDES shard: the client→OST mapping is static, so arrivals
/// pre-partition cleanly and the per-OST FIFO dynamics are fully local —
/// no cross-shard events at all, which makes the legal lookahead the whole
/// horizon (a single epoch window per run).
struct OstShard<'a> {
    ost: &'a Ost,
    trace: &'a [IoRequest],
    queue: VecDeque<u32>,
    in_service: Option<u32>,
    records: Vec<Record>,
}

#[derive(Debug, Clone, Copy)]
enum OstEv {
    Arrival(u32),
    Complete,
}

impl OstShard<'_> {
    fn start(&mut self, ctx: &mut ShardCtx<'_, '_, OstEv>, idx: u32) {
        self.in_service = Some(idx);
        let d = service_time(&self.trace[idx as usize], self.ost);
        ctx.schedule_in(d, OstEv::Complete);
    }
}

impl Shard for OstShard<'_> {
    type Event = OstEv;
    type Out = (Vec<Record>, Vec<u32>);

    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, OstEv>, ev: OstEv) {
        match ev {
            // The queue is empty whenever the server is idle.
            OstEv::Arrival(idx) if self.in_service.is_none() => self.start(ctx, idx),
            OstEv::Arrival(idx) => self.queue.push_back(idx),
            OstEv::Complete => {
                let done_idx = self.in_service.take().expect("completion without service");
                let req = &self.trace[done_idx as usize];
                let lat = ctx.now().since(req.at).as_secs_f64();
                self.records.push((ctx.now(), done_idx, lat));
                if let Some(next) = self.queue.pop_front() {
                    self.start(ctx, next);
                }
            }
        }
    }

    fn finish(self) -> (Vec<Record>, Vec<u32>) {
        let leftover = self.in_service.into_iter().chain(self.queue).collect();
        (self.records, leftover)
    }
}

/// One shard per OST with every trace arrival pre-loaded onto its OST
/// (client id modulo the OST count: file-per-process striping), and the
/// whole horizon as the lookahead.
fn interference_engine<'a>(
    osts: &'a [Ost],
    trace: &'a [IoRequest],
    horizon: SimDuration,
) -> ShardedEngine<OstShard<'a>> {
    assert!(!osts.is_empty());
    let lookahead = SimDuration::from_nanos(horizon.as_nanos().max(1));
    let cfg = PdesConfig::new(lookahead, SimTime::ZERO + horizon, 0);
    let shards = osts
        .iter()
        .map(|ost| OstShard {
            ost,
            trace,
            queue: VecDeque::new(),
            in_service: None,
            records: Vec::new(),
        })
        .collect();
    let mut engine = ShardedEngine::new(cfg, shards);
    for (i, r) in trace.iter().enumerate() {
        let o = (r.client as usize) % osts.len();
        engine.schedule(o, r.at, OstEv::Arrival(i as u32));
    }
    engine
}

/// Replay `trace` against `osts` until `horizon`, one shard per OST on the
/// sharded PDES engine, epochs running across worker threads. The trace
/// must be time-sorted. Completions are folded through one canonical
/// `(done, index)` sort, so the report is bit-identical across thread
/// budgets and to [`ShardedEngine::run_sequential`] on the same shards.
/// Also returns the engine's run statistics.
pub fn run_interference_sharded(
    osts: &[Ost],
    trace: &[IoRequest],
    horizon: SimDuration,
) -> (InterferenceReport, PdesStats) {
    let run = interference_engine(osts, trace, horizon)
        .run_with_observer(crate::pdesobs::epoch_observer("rpcsim_interference"));
    crate::pdesobs::record_run(&run.stats);
    if spider_obs::enabled() {
        spider_obs::counter_add("rpcsim_interference_runs", 1);
        spider_obs::counter_add("rpcsim_events_fired", run.stats.events);
        spider_obs::queue_high_water_gauge("rpcsim", run.stats.queue_high_water);
    }
    let report = build_report(trace, osts.len(), horizon, run.outs);
    (report, run.stats)
}

/// Result of a metadata create storm against an MDS cluster.
#[derive(Debug, Clone)]
pub struct CreateStormReport {
    /// Creates issued.
    pub creates: u64,
    /// Time until the last create completed.
    pub drain_time: SimDuration,
    /// Mean create response time (seconds).
    pub mean_latency: f64,
    /// Worst create response time (seconds).
    pub max_latency: f64,
}

/// Replay a file-per-process create storm — every client opens its
/// checkpoint file at t=0, the §IV-C "rate of concurrent file system
/// metadata operations" problem — against an MDS cluster, request-level.
///
/// Each MDT is a FIFO server with deterministic per-create service time;
/// DNE hashes clients over MDTs (with the cluster's imbalance efficiency
/// folded into the service rate).
pub fn run_create_storm(mds: &spider_pfs::mds::MdsCluster, clients: u32) -> CreateStormReport {
    use spider_pfs::mds::MdsOp;
    assert!(clients > 0);
    let n_mdts = mds.mdts.len();
    let per_mdt_rate =
        mds.mdts[0].rate(MdsOp::Create) * if n_mdts > 1 { mds.dne_efficiency } else { 1.0 };
    let service = SimDuration::from_secs_f64(1.0 / per_mdt_rate);

    let mut engine: Engine<u32> = Engine::new();
    // All creates arrive at t=0; ties break in client order
    // (deterministic queueing).
    for c in 0..clients {
        engine.schedule(SimTime::ZERO, c);
    }
    let mut next_free = vec![SimTime::ZERO; n_mdts];
    let mut total_latency = 0.0f64;
    let mut max_latency = 0.0f64;
    let mut drain = SimTime::ZERO;
    engine.run_to_completion(|ctx, client| {
        let mdt = (client as usize) % n_mdts;
        let start = next_free[mdt].max(ctx.now());
        let done = start + service;
        next_free[mdt] = done;
        let latency = done.since(ctx.now()).as_secs_f64();
        total_latency += latency;
        max_latency = max_latency.max(latency);
        drain = drain.max(done);
    });
    if spider_obs::enabled() {
        spider_obs::counter_add("rpcsim_create_storm_runs", 1);
        spider_obs::counter_add("rpcsim_events_fired", engine.processed());
        spider_obs::queue_high_water_gauge("rpcsim", engine.queue_high_water());
    }
    CreateStormReport {
        creates: clients as u64,
        drain_time: drain.since(SimTime::ZERO),
        mean_latency: total_latency / clients as f64,
        max_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_pfs::ost::OstId;
    use spider_simkit::SimRng;
    use spider_storage::disk::{Disk, DiskId, DiskSpec};
    use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};
    use spider_workload::generator::{generate_trace, merge_traces};
    use spider_workload::spec::StreamSpec;

    fn osts(n: u32) -> Vec<Ost> {
        let cfg = RaidConfig::raid6_8p2();
        (0..n)
            .map(|g| {
                let members = (0..cfg.width())
                    .map(|i| Disk::nominal(DiskId(g * 10 + i as u32), DiskSpec::nearline_sas_2tb()))
                    .collect();
                Ost::new(OstId(g), RaidGroup::new(RaidGroupId(g), cfg, members))
            })
            .collect()
    }

    fn analytics_trace(clients: u32, seed: u64) -> Vec<IoRequest> {
        let mut rng = SimRng::seed_from_u64(seed);
        let traces = (0..clients)
            .map(|c| {
                let mut child = rng.fork(c as u64);
                generate_trace(
                    &StreamSpec::analytics_read(),
                    c,
                    SimDuration::from_secs(300),
                    &mut child,
                )
            })
            .collect();
        merge_traces(traces)
    }

    fn checkpoint_trace(clients: u32, seed: u64, offset: u32) -> Vec<IoRequest> {
        let mut rng = SimRng::seed_from_u64(seed);
        let traces = (0..clients)
            .map(|c| {
                let mut child = rng.fork(c as u64);
                generate_trace(
                    &StreamSpec::checkpoint_restart(),
                    c + offset,
                    SimDuration::from_secs(300),
                    &mut child,
                )
            })
            .collect();
        merge_traces(traces)
    }

    #[test]
    fn isolated_analytics_has_low_latency() {
        let osts = osts(8);
        let trace = analytics_trace(8, 1);
        let rep = run_interference_sharded(&osts, &trace, SimDuration::from_secs(400)).0;
        assert!(rep.reads.completed > 100);
        assert!(
            rep.reads.latency.mean() < 0.25,
            "isolated read latency {}",
            rep.reads.latency.mean()
        );
    }

    #[test]
    fn checkpoint_interference_inflates_read_latency() {
        // LL1's core claim, reproduced at request level.
        let osts = osts(8);
        let analytics = analytics_trace(8, 1);
        let alone = run_interference_sharded(&osts, &analytics, SimDuration::from_secs(400)).0;
        let mixed_trace = merge_traces(vec![analytics, checkpoint_trace(8, 2, 1_000)]);
        let mixed = run_interference_sharded(&osts, &mixed_trace, SimDuration::from_secs(400)).0;
        let inflation = mixed.reads.latency.mean() / alone.reads.latency.mean().max(1e-9);
        assert!(
            inflation > 2.0,
            "checkpoint traffic should inflate read latency: x{inflation:.1}"
        );
    }

    #[test]
    fn conservation_issued_equals_completed_plus_unfinished() {
        let osts = osts(4);
        let trace = analytics_trace(4, 3);
        let total = trace.len() as u64;
        let rep = run_interference_sharded(&osts, &trace, SimDuration::from_secs(400)).0;
        assert_eq!(
            rep.reads.completed + rep.writes.completed + rep.unfinished,
            total
        );
    }

    #[test]
    fn percentiles_dominate_means() {
        let osts = osts(4);
        let trace = analytics_trace(8, 4);
        let rep = run_interference_sharded(&osts, &trace, SimDuration::from_secs(400)).0;
        assert!(rep.reads.latency_percentile(0.99) >= rep.reads.latency.mean());
    }

    #[test]
    fn deterministic_replay() {
        let osts = osts(4);
        let trace = analytics_trace(4, 5);
        let a = run_interference_sharded(&osts, &trace, SimDuration::from_secs(200)).0;
        let b = run_interference_sharded(&osts, &trace, SimDuration::from_secs(200)).0;
        assert_eq!(a.reads.completed, b.reads.completed);
        assert_eq!(
            a.reads.latency.mean().to_bits(),
            b.reads.latency.mean().to_bits()
        );
    }

    #[test]
    fn truncated_requests_are_counted_not_dropped() {
        // Cut the horizon mid-trace so requests are still queued / in
        // service when it fires: they must show up in `truncated`, not
        // vanish silently.
        let osts = osts(4);
        let trace = merge_traces(vec![analytics_trace(8, 1), checkpoint_trace(8, 2, 1_000)]);
        let total = trace.len() as u64;
        let horizon = SimDuration::from_secs(150);
        let rep = run_interference_sharded(&osts, &trace, horizon).0;
        assert!(rep.truncated > 0, "horizon should cut work in flight");
        assert_eq!(
            rep.truncated, rep.unfinished,
            "direct end-state count must match the issued-minus-completed derivation"
        );
        assert_eq!(rep.reads.truncated + rep.writes.truncated, rep.truncated);
        // Full conservation: every trace entry either completed, was
        // truncated in flight, or never arrived before the horizon.
        let end = SimTime::ZERO + horizon;
        let never_arrived = trace.iter().filter(|r| r.at > end).count() as u64;
        assert_eq!(
            rep.reads.completed + rep.writes.completed + rep.truncated + never_arrived,
            total
        );
        // Regression pin: the count is a pure function of (seed, horizon).
        assert_eq!(rep.truncated, TRUNCATED_PIN, "truncated count drifted");
    }

    /// Seed-determined value pinned by `truncated_requests_are_counted_not_dropped`.
    const TRUNCATED_PIN: u64 = 175;

    #[test]
    fn sharded_interference_matches_the_sequential_oracle_bitwise() {
        let osts = osts(8);
        let trace = merge_traces(vec![analytics_trace(8, 1), checkpoint_trace(8, 2, 1_000)]);
        let horizon = SimDuration::from_secs(300);
        let orc = interference_engine(&osts, &trace, horizon).run_sequential();
        let seq = build_report(&trace, osts.len(), horizon, orc.outs);
        let (shd, stats) = run_interference_sharded(&osts, &trace, horizon);
        assert_eq!(stats.shards, 8);
        assert_eq!(stats.cross_messages, 0, "per-OST dynamics are fully local");
        assert_eq!(stats.epochs, 1, "whole-horizon lookahead: one window");
        assert_eq!(stats.events, orc.stats.events);
        for (a, b) in [(&seq.reads, &shd.reads), (&seq.writes, &shd.writes)] {
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.truncated, b.truncated);
            assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
            assert_eq!(
                a.latency.variance().to_bits(),
                b.latency.variance().to_bits()
            );
            assert_eq!(
                a.latency_percentile(0.99).to_bits(),
                b.latency_percentile(0.99).to_bits()
            );
        }
        assert_eq!(seq.unfinished, shd.unfinished);
        assert_eq!(seq.truncated, shd.truncated);
    }

    #[test]
    fn create_storm_drains_at_the_mds_rate() {
        use spider_pfs::mds::MdsCluster;
        // 18,688 file-per-process creates against one MDS at 5k creates/s:
        // ~3.7 s drain, with the last client waiting nearly all of it.
        let report = run_create_storm(&MdsCluster::single(), 18_688);
        let drain = report.drain_time.as_secs_f64();
        assert!((drain - 18_688.0 / 5_000.0).abs() < 0.05, "{drain}");
        assert!(report.max_latency > 0.9 * drain);
        assert!(report.mean_latency > 0.4 * drain && report.mean_latency < 0.6 * drain);
    }

    #[test]
    fn dne_cuts_the_storm_drain_time() {
        use spider_pfs::mds::MdsCluster;
        let single = run_create_storm(&MdsCluster::single(), 10_000);
        let dne4 = run_create_storm(&MdsCluster::dne(4), 10_000);
        let speedup = single.drain_time.as_secs_f64() / dne4.drain_time.as_secs_f64();
        // 4 MDTs at 85% DNE efficiency -> ~3.4x.
        assert!((speedup - 3.4).abs() < 0.2, "{speedup}");
    }

    #[test]
    fn storm_latency_scales_linearly_with_clients() {
        use spider_pfs::mds::MdsCluster;
        let small = run_create_storm(&MdsCluster::single(), 1_000);
        let big = run_create_storm(&MdsCluster::single(), 4_000);
        let ratio = big.drain_time.as_secs_f64() / small.drain_time.as_secs_f64();
        assert!((ratio - 4.0).abs() < 0.05, "{ratio}");
    }
}
