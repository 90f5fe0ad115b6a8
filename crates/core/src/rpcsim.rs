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
//!
//! A replayed request costs its queueing. Arrivals are bucketed per OST in
//! one pass in `(at, index)` order, along one stable sort of the trace's
//! indices (linear on a time-sorted trace, which every caller passes), so
//! no per-OST sort reads the trace at random. Each OST shard builds its
//! OST's [`OstRates`] once, so a service time evaluates the rate formula
//! without re-deriving the group's slowest member, degrade and fullness
//! factors. Each shard owns its arrival list and streams it through the
//! engine one arrival at a time, so a shard's heap never holds more than
//! two events. Each shard emits its completions as one run per class,
//! already in canonical `(done, index)` order, and counts each class's
//! completed bytes; the report merges each class's runs, folds the two
//! classes at once and reads no trace entry. Unit tests check the replay
//! against the per-OST Lindley recursion in closed form (including
//! same-nanosecond ties, the horizon cut and a trace that is not
//! time-sorted) and one OST against the M/G/1 mean sojourn of
//! Pollaczek–Khinchine.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use rayon::prelude::*;

use spider_pfs::ost::{Ost, OstRates};
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

/// One completion: (done time, trace index, latency seconds). A shard emits
/// its completions per class in `(done, index)` order, and the report merges
/// those runs, so per-class accumulation order — and therefore every
/// Welford intermediate — is a pure function of the trace, identical
/// however the shards were scheduled.
type Record = (SimTime, u32, f64);

/// Index of a request's class in the per-class arrays: 0 reads, 1 writes.
fn class_of(req: &IoRequest) -> usize {
    usize::from(!req.is_read)
}

fn service_time(req: &IoRequest, ost: &OstRates<'_>) -> SimDuration {
    let bw = if req.is_read {
        ost.read_bandwidth(req.size, !req.random)
    } else {
        ost.write_bandwidth(req.size, !req.random)
    };
    bw.time_for(req.size)
}

/// Visit the records of sorted `runs` in merged `(done, index)` order. Keys
/// are unique (one record per trace index), so the order does not depend on
/// how the runs are listed.
fn merge_runs<'r>(runs: impl IntoIterator<Item = &'r [Record]>, mut visit: impl FnMut(&Record)) {
    let mut heads: Vec<std::slice::Iter<'r, Record>> = runs.into_iter().map(<[_]>::iter).collect();
    let mut heap: BinaryHeap<Reverse<(SimTime, u32, usize)>> = heads
        .iter()
        .enumerate()
        .filter_map(|(i, run)| run.as_slice().first().map(|r| Reverse((r.0, r.1, i))))
        .collect();
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((_, _, i)) = *top;
        let rec = heads[i].next().expect("a run in the heap has a head");
        visit(rec);
        match heads[i].as_slice().first() {
            Some(r) => *top = Reverse((r.0, r.1, i)),
            None => {
                PeekMut::pop(top);
            }
        }
    }
}

/// Fold one class's runs, merged into canonical `(done, index)` order.
fn fold_class(runs: &[Vec<Record>]) -> ClassStats {
    let mut class = ClassStats::new();
    class.samples = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    merge_runs(runs.iter().map(Vec::as_slice), |&(_, _, lat)| {
        class.completed += 1;
        class.latency.push(lat);
        class.samples.push(lat);
    });
    class
}

/// Merge the shards' per-class completion runs and fold each class; the
/// two classes fold at once. Each shard's byte sums are its completions'
/// bytes, and its truncated counts are the requests still queued or in
/// service at the horizon.
fn build_report(
    trace: &[IoRequest],
    n_osts: usize,
    horizon: SimDuration,
    outs: Vec<OstOut>,
) -> InterferenceReport {
    let mut runs: [Vec<Vec<Record>>; 2] = [
        Vec::with_capacity(outs.len()),
        Vec::with_capacity(outs.len()),
    ];
    let mut bytes = [0u64; 2];
    let mut truncated = [0u64; 2];
    for out in outs {
        for (c, run) in out.runs.into_iter().enumerate() {
            debug_assert!(
                run.is_sorted_by_key(|&(done, idx, _)| (done, idx)),
                "an OST shard's completions left (done, index) order"
            );
            runs[c].push(run);
            bytes[c] += out.bytes[c];
            truncated[c] += out.truncated[c];
        }
    }
    // Conservation: every request that arrived by the (inclusive) horizon
    // either completed or is still queued or in service.
    let end = SimTime::ZERO + horizon;
    let completed: usize = runs.iter().flatten().map(Vec::len).sum();
    debug_assert_eq!(
        completed as u64 + truncated[0] + truncated[1],
        trace.iter().filter(|r| r.at <= end).count() as u64,
        "rpcsim lost or duplicated requests"
    );
    // Live telemetry replays the canonical completion stream: the poller
    // ticks to each completion time and sees per-OST latency samples in
    // `(done, index)` order, which does not depend on the thread count —
    // alarm logs are therefore byte-stable across thread budgets.
    if spider_obs::live_enabled() {
        merge_runs(
            runs.iter().flatten().map(Vec::as_slice),
            |&(done, idx, lat)| {
                spider_obs::live_tick(done.as_nanos());
                let ost = (trace[idx as usize].client as usize) % n_osts.max(1);
                spider_obs::live_sample("rpcsim_latency_ms", &format!("ost{ost:03}"), lat * 1e3);
            },
        );
    }
    // spider-lint: allow(taint-path, reason = "the ordered collect puts class c's stats at index c, and each class folds its own runs on one thread in merged (done, index) order, so scheduling order never reaches the report")
    let mut classes: Vec<ClassStats> = runs.par_iter().map(|r| fold_class(r)).collect();
    let mut writes = classes.pop().expect("two classes");
    let mut reads = classes.pop().expect("two classes");
    [reads.bytes, writes.bytes] = bytes;
    [reads.truncated, writes.truncated] = truncated;
    let issued = completed as u64 + truncated[0] + truncated[1];
    InterferenceReport {
        unfinished: issued - reads.completed - writes.completed,
        truncated: reads.truncated + writes.truncated,
        reads,
        writes,
    }
}

/// What one OST shard hands back, per class (reads, writes): its
/// completions in `(done, index)` order, their bytes, and how many of its
/// requests were still queued or in service at the horizon.
struct OstOut {
    runs: [Vec<Record>; 2],
    bytes: [u64; 2],
    truncated: [u64; 2],
}

/// One OST as a PDES shard: the client→OST mapping is static, so arrivals
/// pre-partition cleanly and the per-OST FIFO dynamics are fully local —
/// no cross-shard events at all, which makes the legal lookahead the whole
/// horizon (a single epoch window per run).
///
/// The shard streams its own arrivals: the engine holds only the next one,
/// and each `Arrival` schedules the following, so the shard's heap holds at
/// most two events (that arrival and the completion in service). A FIFO
/// server starts request `i` at `max(arrival_i, done_{i-1})`, so whether an
/// arrival or a completion at the same nanosecond fires first changes no
/// start, completion or latency. Completions come out in `done` order, and
/// two at the same nanosecond (a zero service time) in arrival order, which
/// is index order for a time-sorted trace.
struct OstShard<'a> {
    /// The OST's rates, built once: the OST does not change during a replay.
    ost: OstRates<'a>,
    trace: &'a [IoRequest],
    /// This OST's trace indices in `(at, index)` order.
    arrivals: Vec<u32>,
    /// Position in `arrivals` of the arrival the engine holds.
    next: usize,
    queue: VecDeque<u32>,
    in_service: Option<u32>,
    runs: [Vec<Record>; 2],
    bytes: [u64; 2],
}

#[derive(Debug, Clone, Copy)]
enum OstEv {
    /// `arrivals[next]` arrives.
    Arrival,
    Complete,
}

impl OstShard<'_> {
    fn start(&mut self, ctx: &mut ShardCtx<'_, '_, OstEv>, idx: u32) {
        self.in_service = Some(idx);
        let d = service_time(&self.trace[idx as usize], &self.ost);
        ctx.schedule_in(d, OstEv::Complete);
    }
}

impl Shard for OstShard<'_> {
    type Event = OstEv;
    type Out = OstOut;

    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, OstEv>, ev: OstEv) {
        match ev {
            OstEv::Arrival => {
                let idx = self.arrivals[self.next];
                self.next += 1;
                if let Some(&following) = self.arrivals.get(self.next) {
                    ctx.schedule(self.trace[following as usize].at, OstEv::Arrival);
                }
                // The queue is empty whenever the server is idle.
                if self.in_service.is_none() {
                    self.start(ctx, idx);
                } else {
                    self.queue.push_back(idx);
                }
            }
            OstEv::Complete => {
                let done_idx = self.in_service.take().expect("completion without service");
                let req = &self.trace[done_idx as usize];
                let lat = ctx.now().since(req.at).as_secs_f64();
                let class = class_of(req);
                self.runs[class].push((ctx.now(), done_idx, lat));
                self.bytes[class] += req.size;
                if let Some(next) = self.queue.pop_front() {
                    self.start(ctx, next);
                }
            }
        }
    }

    fn finish(self) -> OstOut {
        let mut truncated = [0u64; 2];
        for idx in self.in_service.into_iter().chain(self.queue) {
            truncated[class_of(&self.trace[idx as usize])] += 1;
        }
        OstOut {
            runs: self.runs,
            bytes: self.bytes,
            truncated,
        }
    }
}

/// One shard per OST (client id modulo the OST count: file-per-process
/// striping), each holding its own arrival list and with only its first
/// arrival pre-loaded, and the whole horizon as the lookahead.
fn interference_engine<'a>(
    osts: &'a [Ost],
    trace: &'a [IoRequest],
    horizon: SimDuration,
) -> ShardedEngine<OstShard<'a>> {
    assert!(!osts.is_empty());
    let lookahead = SimDuration::from_nanos(horizon.as_nanos().max(1));
    let cfg = PdesConfig::new(lookahead, SimTime::ZERO + horizon, 0);
    let mut arrivals: Vec<Vec<u32>> = vec![Vec::new(); osts.len()];
    let mut per_class = vec![[0usize; 2]; osts.len()];
    // One pass in `(at, index)` order, along a stable sort of the indices
    // by arrival time (linear on a time-sorted trace).
    let n = u32::try_from(trace.len()).expect("a trace indexes by u32");
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&i| trace[i as usize].at);
    for i in order {
        let r = &trace[i as usize];
        let o = (r.client as usize) % osts.len();
        arrivals[o].push(i);
        per_class[o][class_of(r)] += 1;
    }
    let shards: Vec<OstShard<'a>> = osts
        .iter()
        .zip(arrivals)
        .zip(per_class)
        .map(|((ost, arrivals), [reads, writes])| OstShard {
            ost: ost.rates(),
            trace,
            arrivals,
            next: 0,
            queue: VecDeque::new(),
            in_service: None,
            runs: [Vec::with_capacity(reads), Vec::with_capacity(writes)],
            bytes: [0; 2],
        })
        .collect();
    let firsts: Vec<Option<SimTime>> = shards
        .iter()
        .map(|s| s.arrivals.first().map(|&i| trace[i as usize].at))
        .collect();
    let mut engine = ShardedEngine::new(cfg, shards);
    for (o, at) in firsts.into_iter().enumerate() {
        if let Some(at) = at {
            engine.schedule(o, at, OstEv::Arrival);
        }
    }
    engine
}

/// Replay `trace` against `osts` until `horizon`, one shard per OST on the
/// sharded PDES engine, epochs running across worker threads. Each OST
/// replays its requests in `(at, index)` order. Completions are folded per
/// class in canonical `(done, index)` order, merged from the shards' runs,
/// so the report is bit-identical across thread budgets and to
/// [`ShardedEngine::run_sequential`] on the same shards. Also returns the
/// engine's run statistics.
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
    use spider_simkit::{OnlineStats, SimRng};
    use spider_storage::disk::{Disk, DiskId, DiskSpec};
    use spider_storage::raid::{RaidConfig, RaidGroup, RaidGroupId};
    use spider_workload::generator::{generate_trace, merge_traces};
    use spider_workload::spec::StreamSpec;

    /// A request's service time on `ost`, from a view built for it alone.
    fn service_time(req: &IoRequest, ost: &Ost) -> SimDuration {
        super::service_time(req, &ost.rates())
    }

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

    /// The replay in closed form: each OST serves its requests in
    /// `(at, index)` order by the Lindley recursion in integer nanoseconds,
    /// `done = max(at, prev_done) + service_time`. A request completes if
    /// `done` is at or before the horizon and is truncated if it arrived by
    /// the horizon but finishes after it. Completions fold per class in
    /// `(done, index)` order.
    fn lindley_report(
        osts: &[Ost],
        trace: &[IoRequest],
        horizon: SimDuration,
    ) -> InterferenceReport {
        let end = SimTime::ZERO + horizon;
        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by_key(|&i| (trace[i].at, i));
        let mut prev_done = vec![SimTime::ZERO; osts.len()];
        let mut records = Vec::new();
        let (mut reads, mut writes) = (ClassStats::new(), ClassStats::new());
        for i in order {
            let req = &trace[i];
            if req.at > end {
                continue;
            }
            let o = req.client as usize % osts.len();
            let done = req.at.max(prev_done[o]) + service_time(req, &osts[o]);
            prev_done[o] = done;
            if done <= end {
                records.push((done, i, done.since(req.at).as_secs_f64()));
            } else if req.is_read {
                reads.truncated += 1;
            } else {
                writes.truncated += 1;
            }
        }
        records.sort_by_key(|&(done, i, _)| (done, i));
        for (_, i, lat) in records {
            let class = if trace[i].is_read {
                &mut reads
            } else {
                &mut writes
            };
            class.completed += 1;
            class.bytes += trace[i].size;
            class.latency.push(lat);
            class.samples.push(lat);
        }
        let truncated = reads.truncated + writes.truncated;
        InterferenceReport {
            unfinished: truncated,
            truncated,
            reads,
            writes,
        }
    }

    /// Every field of a report, floats by their bits.
    fn report_bits(rep: &InterferenceReport) -> Vec<u64> {
        let mut bits = vec![rep.unfinished, rep.truncated];
        for c in [&rep.reads, &rep.writes] {
            bits.extend([c.completed, c.bytes, c.truncated, c.latency.count()]);
            let l = &c.latency;
            bits.extend([l.mean(), l.variance(), l.min(), l.max()].map(f64::to_bits));
            bits.extend(c.samples.iter().map(|x| x.to_bits()));
        }
        bits
    }

    #[test]
    fn replay_matches_the_lindley_recursion_bitwise() {
        // The mixed trace, cut mid-trace so requests are in flight.
        let osts4 = osts(4);
        let trace = merge_traces(vec![analytics_trace(8, 1), checkpoint_trace(8, 2, 1_000)]);
        let horizon = SimDuration::from_secs(150);
        let rep = run_interference_sharded(&osts4, &trace, horizon).0;
        assert!(rep.truncated > 0 && rep.reads.completed > 0 && rep.writes.completed > 0);
        assert_eq!(
            report_bits(&rep),
            report_bits(&lindley_report(&osts4, &trace, horizon))
        );

        // A hand-built trace on two OSTs whose arrivals land on the same
        // nanosecond as a completion and as each other, with a completion
        // and an arrival at exactly the horizon. On OST 0, c and d arrive
        // together at b's completion, and the engine fires c's arrival
        // first (it was scheduled when b arrived). On OST 1, g arrives at
        // e's completion, which fires first (g's arrival is scheduled only
        // when f arrives, mid-service).
        let osts2 = osts(2);
        let req = |at: SimTime, client: u32, size: u64, is_read: bool| IoRequest {
            at,
            size,
            is_read,
            random: false,
            client,
        };
        let svc = |r: &IoRequest| service_time(r, &osts2[r.client as usize % 2]);
        let t0 = SimTime::from_secs(1);
        let a = req(t0, 0, 1 << 20, true);
        let b = req(t0, 2, 4 << 20, false);
        let b_done = t0 + svc(&a) + svc(&b);
        let c = req(b_done, 0, 1 << 20, false);
        let d = req(b_done, 2, 64 << 10, true);
        let e = req(t0, 1, 64 << 10, true);
        let f = req(t0 + SimDuration::from_nanos(1), 3, 1 << 20, true);
        let g = req(t0 + svc(&e), 1, 1 << 20, true);
        let horizon = b_done.since(SimTime::ZERO) + svc(&c);
        let h = req(SimTime::ZERO + horizon, 3, 1 << 20, false);
        let trace = vec![a, b, e, f, g, c, d, h];
        let rep = run_interference_sharded(&osts2, &trace, horizon).0;
        // c finishes at the horizon with d queued behind it, and h arrives
        // at it; everything else completes.
        assert_eq!(rep.reads.completed + rep.writes.completed, 6);
        assert_eq!(rep.truncated, 2);
        assert_eq!(
            report_bits(&rep),
            report_bits(&lindley_report(&osts2, &trace, horizon))
        );
    }

    #[test]
    fn an_unsorted_trace_replays_in_at_then_index_order() {
        // The mixed trace with arrivals coarsened to 10 ms, so requests on
        // one OST tie, then shuffled: each OST must replay its requests in
        // `(at, index)` order of the shuffled trace, as the oracle does.
        let osts4 = osts(4);
        let mut trace = merge_traces(vec![analytics_trace(8, 1), checkpoint_trace(8, 2, 1_000)]);
        for r in &mut trace {
            r.at = SimTime(r.at.as_nanos() / 10_000_000 * 10_000_000);
        }
        SimRng::seed_from_u64(0x50_2D).shuffle(&mut trace);
        assert!(!trace.is_sorted_by_key(|r| r.at));
        let mut keys: Vec<(u32, SimTime)> = trace.iter().map(|r| (r.client % 4, r.at)).collect();
        keys.sort_unstable();
        assert!(
            keys.windows(2).any(|w| w[0] == w[1]),
            "no OST has tied arrivals"
        );
        let horizon = SimDuration::from_secs(150);
        let rep = run_interference_sharded(&osts4, &trace, horizon).0;
        assert!(rep.truncated > 0 && rep.reads.completed > 0 && rep.writes.completed > 0);
        assert_eq!(
            report_bits(&rep),
            report_bits(&lindley_report(&osts4, &trace, horizon))
        );
    }

    #[test]
    fn ost_shard_matches_the_mg1_mean_sojourn() {
        // One OST fed a seeded Poisson trace of 1 MiB and 8 MiB reads
        // (3:1), at loads 0.3, 0.6 and 0.9. Pollaczek–Khinchine gives the
        // mean sojourn E[S] + λE[S²]/(2(1 − ρ)). The run is sized from the
        // queue's heavy-traffic relaxation time τ = 2(1 + c_s²)E[S]/(1 − ρ)²
        // (Abate & Whitt; for M/M/1 it tends to the exact
        // 1/(μ(1 − √ρ)²) as ρ → 1), λτ requests: batches of 50 λτ requests
        // and at least 1,000, one batch of warm-up from the empty start, 20
        // batches, and a 99% Student-t interval on the batch means.
        const BATCHES: usize = 20;
        const T_19_995: f64 = 2.861;
        let ost = osts(1);
        let sizes = [(1u64 << 20, 0.75), (8u64 << 20, 0.25)];
        let service = |size: u64| {
            service_time(
                &IoRequest {
                    at: SimTime::ZERO,
                    size,
                    is_read: true,
                    random: false,
                    client: 0,
                },
                &ost[0],
            )
            .as_secs_f64()
        };
        let es: f64 = sizes.iter().map(|&(z, p)| p * service(z)).sum();
        let es2: f64 = sizes.iter().map(|&(z, p)| p * service(z).powi(2)).sum();
        let cs2 = es2 / (es * es) - 1.0;
        for (k, rho) in [0.3f64, 0.6, 0.9].into_iter().enumerate() {
            let lambda = rho / es;
            let n_tau = (2.0 * rho * (1.0 + cs2) / (1.0 - rho).powi(2)).ceil() as usize;
            let batch = (50 * n_tau).max(1_000);
            let n = batch * (BATCHES + 1);
            let mut rng = SimRng::seed_from_u64(0x4D_4731 + k as u64);
            let mut t = 0.0f64;
            let trace: Vec<IoRequest> = (0..n)
                .map(|_| {
                    t += rng.exp(1.0 / lambda);
                    let size = if rng.chance(sizes[0].1) {
                        sizes[0].0
                    } else {
                        sizes[1].0
                    };
                    IoRequest {
                        at: SimTime::from_secs_f64(t),
                        size,
                        is_read: true,
                        random: false,
                        client: 0,
                    }
                })
                .collect();
            let horizon = SimDuration::from_secs_f64(t + 1e4 * es);
            let rep = run_interference_sharded(&ost, &trace, horizon).0;
            // One FIFO server: samples are in arrival order.
            assert_eq!(rep.reads.samples.len(), n);
            let means: Vec<f64> = rep.reads.samples[batch..]
                .chunks(batch)
                .map(|b| b.iter().sum::<f64>() / b.len() as f64)
                .collect();
            let stats = OnlineStats::from_iter(means.iter().copied());
            let half = T_19_995 * (stats.variance() / BATCHES as f64).sqrt();
            let pk = es + lambda * es2 / (2.0 * (1.0 - rho));
            assert!(
                (stats.mean() - pk).abs() <= half,
                "rho {rho}: batch-means mean {:.6} s ± {half:.6}, M/G/1 {pk:.6} s",
                stats.mean()
            );
        }
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
