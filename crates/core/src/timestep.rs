//! Time-stepped end-to-end simulation over the flow engine.
//!
//! The steady-state solver answers "how fast right now"; this module
//! advances a set of finite jobs through time, re-solving the max-min
//! allocation as jobs start and finish, and records the per-namespace
//! server-side throughput logs — the same artifact the DDN poller produces
//! in production and IOSI consumes (§VI-B). It is the bridge from workload
//! descriptions to operator-visible telemetry.
//!
//! # Event-driven stepping
//!
//! Between job arrivals and completions the max-min allocation is constant,
//! so the default [`SteppingMode::EventDriven`] engine computes the next
//! completion analytically from the current rates and jumps straight to the
//! earliest of (next arrival, next completion, horizon) — the number of
//! solves is O(#job events), not O(horizon / step). Logs still come out
//! `log_interval`-binned because [`TimeSeries::add_spread`] distributes each
//! jump's bytes over the bins it covers. The engine holds one
//! [`FlowSession`] for the whole run, so each event re-solve pays only for
//! the job delta, and recurring active sets (identical checkpoint waves)
//! are answered from the solver's per-component fixed-point memo.
//!
//! [`SteppingMode::FixedStep`] keeps the legacy scan — a from-scratch
//! [`solve_concurrent`] every `step` — as the differential oracle and the
//! baseline for the `timestep_scale` bench.
//!
//! # Sharded stepping
//!
//! [`run_timestep_sharded`] partitions the jobs into independent *router
//! zones* (connected components of the flow–resource coupling graph,
//! coarsened to namespace granularity) and runs each zone as one shard of
//! a [`ShardedEngine`]. A shard drives the same per-event-point step as
//! the event-driven engine over its own jobs and its own resident
//! [`FlowSession`]. Zones share no capacitated resource, so the run
//! generates **zero cross-shard messages** and the legal lookahead is the
//! whole horizon — a single epoch window, embarrassingly parallel. Within
//! one zone the wake sequence replays the event-driven loop exactly (a
//! single-zone sharded run is bit-identical to it, apart from the
//! event-driven loop counting its final empty check as a step); across
//! zones the engines cut the timeline at different event points, so moved
//! bytes and completions agree to rounding, not bitwise — callers compare
//! them with the same one-log-interval bound the E20 experiment pins.
//! Live-telemetry sampling stays off in sharded runs: shard handlers run
//! off the coordinator thread, where sample order would not be
//! deterministic.

use std::collections::BTreeMap;

use spider_net::SessionStats;
use spider_simkit::{
    Bandwidth, PdesConfig, PdesStats, Shard, ShardCtx, ShardedEngine, SimDuration, SimTime,
    TimeSeries,
};

use crate::center::Center;
use crate::flowsim::{coupled_namespaces, solve_concurrent, FlowSession, FlowTest, TestId};

/// One finite job: `clients` processes each moving `bytes_per_client`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Target namespace.
    pub fs: usize,
    /// Client processes.
    pub clients: u32,
    /// Bytes each process moves.
    pub bytes_per_client: u64,
    /// Transfer size per I/O call.
    pub transfer_size: u64,
    /// When the job starts.
    pub start: SimTime,
    /// Writes (true) or reads.
    pub write: bool,
    /// Optimal placement?
    pub optimal_placement: bool,
}

impl Job {
    /// Total bytes this job moves: `clients × bytes_per_client`. The product
    /// is formed in `u128` — exact for every representable job — and rounded
    /// to `f64` once, so a 10^6-client job moving 8 GiB per client
    /// (≈ 2^63 bytes, the edge of `u64`) cannot overflow or double-round.
    pub fn total_bytes(&self) -> f64 {
        (self.bytes_per_client as u128 * self.clients as u128) as f64
    }

    /// The flow test this job runs while active.
    fn flow_test(&self) -> FlowTest {
        FlowTest {
            fs: self.fs,
            clients: self.clients,
            transfer_size: self.transfer_size,
            write: self.write,
            optimal_placement: self.optimal_placement,
        }
    }
}

/// Columnar per-job state shared by every stepping engine (the `JobColumns`
/// side of the SoA layer): parallel columns indexed by job id, sized once at
/// run start — no per-step allocation, and a single place to account the
/// engine's per-job memory.
struct JobColumns {
    /// Bytes left to move.
    remaining: Vec<f64>,
    /// Completion time (`None` = unfinished).
    completions: Vec<Option<SimTime>>,
    /// Bytes actually moved.
    bytes_moved: Vec<f64>,
    /// Active test handle in the resident session (event-driven loops).
    test_of: Vec<Option<TestId>>,
}

impl JobColumns {
    fn new(jobs: &[Job]) -> Self {
        JobColumns {
            remaining: jobs.iter().map(Job::total_bytes).collect(),
            completions: vec![None; jobs.len()],
            bytes_moved: vec![0.0f64; jobs.len()],
            test_of: vec![None; jobs.len()],
        }
    }

    /// Whether job `i` has started by `t` and still has bytes to move.
    /// Admitting it completes it at its start instead when it has none, so
    /// a job with nothing to move never enters a solve.
    fn admit(&mut self, jobs: &[Job], i: usize, t: SimTime) -> bool {
        if self.completions[i].is_some() || jobs[i].start > t {
            return false;
        }
        if self.remaining[i] == 0.0 {
            self.completions[i] = Some(jobs[i].start);
            return false;
        }
        true
    }

    /// Finish the run: round the byte columns into the public result.
    fn into_result(
        self,
        namespace_logs: Vec<TimeSeries>,
        solves: u64,
        steps: u64,
    ) -> TimestepResult {
        TimestepResult {
            completions: self.completions,
            namespace_logs,
            bytes_moved: self
                .bytes_moved
                .into_iter()
                .map(|b| b.round() as u64)
                .collect(),
            solves,
            steps,
            solver: None,
        }
    }
}

impl spider_simkit::MemFootprint for JobColumns {
    fn mem_bytes(&self) -> u64 {
        use spider_simkit::slab_bytes;
        slab_bytes::<f64>(self.remaining.capacity())
            + slab_bytes::<Option<SimTime>>(self.completions.capacity())
            + slab_bytes::<f64>(self.bytes_moved.capacity())
            + slab_bytes::<Option<TestId>>(self.test_of.capacity())
    }
}

/// How the engine advances time between re-solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// Jump directly between job events (arrivals, completions, horizon);
    /// solves are O(#job events).
    #[default]
    EventDriven,
    /// Legacy fixed-interval scanning: one from-scratch solve every `step`.
    /// Kept as the differential oracle and bench baseline.
    FixedStep,
}

/// Stepping parameters.
#[derive(Debug, Clone)]
pub struct TimestepConfig {
    /// Re-solve interval ([`SteppingMode::FixedStep`] only; the event-driven
    /// engine uses it just to report how many fixed steps it avoided).
    pub step: SimDuration,
    /// Stop even if jobs remain.
    pub horizon: SimDuration,
    /// Log accumulation interval (>= step recommended).
    pub log_interval: SimDuration,
    /// Advance mode; defaults to [`SteppingMode::EventDriven`].
    pub mode: SteppingMode,
}

impl Default for TimestepConfig {
    fn default() -> Self {
        TimestepConfig {
            step: SimDuration::from_secs(5),
            horizon: SimDuration::from_hours(2),
            log_interval: SimDuration::from_secs(10),
            mode: SteppingMode::default(),
        }
    }
}

/// Result of a stepped run.
#[derive(Debug, Clone)]
pub struct TimestepResult {
    /// Completion time per job (`None` = unfinished at the horizon).
    pub completions: Vec<Option<SimTime>>,
    /// Per-namespace server-side throughput log (bytes per log interval).
    pub namespace_logs: Vec<TimeSeries>,
    /// Bytes actually moved per job.
    pub bytes_moved: Vec<u64>,
    /// Max-min solves performed.
    pub solves: u64,
    /// Time advances taken (fixed steps or event jumps).
    pub steps: u64,
    /// Resident-session counters (event-driven and sharded runs; `None`
    /// for the fixed-step oracle, which solves from scratch). A sharded
    /// run reports the sum over its zone sessions.
    pub solver: Option<SessionStats>,
}

/// Earliest start strictly after `t` among jobs not yet completed.
fn next_arrival(jobs: &[Job], completions: &[Option<SimTime>], t: SimTime) -> Option<SimTime> {
    jobs.iter()
        .enumerate()
        .filter(|(i, j)| completions[*i].is_none() && j.start > t)
        .map(|(_, j)| j.start)
        .min()
}

/// Live-telemetry feed for one advance window: tick the poller to the
/// window's end, then sample each touched namespace's achieved throughput
/// (MB/s over the window). Both stepping modes run their advance loop
/// single-threaded in time order, so the sample stream — and any detector
/// verdict on it — is deterministic.
fn live_feed_window(t_end: SimTime, dt: SimDuration, fs_moved: &BTreeMap<usize, f64>) {
    spider_obs::live_tick(t_end.as_nanos());
    let secs = dt.as_secs_f64();
    for (fs, moved) in fs_moved {
        let mbs = if secs > 0.0 { moved / secs / 1e6 } else { 0.0 };
        spider_obs::live_sample("timestep_fs_mb_per_s", &format!("fs{fs}"), mbs);
    }
}

/// The first namespace whose log total strays from the summed bytes its jobs
/// moved by more than one byte per job on it (at least one), as
/// `(namespace, logged, moved)`; `None` when every log conserves bytes.
fn unconserved_log(jobs: &[Job], res: &TimestepResult) -> Option<(usize, f64, u64)> {
    let mut moved = vec![0u64; res.namespace_logs.len()];
    let mut count = vec![0u64; res.namespace_logs.len()];
    for (j, &bytes) in jobs.iter().zip(&res.bytes_moved) {
        moved[j.fs] += bytes;
        count[j.fs] += 1;
    }
    res.namespace_logs
        .iter()
        .enumerate()
        .map(|(fs, log)| (fs, log.total(), moved[fs]))
        .find(|&(fs, logged, moved)| (logged - moved as f64).abs() > count[fs].max(1) as f64)
}

/// Advance `jobs` through time until all complete or the horizon passes.
pub fn run_timestep(center: &Center, jobs: &[Job], cfg: &TimestepConfig) -> TimestepResult {
    assert!(!cfg.step.is_zero());
    let res = match cfg.mode {
        SteppingMode::EventDriven => run_event_driven(center, jobs, cfg),
        SteppingMode::FixedStep => run_fixed_step(center, jobs, cfg),
    };
    debug_assert_eq!(unconserved_log(jobs, &res), None);
    if spider_obs::enabled() {
        spider_obs::counter_add("timestep_runs", 1);
        spider_obs::counter_add("timestep_steps", res.steps);
        spider_obs::counter_add("timestep_solves", res.solves);
    }
    res
}

/// The legacy fixed-interval engine: a from-scratch concurrent solve every
/// `step` (clamped to completions and arrivals inside the step).
fn run_fixed_step(center: &Center, jobs: &[Job], cfg: &TimestepConfig) -> TimestepResult {
    let mut cols = JobColumns::new(jobs);
    let mut logs: Vec<TimeSeries> = (0..center.namespaces())
        .map(|_| TimeSeries::new(cfg.log_interval))
        .collect();

    let mut steps = 0u64;
    let mut solves = 0u64;
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + cfg.horizon;
    while t < end {
        steps += 1;
        // Active jobs at this instant.
        let active: Vec<usize> = (0..jobs.len())
            .filter(|&i| cols.admit(jobs, i, t))
            .collect();
        if active.is_empty() {
            // Jump to the next job start, if any.
            match next_arrival(jobs, &cols.completions, t) {
                Some(s) if s < end => {
                    t = s;
                    continue;
                }
                _ => break,
            }
        }
        let tests: Vec<FlowTest> = active.iter().map(|&i| jobs[i].flow_test()).collect();
        solves += 1;
        let solutions = solve_concurrent(center, &tests);

        // The earliest event inside this step: a job finishing mid-step or
        // a new job arriving (it must not be delayed to the step boundary).
        let mut dt = cfg.step.min(end - t);
        if let Some(s) = next_arrival(jobs, &cols.completions, t) {
            dt = dt.min(s.since(t));
        }
        for (k, &i) in active.iter().enumerate() {
            let rate = solutions[k].aggregate.as_bytes_per_sec();
            if rate > 0.0 {
                let finish = SimDuration::from_secs_f64(cols.remaining[i] / rate);
                dt = dt.min(finish.max(SimDuration::NANO));
            }
        }
        // Advance.
        let live = spider_obs::live_enabled();
        let mut fs_moved: BTreeMap<usize, f64> = BTreeMap::new();
        for (k, &i) in active.iter().enumerate() {
            let rate = Bandwidth(solutions[k].aggregate.as_bytes_per_sec());
            let moved = rate.bytes_over(dt).min(cols.remaining[i]);
            cols.remaining[i] -= moved;
            cols.bytes_moved[i] += moved;
            logs[jobs[i].fs].add_spread(t, dt, moved);
            if live {
                *fs_moved.entry(jobs[i].fs).or_insert(0.0) += moved;
            }
            if cols.remaining[i] <= 1.0 {
                cols.remaining[i] = 0.0;
                cols.completions[i] = Some(t + dt);
            }
        }
        if live {
            live_feed_window(t + dt, dt, &fs_moved);
        }
        t += dt;
    }

    cols.into_result(logs, solves, steps)
}

/// The state one event-driven loop advances: a resident [`FlowSession`],
/// the per-job columns and the per-namespace logs. [`run_event_driven`]
/// runs one over every job; [`run_timestep_sharded`] runs one per router
/// zone, over that zone's jobs only.
struct EventLoop<'a> {
    session: FlowSession<'a>,
    cols: JobColumns,
    logs: Vec<TimeSeries>,
    solves: u64,
    steps: u64,
}

impl<'a> EventLoop<'a> {
    fn new(center: &'a Center, jobs: &[Job], log_interval: SimDuration) -> Self {
        EventLoop {
            session: FlowSession::new(center),
            cols: JobColumns::new(jobs),
            logs: (0..center.namespaces())
                .map(|_| TimeSeries::new(log_interval))
                .collect(),
            solves: 0,
            steps: 0,
        }
    }

    /// One event point at `t`: admit the jobs due by `t`, then — if any job
    /// is active — solve once and jump every active job's bytes to the
    /// earliest of (next arrival, next completion, `end`). Returns the
    /// jump, or `None` when no job is active. `fs_moved`, when given,
    /// accumulates each namespace's bytes over the jump (the live feed).
    fn step(
        &mut self,
        jobs: &[Job],
        t: SimTime,
        end: SimTime,
        mut fs_moved: Option<&mut BTreeMap<usize, f64>>,
    ) -> Option<SimDuration> {
        self.steps += 1;
        let cols = &mut self.cols;
        for (i, j) in jobs.iter().enumerate() {
            if cols.test_of[i].is_none() && cols.admit(jobs, i, t) {
                cols.test_of[i] = Some(self.session.add_test(&j.flow_test()));
            }
        }
        let active: Vec<usize> = (0..jobs.len())
            .filter(|&i| cols.test_of[i].is_some() && cols.completions[i].is_none())
            .collect();
        if active.is_empty() {
            return None;
        }

        // One solve per event point; the allocation then holds until the
        // next arrival or completion, which we compute analytically.
        self.solves += 1;
        self.session.solve();
        let rates: Vec<f64> = active
            .iter()
            .map(|&i| {
                self.session
                    .aggregate_of(cols.test_of[i].expect("active implies admitted"))
                    .as_bytes_per_sec()
            })
            .collect();

        let mut dt = end - t;
        if let Some(s) = next_arrival(jobs, &cols.completions, t) {
            dt = dt.min(s.since(t));
        }
        for (k, &i) in active.iter().enumerate() {
            if rates[k] > 0.0 {
                let finish = SimDuration::from_secs_f64(cols.remaining[i] / rates[k]);
                dt = dt.min(finish.max(SimDuration::NANO));
            }
        }

        // Jump: move every active job's bytes over the whole window.
        for (k, &i) in active.iter().enumerate() {
            let moved = Bandwidth(rates[k]).bytes_over(dt).min(cols.remaining[i]);
            cols.remaining[i] -= moved;
            cols.bytes_moved[i] += moved;
            self.logs[jobs[i].fs].add_spread(t, dt, moved);
            if let Some(acc) = fs_moved.as_deref_mut() {
                *acc.entry(jobs[i].fs).or_insert(0.0) += moved;
            }
            if cols.remaining[i] <= 1.0 {
                cols.remaining[i] = 0.0;
                cols.completions[i] = Some(t + dt);
                self.session
                    .remove_test(cols.test_of[i].expect("active implies admitted"));
            }
        }
        Some(dt)
    }

    fn into_result(self) -> TimestepResult {
        let solver = self.session.solver_stats().clone();
        let mut res = self.cols.into_result(self.logs, self.solves, self.steps);
        res.solver = Some(solver);
        res
    }
}

/// The event-driven engine: one [`EventLoop`] over every job, one solve per
/// job event, analytic jumps in between. Its stop check — no job active and
/// none still to arrive — counts as a step.
fn run_event_driven(center: &Center, jobs: &[Job], cfg: &TimestepConfig) -> TimestepResult {
    let mut lp = EventLoop::new(center, jobs, cfg.log_interval);
    let mut solves_avoided = 0u64;
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + cfg.horizon;
    while t < end {
        let live = spider_obs::live_enabled();
        let mut fs_moved = BTreeMap::new();
        let Some(dt) = lp.step(jobs, t, end, live.then_some(&mut fs_moved)) else {
            match next_arrival(jobs, &lp.cols.completions, t) {
                Some(s) if s < end => {
                    t = s;
                    continue;
                }
                _ => break,
            }
        };
        if live {
            live_feed_window(t + dt, dt, &fs_moved);
        }
        // How many fixed-step solves this single jump replaced.
        solves_avoided += dt.as_nanos().div_ceil(cfg.step.as_nanos()).max(1) - 1;
        t += dt;
    }

    if spider_obs::enabled() {
        spider_obs::counter_add("timestep_solves_avoided", solves_avoided);
        spider_obs::mem_gauge(
            "timestep_session",
            spider_simkit::MemFootprint::mem_bytes(&lp.session),
        );
        spider_obs::mem_gauge(
            "timestep_job_columns",
            spider_simkit::MemFootprint::mem_bytes(&lp.cols),
        );
    }
    lp.into_result()
}

/// One independent router zone as a [`Shard`]: the zone's jobs and an
/// [`EventLoop`] that only ever sees them. Every event is a self-scheduled
/// wake — the zones share no resource, so nothing ever crosses shards.
struct ZoneShard<'a> {
    /// Global job indices owned by this zone, ascending.
    idx: Vec<usize>,
    /// The owned jobs, parallel to `idx`.
    jobs: Vec<Job>,
    lp: EventLoop<'a>,
    end: SimTime,
}

impl Shard for ZoneShard<'_> {
    type Event = ();
    type Out = (Vec<usize>, TimestepResult);

    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, ()>, (): ()) {
        let t = ctx.now();
        if t >= self.end {
            return;
        }
        // Unlike the event-driven loop, a zone takes no final empty step:
        // it stops waking once every job it owns has completed.
        let next = match self.lp.step(&self.jobs, t, self.end, None) {
            Some(dt) => {
                Some(t + dt).filter(|_| self.lp.cols.completions.iter().any(Option::is_none))
            }
            None => next_arrival(&self.jobs, &self.lp.cols.completions, t),
        };
        if let Some(next) = next.filter(|&n| n < self.end) {
            ctx.schedule(next, ());
        }
    }

    fn finish(self) -> Self::Out {
        (self.idx, self.lp.into_result())
    }
}

/// Partition `jobs` into router zones: connected components of the
/// flow–resource coupling graph of all jobs at once (footprints are
/// time-invariant, so these are the union-over-time coupling), coarsened
/// so every namespace lands in exactly one zone (its throughput log then
/// lives on one shard). Returns ascending job-index groups ordered by their
/// smallest namespace.
fn router_zones(center: &Center, jobs: &[Job]) -> Vec<Vec<usize>> {
    let tests: Vec<FlowTest> = jobs.iter().map(Job::flow_test).collect();
    // A zone's representative is its smallest namespace.
    let mut zone_of = coupled_namespaces(center, &tests);
    let mut zones: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, j) in jobs.iter().enumerate() {
        zones.entry(zone_of.find(j.fs as u32)).or_default().push(i);
    }
    zones.into_values().collect()
}

/// The sharded engine: one shard per independent router zone, conservative
/// epoch synchronization with the whole horizon as the lookahead (zones are
/// independent, so the lookahead contract is vacuous and the run is a
/// single epoch window). Returns the merged result plus the PDES run
/// statistics — `cross_messages` is structurally zero.
pub fn run_timestep_sharded(
    center: &Center,
    jobs: &[Job],
    cfg: &TimestepConfig,
) -> (TimestepResult, PdesStats) {
    assert!(!cfg.step.is_zero());
    let logs = (0..center.namespaces())
        .map(|_| TimeSeries::new(cfg.log_interval))
        .collect();
    let mut res = JobColumns::new(jobs).into_result(logs, 0, 0);
    if jobs.is_empty() || cfg.horizon.is_zero() {
        let empty = PdesStats {
            shards: 0,
            epochs: 0,
            events: 0,
            cross_messages: 0,
            queue_high_water: 0,
        };
        return (res, empty);
    }
    let zones = router_zones(center, jobs);
    let end = SimTime::ZERO + cfg.horizon;
    let shards: Vec<ZoneShard<'_>> = zones
        .iter()
        .map(|idx| {
            let zone_jobs: Vec<Job> = idx.iter().map(|&i| jobs[i].clone()).collect();
            ZoneShard {
                idx: idx.clone(),
                lp: EventLoop::new(center, &zone_jobs, cfg.log_interval),
                jobs: zone_jobs,
                end,
            }
        })
        .collect();
    let mut engine = ShardedEngine::new(PdesConfig::new(cfg.horizon, end, 0), shards);
    for (si, idx) in zones.iter().enumerate() {
        if let Some(start) = idx
            .iter()
            .map(|&i| jobs[i].start)
            .filter(|&s| s < end)
            .min()
        {
            engine.schedule(si, start, ());
        }
    }
    let run = engine.run();

    let mut solver = SessionStats::default();
    for (idx, zone) in run.outs {
        for (k, &i) in idx.iter().enumerate() {
            res.completions[i] = zone.completions[k];
            res.bytes_moved[i] = zone.bytes_moved[k];
        }
        // Each namespace belongs to exactly one zone; every other zone
        // leaves its log empty.
        for (fs, log) in zone.namespace_logs.into_iter().enumerate() {
            if !log.is_empty() {
                res.namespace_logs[fs] = log;
            }
        }
        res.solves += zone.solves;
        res.steps += zone.steps;
        solver += zone.solver.expect("a zone keeps a resident session");
    }
    if spider_obs::enabled() {
        spider_obs::counter_add("timestep_sharded_runs", 1);
        spider_obs::counter_add("timestep_sharded_zones", run.stats.shards as u64);
    }
    res.solver = Some(solver);
    debug_assert_eq!(unconserved_log(jobs, &res), None);
    (res, run.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CenterConfig;
    use spider_simkit::MIB;

    fn center() -> Center {
        Center::build(CenterConfig::small())
    }

    fn job(fs: usize, clients: u32, gib_per_client: u64, start_s: u64) -> Job {
        Job {
            fs,
            clients,
            bytes_per_client: gib_per_client << 30,
            transfer_size: MIB,
            start: SimTime::from_secs(start_s),
            write: true,
            optimal_placement: false,
        }
    }

    fn fixed() -> TimestepConfig {
        TimestepConfig {
            mode: SteppingMode::FixedStep,
            ..TimestepConfig::default()
        }
    }

    #[test]
    fn single_job_completes_at_the_analytic_time() {
        let c = center();
        // 16 clients x 1 GiB at 55 MB/s each: ~19.5 s.
        let jobs = vec![job(0, 16, 1, 0)];
        for cfg in [TimestepConfig::default(), fixed()] {
            let res = run_timestep(&c, &jobs, &cfg);
            let done = res.completions[0].expect("finished");
            let expect = (1u64 << 30) as f64 / 55e6;
            assert!(
                (done.as_secs_f64() - expect).abs() < 1.0,
                "{} vs {expect}",
                done.as_secs_f64()
            );
            assert_eq!(res.bytes_moved[0], 16 << 30);
        }
    }

    #[test]
    fn logs_conserve_bytes() {
        let c = center();
        let jobs = vec![job(0, 8, 1, 0), job(1, 4, 2, 30)];
        // Event-driven stepping is exact: one byte of slack per job. The
        // legacy fixed-step path keeps the loose 1e6 tolerance.
        for (cfg, slack) in [(TimestepConfig::default(), 1.0), (fixed(), 1e6)] {
            let res = run_timestep(&c, &jobs, &cfg);
            for fs in 0..2 {
                let logged = res.namespace_logs[fs].total();
                let njobs = jobs.iter().filter(|j| j.fs == fs).count();
                let moved: u64 = jobs
                    .iter()
                    .zip(&res.bytes_moved)
                    .filter(|(j, _)| j.fs == fs)
                    .map(|(_, b)| *b)
                    .sum();
                assert!(
                    (logged - moved as f64).abs() <= slack * njobs as f64,
                    "fs {fs}: {logged} vs {moved} (slack {slack})"
                );
            }
        }
    }

    #[test]
    fn mid_step_arrival_is_not_delayed_to_the_step_boundary() {
        // Job B starts at t=2.5 s, inside the 5 s step kept busy by job A.
        // Both modes must admit it at 2.5 s: B runs contention-free on its
        // own namespace, so its completion is start + analytic drain.
        let c = center();
        let jobs = vec![
            job(0, 4, 100, 0), // long-running, keeps steps from going idle
            Job {
                start: SimTime::ZERO + SimDuration::from_secs_f64(2.5),
                ..job(1, 16, 1, 0)
            },
        ];
        let expect = 2.5 + (1u64 << 30) as f64 / 55e6; // ~22.0 s
        for cfg in [TimestepConfig::default(), fixed()] {
            let res = run_timestep(&c, &jobs, &cfg);
            let done = res.completions[1].expect("finished").as_secs_f64();
            assert!(
                (done - expect).abs() < 0.5,
                "mode {:?}: {done} vs {expect}",
                cfg.mode
            );
        }
    }

    #[test]
    fn event_driven_matches_fixed_step_on_completions() {
        let c = center();
        let jobs = vec![
            job(0, 16, 1, 0),
            job(0, 16, 2, 45),
            job(1, 8, 1, 10),
            job(0, 32, 1, 300),
        ];
        let cfg = TimestepConfig::default();
        let ev = run_timestep(&c, &jobs, &cfg);
        let fx = run_timestep(&c, &jobs, &fixed());
        for (i, (a, b)) in ev.completions.iter().zip(&fx.completions).enumerate() {
            let (a, b) = (a.expect("finished"), b.expect("finished"));
            let gap = a.since(b).max(b.since(a));
            assert!(gap <= cfg.log_interval, "job {i}: event {a} vs fixed {b}");
            assert!(ev.bytes_moved[i] == fx.bytes_moved[i], "job {i} bytes");
        }
    }

    #[test]
    fn event_driven_solves_scale_with_events_not_horizon() {
        let c = center();
        // Two short jobs inside a 2 h horizon: the fixed-step engine takes
        // a step every 5 s while anything runs; the event engine only needs
        // a handful of solves (arrivals + completions).
        let jobs = vec![job(0, 16, 1, 0), job(0, 16, 1, 120)];
        let ev = run_timestep(&c, &jobs, &TimestepConfig::default());
        let fx = run_timestep(&c, &jobs, &fixed());
        assert!(ev.solves <= 8, "event solves: {}", ev.solves);
        assert!(
            fx.solves >= 4 * ev.solves,
            "fixed {} vs event {}",
            fx.solves,
            ev.solves
        );
    }

    #[test]
    fn contending_jobs_finish_later_than_alone() {
        let c = center();
        // Two big jobs on the same namespace, enough clients to saturate.
        let alone = run_timestep(&c, &[job(0, 4_000, 1, 0)], &TimestepConfig::default());
        let contended = run_timestep(
            &c,
            &[job(0, 4_000, 1, 0), job(0, 4_000, 1, 0)],
            &TimestepConfig::default(),
        );
        let t_alone = alone.completions[0].unwrap().as_secs_f64();
        let t_shared = contended.completions[0].unwrap().as_secs_f64();
        assert!(
            t_shared > 1.5 * t_alone,
            "sharing stretches the checkpoint: {t_shared} vs {t_alone}"
        );
    }

    #[test]
    fn staggered_jobs_show_up_as_separate_log_bursts() {
        let c = center();
        let jobs = vec![job(0, 16, 1, 0), job(0, 16, 1, 120)];
        let res = run_timestep(&c, &jobs, &TimestepConfig::default());
        let log = &res.namespace_logs[0];
        let threshold = log.peak() * 0.4;
        let bursts = log.bursts(threshold);
        assert_eq!(bursts.len(), 2, "two separated bursts: {bursts:?}");
    }

    #[test]
    fn horizon_truncates_unfinished_jobs() {
        let c = center();
        for mode in [SteppingMode::EventDriven, SteppingMode::FixedStep] {
            let cfg = TimestepConfig {
                horizon: SimDuration::from_secs(10),
                mode,
                ..TimestepConfig::default()
            };
            let res = run_timestep(&c, &[job(0, 4, 100, 0)], &cfg);
            assert!(res.completions[0].is_none());
            assert!(res.bytes_moved[0] > 0);
        }
    }

    #[test]
    fn total_bytes_is_exact_at_million_client_scale() {
        // 10^6 clients x 8 GiB = 2^33 x 10^6 = 2^39 x 15625 bytes
        // (~8.6e18, past u64::MAX/2) — the regime the u128 path exists
        // for. The mantissa 15625 fits in 14 bits, so the single f64
        // rounding is exact and the round-trip through u128 is lossless.
        let j = Job {
            fs: 0,
            clients: 1_000_000,
            bytes_per_client: 8u64 << 30,
            transfer_size: MIB,
            start: SimTime::ZERO,
            write: true,
            optimal_placement: false,
        };
        let exact: u128 = 8_589_934_592u128 * 1_000_000;
        assert_eq!(j.total_bytes(), exact as f64);
        assert_eq!(j.total_bytes() as u128, exact);
        // And for every shape the differential tests use, the helper is
        // bit-identical to the old `as f64 * as f64` form (both operands are
        // exactly representable, so one rounding of the exact product equals
        // the rounded product of exact factors).
        for (clients, bpc) in [(16u32, 1u64 << 30), (4, 100 << 30), (4_000, 1 << 30)] {
            let j = Job {
                clients,
                bytes_per_client: bpc,
                ..job(0, 1, 1, 0)
            };
            assert_eq!(
                j.total_bytes().to_bits(),
                (bpc as f64 * clients as f64).to_bits()
            );
        }
    }

    #[test]
    fn sharded_zones_split_by_namespace_with_zero_cross_traffic() {
        let c = center();
        // fs 0 and fs 1 share no capacitated resource in the small build:
        // two zones, each a private event loop, nothing crossing shards.
        let jobs = vec![job(0, 16, 1, 0), job(1, 8, 2, 30), job(0, 16, 2, 120)];
        let (res, stats) = run_timestep_sharded(&c, &jobs, &TimestepConfig::default());
        assert_eq!(stats.shards, 2, "one shard per router zone");
        assert_eq!(stats.cross_messages, 0, "zones are independent");
        assert_eq!(stats.epochs, 1, "horizon lookahead: a single epoch window");
        for (i, done) in res.completions.iter().enumerate() {
            assert!(done.is_some(), "job {i} finished");
        }
    }

    #[test]
    fn sharded_matches_event_driven_within_a_log_interval() {
        let c = center();
        let jobs = vec![
            job(0, 16, 1, 0),
            job(0, 16, 2, 45),
            job(1, 8, 1, 10),
            job(0, 32, 1, 300),
            job(1, 4, 2, 200),
        ];
        let cfg = TimestepConfig::default();
        let ev = run_timestep(&c, &jobs, &cfg);
        let (sh, _) = run_timestep_sharded(&c, &jobs, &cfg);
        for (i, (a, b)) in ev.completions.iter().zip(&sh.completions).enumerate() {
            let (a, b) = (a.expect("finished"), b.expect("finished"));
            let gap = a.since(b).max(b.since(a));
            assert!(gap <= cfg.log_interval, "job {i}: event {a} vs sharded {b}");
            let delta = ev.bytes_moved[i].abs_diff(sh.bytes_moved[i]);
            assert!(delta <= 2, "job {i}: bytes differ by {delta}");
        }
        // A zone's events no longer touch the other zone at all, so the
        // sharded engine solves no more often than the global event loop.
        assert!(sh.solves <= ev.solves, "{} vs {}", sh.solves, ev.solves);
    }

    #[test]
    fn single_zone_sharded_is_bitwise_identical_to_event_driven() {
        let c = center();
        // All jobs on fs 0: one zone, whose wake sequence replays the
        // event-driven loop exactly — completions and bytes must match to
        // the bit, not just to a tolerance.
        let jobs = vec![job(0, 16, 1, 0), job(0, 16, 2, 45), job(0, 32, 1, 300)];
        let cfg = TimestepConfig::default();
        let ev = run_timestep(&c, &jobs, &cfg);
        let (sh, stats) = run_timestep_sharded(&c, &jobs, &cfg);
        assert_eq!(stats.shards, 1);
        assert_eq!(sh.completions, ev.completions);
        assert_eq!(sh.bytes_moved, ev.bytes_moved);
        assert_eq!(sh.solves, ev.solves);
        // Both drivers run the same per-event-point step; only the stop
        // rule differs: the event-driven loop counts its final empty check
        // as a step, a zone stops once its last job completes.
        assert_eq!((ev.steps, sh.steps), (6, 5));
    }

    #[test]
    fn a_zero_client_job_completes_beside_a_running_one() {
        // A zero-client job has nothing to move: every driver completes it
        // at its start, and the other job runs as if it were alone.
        let c = center();
        let jobs = vec![job(0, 0, 1, 0), job(0, 4, 1, 0)];
        let drain = SimTime(19_522_578_618);
        let fixed_step = run_timestep(&c, &jobs, &fixed());
        let event = run_timestep(&c, &jobs, &TimestepConfig::default());
        let (sharded, _) = run_timestep_sharded(&c, &jobs, &TimestepConfig::default());
        for res in [fixed_step, event, sharded] {
            assert_eq!(res.completions, vec![Some(SimTime::ZERO), Some(drain)]);
            assert_eq!(res.bytes_moved, vec![0, 4 << 30]);
        }
    }

    #[test]
    fn job_starting_after_horizon_never_runs() {
        let c = center();
        for mode in [SteppingMode::EventDriven, SteppingMode::FixedStep] {
            let cfg = TimestepConfig {
                horizon: SimDuration::from_secs(60),
                mode,
                ..TimestepConfig::default()
            };
            let res = run_timestep(&c, &[job(0, 4, 1, 3_600)], &cfg);
            assert!(res.completions[0].is_none());
            assert_eq!(res.bytes_moved[0], 0);
        }
    }
}
