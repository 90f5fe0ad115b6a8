//! Deterministic sharded parallel discrete-event simulation (PDES).
//!
//! The [`engine`](crate::engine) module runs one event queue on one core;
//! the [`montecarlo`](crate::montecarlo) module parallelizes *replications*
//! of whole runs. This module parallelizes a **single run**: the model is
//! partitioned into N logical shards (by natural partition — OST, SSU,
//! router zone, namespace), each owning a private [`Engine`], a private
//! counter-based RNG stream, and private state, synchronized by
//! **conservative epoch barriers**:
//!
//! - **Lookahead contract.** The model declares a minimum cross-shard
//!   latency `lookahead`. A cross-shard event sent at simulated time `t`
//!   must arrive at `t + lookahead` or later; [`ShardCtx::send`] panics
//!   (deterministically — the check is a pure function of the timestamps)
//!   on violation.
//! - **Epoch windows.** Time is cut into half-open windows of width
//!   `lookahead` aligned to the epoch grid. Every shard can process all of
//!   its events inside the current window with *no* rollback: any message
//!   generated inside window `k` arrives at or after the start of window
//!   `k+1` by the lookahead contract, so no shard can receive an event in
//!   its past.
//! - **Deterministic mailbox flush.** Cross-shard events accumulate in
//!   per-`(src, dst)` mailboxes during the window and are flushed at the
//!   barrier in fixed shard order (`src` ascending, then `dst` ascending,
//!   then send order). Scheduling order — and therefore the engine's
//!   same-instant tie-breaking — is a function of the model alone, never of
//!   the thread schedule.
//! - **Conservation.** Debug builds check at the end of every run that the
//!   run's event count is the shards' delivered events summed, that every
//!   mailbox is empty, and that the barriers delivered exactly the messages
//!   [`ShardCtx::send`] accepted.
//! - **Fixed-shape reduction.** Per-shard accumulators are returned in
//!   shard order; [`PdesRun::merged`] folds them through the same
//!   [`tree_merge`] the Monte Carlo engine uses. A run is therefore
//!   **bit-identical whether it executes on 1 thread or 8** (enforced by
//!   `tests/pdes_threads.rs`, the same differential harness as
//!   `tests/montecarlo_threads.rs`).
//!
//! - **Sub-grain windows on the caller.** A window runs its shards through
//!   the rayon shim only when the window before it delivered at least
//!   [`GRAIN`] events (the first window always does); otherwise the calling
//!   thread runs them in shard order. Window bounds, the flush order and
//!   the reductions are the same on both paths, so the choice cannot change
//!   a result. The cutoff lives here rather than in the shim because only
//!   the engine sees the events behind its 16 or 32 inputs.
//!
//! [`ShardedEngine::run_sequential`] executes the identical shard set in a
//! single global `(time, shard)` order with immediate message delivery —
//! the differential oracle for the epoch-parallel path. Per-shard handler
//! sequences are identical between the two modes whenever no two events on
//! the same shard share an exact nanosecond timestamp with a cross-shard
//! message involved; models with continuous (float-derived) event times are
//! tie-free by construction, and purely local ties order identically in
//! both modes.

use rayon::prelude::*;

use crate::engine::{Engine, EventContext};
use crate::mem::{slab_bytes, MemFootprint};
use crate::montecarlo::{tree_merge, Merge};
use crate::rng::SimRng;
use crate::{SimDuration, SimTime};

/// Events a window must deliver for the next window to run its shards in
/// parallel; a window after a smaller one runs them on the calling thread,
/// where handing shards to another core would cost more than it saves.
///
/// Measured on a 2-core host at spare-thread budget 1 with the federation
/// storm's shape (16 shards, 1 ms lookahead, ~0.1 µs of work per event,
/// 1.15 M events) and its local rate swept, best of nine, three rounds:
/// parallel windows took 132–156 ms against 97–118 ms on the caller at 77
/// events per window, 101–120 against 86–105 ms at 153, broke even at about
/// 300, and won from about 1,200 (65–79 against 86–126 ms at 1,223;
/// 80–83 against 117–142 ms at 4,861). The cutoff sits at about three
/// times the break-even, so windows of events even cheaper than these
/// still pay for the handoff; costlier events break even below it. The
/// federation storm (~76 events per window) runs every window after the
/// first on the caller, so in `pdes_scale` it took 13.21 ms at budget 0
/// and 13.26 ms at budget 1.
pub const GRAIN: u64 = 1_024;

/// Configuration of a sharded run.
#[derive(Debug, Clone, Copy)]
pub struct PdesConfig {
    /// Minimum cross-shard latency declared by the model; also the epoch
    /// width. Must be positive.
    pub lookahead: SimDuration,
    /// Inclusive horizon: events at exactly `horizon` still fire.
    pub horizon: SimTime,
    /// Master seed; shard `i` draws from [`SimRng::stream`]`(seed, i)`.
    pub seed: u64,
}

impl PdesConfig {
    /// A config with the given epoch width and horizon.
    pub fn new(lookahead: SimDuration, horizon: SimTime, seed: u64) -> Self {
        assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
        PdesConfig {
            lookahead,
            horizon,
            seed,
        }
    }
}

/// One logical partition of the model: private state plus the event handler.
///
/// `handle` runs with exclusive access to the shard; cross-shard
/// communication goes exclusively through [`ShardCtx::send`]. `finish`
/// extracts the shard's accumulator once the run completes.
pub trait Shard: Send {
    /// Event payload delivered to this shard.
    type Event: Send;
    /// Per-shard accumulator extracted at the end of the run.
    type Out: Send;

    /// Handle one event at `ctx.now()`.
    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, Self::Event>, ev: Self::Event);

    /// Consume the shard, yielding its accumulator.
    fn finish(self) -> Self::Out;
}

/// Handler-side view of a shard: clock, local scheduling, the shard's
/// private RNG stream, and the cross-shard mailbox.
pub struct ShardCtx<'a, 'b, E> {
    inner: &'a mut EventContext<'b, E>,
    rng: &'a mut SimRng,
    outbox: &'a mut [Vec<(SimTime, E)>],
    sent: &'a mut u64,
    shard_id: usize,
    lookahead: SimDuration,
}

impl<E> ShardCtx<'_, '_, E> {
    /// Current simulated time (the firing event's timestamp).
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard_id
    }

    /// Total shard count.
    pub fn shards(&self) -> usize {
        self.outbox.len()
    }

    /// The model-declared minimum cross-shard latency.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The shard's private RNG stream (a pure function of `(seed, shard)`).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Schedule a local follow-up event at an absolute time.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        self.inner.schedule(at, ev);
    }

    /// Schedule a local follow-up event after a delay.
    pub fn schedule_in(&mut self, d: SimDuration, ev: E) {
        self.inner.schedule_in(d, ev);
    }

    /// Send a cross-shard event arriving at absolute time `at`.
    ///
    /// Panics (deterministically) if `at` is inside the lookahead window —
    /// that would let a message land in a window the destination shard has
    /// already processed, which conservative synchronization forbids.
    pub fn send(&mut self, dst: usize, at: SimTime, ev: E) {
        assert!(
            dst < self.outbox.len(),
            "shard {dst} out of range ({} shards)",
            self.outbox.len()
        );
        let min_at = self.now() + self.lookahead;
        assert!(
            at >= min_at,
            "lookahead violation: shard {} sending to shard {dst} at {at}, \
             inside the lookahead window (now {}, min arrival {min_at})",
            self.shard_id,
            self.now(),
        );
        self.outbox[dst].push((at, ev));
        *self.sent += 1;
    }

    /// Send a cross-shard event after delay `d` (must be >= the lookahead).
    pub fn send_in(&mut self, dst: usize, d: SimDuration, ev: E) {
        self.send(dst, self.now() + d, ev);
    }
}

/// Aggregate run statistics (deterministic: pure functions of the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdesStats {
    /// Number of shards.
    pub shards: usize,
    /// Epoch barriers executed (empty windows are skipped; the sequential
    /// oracle reports 0 — it has no barriers).
    pub epochs: u64,
    /// Events delivered across all shards.
    pub events: u64,
    /// Cross-shard messages flushed through mailboxes.
    pub cross_messages: u64,
    /// Largest pending-event queue any shard ever held.
    pub queue_high_water: usize,
}

/// Per-epoch progress report passed to the observer hook: everything in it
/// is deterministic, so observers may feed metrics/trace sinks without
/// breaking the obs determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct EpochReport {
    /// Zero-based index of the executed (non-empty) epoch batch.
    pub index: u64,
    /// Window start (aligned to the epoch grid).
    pub start: SimTime,
    /// Exclusive window end.
    pub end: SimTime,
    /// Events delivered inside this window, across all shards.
    pub events: u64,
    /// Cross-shard messages flushed at this window's barrier.
    pub messages: u64,
    /// Max pending-queue high-water across shards, cumulative so far.
    pub queue_high_water: usize,
}

/// The finished run: per-shard accumulators in shard order plus statistics.
#[derive(Debug, Clone)]
pub struct PdesRun<A> {
    /// Per-shard outputs, indexed by shard.
    pub outs: Vec<A>,
    /// Run statistics.
    pub stats: PdesStats,
}

impl<A: Merge> PdesRun<A> {
    /// Combine the per-shard accumulators through the fixed pairwise tree
    /// reduction shared with the Monte Carlo engine. The tree shape depends
    /// only on the shard count, so the merged value is bit-identical across
    /// thread counts.
    pub fn merged(self) -> A {
        tree_merge(self.outs)
    }
}

/// Per-shard outbound mailboxes, destination-indexed: `mail[dst]` holds the
/// `(arrival, event)` pairs queued for shard `dst` this window, in send order.
type Outboxes<E> = Vec<Vec<(SimTime, E)>>;

struct Slot<S: Shard> {
    id: usize,
    shard: S,
    engine: Engine<S::Event>,
    rng: SimRng,
    outbox: Outboxes<S::Event>,
    /// Messages this shard's handlers sent over the run.
    sent: u64,
}

/// A single simulation partitioned across N shards.
pub struct ShardedEngine<S: Shard> {
    cfg: PdesConfig,
    slots: Vec<Slot<S>>,
}

impl<S: Shard> ShardedEngine<S> {
    /// Build from a non-empty shard set. Shard `i` gets the RNG stream
    /// `SimRng::stream(cfg.seed, i)`.
    pub fn new(cfg: PdesConfig, shards: Vec<S>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            cfg.lookahead > SimDuration::ZERO,
            "lookahead must be positive"
        );
        let n = shards.len();
        let slots = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| Slot {
                id: i,
                shard,
                engine: Engine::new(),
                rng: SimRng::stream(cfg.seed, i as u64),
                outbox: (0..n).map(|_| Vec::new()).collect(),
                sent: 0,
            })
            .collect();
        ShardedEngine { cfg, slots }
    }

    /// Pre-load an initial event onto a shard (arrivals pre-partitioned by
    /// the model's static mapping).
    pub fn schedule(&mut self, shard: usize, at: SimTime, ev: S::Event) {
        self.slots[shard].engine.schedule(at, ev);
    }

    /// Run to the horizon with conservative epoch barriers, shards executing
    /// in parallel within each window that follows one of at least
    /// [`GRAIN`] events, and on the calling thread within the others.
    /// Bit-identical across thread counts.
    pub fn run(self) -> PdesRun<S::Out> {
        self.run_with_observer(|_| {})
    }

    /// [`run`](Self::run), invoking `observer` after each epoch barrier
    /// (from the coordinator thread, in epoch order — deterministic).
    pub fn run_with_observer(mut self, mut observer: impl FnMut(&EpochReport)) -> PdesRun<S::Out> {
        let n = self.slots.len();
        let w = self.cfg.lookahead.as_nanos();
        let lookahead = self.cfg.lookahead;
        // Half-open windows against an exclusive bound make the inclusive
        // horizon exact: events at `horizon` fire, events after never do.
        let bound = SimTime(self.cfg.horizon.as_nanos().saturating_add(1));
        let mut stats = PdesStats {
            shards: n,
            epochs: 0,
            events: 0,
            cross_messages: 0,
            queue_high_water: 0,
        };
        // Events the previous window delivered; the first window always
        // runs in parallel.
        let mut last_delivered = u64::MAX;
        loop {
            let next = self
                .slots
                .iter()
                .filter_map(|s| s.engine.next_event_at())
                .min();
            let Some(t) = next else { break };
            if t >= bound {
                break;
            }
            // Jump straight to the window containing the next event: empty
            // windows cost nothing and skipping them cannot change results
            // (no events, no messages, no seq numbers consumed).
            let k = t.as_nanos() / w;
            let start = SimTime(k * w);
            let end = SimTime((k + 1).saturating_mul(w).min(bound.as_nanos()));
            let delivered: u64 = if last_delivered < GRAIN {
                self.slots
                    .iter_mut()
                    .map(|slot| run_window(slot, end, lookahead))
                    .sum()
            } else {
                self.slots
                    .par_iter_mut()
                    .map(|slot| run_window(slot, end, lookahead))
                    .sum()
            };
            last_delivered = delivered;
            let messages = self.flush_mailboxes();
            stats.epochs += 1;
            stats.events += delivered;
            stats.cross_messages += messages;
            stats.queue_high_water = self.queue_high_water();
            observer(&EpochReport {
                index: stats.epochs - 1,
                start,
                end,
                events: delivered,
                messages,
                queue_high_water: stats.queue_high_water,
            });
        }
        self.finish(stats)
    }

    /// The epoch barrier's second half: deliver every shard's outboxes in
    /// `src` ascending order. This is the step that erases rayon's
    /// scheduling order — whatever order the window closures *finished*
    /// in, messages arrive in fixed `(src, dst, send)` order. Returns the
    /// cross-shard message count.
    fn flush_mailboxes(&mut self) -> u64 {
        (0..self.slots.len()).map(|src| self.deliver(src)).sum()
    }

    /// Drain shard `src`'s outboxes into the destination engines, `dst`
    /// ascending then send order; both run modes deliver through here.
    /// Mailboxes are drained **in place**: each inner `Vec` keeps its
    /// capacity, so steady-state delivery allocates nothing (the outer
    /// `Vec<Vec<_>>` is moved out and back to satisfy the borrow checker —
    /// an O(1) pointer swap). Returns the message count.
    fn deliver(&mut self, src: usize) -> u64 {
        let mut messages = 0u64;
        let mut outboxes = std::mem::take(&mut self.slots[src].outbox);
        for (dst, mail) in outboxes.iter_mut().enumerate() {
            for (at, ev) in mail.drain(..) {
                self.slots[dst].engine.schedule(at, ev);
                messages += 1;
            }
        }
        self.slots[src].outbox = outboxes;
        messages
    }

    /// Largest pending-event queue any shard has held so far.
    fn queue_high_water(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.engine.queue_high_water())
            .max()
            .unwrap_or(0)
    }

    /// The differential oracle: execute the identical shard set on one
    /// thread, delivering events in global `(time, shard)` order with
    /// immediate message delivery and no barriers. See the module docs for
    /// the (tie-freedom) conditions under which this is bit-identical to
    /// [`run`](Self::run).
    pub fn run_sequential(mut self) -> PdesRun<S::Out> {
        let n = self.slots.len();
        let lookahead = self.cfg.lookahead;
        let bound = SimTime(self.cfg.horizon.as_nanos().saturating_add(1));
        let mut stats = PdesStats {
            shards: n,
            epochs: 0,
            events: 0,
            cross_messages: 0,
            queue_high_water: 0,
        };
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            for (i, s) in self.slots.iter().enumerate() {
                if let Some(t) = s.engine.next_event_at() {
                    if t < bound && best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((_, sid)) = best else { break };
            let slot = &mut self.slots[sid];
            let Slot {
                shard,
                engine,
                rng,
                outbox,
                sent,
                ..
            } = slot;
            let stepped = engine.step_before(bound, |ectx, ev| {
                let mut ctx = ShardCtx {
                    inner: ectx,
                    rng,
                    outbox,
                    sent,
                    shard_id: sid,
                    lookahead,
                };
                shard.handle(&mut ctx, ev);
            });
            debug_assert!(stepped, "best shard had a pending event before bound");
            stats.events += 1;
            // Immediate delivery — within one send instant this matches the
            // barrier's order.
            stats.cross_messages += self.deliver(sid);
        }
        stats.queue_high_water = self.queue_high_water();
        self.finish(stats)
    }

    fn finish(self, stats: PdesStats) -> PdesRun<S::Out> {
        debug_assert_eq!(
            stats.events,
            self.slots.iter().map(|s| s.engine.processed()).sum::<u64>(),
            "the run's event count is not its shards' delivered events"
        );
        debug_assert!(
            self.slots.iter().flat_map(|s| &s.outbox).all(Vec::is_empty),
            "a mailbox still holds mail at the end of the run"
        );
        debug_assert_eq!(
            stats.cross_messages,
            self.slots.iter().map(|s| s.sent).sum::<u64>(),
            "the barriers did not deliver every message sent"
        );
        let outs = self.slots.into_iter().map(|s| s.shard.finish()).collect();
        PdesRun { outs, stats }
    }
}

impl<S: Shard> MemFootprint for ShardedEngine<S> {
    fn mem_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| {
                let mailboxes: u64 = s
                    .outbox
                    .iter()
                    .map(|m| slab_bytes::<(SimTime, S::Event)>(m.capacity()))
                    .sum();
                s.engine.mem_bytes()
                    + slab_bytes::<Vec<(SimTime, S::Event)>>(s.outbox.capacity())
                    + mailboxes
            })
            .sum()
    }
}

/// Process one shard's window `[now, end)`, returning the delivered event
/// count. Outbound messages stay in the slot's mailboxes for the
/// coordinator's in-place barrier flush.
fn run_window<S: Shard>(slot: &mut Slot<S>, end: SimTime, lookahead: SimDuration) -> u64 {
    let Slot {
        id,
        shard,
        engine,
        rng,
        outbox,
        sent,
    } = slot;
    let shard_id = *id;
    engine.run_before(end, |ectx, ev| {
        let mut ctx = ShardCtx {
            inner: ectx,
            rng,
            outbox,
            sent,
            shard_id,
            lookahead,
        };
        shard.handle(&mut ctx, ev);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token-ring model: each shard holds a queue server; a token event
    /// does some local RNG-priced work, records stats, and forwards the
    /// token to the next shard after (lookahead + a random float-derived
    /// extra) — continuous timestamps, so the run is tie-free and the
    /// sequential oracle must match bit for bit.
    struct Ring {
        hops: u64,
        work: f64,
        local_events: u64,
    }

    #[derive(Debug)]
    enum Ev {
        Token(u32),
        Local,
    }

    impl Shard for Ring {
        type Event = Ev;
        type Out = (u64, f64, u64);

        fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, Ev>, ev: Ev) {
            match ev {
                Ev::Token(ttl) => {
                    self.hops += 1;
                    self.work += ctx.rng().f64();
                    // Local follow-up with a sub-lookahead delay: legal,
                    // it stays on this shard.
                    ctx.schedule_in(SimDuration::from_nanos(17), Ev::Local);
                    if ttl > 0 {
                        let dst = (ctx.shard() + 1) % ctx.shards();
                        let extra = SimDuration::from_secs_f64(ctx.rng().f64() * 0.4);
                        ctx.send_in(dst, ctx.lookahead() + extra, Ev::Token(ttl - 1));
                    }
                }
                Ev::Local => self.local_events += 1,
            }
        }

        fn finish(self) -> (u64, f64, u64) {
            (self.hops, self.work, self.local_events)
        }
    }

    fn ring(n: usize) -> ShardedEngine<Ring> {
        let cfg = PdesConfig::new(SimDuration::from_secs(1), SimTime::from_secs(10_000), 42);
        let shards = (0..n)
            .map(|_| Ring {
                hops: 0,
                work: 0.0,
                local_events: 0,
            })
            .collect();
        let mut eng = ShardedEngine::new(cfg, shards);
        eng.schedule(0, SimTime::from_secs(1), Ev::Token(200));
        eng
    }

    #[test]
    fn parallel_run_matches_the_sequential_oracle_bitwise() {
        let par = ring(5).run();
        let seq = ring(5).run_sequential();
        assert_eq!(par.outs.len(), 5);
        for (p, s) in par.outs.iter().zip(&seq.outs) {
            assert_eq!(p.0, s.0, "hops diverged");
            assert_eq!(p.1.to_bits(), s.1.to_bits(), "float work diverged");
            assert_eq!(p.2, s.2, "local events diverged");
        }
        assert_eq!(par.stats.events, seq.stats.events);
        assert_eq!(par.stats.cross_messages, seq.stats.cross_messages);
        assert_eq!(par.stats.cross_messages, 200, "one message per hop");
        assert_eq!(seq.stats.epochs, 0, "the oracle has no barriers");
        assert!(par.stats.epochs > 0);
    }

    #[test]
    fn epoch_reports_sum_to_the_run_totals() {
        let mut events = 0u64;
        let mut messages = 0u64;
        let mut epochs = 0u64;
        let mut last_start = None;
        let run = ring(4).run_with_observer(|r| {
            events += r.events;
            messages += r.messages;
            epochs += 1;
            assert_eq!(r.index, epochs - 1);
            assert!(r.start < r.end);
            if let Some(prev) = last_start {
                assert!(r.start > prev, "epochs advance monotonically");
            }
            last_start = Some(r.start);
            assert!(r.events > 0, "empty windows are skipped");
        });
        assert_eq!(run.stats.events, events);
        assert_eq!(run.stats.cross_messages, messages);
        assert_eq!(run.stats.epochs, epochs);
        assert!(run.stats.queue_high_water >= 1);
    }

    #[test]
    fn single_shard_degenerates_to_the_plain_engine() {
        let run = ring(1).run();
        // Token hops to itself; everything is still a cross-shard message
        // through the (0,0) mailbox.
        assert_eq!(run.outs[0].0, 201);
        assert_eq!(run.stats.cross_messages, 200);
    }

    #[test]
    fn merged_uses_the_tree_reduction() {
        let run = ring(3).run();
        let per_shard: Vec<u64> = run.outs.iter().map(|o| o.0).collect();
        let expect: u64 = per_shard.iter().sum();
        let (hops, _, _) = run.merged();
        assert_eq!(hops, expect);
    }

    #[test]
    fn horizon_is_inclusive() {
        struct At {
            seen: Vec<u64>,
        }
        impl Shard for At {
            type Event = ();
            type Out = Vec<u64>;
            fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, ()>, (): ()) {
                self.seen.push(ctx.now().as_nanos());
            }
            fn finish(self) -> Vec<u64> {
                self.seen
            }
        }
        let cfg = PdesConfig::new(SimDuration::from_secs(1), SimTime::from_secs(5), 0);
        let mut eng = ShardedEngine::new(cfg, vec![At { seen: Vec::new() }]);
        eng.schedule(0, SimTime::from_secs(5), ());
        eng.schedule(0, SimTime(SimTime::from_secs(5).as_nanos() + 1), ());
        let run = eng.run();
        assert_eq!(run.outs[0], vec![SimTime::from_secs(5).as_nanos()]);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn sending_inside_the_window_panics() {
        struct Bad;
        impl Shard for Bad {
            type Event = ();
            type Out = ();
            fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, ()>, (): ()) {
                let at = ctx.now() + SimDuration::from_nanos(1);
                ctx.send(1, at, ());
            }
            fn finish(self) {}
        }
        let cfg = PdesConfig::new(SimDuration::from_secs(1), SimTime::from_secs(10), 0);
        let mut eng = ShardedEngine::new(cfg, vec![Bad, Bad]);
        eng.schedule(0, SimTime::from_secs(1), ());
        let _ = eng.run_sequential();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_shard_set_is_a_logic_error() {
        let cfg = PdesConfig::new(SimDuration::from_secs(1), SimTime::from_secs(1), 0);
        let _: ShardedEngine<Ring> = ShardedEngine::new(cfg, Vec::new());
    }
}
