//! A minimal deterministic discrete-event engine.
//!
//! Events carry an application-defined payload `E`. Handlers receive an
//! [`EventContext`] through which they can read the clock, schedule follow-up
//! events, and stop the run. Determinism: events firing at the same instant
//! are delivered in scheduling order (a monotone sequence number breaks ties).
//!
//! Each pending event is one heap entry `(at, seq, payload)`, ordered by
//! `(at, seq)` alone. Every payload in the workspace is at most 8 bytes, so
//! an entry is 24 bytes (16 for `()`). Steady-state churn (schedule one,
//! fire one) allocates nothing, because the heap keeps its capacity, which
//! is what lets million-event runs hold a flat memory profile.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::mem::{slab_bytes, MemFootprint};
use crate::{SimDuration, SimTime};

/// One pending event: its key `(at, seq)` and its payload.
struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The discrete-event engine: a clock plus a time-ordered event queue.
///
/// # Examples
///
/// ```
/// use spider_simkit::{Engine, SimDuration, SimTime};
///
/// let mut engine: Engine<u32> = Engine::new();
/// engine.schedule(SimTime::from_secs(1), 1);
/// let mut fired = Vec::new();
/// engine.run_to_completion(|ctx, ev| {
///     fired.push((ctx.now(), ev));
///     if ev < 3 {
///         ctx.schedule_in(SimDuration::from_secs(1), ev + 1);
///     }
/// });
/// assert_eq!(fired.len(), 3);
/// assert_eq!(engine.now(), SimTime::from_secs(3));
/// ```
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<HeapEntry<E>>,
    processed: u64,
    high_water: usize,
    stopped: bool,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at `t = 0` with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            processed: 0,
            high_water: 0,
            stopped: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// High-water mark of the pending-event queue over the engine's life.
    pub fn queue_high_water(&self) -> usize {
        self.high_water
    }

    /// Schedule `payload` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at, seq, payload });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Schedule `payload` after delay `d`.
    pub fn schedule_in(&mut self, d: SimDuration, payload: E) {
        self.schedule(self.now + d, payload);
    }

    /// Timestamp of the next pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pop the next event if it fires at or before `until`, advancing the
    /// clock to its timestamp.
    fn pop_next(&mut self, until: SimTime) -> Option<E> {
        let head_at = self.heap.peek()?.at;
        if head_at > until {
            return None;
        }
        let entry = self.heap.pop().expect("peeked");
        self.now = entry.at;
        self.processed += 1;
        Some(entry.payload)
    }

    /// Run until the queue drains, the horizon passes, or a handler calls
    /// [`EventContext::stop`]. Returns the number of events delivered by this
    /// call.
    pub fn run<F>(&mut self, until: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut EventContext<'_, E>, E),
    {
        self.stopped = false;
        let start = self.processed;
        while !self.stopped {
            let Some(ev) = self.pop_next(until) else {
                // Horizon reached with events still pending: advance the
                // clock to the horizon so repeated runs resume correctly.
                if self.now < until && until != SimTime::MAX {
                    self.now = until;
                }
                break;
            };
            let mut ctx = EventContext { engine: self };
            handler(&mut ctx, ev);
        }
        self.processed - start
    }

    /// Run until the queue drains (no horizon).
    pub fn run_to_completion<F>(&mut self, handler: F) -> u64
    where
        F: FnMut(&mut EventContext<'_, E>, E),
    {
        self.run(SimTime::MAX, handler)
    }

    /// Run events strictly *before* `until` (exclusive horizon), then advance
    /// the clock to `until`. This is the epoch primitive of the sharded PDES
    /// engine: a shard may safely process every event in `[now, until)` when
    /// no cross-shard message can arrive earlier than `until`.
    pub fn run_before<F>(&mut self, until: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut EventContext<'_, E>, E),
    {
        self.stopped = false;
        let start = self.processed;
        while !self.stopped {
            let fires_before = self.heap.peek().is_some_and(|s| s.at < until);
            if !fires_before {
                if self.now < until {
                    self.now = until;
                }
                break;
            }
            let ev = self.pop_next(until).expect("peeked an event before until");
            let mut ctx = EventContext { engine: self };
            handler(&mut ctx, ev);
        }
        self.processed - start
    }

    /// Deliver exactly one event if one fires strictly before `until`.
    /// Returns whether an event was delivered. The clock is left at the
    /// delivered event (or untouched when nothing fired) — this is the
    /// stepping primitive the PDES sequential oracle uses to interleave
    /// shards in global time order.
    pub fn step_before<F>(&mut self, until: SimTime, mut handler: F) -> bool
    where
        F: FnMut(&mut EventContext<'_, E>, E),
    {
        if self.heap.peek().is_none_or(|s| s.at >= until) {
            return false;
        }
        let ev = self.pop_next(until).expect("peeked an event before until");
        let mut ctx = EventContext { engine: self };
        handler(&mut ctx, ev);
        true
    }
}

impl<E> MemFootprint for Engine<E> {
    fn mem_bytes(&self) -> u64 {
        slab_bytes::<HeapEntry<E>>(self.heap.capacity())
    }
}

/// Handler-side view of the engine.
pub struct EventContext<'a, E> {
    engine: &'a mut Engine<E>,
}

impl<E> EventContext<'_, E> {
    /// Current simulated time (the firing event's timestamp).
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// Schedule a follow-up event at an absolute time.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.engine.schedule(at, payload);
    }

    /// Schedule a follow-up event after a delay.
    pub fn schedule_in(&mut self, d: SimDuration, payload: E) {
        self.engine.schedule_in(d, payload);
    }

    /// Stop the run after this handler returns.
    pub fn stop(&mut self) {
        self.engine.stopped = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::from_secs(3), 3);
        eng.schedule(SimTime::from_secs(1), 1);
        eng.schedule(SimTime::from_secs(2), 2);
        let mut order = Vec::new();
        eng.run_to_completion(|ctx, ev| {
            order.push((ctx.now().as_nanos() / 1_000_000_000, ev));
        });
        assert_eq!(order, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut eng: Engine<u32> = Engine::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            eng.schedule(t, i);
        }
        let mut seen = Vec::new();
        eng.run_to_completion(|_, ev| seen.push(ev));
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::ZERO, 0);
        let mut count = 0u32;
        eng.run_to_completion(|ctx, ev| {
            count += 1;
            if ev < 5 {
                ctx.schedule_in(SimDuration::from_secs(1), ev + 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(eng.now(), SimTime::from_secs(5));
        assert_eq!(eng.processed(), 6);
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::from_secs(1), 1);
        eng.schedule(SimTime::from_secs(10), 2);
        let delivered = eng.run(SimTime::from_secs(5), |_, _| {});
        assert_eq!(delivered, 1);
        assert_eq!(eng.now(), SimTime::from_secs(5));
        assert_eq!(eng.pending(), 1);
        // Resume past the horizon.
        let delivered = eng.run(SimTime::from_secs(20), |_, _| {});
        assert_eq!(delivered, 1);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn stop_halts_immediately() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule(SimTime::from_secs(i), i as u32);
        }
        let mut seen = 0;
        eng.run_to_completion(|ctx, ev| {
            seen += 1;
            if ev == 3 {
                ctx.stop();
            }
        });
        assert_eq!(seen, 4);
        assert_eq!(eng.pending(), 6);
    }

    #[test]
    fn queue_high_water_tracks_peak_not_current() {
        let mut eng: Engine<u32> = Engine::new();
        assert_eq!(eng.queue_high_water(), 0);
        for i in 0..7 {
            eng.schedule(SimTime::from_secs(i), i as u32);
        }
        assert_eq!(eng.queue_high_water(), 7);
        eng.run_to_completion(|_, _| {});
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.queue_high_water(), 7);
        // Scheduling again never lowers the mark.
        eng.schedule(SimTime::from_secs(100), 0);
        assert_eq!(eng.queue_high_water(), 7);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::from_secs(5), 1);
        eng.run_to_completion(|ctx, _| {
            ctx.schedule(SimTime::from_secs(1), 2);
        });
    }

    #[test]
    fn run_before_is_exclusive_of_the_bound() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::from_secs(1), 1);
        eng.schedule(SimTime::from_secs(2), 2);
        eng.schedule(SimTime::from_secs(3), 3);
        let mut seen = Vec::new();
        let n = eng.run_before(SimTime::from_secs(2), |_, ev| seen.push(ev));
        assert_eq!(n, 1);
        assert_eq!(seen, vec![1], "the event AT the bound must not fire");
        assert_eq!(
            eng.now(),
            SimTime::from_secs(2),
            "clock advances to the bound"
        );
        // Scheduling at the bound is legal afterwards (next window owns it).
        eng.schedule(SimTime::from_secs(2), 9);
        let n = eng.run_before(SimTime::from_secs(4), |_, ev| seen.push(ev));
        assert_eq!(n, 3);
        assert_eq!(seen, vec![1, 2, 9, 3]);
    }

    #[test]
    fn next_event_at_peeks_without_consuming() {
        let mut eng: Engine<u32> = Engine::new();
        assert_eq!(eng.next_event_at(), None);
        eng.schedule(SimTime::from_secs(7), 1);
        eng.schedule(SimTime::from_secs(2), 2);
        assert_eq!(eng.next_event_at(), Some(SimTime::from_secs(2)));
        assert_eq!(eng.pending(), 2);
    }

    #[test]
    fn step_before_delivers_at_most_one_event() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(SimTime::from_secs(1), 1);
        eng.schedule(SimTime::from_secs(1), 2);
        let mut seen = Vec::new();
        assert!(eng.step_before(SimTime::from_secs(5), |_, ev| seen.push(ev)));
        assert_eq!(seen, vec![1]);
        assert!(eng.step_before(SimTime::from_secs(5), |_, ev| seen.push(ev)));
        assert!(!eng.step_before(SimTime::from_secs(5), |_, ev| seen.push(ev)));
        assert_eq!(seen, vec![1, 2]);
        // Bound is exclusive here too.
        eng.schedule(SimTime::from_secs(8), 3);
        assert!(!eng.step_before(SimTime::from_secs(8), |_, ev| seen.push(ev)));
    }

    #[test]
    fn heap_stays_flat_under_steady_state_churn() {
        // One event in flight at a time: neither the queue's high water nor
        // the reserved bytes may grow past the first event's, no matter how
        // many events are processed.
        let mut eng: Engine<u64> = Engine::new();
        eng.schedule(SimTime::ZERO, 0);
        let first = eng.mem_bytes();
        assert!(first > 0);
        eng.run_to_completion(|ctx, ev| {
            if ev < 10_000 {
                ctx.schedule_in(SimDuration::from_nanos(1), ev + 1);
            }
        });
        assert_eq!(eng.processed(), 10_001);
        assert_eq!(eng.queue_high_water(), 1, "the queue grew past one event");
        assert_eq!(eng.mem_bytes(), first, "churn grew the heap");
    }

    #[test]
    fn an_entry_is_its_key_plus_an_eight_byte_payload() {
        assert_eq!(std::mem::size_of::<HeapEntry<u64>>(), 24);
        assert_eq!(std::mem::size_of::<HeapEntry<()>>(), 16);
    }

    #[test]
    fn footprint_is_flat_across_repeated_runs() {
        let mut eng: Engine<u64> = Engine::new();
        let load_and_drain = |eng: &mut Engine<u64>| {
            for i in 0..512 {
                eng.schedule(eng.now() + SimDuration::from_nanos(i + 1), i);
            }
            eng.run_to_completion(|_, _| {});
            eng.mem_bytes()
        };
        let first = load_and_drain(&mut eng);
        assert!(first > 0);
        for _ in 0..5 {
            assert_eq!(
                load_and_drain(&mut eng),
                first,
                "steady-state reuse must not grow the heap"
            );
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut eng: Engine<u64> = Engine::new();
            let mut rng = crate::SimRng::seed_from_u64(33);
            for i in 0..100 {
                eng.schedule(SimTime::from_secs_f64(rng.f64() * 100.0), i);
            }
            let mut trace = Vec::new();
            eng.run_to_completion(|ctx, ev| {
                trace.push((ctx.now().as_nanos(), ev));
            });
            trace
        };
        assert_eq!(run(), run());
    }
}
