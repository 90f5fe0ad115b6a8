//! Thread-count differential test for the sharded PDES engine.
//!
//! The determinism contract: a `ShardedEngine` run is **bit-identical**
//! whether the epoch windows execute sequentially or across many worker
//! threads, and matches the global-order sequential oracle on tie-free
//! models. This lives in its own integration-test binary because it
//! manipulates the global rayon-shim thread budget, which would race with
//! any other test sharing the process; the tests here take `BUDGET` so they
//! do not race with each other.

use std::sync::{Mutex, PoisonError};

use spider_simkit::pdes::GRAIN;
use spider_simkit::{
    OnlineStats, PdesConfig, PdesRun, Shard, ShardCtx, ShardedEngine, SimDuration, SimTime,
};

/// Held by every test that sets the thread budget.
static BUDGET: Mutex<()> = Mutex::new(());

/// A float-heavy cross-shard traffic model: every shard runs a self-clocked
/// local arrival process (Welford stats over exponential draws) and
/// scatters messages to every other shard with continuous (float-derived)
/// latencies at or above the lookahead. Accumulation order inside a shard
/// would expose any scheduling dependence.
struct Traffic {
    stats: OnlineStats,
    received: u64,
    checksum: f64,
}

#[derive(Debug)]
enum Ev {
    Tick(u32),
    Msg(f64),
}

const LOOKAHEAD: SimDuration = SimDuration::from_millis(250);

impl Shard for Traffic {
    type Event = Ev;
    type Out = (OnlineStats, u64, f64);

    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, Ev>, ev: Ev) {
        match ev {
            Ev::Tick(remaining) => {
                let rate = 1.0 + ctx.shard() as f64;
                let x = ctx.rng().exp(rate);
                self.stats.push(x);
                // Scatter to every peer, latency >= lookahead, fractional.
                for dst in 0..ctx.shards() {
                    if dst != ctx.shard() {
                        let extra = SimDuration::from_secs_f64(ctx.rng().f64() * 0.7);
                        ctx.send_in(dst, LOOKAHEAD + extra, Ev::Msg(x));
                    }
                }
                if remaining > 0 {
                    let gap = SimDuration::from_secs_f64(0.1 + ctx.rng().f64());
                    ctx.schedule_in(gap, Ev::Tick(remaining - 1));
                }
            }
            Ev::Msg(x) => {
                self.received += 1;
                self.checksum += x * 0.5;
            }
        }
    }

    fn finish(self) -> (OnlineStats, u64, f64) {
        (self.stats, self.received, self.checksum)
    }
}

fn build(shards: usize) -> ShardedEngine<Traffic> {
    let cfg = PdesConfig::new(LOOKAHEAD, SimTime::from_secs(120), 0xD15C);
    let mut eng = ShardedEngine::new(
        cfg,
        (0..shards)
            .map(|_| Traffic {
                stats: OnlineStats::new(),
                received: 0,
                checksum: 0.0,
            })
            .collect(),
    );
    for s in 0..shards {
        eng.schedule(s, SimTime::from_secs_f64(0.05 * s as f64), Ev::Tick(60));
    }
    eng
}

fn fingerprint(run: &PdesRun<(OnlineStats, u64, f64)>) -> Vec<u64> {
    let mut bits = Vec::new();
    for (stats, received, checksum) in &run.outs {
        bits.push(stats.mean().to_bits());
        bits.push(stats.variance().to_bits());
        bits.push(stats.count());
        bits.push(*received);
        bits.push(checksum.to_bits());
    }
    bits.push(run.stats.events);
    bits.push(run.stats.cross_messages);
    bits.push(run.stats.epochs);
    bits
}

#[test]
fn pdes_output_is_bit_identical_across_thread_counts_and_vs_oracle() {
    let _budget = BUDGET.lock().unwrap_or_else(PoisonError::into_inner);
    // 1 thread (every epoch window runs sequentially on the main thread).
    rayon::set_spare_thread_budget(0);
    let t1 = build(16).run();

    // 2 threads.
    rayon::set_spare_thread_budget(1);
    let t2 = build(16).run();

    // 8 threads, forced even on a single-core machine.
    rayon::set_spare_thread_budget(7);
    let t8 = build(16).run();

    // Restore the machine-derived budget for anything running after us.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    rayon::set_spare_thread_budget(cores.saturating_sub(1));

    assert_eq!(fingerprint(&t1), fingerprint(&t2), "1 vs 2 threads");
    assert_eq!(fingerprint(&t1), fingerprint(&t8), "1 vs 8 threads");

    // Shard-count-preserving oracle: global (time, shard) order, immediate
    // delivery, no barriers — per-shard outputs must still match bit for
    // bit (epoch/barrier stats differ by construction).
    let oracle = build(16).run_sequential();
    let strip = |mut f: Vec<u64>| {
        f.pop(); // epochs
        f
    };
    assert_eq!(
        strip(fingerprint(&t1)),
        strip(fingerprint(&oracle)),
        "epoch-parallel vs sequential oracle"
    );
    assert!(
        t1.stats.cross_messages > 10_000,
        "model exercises mailboxes"
    );
}

/// A bursty model whose windows cross [`GRAIN`] in both directions. Each
/// shard ticks at `GRAIN` per second in even seconds and at `GRAIN / 32` in
/// odd ones, so with 16 shards a 250 ms window delivers about `4 × GRAIN`
/// events in a busy second and `GRAIN / 8` in a quiet one. A tenth of the
/// ticks also send a message to a peer. Ticks carry no count: the horizon
/// ends the run.
struct Bursty {
    stats: OnlineStats,
    received: u64,
    checksum: f64,
}

impl Shard for Bursty {
    type Event = Ev;
    type Out = (OnlineStats, u64, f64);

    fn handle(&mut self, ctx: &mut ShardCtx<'_, '_, Ev>, ev: Ev) {
        match ev {
            Ev::Tick(_) => {
                let busy = (ctx.now().as_nanos() / 1_000_000_000).is_multiple_of(2);
                let rate = if busy {
                    GRAIN as f64
                } else {
                    GRAIN as f64 / 32.0
                };
                let gap = ctx.rng().exp(1.0 / rate);
                self.stats.push(gap);
                if ctx.rng().f64() < 0.1 {
                    let n = ctx.shards();
                    let dst = (ctx.shard() + 1 + ctx.rng().index(n - 1)) % n;
                    let extra = SimDuration::from_secs_f64(ctx.rng().f64() * 0.3);
                    ctx.send_in(dst, LOOKAHEAD + extra, Ev::Msg(gap));
                }
                ctx.schedule_in(SimDuration::from_secs_f64(gap), Ev::Tick(0));
            }
            Ev::Msg(x) => {
                self.received += 1;
                self.checksum += x * 0.5;
            }
        }
    }

    fn finish(self) -> (OnlineStats, u64, f64) {
        (self.stats, self.received, self.checksum)
    }
}

fn bursty() -> ShardedEngine<Bursty> {
    let cfg = PdesConfig::new(LOOKAHEAD, SimTime::from_secs(6), 0xB0B);
    let mut eng = ShardedEngine::new(
        cfg,
        (0..16)
            .map(|_| Bursty {
                stats: OnlineStats::new(),
                received: 0,
                checksum: 0.0,
            })
            .collect(),
    );
    for s in 0..16 {
        eng.schedule(
            s,
            SimTime::from_secs_f64(1e-3 * (s as f64 + 1.0)),
            Ev::Tick(0),
        );
    }
    eng
}

#[test]
fn windows_on_either_side_of_the_grain_are_bit_identical() {
    let _budget = BUDGET.lock().unwrap_or_else(PoisonError::into_inner);
    // A window runs in parallel when the window before it delivered at
    // least GRAIN events (the first always does), and on the calling thread
    // otherwise. Busy seconds run parallel windows, quiet ones caller
    // windows; the first window of each second takes the other path, so
    // every pairing of path and window size occurs.
    let mut sizes = Vec::new();
    let _ = bursty().run_with_observer(|r| sizes.push(r.events));
    let mut paths = [[0u32; 2]; 2];
    let mut last = u64::MAX;
    for &events in &sizes {
        paths[usize::from(last >= GRAIN)][usize::from(events >= GRAIN)] += 1;
        last = events;
    }
    for (path, counts) in ["caller", "parallel"].iter().zip(paths) {
        for (size, count) in ["below", "at or above"].iter().zip(counts) {
            assert!(count > 0, "no {path} window {size} GRAIN: {sizes:?}");
        }
    }

    let runs: Vec<_> = [0, 1, 2, 8]
        .into_iter()
        .map(|budget| {
            rayon::set_spare_thread_budget(budget);
            (budget, bursty().run())
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    rayon::set_spare_thread_budget(cores.saturating_sub(1));
    for (budget, run) in &runs[1..] {
        assert_eq!(fingerprint(&runs[0].1), fingerprint(run), "budget {budget}");
    }
    let mut oracle = fingerprint(&bursty().run_sequential());
    let mut epoch_parallel = fingerprint(&runs[0].1);
    oracle.pop(); // epochs
    epoch_parallel.pop();
    assert_eq!(
        epoch_parallel, oracle,
        "epoch-parallel vs sequential oracle"
    );
}
