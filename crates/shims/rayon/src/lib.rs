//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of the rayon API the workspace uses: `par_iter()` and
//! `par_iter_mut()` over slices and `Vec`s with `map` / `collect` / `reduce` /
//! `sum`, and `par_iter().map_init(..).collect()`. It is the one place in the
//! workspace that creates threads.
//!
//! **Pool.** Parallelism is real but there is no work stealing. A call cuts
//! its input into contiguous chunks, runs the first chunk on the calling
//! thread and posts each other chunk to an idle helper of one process-wide
//! pool of persistent threads. The pool starts on the first parallel call
//! and grows only when a call is granted more helpers than are idle, so it
//! holds as many helpers as the largest budget calls have used at once (at
//! most 64). A posted chunk that no helper has picked up by the time the
//! caller has finished its own is taken back and run by the caller, so a
//! sleeping helper never delays a call. Idle helpers spin briefly, then
//! park, so they hold no core through long sequential stretches. The
//! handoff itself — posting, picking up and finishing a chunk — is a few
//! atomic operations on per-helper and per-call state, with no mutex, no
//! allocation and no thread spawn; a call allocates only its output and
//! its short list of chunks.
//!
//! **Budget.** A global spare-thread budget caps how many helpers calls use
//! at once: [`set_spare_thread_budget`], by default one less than
//! `available_parallelism`. A call over `n` inputs takes up to `n - 1`
//! spare threads and makes one chunk per thread; with the budget exhausted
//! it runs sequentially. A nested call made from inside a pool job — on a
//! helper, or in the caller's own chunks — always runs sequentially, which
//! is exactly the grain coarsening a work-stealing pool converges to.
//!
//! **Ordering** (matches rayon). With `k` chunks over `n` inputs, chunk `i`
//! is inputs `[i·c, min((i+1)·c, n))` with `c = ceil(n / k)`, whichever
//! thread runs it. `collect` preserves input order, and `reduce` and `sum`
//! fold the mapped values left to right, so results are identical at every
//! budget. `map_init` runs its `init` once per chunk (once for a sequential
//! call) and maps the chunk's inputs in order with that state.
//!
//! **Panics.** A panic in any chunk is caught where it happens. The call
//! waits for its other chunks, returns its spare threads to the budget and
//! re-raises the first caught payload on the calling thread. The pool stays
//! usable.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// Worker threads still available to *additional* parallel calls. The main
/// thread always works, so the budget is `available_parallelism - 1`.
static SPARE_THREADS: AtomicIsize = AtomicIsize::new(-1);

fn acquire_workers(wanted: usize) -> usize {
    if SPARE_THREADS.load(Ordering::Relaxed) == -1 {
        let par = std::thread::available_parallelism()
            .map(|n| n.get() as isize)
            .unwrap_or(4);
        // Racy double-init is fine: both writers store the same value.
        SPARE_THREADS.store(par - 1, Ordering::Relaxed);
    }
    let mut granted = 0;
    while granted < wanted {
        let cur = SPARE_THREADS.load(Ordering::Relaxed);
        if cur <= 0 {
            break;
        }
        if SPARE_THREADS
            .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            granted += 1;
        }
    }
    granted
}

fn release_workers(n: usize) {
    SPARE_THREADS.fetch_add(n as isize, Ordering::Relaxed);
}

/// Force the spare-thread budget (the analogue of rayon's
/// `ThreadPoolBuilder::num_threads`, for tests and benches): `0` makes every
/// parallel call run sequentially; `n` lets calls use up to `n` helper
/// threads at once, even on machines reporting fewer cores. Deterministic
/// algorithms must produce bit-identical output either way — that is exactly
/// what thread-count differential tests use this hook to prove. Call it only
/// while no parallel work is in flight; in-flight calls release workers back
/// into whatever budget is current.
pub fn set_spare_thread_budget(spare: usize) {
    SPARE_THREADS.store(spare as isize, Ordering::Relaxed);
}

/// Spare threads granted to one call. Dropping it returns them to the
/// budget, so a call that panics does not shrink the budget for good.
struct Grant(usize);

impl Drop for Grant {
    fn drop(&mut self) {
        release_workers(self.0);
    }
}

/// The spare threads for a call over `n` inputs and the chunk length that
/// splits the input over them and the caller; `None` runs it sequentially.
fn plan(n: usize) -> Option<(Grant, usize)> {
    if n <= 1 || IN_JOB.get() {
        return None;
    }
    let grant = Grant(acquire_workers((n - 1).min(MAX_HELPERS)));
    let threads = grant.0 + 1;
    (grant.0 > 0).then(|| (grant, n.div_ceil(threads)))
}

/// Parallel ordered map: `out[i] = f(&items[i])`.
fn parallel_map<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let Some((_grant, len)) = plan(items.len()) else {
        return items.iter().map(f).collect();
    };
    map_chunks(items.len(), len, items.chunks(len), f)
}

/// Parallel ordered map with per-chunk state: each chunk calls `init` once
/// and maps its inputs in order, `out[i] = f(&mut state, &items[i])`.
fn parallel_map_init<'a, T, S, R, I, F>(items: &'a [T], init: &I, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    let run = |chunk: &'a [T]| {
        let mut state = init();
        chunk.iter().map(|x| f(&mut state, x)).collect::<Vec<R>>()
    };
    let Some((_grant, len)) = plan(items.len()) else {
        return run(items);
    };
    // One task per chunk, each mapping its whole run of inputs.
    let chunks: Vec<&'a [T]> = items.chunks(len).collect();
    map_chunks(chunks.len(), 1, chunks.chunks(1), &|c: &&'a [T]| run(c))
        .into_iter()
        .flatten()
        .collect()
}

/// Parallel ordered map over mutable references: `out[i] = f(&mut items[i])`.
fn parallel_map_mut<'a, T, R, F>(items: &'a mut [T], f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&'a mut T) -> R + Sync,
{
    let Some((_grant, len)) = plan(items.len()) else {
        return items.iter_mut().map(f).collect();
    };
    map_chunks(items.len(), len, items.chunks_mut(len), f)
}

// ---- the pool ----

/// Most helpers one call may use, and so the most the pool ever starts.
const MAX_HELPERS: usize = 64;
/// Polls an idle helper or a waiting caller makes before it parks.
const SPINS: u32 = 20_000;
/// Every this many polls, a spinning thread yields its core, so spinning
/// helpers cannot starve working ones when threads outnumber cores.
const YIELD_EVERY: u32 = 64;
/// A slot's `job` while its helper runs the job it took.
const TAKEN: *mut Job<'static> = NonNull::dangling().as_ptr();

thread_local! {
    /// Set while this thread runs a pool job; parallel calls made from it
    /// run sequentially.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// What one call shares with the helpers running its chunks.
struct Batch {
    /// Posted chunks that the caller has not taken back and no helper has
    /// finished yet.
    pending: AtomicUsize,
    /// The calling thread, unparked when `pending` reaches zero.
    caller: Thread,
    /// The first panic caught in any chunk; locked only after a panic.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    /// Run one chunk, catching a panic so that the call can wait for its
    /// other chunks before re-raising it.
    fn run(&self, task: &mut (dyn FnMut() + Send + '_)) {
        let outer = IN_JOB.replace(true);
        let result = catch_unwind(AssertUnwindSafe(task));
        IN_JOB.set(outer);
        if let Err(payload) = result {
            // Nothing panics while holding this lock, so it is never poisoned.
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
    }

    /// Block until every posted chunk is finished or taken back.
    fn wait(&self) {
        let mut polls = 0u32;
        while self.pending.load(Ordering::Acquire) != 0 {
            if polls < SPINS {
                idle_poll(polls);
                polls += 1;
            } else {
                // Spurious wake-ups just re-check `pending`.
                thread::park();
            }
        }
    }
}

/// One chunk posted to a helper.
struct Job<'a> {
    task: &'a mut (dyn FnMut() + Send + 'a),
    batch: &'a Batch,
}

/// One helper's mailbox.
struct Slot {
    /// Null while the helper is idle, the posted job, or [`TAKEN`] while
    /// the helper runs it.
    job: AtomicPtr<Job<'static>>,
    /// Set while the helper is parked or about to park.
    sleeping: AtomicBool,
    /// The helper's handle, set before it first parks.
    thread: OnceLock<Thread>,
}

static SLOTS: [Slot; MAX_HELPERS] = [const {
    Slot {
        job: AtomicPtr::new(ptr::null_mut()),
        sleeping: AtomicBool::new(false),
        thread: OnceLock::new(),
    }
}; MAX_HELPERS];
/// Helpers started so far, each owning `SLOTS[i]`; grows under `GROW`.
static STARTED: AtomicUsize = AtomicUsize::new(0);
static GROW: Mutex<()> = Mutex::new(());

fn idle_poll(polls: u32) {
    if polls % YIELD_EVERY == YIELD_EVERY - 1 {
        thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Map `f` over `chunks` (contiguous runs of `len` of the call's `n`
/// inputs): the caller runs the first chunk and posts the rest to helpers.
fn map_chunks<C, R, F>(n: usize, len: usize, chunks: impl Iterator<Item = C>, f: &F) -> Vec<R>
where
    C: IntoIterator + Send,
    R: Send,
    F: Fn(C::Item) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut tasks: Vec<_> = out
        .chunks_mut(len)
        .zip(chunks)
        .map(|(slots, work)| {
            let mut todo = Some((slots, work));
            move || {
                if let Some((slots, work)) = todo.take() {
                    for (s, x) in slots.iter_mut().zip(work) {
                        *s = Some(f(x));
                    }
                }
            }
        })
        .collect();
    let (own, rest) = tasks.split_first_mut().expect("n >= 2 makes two chunks");
    let batch = Batch {
        pending: AtomicUsize::new(rest.len()),
        caller: thread::current(),
        panic: Mutex::new(None),
    };
    {
        let mut jobs: Vec<Job<'_>> = rest
            .iter_mut()
            .map(|task| Job {
                task,
                batch: &batch,
            })
            .collect();
        let posted: Vec<_> = jobs.iter_mut().filter_map(post).collect();
        batch
            .pending
            .fetch_sub(rest.len() - posted.len(), Ordering::AcqRel);
        batch.run(own);
        for (slot, job) in posted {
            if slot
                .job
                .compare_exchange(job, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                batch.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
        batch.wait();
    }
    // Every helper is done. Each chunk runs at most once, so this runs only
    // the chunks that were never posted or were taken back.
    for task in rest {
        batch.run(task);
    }
    let panic = batch.panic.into_inner();
    if let Some(payload) = panic.unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    out.into_iter()
        .map(|r| r.expect("every chunk ran"))
        .collect()
}

/// Post `job` to an idle helper, starting one if every started helper is
/// busy. `None` when the pool cannot grow; the caller then runs the job.
fn post(job: &mut Job<'_>) -> Option<(&'static Slot, *mut Job<'static>)> {
    let job: *mut Job<'static> = ptr::from_mut(job).cast();
    loop {
        let started = STARTED.load(Ordering::Acquire);
        for slot in &SLOTS[..started] {
            // SeqCst pairs with the helper's `sleeping` store and re-check:
            // either the helper sees this job, or this thread sees it asleep.
            if slot
                .job
                .compare_exchange(ptr::null_mut(), job, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                if slot.sleeping.load(Ordering::SeqCst) {
                    if let Some(helper) = slot.thread.get() {
                        helper.unpark();
                    }
                }
                return Some((slot, job));
            }
        }
        if !grow(started) {
            return None;
        }
    }
}

/// Start helper number `started` unless another caller already has.
/// Returns whether the pool now has more than `started` helpers.
fn grow(started: usize) -> bool {
    // Nothing panics while holding this lock, so it is never poisoned.
    let _grow = GROW.lock().unwrap_or_else(PoisonError::into_inner);
    let now = STARTED.load(Ordering::Acquire);
    if now > started {
        return true;
    }
    if now == MAX_HELPERS {
        return false;
    }
    let slot = &SLOTS[now];
    // Helpers live as long as the process and never unwind (every job runs
    // under `catch_unwind`), so the handle is dropped, not joined.
    let spawned = thread::Builder::new()
        .name(format!("rayon-shim-{now}"))
        .spawn(move || helper(slot));
    if spawned.is_err() {
        return false;
    }
    STARTED.store(now + 1, Ordering::Release);
    true
}

/// A helper's life: wait for a job in `slot`, run it, repeat.
fn helper(slot: &'static Slot) {
    slot.thread.get_or_init(thread::current);
    let mut polls = 0u32;
    loop {
        let job = slot.job.load(Ordering::Acquire);
        if job.is_null() {
            if polls < SPINS {
                idle_poll(polls);
                polls += 1;
            } else {
                slot.sleeping.store(true, Ordering::SeqCst);
                if slot.job.load(Ordering::SeqCst).is_null() {
                    thread::park();
                }
                slot.sleeping.store(false, Ordering::SeqCst);
                polls = 0;
            }
        } else if slot
            .job
            .compare_exchange(job, TAKEN, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            run_posted(slot, job);
            polls = 0;
        }
        // Otherwise the caller took the job back first; poll again.
    }
}

/// Run a job this helper took from `slot`, then mark the slot idle and
/// count the job finished.
fn run_posted(slot: &Slot, job: *mut Job<'static>) {
    // SAFETY: `job` points into the `jobs` vector of a `map_chunks` call,
    // which posted it to `slot`. This helper won the CAS from `job` to
    // `TAKEN`, so the caller can no longer take it back and this thread is
    // its only user. The caller returns only after every claimed chunk has
    // finished, panics included: every chunk runs under `catch_unwind`, and
    // the caller waits for `pending` to reach zero. The decrement below is
    // the last access this helper makes to the job or its `Batch`, so every
    // borrow the job holds outlives this use.
    let job = unsafe { &mut *job };
    let batch = job.batch;
    batch.run(job.task);
    let caller = batch.caller.clone();
    slot.job.store(ptr::null_mut(), Ordering::Release);
    if batch.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        caller.unpark();
    }
}

// ---- the iterator API ----

/// Borrowing conversion into a parallel iterator (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by reference.
    type Item: Sync + 'a;
    /// Start a parallel pipeline over `&self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowing conversion into a mutable parallel iterator (`.par_iter_mut()`).
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type yielded by mutable reference.
    type Item: Send + 'a;
    /// Start a parallel pipeline over `&mut self`.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { items: self }
    }
}

/// A parallel iterator over mutable slice elements.
#[derive(Debug)]
pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Apply `f` to every element in parallel, mutably.
    pub fn map<R, F>(self, f: F) -> ParMapMut<'a, T, F>
    where
        R: Send,
        F: Fn(&'a mut T) -> R + Sync,
    {
        ParMapMut {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIterMut::map`]: a mapped mutable parallel pipeline.
#[derive(Debug)]
pub struct ParMapMut<'a, T, F> {
    items: &'a mut [T],
    f: F,
}

impl<'a, T, R, F> ParMapMut<'a, T, F>
where
    T: Send,
    R: Send,
    F: Fn(&'a mut T) -> R + Sync,
{
    /// Collect mapped values in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_par_vec(parallel_map_mut(self.items, &self.f))
    }

    /// Sum mapped values.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        parallel_map_mut(self.items, &self.f).into_iter().sum()
    }
}

/// A parallel iterator over a slice.
#[derive(Debug)]
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every element in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Apply `f` to every element in parallel with per-chunk state: `init`
    /// makes one state per chunk, and `f` gets it mutably for each of the
    /// chunk's elements in order (scratch buffers reused across elements).
    pub fn map_init<S, R, I, F>(self, init: I, f: F) -> ParMapInit<'a, T, I, F>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &'a T) -> R + Sync,
    {
        ParMapInit {
            items: self.items,
            init,
            f,
        }
    }
}

/// The result of [`ParIter::map_init`]: a mapped parallel pipeline with
/// per-chunk state.
#[derive(Debug)]
pub struct ParMapInit<'a, T, I, F> {
    items: &'a [T],
    init: I,
    f: F,
}

impl<'a, T, S, R, I, F> ParMapInit<'a, T, I, F>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &'a T) -> R + Sync,
{
    /// Collect mapped values in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_par_vec(parallel_map_init(self.items, &self.init, &self.f))
    }
}

/// The result of [`ParIter::map`]: a mapped parallel pipeline.
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    fn run(self) -> Vec<R> {
        parallel_map(self.items, &self.f)
    }

    /// Collect mapped values in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_par_vec(self.run())
    }

    /// Fold mapped values with `op`, starting from `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        self.run().into_iter().fold(identity(), op)
    }

    /// Sum mapped values.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        self.run().into_iter().sum()
    }
}

/// Collections constructible from an ordered parallel pipeline.
pub trait FromParallelIterator<T> {
    /// Build from the already-ordered mapped values.
    fn from_par_vec(v: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_vec(v: Vec<T>) -> Self {
        v
    }
}

/// The traits user code imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{set_spare_thread_budget, MAX_HELPERS, STARTED};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// The budget is process-wide and `cargo test` runs tests on parallel
    /// threads, so every test that makes a parallel call holds this lock.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a two-input call at the current budget runs its second chunk
    /// on a thread other than the caller's. The first chunk, on the caller,
    /// waits until the second has started, so a helper must pick it up; a
    /// sequential call times out after five seconds instead.
    fn helper_runs_second_chunk() -> bool {
        let started = AtomicBool::new(false);
        let ids: Vec<ThreadId> = [0u32, 1]
            .par_iter()
            .map(|&i| {
                if i == 1 {
                    started.store(true, Ordering::SeqCst);
                } else {
                    let t0 = Instant::now();
                    while !started.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(5) {
                        thread::yield_now();
                    }
                }
                thread::current().id()
            })
            .collect();
        ids[1] != thread::current().id()
    }

    /// Thread ids that ran each of 256 inputs, each input doing some work.
    fn thread_ids() -> Vec<ThreadId> {
        let xs: Vec<u64> = (0..256).collect();
        xs.par_iter()
            .map(|&x| {
                std::hint::black_box((0..2_000u64).fold(x, |a, b| a.wrapping_mul(31) ^ b));
                thread::current().id()
            })
            .collect()
    }

    #[test]
    fn map_collect_preserves_order() {
        let _serial = serial();
        let xs: Vec<u64> = (0..10_000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_init_runs_init_once_per_chunk_and_keeps_order() {
        let _serial = serial();
        let xs: Vec<u64> = (0..100).collect();
        for budget in [0usize, 1, 3, 7] {
            set_spare_thread_budget(budget);
            let inits = AtomicUsize::new(0);
            // Each element records its chunk's state and how many elements
            // that state had seen before it.
            let ys: Vec<(usize, u64, u64)> = xs
                .par_iter()
                .map_init(
                    || (inits.fetch_add(1, Ordering::SeqCst), 0u64),
                    |(chunk, seen), &x| {
                        *seen += 1;
                        (*chunk, *seen, x)
                    },
                )
                .collect();
            // `plan`: one thread per granted helper plus the caller, and
            // chunks of ceil(n / threads) inputs.
            let chunk_len = xs.len().div_ceil(budget.min(xs.len() - 1) + 1);
            let chunks = xs.len().div_ceil(chunk_len);
            assert_eq!(inits.load(Ordering::SeqCst), chunks, "budget {budget}");
            assert_eq!(
                ys.iter().map(|&(_, _, x)| x).collect::<Vec<_>>(),
                xs,
                "budget {budget}"
            );
            for (i, &(_, seen, _)) in ys.iter().enumerate() {
                assert_eq!(seen, (i % chunk_len) as u64 + 1, "budget {budget}");
            }
        }
        set_spare_thread_budget(0);
    }

    #[test]
    fn reduce_matches_sequential() {
        let _serial = serial();
        let xs: Vec<u64> = (1..=1000).collect();
        let total = xs.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 500_500);
    }

    #[test]
    fn nested_parallelism_degrades_gracefully() {
        let _serial = serial();
        let outer: Vec<u64> = (0..64).collect();
        let sums: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..64).collect();
                inner.par_iter().map(|&i| o + i).sum::<u64>()
            })
            .collect();
        let expect: Vec<u64> = (0..64).map(|o| (0..64).map(|i| o + i).sum()).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn map_mut_collect_mutates_in_place_and_preserves_order() {
        let _serial = serial();
        let mut xs: Vec<u64> = (0..5_000).collect();
        let ys: Vec<u64> = xs
            .par_iter_mut()
            .map(|x| {
                *x += 1;
                *x * 10
            })
            .collect();
        assert_eq!(xs, (1..=5_000).collect::<Vec<_>>());
        assert_eq!(ys, (1..=5_000).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sum_works() {
        let _serial = serial();
        let xs: Vec<u32> = (0..100).collect();
        let s: u32 = xs.par_iter().map(|&x| x).sum();
        assert_eq!(s, 4950);
    }

    #[test]
    fn a_panic_reaches_the_caller_and_keeps_the_budget() {
        let _serial = serial();
        set_spare_thread_budget(1);
        let caught = std::panic::catch_unwind(|| {
            [0u32, 1]
                .par_iter()
                .map(|&i| assert!(i == 0, "chunk {i} fails"))
                .collect::<Vec<()>>()
        });
        let payload = caught.expect_err("the chunk's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("chunk 1 fails"),
            "the caller re-raises the chunk's own payload"
        );
        assert!(helper_runs_second_chunk(), "the spare thread came back");
    }

    #[test]
    fn back_to_back_two_element_calls_stay_ordered() {
        let _serial = serial();
        set_spare_thread_budget(1);
        let mut pair = [0u64, 1_000_000];
        for i in 1..=10_000u64 {
            let got: Vec<u64> = pair
                .par_iter_mut()
                .map(|x| {
                    *x += 1;
                    *x
                })
                .collect();
            assert_eq!(got, [i, 1_000_000 + i]);
        }
    }

    #[test]
    fn a_call_inside_a_pool_job_runs_sequentially() {
        let _serial = serial();
        set_spare_thread_budget(7);
        let sequential: Vec<bool> = [0u32, 1]
            .par_iter()
            .map(|_| {
                let me = thread::current().id();
                thread_ids().iter().all(|&id| id == me)
            })
            .collect();
        assert_eq!(sequential, [true, true]);
    }

    #[test]
    fn a_call_uses_at_most_its_budget_of_helpers() {
        let _serial = serial();
        set_spare_thread_budget(7);
        // Eight one-input chunks that each wait until all eight have
        // started: no helper frees its slot while the caller is still
        // posting, so the pool must hold at least seven helpers.
        let arrived = AtomicUsize::new(0);
        let chunks: Vec<u32> = (0..8).collect();
        chunks
            .par_iter()
            .map(|_| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let t0 = Instant::now();
                while arrived.load(Ordering::SeqCst) < 8 && t0.elapsed() < Duration::from_secs(5) {
                    thread::yield_now();
                }
            })
            .collect::<Vec<()>>();
        let started = STARTED.load(Ordering::Acquire);
        assert!((7..=MAX_HELPERS).contains(&started), "{started} helpers");
        let me = thread::current().id();
        for (budget, most) in [(1, 1), (0, 0)] {
            set_spare_thread_budget(budget);
            let others: HashSet<ThreadId> =
                thread_ids().into_iter().filter(|&id| id != me).collect();
            assert!(others.len() <= most, "budget {budget}: {others:?}");
        }
    }
}
