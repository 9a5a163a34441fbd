//! Offline stand-in for `rayon`, implemented on a persistent std-only worker
//! pool.
//!
//! The build environment has no crate-registry access, so this shim provides
//! the exact parallel-iterator subset the workspace uses — `par_iter().map()`
//! with `collect`/`reduce`/`for_each`, `par_iter_mut().for_each()` and
//! `join` — with the same semantics the code relies on:
//!
//! * **Deterministic output order.** `collect` returns results in input order
//!   and `reduce` folds them left to right, so what a call returns never
//!   depends on the worker count or on which thread ran which item.
//! * **Chunks claimed from one cursor.** A parallel call is one *job*: its
//!   index range is cut into chunks of about `n / (8 · threads)` items, and
//!   the calling thread plus up to `threads − 1` pool workers claim them one
//!   at a time from a shared atomic cursor.  A slow stretch of input therefore
//!   holds up one chunk, not a whole per-thread slice.  Each chunk's results
//!   go to their own slot; the slots are concatenated in index order.
//! * **Persistent, self-retiring workers.** Workers are spawned on first
//!   need and park on a condition variable between jobs, so a parallel call
//!   costs a wake-up, not a thread spawn.  A worker that finds no work for
//!   about 50 ms exits, so a quiet process returns to its baseline thread
//!   count.
//! * **Nesting and panics.** A parallel call made inside a chunk (a recursive
//!   `join`, a `par_iter` per shard) submits a job of its own and works on it.
//!   A caller only waits for chunks that running threads have already
//!   claimed, so nesting cannot deadlock.  A panic in a chunk is caught, the
//!   job's unclaimed chunks are skipped, and once every claimed chunk has
//!   finished the caller re-raises the original payload.  The pool stays
//!   usable.
//! * **Automatic sequential fallback** for tiny inputs, so trivially small
//!   batches never touch the pool.
//!
//! `RAYON_NUM_THREADS` is honored (as upstream does); `1` forces sequential
//! execution.  [`ThreadPoolBuilder`]/[`ThreadPool::install`] mirror the
//! upstream API for scoping a different worker count dynamically — the replay
//! harness uses it to run the same trace under 1 and N workers in one
//! process.  Swapping this path dependency for upstream rayon requires no
//! source changes.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Inputs below this length are processed sequentially.
const MIN_PARALLEL_LEN: usize = 16;

/// Chunks per thread a parallel call is cut into: enough that one slow chunk
/// does not set the call's wall, few enough that claiming stays cheap.
const CHUNKS_PER_THREAD: usize = 8;

/// A pool worker that has found no work for this long exits.
const IDLE_RETIRE: Duration = Duration::from_millis(50);

/// A chunk's slot (its input part, closure or results) is locked by the one
/// chunk that owns it and, once every chunk has succeeded, by the caller.  A
/// panic can poison only the panicking chunk's own slot, and the caller
/// re-raises that panic instead of reading any slot.
const SLOT: &str = "rayon-shim slot is poisoned only by a panic that is re-raised first";

thread_local! {
    /// Worker count forced by an enclosing [`ThreadPool::install`], if any.
    /// Set on pool workers for every chunk they run, so nested parallel
    /// regions see the same count as the thread that submitted the job.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads used for parallel execution.
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n;
    }
    default_num_threads()
}

fn default_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Restores the previous override when dropped (panic-safe).
struct OverrideGuard {
    previous: Option<usize>,
}

fn set_thread_override(n: Option<usize>) -> OverrideGuard {
    let previous = THREAD_OVERRIDE.with(|c| c.replace(n));
    OverrideGuard { previous }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        let previous = self.previous;
        THREAD_OVERRIDE.with(|c| c.set(previous));
    }
}

/// Error building a [`ThreadPool`] (mirrors `rayon::ThreadPoolBuildError`;
/// this shim's pools cannot actually fail to build).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Mirrors `rayon::ThreadPoolBuilder`: configures a [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Starts from the defaults (worker count = `current_num_threads()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count; `0` (the default) keeps the ambient count.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.  Infallible in this shim, `Result` for upstream
    /// signature compatibility.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            default_num_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// Mirrors `rayon::ThreadPool`: a worker-count context over the one
/// process-wide pool.
///
/// Unlike upstream, a `ThreadPool` owns no threads of its own.  `install`
/// runs `op` on the calling thread with `current_num_threads()` forced to
/// this pool's count, and every parallel call inside it — nested calls on
/// pool workers included — uses at most that many threads (the caller plus
/// `count − 1` workers of the shared pool).  That is exactly the observable
/// property the workspace's determinism tests exercise.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The worker count this pool runs with.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with this pool's worker count in effect.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _guard = set_thread_override(Some(self.threads));
        op()
    }
}

/// One parallel call: `chunks` chunk indices handed out by `cursor` to the
/// submitting thread and to the pool workers that join it.
struct Job {
    /// The chunk body, its borrow lifetime erased (see [`run_chunks`]).
    body: *const (dyn Fn(usize) + Sync + 'static),
    chunks: usize,
    /// The submitter's `current_num_threads()`, in force on every worker
    /// while it runs this job's chunks.
    threads: usize,
    /// The next chunk to claim; a claim succeeds when it is `< chunks`.
    cursor: AtomicUsize,
    /// Claimed chunks that are done: run, or skipped after a panic.
    finished: AtomicUsize,
    /// Set by the first panicking chunk; later claims skip their chunk.
    panicked: AtomicBool,
    /// The first panic payload, stored before its chunk counts as finished.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Unparked by the helper that finishes the last chunk.
    submitter: Thread,
}

// SAFETY: every field but `body` is `Send + Sync`.  `body` points at a
// `Sync` closure, so calling it from several threads at once is sound, and
// it is dereferenced only in `Job::work` under the invariant `run_chunks`
// states: after a successful claim, while the submitter is still inside
// `run_chunks` and so still holds the borrow.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above; all interior mutability is atomics and a
// `Mutex`.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until the cursor is exhausted.
    fn work(&self, is_submitter: bool) {
        loop {
            let chunk = self.cursor.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            if !self.panicked.load(Ordering::Relaxed) {
                // SAFETY: the claim of `chunk` succeeded, so `finished` stays
                // below `chunks` until this chunk is counted below, and
                // `run_chunks` does not return — ending the closure's borrow
                // — before `finished == chunks`.
                let body = unsafe { &*self.body };
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(chunk))) {
                    self.panicked.store(true, Ordering::Relaxed);
                    self.payload
                        .lock()
                        .expect("rayon-shim panic slot is never locked across a panic")
                        .get_or_insert(payload);
                }
            }
            // Release half of the pairing with `run_chunks`' Acquire load:
            // publishes this chunk's slot write and panic payload.
            let done = self.finished.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.chunks && !is_submitter {
                self.submitter.unpark();
            }
        }
    }
}

/// The process-wide worker pool.
struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
}

struct PoolState {
    /// Jobs open to helpers, each with how many more helpers it may take;
    /// the newest job is last.
    open: Vec<(Arc<Job>, usize)>,
    /// Workers parked on `wake` that no signal is on its way to.
    parked: usize,
    /// Signals sent to parked workers and not taken yet.
    signals: usize,
    /// Workers spawned that have not scanned `open` yet.
    starting: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        open: Vec::new(),
        parked: 0,
        signals: 0,
        starting: 0,
    }),
    wake: Condvar::new(),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state
            .lock()
            .expect("rayon-shim pool lock is never held across user code")
    }

    /// Opens `job` to `helpers` workers: workers already bound to scan the
    /// open jobs count first, then parked workers are signalled, then new
    /// ones are spawned.
    fn submit(&self, job: &Arc<Job>, helpers: usize) {
        let spawn = {
            let mut st = self.lock();
            st.open.push((job.clone(), helpers));
            let need = helpers.saturating_sub(st.signals + st.starting);
            let wake = need.min(st.parked);
            st.parked -= wake;
            st.signals += wake;
            for _ in 0..wake {
                self.wake.notify_one();
            }
            st.starting += need - wake;
            need - wake
        };
        for _ in 0..spawn {
            // Workers are detached on purpose: each exits on its own after
            // `IDLE_RETIRE` without work, and one that fails to spawn only
            // leaves more chunks to the submitter.
            let spawned = thread::Builder::new()
                .name("rayon-shim-worker".into())
                .spawn(|| POOL.worker());
            if spawned.is_err() {
                self.lock().starting -= 1;
            }
        }
    }

    /// Closes `job` to workers that have not joined it yet.
    fn retract(&self, job: &Arc<Job>) {
        self.lock().open.retain(|(open, _)| !Arc::ptr_eq(open, job));
    }

    /// A worker's life: run the chunks of open jobs, park when there are
    /// none, exit after `IDLE_RETIRE` parked without a signal.
    fn worker(&self) {
        let mut st = self.lock();
        st.starting -= 1;
        loop {
            if let Some(job) = st.join_open() {
                drop(st);
                {
                    let _threads = set_thread_override(Some(job.threads));
                    job.work(false);
                }
                st = self.lock();
                continue;
            }
            st.parked += 1;
            let retire_at = Instant::now() + IDLE_RETIRE;
            loop {
                if st.signals > 0 {
                    st.signals -= 1;
                    break;
                }
                let now = Instant::now();
                if now >= retire_at {
                    st.parked -= 1;
                    return;
                }
                st = self
                    .wake
                    .wait_timeout(st, retire_at - now)
                    .expect("rayon-shim pool lock is never held across user code")
                    .0;
            }
        }
    }
}

impl PoolState {
    /// Joins the newest open job that still has unclaimed chunks, dropping
    /// exhausted and full jobs from the list.
    fn join_open(&mut self) -> Option<Arc<Job>> {
        while let Some(entry) = self.open.last_mut() {
            if entry.0.cursor.load(Ordering::Relaxed) >= entry.0.chunks {
                self.open.pop();
                continue;
            }
            entry.1 -= 1;
            let job = entry.0.clone();
            if entry.1 == 0 {
                self.open.pop();
            }
            return Some(job);
        }
        None
    }
}

/// Runs `body(c)` for every chunk `c in 0..chunks` on the calling thread and
/// up to `threads − 1` pool workers, and returns once every chunk has run.
/// A panic in any chunk is re-raised here with its original payload, after
/// every claimed chunk has finished.
fn run_chunks(chunks: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
    let helpers = threads.min(chunks).saturating_sub(1);
    if helpers == 0 {
        (0..chunks).for_each(body);
        return;
    }
    // SAFETY: only the trait object's lifetime bound changes; the pointer
    // and vtable are untouched.  The erased borrow outlives every use:
    // `Job::work` dereferences `body` only after claiming a chunk, and this
    // function returns only once `finished == chunks`, i.e. after every
    // claimed chunk has run (the submitter claims whatever helpers leave, and
    // a panicking chunk is caught and counted like any other).  Workers that
    // still hold the `Arc<Job>` afterwards find the cursor exhausted and
    // never touch `body` again.
    let body = unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(body)
    };
    let job = Arc::new(Job {
        body,
        chunks,
        threads,
        cursor: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
        submitter: thread::current(),
    });
    POOL.submit(&job, helpers);
    job.work(true);
    POOL.retract(&job);
    // Acquire half of the pairing with `Job::work`'s `finished` increment.
    while job.finished.load(Ordering::Acquire) < chunks {
        thread::park();
    }
    let payload = job
        .payload
        .lock()
        .expect("rayon-shim panic slot is never locked across a panic")
        .take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Items per chunk for an `n`-item call on `threads` threads.
fn chunk_len(n: usize, threads: usize) -> usize {
    (n / (CHUNKS_PER_THREAD * threads)).max(1)
}

/// Runs `f(i)` for every `i in 0..n` and returns the results in index order,
/// fanning the index range out over the worker threads.
fn execute_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = current_num_threads();
    if threads <= 1 || n < MIN_PARALLEL_LEN {
        return (0..n).map(f).collect();
    }
    let len = chunk_len(n, threads);
    let slots: Vec<Mutex<Vec<R>>> = (0..n.div_ceil(len))
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    run_chunks(slots.len(), threads, &|c| {
        let part: Vec<R> = (c * len..n.min((c + 1) * len)).map(&f).collect();
        *slots[c].lock().expect(SLOT) = part;
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().expect(SLOT));
    }
    out
}

/// Runs two closures, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = current_num_threads();
    if threads <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    run_chunks(2, threads, &|c| {
        if c == 0 {
            let a = a.lock().expect(SLOT).take().expect("join arm a runs once");
            let r = a();
            *ra.lock().expect(SLOT) = Some(r);
        } else {
            let b = b.lock().expect(SLOT).take().expect("join arm b runs once");
            let r = b();
            *rb.lock().expect(SLOT) = Some(r);
        }
    });
    (
        ra.into_inner().expect(SLOT).expect("join arm a ran"),
        rb.into_inner().expect(SLOT).expect("join arm b ran"),
    )
}

/// Shared-reference parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// Mapped parallel iterator (the result of [`ParIter::map`]).
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// Mutable parallel iterator over a slice.
pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maps every item through `f` in parallel.
    pub fn map<F, R>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Applies `f` to every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        execute_indexed(self.items.len(), |i| f(&self.items[i]));
    }
}

impl<'a, T: Sync, F, R> ParMap<'a, T, F>
where
    F: Fn(&'a T) -> R + Sync,
    R: Send,
{
    /// Collects the mapped results, preserving input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let f = &self.f;
        C::from(execute_indexed(self.items.len(), |i| f(&self.items[i])))
    }

    /// Reduces the mapped results with `op`: maps in parallel, then folds
    /// the results in input order, left to right, from a single
    /// `identity()`.  The result is therefore the sequential fold's for any
    /// `op`, independent of the worker count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let results: Vec<R> = self.collect();
        results.into_iter().fold(identity(), &op)
    }
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Applies `f` to every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let n = self.items.len();
        let threads = current_num_threads();
        if threads <= 1 || n < MIN_PARALLEL_LEN {
            self.items.iter_mut().for_each(f);
            return;
        }
        let parts: Vec<Mutex<&mut [T]>> = self
            .items
            .chunks_mut(chunk_len(n, threads))
            .map(Mutex::new)
            .collect();
        run_chunks(parts.len(), threads, &|c| {
            let mut part = parts[c].lock().expect(SLOT);
            part.iter_mut().for_each(&f);
        });
    }
}

/// Mirrors `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// The element type.
    type Item: Sync + 'a;

    /// Returns a parallel iterator over shared references.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

/// Mirrors `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'a> {
    /// The element type.
    type Item: Send + 'a;

    /// Returns a parallel iterator over mutable references.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
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

/// The usual `use rayon::prelude::*` import surface.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pool(threads: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn reduce_matches_sequential_sum() {
        let input: Vec<u64> = (1..=500).collect();
        let sum = input.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, 500 * 501 / 2);
    }

    #[test]
    fn par_iter_mut_touches_every_item_once() {
        for threads in [1, 2, 4, 8] {
            let mut v = vec![1u64; 777];
            pool(threads).install(|| v.par_iter_mut().for_each(|x| *x += 1));
            assert!(v.iter().all(|&x| x == 2));
        }
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 6 * 7, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn tiny_inputs_run_sequentially() {
        let input = vec![1, 2, 3];
        let out: Vec<i32> = input.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn install_scopes_the_worker_count() {
        let ambient = super::current_num_threads();
        let pool = pool(3);
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(super::current_num_threads);
        assert_eq!(seen, 3);
        // Restored once install returns.
        assert_eq!(super::current_num_threads(), ambient);
        // Nesting: the innermost install wins, then unwinds.
        let inner = super::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let (outer_seen, inner_seen) = pool.install(|| {
            let i = inner.install(super::current_num_threads);
            (super::current_num_threads(), i)
        });
        assert_eq!(outer_seen, 3);
        assert_eq!(inner_seen, 1);
    }

    #[test]
    fn install_propagates_into_workers() {
        let input: Vec<u64> = (0..200).collect();
        // Unequal to the ambient count, so a worker that missed the
        // override would report something else.
        let threads = super::default_num_threads() + 1;
        let counts: Vec<usize> = pool(threads).install(|| {
            input
                .par_iter()
                .map(|_| {
                    // Slow enough that the helpers claim chunks too.
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    super::current_num_threads()
                })
                .collect()
        });
        // Every worker (not just the installing thread) sees the pool's count,
        // so nested parallel regions inside workers stay consistent.
        assert!(counts.iter().all(|&c| c == threads));
    }

    #[test]
    fn install_with_one_thread_matches_parallel_results() {
        let input: Vec<u64> = (0..500).collect();
        let parallel: Vec<u64> = input.par_iter().map(|&x| x * 3 + 1).collect();
        let sequential: Vec<u64> =
            pool(1).install(|| input.par_iter().map(|&x| x * 3 + 1).collect());
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn builder_default_keeps_ambient_count() {
        let pool = super::ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(pool.current_num_threads(), super::current_num_threads());
    }

    /// The message a caught panic carried.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |s| s.to_string()),
        }
    }

    #[test]
    fn a_panicking_item_re_raises_its_own_payload_and_the_pool_stays_usable() {
        let input: Vec<u64> = (0..1000).collect();
        let pool = pool(4);
        let caught = std::panic::catch_unwind(|| {
            pool.install(|| {
                input
                    .par_iter()
                    .map(|&x| {
                        if x == 617 {
                            panic!("item {x} failed")
                        } else {
                            x
                        }
                    })
                    .collect::<Vec<u64>>()
            })
        });
        assert_eq!(message(caught.unwrap_err()), "item 617 failed");
        let caught = std::panic::catch_unwind(|| {
            pool.install(|| super::join(|| 1, || -> u32 { panic!("arm b failed") }))
        });
        assert_eq!(message(caught.unwrap_err()), "arm b failed");
        let mut v: Vec<u64> = (0..300).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                v.par_iter_mut().for_each(|x| {
                    if *x == 150 {
                        panic!("item 150 failed")
                    }
                })
            })
        }));
        assert_eq!(message(caught.unwrap_err()), "item 150 failed");
        // The next calls run normally.
        let out: Vec<u64> = pool.install(|| input.par_iter().map(|&x| x + 1).collect());
        assert_eq!(out, (1..=1000).collect::<Vec<u64>>());
        assert_eq!(pool.install(|| super::join(|| 1, || 2)), (1, 2));
    }

    /// `for_each_shard`'s shape: a recursive `join` whose leaves each run a
    /// parallel map, collected in order.
    fn nested(items: &[u64]) -> Vec<u64> {
        if items.len() <= 40 {
            return items.par_iter().map(|&x| x * x + 1).collect();
        }
        let (left, right) = items.split_at(items.len() / 3);
        let (mut l, r) = super::join(|| nested(left), || nested(right));
        l.extend(r);
        l
    }

    #[test]
    fn recursive_join_with_inner_par_iter_matches_the_sequential_result() {
        let input: Vec<u64> = (0..2000).collect();
        let expected: Vec<u64> = input.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 8] {
            for _ in 0..5 {
                assert_eq!(pool(threads).install(|| nested(&input)), expected);
            }
        }
    }

    #[test]
    fn one_slow_item_still_yields_index_ordered_output() {
        let input: Vec<u64> = (0..200).collect();
        for threads in [2, 4] {
            let out: Vec<u64> = pool(threads).install(|| {
                input
                    .par_iter()
                    .map(|&x| {
                        let pause = if x == 3 { 10_000 } else { 100 };
                        std::thread::sleep(std::time::Duration::from_micros(pause));
                        x * 7
                    })
                    .collect()
            });
            assert_eq!(out, input.iter().map(|&x| x * 7).collect::<Vec<u64>>());
        }
    }
}
