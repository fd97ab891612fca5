//! Scoped-thread data-parallel helpers for the DEFA workspace.
//!
//! The container this reproduction builds in has no registry access, so
//! `rayon` cannot be a dependency; this crate provides the small subset of
//! rayon's behaviour the hot paths need, built on [`std::thread::scope`]:
//!
//! * contiguous, *deterministic* partitioning — every helper splits its
//!   index space into at most [`current_num_threads`] contiguous ranges and
//!   writes results back by index, so outputs are **bit-identical** for any
//!   thread count (each element is computed by the same pure function with
//!   the same reduction order regardless of partitioning);
//! * `RAYON_NUM_THREADS` is honoured, exactly like rayon, and
//!   [`with_num_threads`] offers a process-local override so tests can
//!   compare single- vs multi-threaded runs inside one process;
//! * helpers short-circuit to plain sequential loops when one thread is
//!   configured or the work is too small to amortize a thread spawn.
//!
//! Swapping this crate for real `rayon` later is a local change to the hot
//! loops (`par_chunks_mut(..)` ↔ `slice.par_chunks_mut(..).for_each(..)`).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

thread_local! {
    /// Set inside helper worker threads. Nested helper calls from a worker
    /// run sequentially instead of spawning more threads — without a
    /// work-stealing pool, two levels of fan-out would oversubscribe the
    /// machine with spawn/join churn (e.g. a parallel benchmark grid whose
    /// cells each call the parallel GEMM). Results are unaffected.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };

    /// Set while this thread holds [`OVERRIDE_LOCK`], so nested
    /// [`with_num_threads`] calls skip re-locking instead of
    /// self-deadlocking on the non-reentrant mutex.
    static HOLDS_OVERRIDE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the nested-parallelism guard set — on a spawned worker,
/// or on the calling thread while it works its own share of a helper
/// call. The guard is cleared again even if `f` panics.
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(false));
        }
    }
    IN_WORKER.with(|w| w.set(true));
    let _clear = Clear;
    f()
}

/// Process-wide thread-count override (0 = no override).
static OVERRIDE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_num_threads`] callers so concurrent overrides cannot
/// interleave their save/restore and leak a stale value.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Chunk counts below this run sequentially regardless of thread count:
/// there is no pool, so a parallel call spawns fresh scoped threads (tens
/// of microseconds). This threshold only sees the *chunk count* — callers
/// whose per-chunk work is trivially small gate on total work size
/// themselves (as the GEMM and model hot loops do). Results never depend
/// on the threshold — only wall clock.
const SPAWN_THRESHOLD: usize = 2;

/// The number of worker threads the helpers may use.
///
/// Resolution order: [`with_num_threads`] override, then the
/// `RAYON_NUM_THREADS` environment variable, then
/// [`std::thread::available_parallelism`].
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let forced = OVERRIDE_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    // The env var and machine parallelism are resolved once: std::env::var
    // takes the process env lock and allocates, and the hot loops ask for
    // the thread count several times per kernel call.
    static DEFAULT_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Runs `f` with the helper thread count forced to `n` (restored after,
/// even if `f` panics).
///
/// Intended for determinism tests: run the same computation with 1 and
/// with a larger count and require identical results. The override is
/// process-wide, so callers are serialized by an internal lock; code
/// running *outside* any `with_num_threads` call concurrently with one
/// simply observes the temporary override, which changes scheduling but —
/// by the determinism contract of this crate's helpers — never results.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    // Nested calls from the same thread already hold the lock — re-locking
    // would self-deadlock, so only the outermost call serializes.
    let _serialize = if HOLDS_OVERRIDE.with(Cell::get) {
        None
    } else {
        let guard = OVERRIDE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        HOLDS_OVERRIDE.with(|h| h.set(true));
        Some(guard)
    };
    struct Restore {
        prev: usize,
        release_lock_flag: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE_THREADS.store(self.prev, Ordering::SeqCst);
            if self.release_lock_flag {
                HOLDS_OVERRIDE.with(|h| h.set(false));
            }
        }
    }
    let _restore = Restore {
        prev: OVERRIDE_THREADS.swap(n, Ordering::SeqCst),
        release_lock_flag: _serialize.is_some(),
    };
    f()
}

/// Splits `len` items into at most `threads` contiguous ranges of
/// near-equal size, returning `(start, end)` pairs in order.
fn partitions(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.min(len).max(1);
    let base = len / t;
    let extra = len % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Applies `f(chunk_index, chunk)` to every `chunk_len`-sized chunk of
/// `data` (the last chunk may be shorter), in parallel.
///
/// Chunks are disjoint `&mut` windows, so each index is written by exactly
/// one closure invocation; results are identical for any thread count.
///
/// # Panics
///
/// Panics if `chunk_len == 0`. A panic inside `f` propagates.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = current_num_threads();
    if threads <= 1 || n_chunks < SPAWN_THRESHOLD {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let f = &f;
    thread::scope(|s| {
        let mut rest = data;
        let parts = partitions(n_chunks, threads);
        let last = parts.len() - 1;
        for (k, (start, end)) in parts.into_iter().enumerate() {
            let split = ((end - start) * chunk_len).min(rest.len());
            let (mine, tail) = rest.split_at_mut(split);
            rest = tail;
            let mut work = move || {
                as_worker(|| {
                    for (i, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                        f(start + i, chunk);
                    }
                })
            };
            // The calling thread works the last range itself instead of
            // idling in the join: one spawn fewer per call.
            if k == last {
                work();
            } else {
                s.spawn(work);
            }
        }
    });
}

/// [`par_chunks_mut`] when `parallel` is true, a plain sequential chunk
/// loop otherwise.
///
/// The helpers have no thread pool, so a parallel call spawns fresh
/// scoped threads; hot loops whose total work can be trivially small pass
/// a work-size condition here (results are identical either way).
pub fn par_chunks_mut_if<T, F>(parallel: bool, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if parallel {
        par_chunks_mut(data, chunk_len, f);
    } else {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
    }
}

/// Computes `f(i)` for `i in 0..len` in parallel, returning results in
/// index order.
pub fn par_map_collect<U, F>(len: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = current_num_threads();
    if threads <= 1 || len < SPAWN_THRESHOLD {
        return (0..len).map(f).collect();
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    let f = &f;
    thread::scope(|s| {
        let mut rest = slots.as_mut_slice();
        let parts = partitions(len, threads);
        let last = parts.len() - 1;
        for (k, (start, end)) in parts.into_iter().enumerate() {
            let (mine, tail) = rest.split_at_mut(end - start);
            rest = tail;
            let mut work = move || {
                as_worker(|| {
                    for (off, slot) in mine.iter_mut().enumerate() {
                        *slot = Some(f(start + off));
                    }
                })
            };
            // As in `par_chunks_mut`: the caller works the last range.
            if k == last {
                work();
            } else {
                s.spawn(work);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every slot filled")).collect()
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    thread::scope(|s| {
        let hb = s.spawn(|| as_worker(b));
        let ra = a();
        // Re-raise the original payload so assertion messages from `b`
        // survive the thread boundary, as they do on the sequential path.
        let rb = hb.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        (ra, rb)
    })
}

/// A job submitted to a [`WorkerPool`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion bookkeeping shared between a pool and its workers.
#[derive(Debug)]
struct PoolShared {
    /// Jobs submitted but not yet finished.
    pending: Mutex<usize>,
    /// Signalled whenever `pending` drops to zero.
    idle: Condvar,
    /// Set when any job panicked; surfaced by [`WorkerPool::wait_idle`].
    panicked: AtomicBool,
}

/// A small pool of long-lived worker threads with per-worker FIFO queues.
///
/// The scoped helpers above spawn fresh threads on every call, which is
/// fine for one large kernel but wasteful for a serving loop that
/// dispatches many small batches: each dispatch would pay a thread
/// spawn/join. A `WorkerPool` pays the spawn cost once; jobs submitted to
/// the same worker index run in submission order on the same OS thread,
/// so per-thread state (thread-local scratch arenas, allocator caches)
/// stays warm across batches and the steady state spawns nothing.
///
/// Determinism: the pool imposes no cross-worker ordering — callers must
/// key results by an index they control (as [`par_map_collect`] does), not
/// by completion order. Jobs run with the nested-parallelism guard set, so
/// parallel helpers called from inside a job degrade to sequential loops
/// exactly like nested scoped calls do — results are unaffected.
///
/// # Example
///
/// ```
/// use defa_parallel::WorkerPool;
/// use std::sync::mpsc;
///
/// let pool = WorkerPool::new(2);
/// let (tx, rx) = mpsc::channel();
/// for i in 0..4u64 {
///     let tx = tx.clone();
///     pool.submit(i as usize, move || tx.send((i, i * i)).unwrap());
/// }
/// pool.wait_idle();
/// let mut out: Vec<_> = rx.try_iter().collect();
/// out.sort_unstable();
/// assert_eq!(out, vec![(0, 0), (1, 1), (2, 4), (3, 9)]);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawns a pool of `threads.max(1)` workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            pending: Mutex::new(0),
            idle: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel::<Job>();
            let shared = Arc::clone(&shared);
            handles.push(thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| as_worker(job)));
                    if outcome.is_err() {
                        shared.panicked.store(true, Ordering::SeqCst);
                    }
                    let mut pending = shared.pending.lock().unwrap_or_else(|p| p.into_inner());
                    *pending -= 1;
                    if *pending == 0 {
                        shared.idle.notify_all();
                    }
                }
            }));
            senders.push(tx);
        }
        WorkerPool { senders, handles, shared }
    }

    /// A pool sized like the scoped helpers ([`current_num_threads`]).
    pub fn with_default_threads() -> Self {
        Self::new(current_num_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Enqueues `job` on worker `worker % threads()`.
    ///
    /// Jobs on one worker run FIFO; jobs on different workers run
    /// concurrently. The job must own its data (`'static`) — move results
    /// out through a channel or shared slot keyed by caller-chosen index.
    pub fn submit(&self, worker: usize, job: impl FnOnce() + Send + 'static) {
        {
            let mut pending = self.shared.pending.lock().unwrap_or_else(|p| p.into_inner());
            *pending += 1;
        }
        let slot = worker % self.senders.len();
        // Workers only exit when the senders drop (in Drop), so the
        // receiver is alive for the whole pool lifetime.
        self.senders[slot].send(Box::new(job)).expect("pool worker alive");
    }

    /// Blocks until every submitted job has finished.
    ///
    /// # Panics
    ///
    /// Panics if any job panicked since the pool was created, so failures
    /// in detached jobs cannot be silently swallowed.
    pub fn wait_idle(&self) {
        let mut pending = self.shared.pending.lock().unwrap_or_else(|p| p.into_inner());
        while *pending > 0 {
            pending = self.shared.idle.wait(pending).unwrap_or_else(|p| p.into_inner());
        }
        drop(pending);
        assert!(!self.shared.panicked.load(Ordering::SeqCst), "a WorkerPool job panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels lets each worker drain its queue and exit.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            // Worker threads catch job panics, so join only fails if the
            // runtime tore the thread down; nothing to clean up then.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_range_in_order() {
        for len in [0usize, 1, 5, 17, 100] {
            for t in [1usize, 2, 3, 8] {
                let parts = partitions(len, t);
                let mut expect = 0;
                for &(s, e) in &parts {
                    assert_eq!(s, expect);
                    assert!(e >= s);
                    expect = e;
                }
                assert_eq!(expect, len);
            }
        }
    }

    #[test]
    fn par_chunks_mut_matches_sequential() {
        let mut par = vec![0u64; 1037];
        let mut seq = vec![0u64; 1037];
        par_chunks_mut(&mut par, 8, |i, c| {
            for (j, x) in c.iter_mut().enumerate() {
                *x = (i * 1000 + j) as u64;
            }
        });
        for (i, c) in seq.chunks_mut(8).enumerate() {
            for (j, x) in c.iter_mut().enumerate() {
                *x = (i * 1000 + j) as u64;
            }
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn gated_variant_matches_both_ways() {
        for parallel in [false, true] {
            let mut v = vec![0usize; 100];
            par_chunks_mut_if(parallel, &mut v, 9, |i, c| c.iter_mut().for_each(|x| *x = i + 1));
            assert_eq!(v[0], 1);
            assert_eq!(v[99], 12);
        }
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let out = par_map_collect(513, |i| i * i);
        assert_eq!(out.len(), 513);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn with_num_threads_forces_count() {
        with_num_threads(1, || assert_eq!(current_num_threads(), 1));
        with_num_threads(3, || assert_eq!(current_num_threads(), 3));
    }

    #[test]
    fn with_num_threads_is_reentrant() {
        let inner = with_num_threads(3, || {
            assert_eq!(current_num_threads(), 3);
            let inner = with_num_threads(1, current_num_threads);
            // Inner override restored to the outer one on exit.
            assert_eq!(current_num_threads(), 3);
            inner
        });
        assert_eq!(inner, 1);
    }

    #[test]
    fn nested_calls_run_sequentially_with_correct_results() {
        // Outer fan-out: each item itself calls a parallel helper; the
        // nested call must degrade to sequential (no thread explosion)
        // and still produce identical results.
        let outer = par_map_collect(8, |i| {
            let inner_threads = par_map_collect(4, |_| current_num_threads());
            assert!(inner_threads.iter().all(|&t| t == 1), "nested call must see 1 thread");
            let mut v = vec![0usize; 32];
            par_chunks_mut(&mut v, 5, |c, chunk| chunk.iter_mut().for_each(|x| *x = i + c));
            v.iter().sum::<usize>()
        });
        for (i, &sum) in outer.iter().enumerate() {
            let mut expect = vec![0usize; 32];
            for (c, chunk) in expect.chunks_mut(5).enumerate() {
                chunk.iter_mut().for_each(|x| *x = i + c);
            }
            assert_eq!(sum, expect.iter().sum::<usize>());
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn pool_runs_jobs_and_goes_idle() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let results = Arc::new(Mutex::new(vec![0usize; 100]));
        for i in 0..100 {
            let results = Arc::clone(&results);
            pool.submit(i, move || {
                results.lock().unwrap()[i] = i + 1;
            });
        }
        pool.wait_idle();
        let r = results.lock().unwrap();
        for (i, &v) in r.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn pool_jobs_on_one_worker_run_fifo() {
        let pool = WorkerPool::new(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..50 {
            let order = Arc::clone(&order);
            // All on worker 0: must observe submission order.
            pool.submit(0, move || order.lock().unwrap().push(i));
        }
        pool.wait_idle();
        assert_eq!(*order.lock().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pool_jobs_see_the_worker_guard() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        pool.submit(0, move || {
            // Nested helpers inside a pool job degrade to sequential.
            tx.send(current_num_threads()).unwrap();
        });
        pool.wait_idle();
        assert_eq!(rx.recv().unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "a WorkerPool job panicked")]
    fn pool_surfaces_job_panics() {
        let pool = WorkerPool::new(1);
        pool.submit(0, || panic!("boom"));
        pool.wait_idle();
    }

    #[test]
    fn zero_thread_request_still_gets_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = mpsc::channel();
        pool.submit(7, move || tx.send(1).unwrap());
        pool.wait_idle();
        assert_eq!(rx.recv().unwrap(), 1);
    }

    #[test]
    fn single_thread_override_still_computes() {
        with_num_threads(1, || {
            let mut v = vec![0usize; 64];
            par_chunks_mut(&mut v, 7, |i, c| c.iter_mut().for_each(|x| *x = i));
            assert_eq!(v[63], 9);
            assert_eq!(par_map_collect(10, |i| i + 1)[9], 10);
        });
    }
}
