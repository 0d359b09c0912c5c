//! Chunked parallel-for built on a persistent work-queue thread pool.
//!
//! The heavy kernels in this workspace (dense matmul, correlation matrices,
//! orbit counting) are embarrassingly parallel over rows or edges.  Earlier
//! revisions spawned fresh scoped threads on every call, which charged every
//! small matrix product a spawn/join cost — thousands of times per pipeline
//! run.  The pool below is created lazily on first use and lives for the rest
//! of the process: a call enqueues contiguous index chunks, the calling thread
//! helps drain the queue, and a latch signals completion.
//!
//! Three properties the rest of the workspace relies on:
//!
//! * **Determinism** — chunks are disjoint and every kernel fixes its own
//!   per-element accumulation order, so results are bit-identical for any
//!   thread count (including `HTC_NUM_THREADS=1`, which runs inline).
//! * **No nested oversubscription** — a task that itself calls a parallel
//!   helper runs that call inline on the worker thread; outer-level
//!   parallelism (e.g. per-orbit pipeline stages) keeps the pool busy.
//! * **Panic transparency** — a panicking task is caught, forwarded to the
//!   caller and re-raised there, matching the old scoped-thread behaviour.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Minimum number of buffer elements assigned to each worker thread before an
/// additional thread is used.  Below this, scheduling overhead dominates the
/// actual work.
const MIN_ELEMENTS_PER_THREAD: usize = 8192;

/// Hard ceiling on the worker-thread count, including `HTC_NUM_THREADS`
/// overrides.  The pool spawns `num_threads() - 1` persistent OS threads on
/// first use, so an unbounded override would turn a typo'd env value into a
/// spawn storm.
pub const MAX_THREADS: usize = 256;

/// Parses an `HTC_NUM_THREADS` override value.
///
/// Valid values are integers ≥ 1; anything larger than [`MAX_THREADS`] is
/// clamped to it (a typo'd `HTC_NUM_THREADS=9999` must not spawn a thread
/// storm).  Unparsable values and `0` are errors — `0` is rejected rather
/// than meaning "auto" so that a shell mishap like `HTC_NUM_THREADS=$UNSET`
/// cannot silently change semantics between releases.
fn parse_thread_override(value: &str) -> std::result::Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "HTC_NUM_THREADS={value:?} is invalid: must be at least 1"
        )),
        Ok(n) => Ok(n.min(MAX_THREADS)),
        Err(e) => Err(format!(
            "HTC_NUM_THREADS={value:?} is not a thread count ({e})"
        )),
    }
}

/// Returns the number of worker threads to use for parallel kernels.
///
/// Defaults to the machine parallelism, capped at 16 (beyond that the kernels
/// in this workspace are memory-bandwidth bound), and can be overridden with
/// the `HTC_NUM_THREADS` environment variable (useful for reproducible timing
/// experiments; clamped to [`MAX_THREADS`]).
///
/// An **invalid** override — unparsable (`"8x"`) or zero — does *not*
/// silently fall back: the first time one is seen, a warning naming the bad
/// value is printed to stderr, and the machine default is used from then on.
/// Silent fallback previously meant a typo'd pin produced timing numbers at
/// the wrong thread count with no trace of why.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("HTC_NUM_THREADS") {
        match parse_thread_override(&v) {
            Ok(n) => return n,
            Err(msg) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!("warning: {msg}; using the machine default instead");
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

thread_local! {
    /// Set for threads owned by the pool; parallel helpers called from such a
    /// thread run inline instead of re-entering the queue (the outer level of
    /// parallelism already owns the pool).
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the current thread is a pool worker executing a task.
fn on_pool_worker() -> bool {
    IS_POOL_WORKER.with(|f| f.get())
}

/// Completion latch shared by the tasks of one parallel call.
struct Latch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
    /// First panic payload captured from a task, re-raised by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(count),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.mutex.lock().unwrap();
            self.cv.notify_all();
        }
    }

    fn is_complete(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
            self.panicked.store(true, Ordering::Release);
        }
    }

    fn wait(&self) {
        let mut guard = self.mutex.lock().unwrap();
        while self.remaining.load(Ordering::Acquire) != 0 {
            guard = self.cv.wait(guard).unwrap();
        }
    }

    /// Re-raises a captured task panic on the calling thread.
    fn propagate_panic(&self) {
        if self.panicked.load(Ordering::Acquire) {
            if let Some(payload) = self.panic.lock().unwrap().take() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// One unit of work: run `body(start, end)`.
///
/// The raw pointer erases the borrow of the caller's closure; the caller
/// always waits on the latch before returning, so the closure outlives every
/// task that references it.
struct Task {
    body: *const (dyn Fn(usize, usize) + Sync),
    start: usize,
    end: usize,
    latch: Arc<Latch>,
}

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and the
// caller keeps it alive until the latch completes.
unsafe impl Send for Task {}

impl Task {
    fn run(self) {
        // SAFETY: see the `Send` justification above.
        let body = unsafe { &*self.body };
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(self.start, self.end)));
        if let Err(payload) = result {
            self.latch.record_panic(payload);
        }
        self.latch.count_down();
    }
}

struct Pool {
    queue: Mutex<VecDeque<Task>>,
    cv: Condvar,
}

impl Pool {
    /// The lazily created process-wide pool.
    ///
    /// Worker count is fixed at first use: machine parallelism (capped at 16)
    /// minus the calling thread.  `HTC_NUM_THREADS` is honoured at call
    /// granularity — it bounds how many chunks a call enqueues — so the env
    /// var keeps working even though the pool itself is created once.
    fn global() -> &'static Pool {
        static POOL: OnceLock<&'static Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let pool: &'static Pool = Box::leak(Box::new(Pool {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            }));
            let workers = num_threads().saturating_sub(1);
            for i in 0..workers {
                std::thread::Builder::new()
                    .name(format!("htc-pool-{i}"))
                    .spawn(move || {
                        IS_POOL_WORKER.with(|f| f.set(true));
                        pool.worker_loop();
                    })
                    .expect("failed to spawn pool worker");
            }
            pool
        })
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(task) = queue.pop_front() {
                        break task;
                    }
                    queue = self.cv.wait(queue).unwrap();
                }
            };
            task.run();
        }
    }

    /// Runs `body` over the given chunks, blocking until all complete.
    fn run_chunks(&self, chunks: &[(usize, usize)], body: &(dyn Fn(usize, usize) + Sync)) {
        let latch = Arc::new(Latch::new(chunks.len()));
        // SAFETY: the lifetime of `body` is erased so tasks can carry it into
        // the queue; this function does not return until the latch reports
        // every task done, so no task outlives the borrow.
        let body: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(body) };
        {
            let mut queue = self.queue.lock().unwrap();
            for &(start, end) in chunks {
                queue.push_back(Task {
                    body: body as *const _,
                    start,
                    end,
                    latch: Arc::clone(&latch),
                });
            }
        }
        self.cv.notify_all();
        // Help drain the queue instead of blocking immediately — but only
        // tasks belonging to *this* call.  Executing an unrelated task here
        // would run foreign work on the calling thread mid-call: if the
        // caller is inside a kernel that holds a thread-local borrow (the
        // GEMM driver holds `PACK_B` across its inner parallel loop) and the
        // foreign task enters the same kernel, the thread-local `RefCell`
        // double-borrows and panics.  Sibling tasks are left for the pool
        // workers, which always exist when the pool does (call sites run
        // inline when `num_threads() <= 1`).
        while !latch.is_complete() {
            let task = {
                let mut queue = self.queue.lock().unwrap();
                match queue.iter().position(|t| Arc::ptr_eq(&t.latch, &latch)) {
                    Some(pos) => queue.remove(pos),
                    None => None,
                }
            };
            match task {
                Some(task) => task.run(),
                None => break,
            }
        }
        latch.wait();
        latch.propagate_panic();
    }
}

/// Splits `0..len` into at most `threads` equal contiguous chunks.
fn plan_chunks(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let chunk = len.div_ceil(threads);
    let mut chunks = Vec::with_capacity(threads);
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        chunks.push((start, end));
        start = end;
    }
    chunks
}

/// Runs `body(start, end)` over disjoint chunks of `0..len` in parallel.
///
/// The closure receives a half-open index range and must only touch state that
/// is disjoint between chunks (the usual pattern is to split an output buffer
/// with [`parallel_rows_mut`] first).
pub fn parallel_chunks<F>(len: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = num_threads().min(len / MIN_ELEMENTS_PER_THREAD + 1);
    if threads <= 1 || len < 2 || on_pool_worker() {
        body(0, len);
        return;
    }
    Pool::global().run_chunks(&plan_chunks(len, threads), &body);
}

/// Pointer wrapper that lets disjoint sub-slices be materialised on worker
/// threads.
struct SendPtr<T>(*mut T);

// SAFETY: every task derives a slice over a range disjoint from all other
// tasks of the same call, and the caller's borrow outlives the call.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor method so closures capture the `Sync` wrapper rather than the
    /// bare pointer field (edition-2021 disjoint capture).
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Splits `buf` into row chunks and runs `body` on each chunk in parallel,
/// passing the starting row of the chunk.
///
/// This is the mutable counterpart of [`parallel_chunks`]: it is used to fill
/// the rows of an output matrix concurrently.
pub fn parallel_rows_mut<T, F>(buf: &mut [T], row_len: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        buf.len() % row_len,
        0,
        "buffer is not a whole number of rows"
    );
    let rows = buf.len() / row_len;
    if rows == 0 {
        return;
    }
    // Cap the worker count so that each thread gets a meaningful amount of
    // work; farming out a 14-row matrix costs more than the multiplication.
    let threads = num_threads().min(buf.len() / MIN_ELEMENTS_PER_THREAD + 1);
    if threads <= 1 || rows == 1 || on_pool_worker() {
        body(0, buf);
        return;
    }
    let base = SendPtr(buf.as_mut_ptr());
    let adapter = |start_row: usize, end_row: usize| {
        // SAFETY: `start_row..end_row` ranges of one call never overlap and
        // stay within `rows`, so each task gets an exclusive sub-slice.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(
                base.ptr().add(start_row * row_len),
                (end_row - start_row) * row_len,
            )
        };
        body(start_row, chunk);
    };
    Pool::global().run_chunks(&plan_chunks(rows, threads), &adapter);
}

/// Maps `f` over `0..len` in parallel and collects the results in order.
///
/// Each worker fills a disjoint slice of the pre-allocated output vector, so
/// the result is identical to a sequential `(0..len).map(f).collect()`.
pub fn parallel_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send + Clone + Default,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); len];
    parallel_rows_mut(&mut out, 1, |start, chunk| {
        for (offset, slot) in chunk.iter_mut().enumerate() {
            *slot = f(start + offset);
        }
    });
    out
}

/// Maps `f` over `0..len` with **one pool task per index**, collecting the
/// results in order: [`parallel_scratch_map`] over `len` unit slots.
///
/// Unlike [`parallel_map`] this neither requires `Clone + Default` nor
/// batches indices by `MIN_ELEMENTS_PER_THREAD`: it is intended for a small
/// number of coarse-grained work items — per-orbit pipeline stages — where
/// each item is itself worth milliseconds or more.  Any parallel helper the
/// items call internally runs inline on its worker (no nested
/// oversubscription).
pub fn parallel_task_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_scratch_map(&mut vec![(); len], |i, _| f(i))
}

/// Maps `f` over the slots of `scratch` with **one pool task per slot**,
/// handing each task exclusive `&mut` access to its slot, and collects the
/// results in order.
///
/// Workers that carry per-task state borrow it from their slot: the blocked
/// LISI sweep gives every chunk its own scratch (correlation block,
/// per-column selection buffers) that must persist across two parallel passes,
/// so the tasks borrow the slots rather than returning them.  Like every
/// helper here it runs inline when `HTC_NUM_THREADS=1`, when there is at most
/// one slot, or when already on a pool worker — with identical results, since
/// each slot's work is self-contained.
pub fn parallel_scratch_map<S, T, F>(scratch: &mut [S], f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let len = scratch.len();
    if len == 0 {
        return Vec::new();
    }
    if num_threads() <= 1 || len == 1 || on_pool_worker() {
        return scratch
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| f(i, slot))
            .collect();
    }
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    let out_base = SendPtr(out.as_mut_ptr());
    let scratch_base = SendPtr(scratch.as_mut_ptr());
    let adapter = |start: usize, end: usize| {
        for i in start..end {
            // SAFETY: each index is covered by exactly one task chunk, so the
            // scratch slot and output slot derived here are exclusive.
            let slot = unsafe { &mut *scratch_base.ptr().add(i) };
            let value = f(i, slot);
            unsafe { *out_base.ptr().add(i) = Some(value) };
        }
    };
    let chunks: Vec<(usize, usize)> = (0..len).map(|i| (i, i + 1)).collect();
    Pool::global().run_chunks(&chunks, &adapter);
    out.into_iter()
        .map(|slot| slot.expect("every task fills its slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn thread_override_parsing_accepts_clamps_and_rejects() {
        // Plain values pass through; whitespace is tolerated.
        assert_eq!(parse_thread_override("4"), Ok(4));
        assert_eq!(parse_thread_override(" 16 "), Ok(16));
        assert_eq!(parse_thread_override("1"), Ok(1));
        // The cap path: anything above MAX_THREADS clamps to it.
        assert_eq!(parse_thread_override("256"), Ok(MAX_THREADS));
        assert_eq!(parse_thread_override("257"), Ok(MAX_THREADS));
        assert_eq!(parse_thread_override("999999"), Ok(MAX_THREADS));
        // Invalid values are surfaced as errors naming the bad input, not
        // silently swallowed.
        for bad in ["8x", "0", "", "-3", "two", "1.5"] {
            let err = parse_thread_override(bad).unwrap_err();
            assert!(err.contains("HTC_NUM_THREADS"), "{err}");
        }
    }

    #[test]
    fn parallel_chunks_covers_all_indices() {
        let counter = AtomicUsize::new(0);
        parallel_chunks(1000, |start, end| {
            counter.fetch_add(end - start, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn parallel_chunks_empty_is_noop() {
        let counter = AtomicUsize::new(0);
        parallel_chunks(0, |start, end| {
            counter.fetch_add(end - start + 1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn parallel_rows_mut_fills_every_row() {
        let rows = 37;
        let cols = 5;
        let mut buf = vec![0usize; rows * cols];
        parallel_rows_mut(&mut buf, cols, |start_row, chunk| {
            for (i, row) in chunk.chunks_mut(cols).enumerate() {
                let r = start_row + i;
                for (c, v) in row.iter_mut().enumerate() {
                    *v = r * cols + c;
                }
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn parallel_map_matches_sequential() {
        let par = parallel_map(123, |i| i * i);
        let seq: Vec<usize> = (0..123).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_task_map_matches_sequential() {
        // Non-Clone, non-Default payloads are fine.
        struct Payload(usize);
        let par = parallel_task_map(17, |i| Payload(i * 3));
        let seq: Vec<usize> = (0..17).map(|i| i * 3).collect();
        assert_eq!(par.iter().map(|p| p.0).collect::<Vec<_>>(), seq);
        assert!(parallel_task_map(0, |i| i).is_empty());
    }

    #[test]
    fn parallel_scratch_map_gives_each_task_its_slot() {
        let mut scratch: Vec<Vec<usize>> = (0..13).map(|_| Vec::new()).collect();
        let out = parallel_scratch_map(&mut scratch, |i, slot| {
            slot.push(i * 2);
            i * 2
        });
        assert_eq!(out, (0..13).map(|i| i * 2).collect::<Vec<_>>());
        for (i, slot) in scratch.iter().enumerate() {
            assert_eq!(slot.as_slice(), &[i * 2]);
        }
        let mut empty: Vec<usize> = Vec::new();
        assert!(parallel_scratch_map(&mut empty, |_, _| 0).is_empty());
    }

    #[test]
    fn pool_survives_many_small_calls() {
        // Regression guard for the spawn-per-call model: thousands of tiny
        // parallel calls must reuse the same pool without resource exhaustion.
        for round in 0..2000 {
            let counter = AtomicUsize::new(0);
            parallel_chunks(64 * 1024, |start, end| {
                counter.fetch_add(end - start, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 64 * 1024, "round {round}");
        }
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        // A task that itself calls a parallel helper must not deadlock.
        let outer = AtomicUsize::new(0);
        parallel_task_map(8, |_| {
            let inner = AtomicUsize::new(0);
            parallel_chunks(100_000, |start, end| {
                inner.fetch_add(end - start, Ordering::Relaxed);
            });
            outer.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
        });
        assert_eq!(outer.load(Ordering::Relaxed), 8 * 100_000);
    }

    #[test]
    fn task_panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            parallel_task_map(4, |i| {
                if i == 2 {
                    panic!("boom from task {i}");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn parallel_rows_mut_rejects_ragged_buffer() {
        let mut buf = vec![0u8; 7];
        parallel_rows_mut(&mut buf, 3, |_, _| {});
    }
}
