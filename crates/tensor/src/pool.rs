//! A persistent worker thread pool with a scoped fork–join API.
//!
//! The compute kernels in this workspace (GEMM, elementwise ops,
//! compression/expansion) parallelize over disjoint index ranges. Spawning
//! OS threads per kernel call would dominate the runtime of small layers,
//! so we keep a process-global pool of workers alive and hand them short
//! borrowed closures through a channel, in the style of rayon's
//! fork–join scopes.
//!
//! Safety model: [`ThreadPool::scope`] erases the lifetime of spawned
//! closures (they may borrow from the caller's stack), which is sound
//! because the scope blocks until a completion latch counts every spawned
//! task as finished — the borrowed data strictly outlives every task. The
//! latch is a `parking_lot` mutex/condvar pair (see "Rust Atomics and
//! Locks", ch. 1/9). Worker panics are captured and re-thrown on the
//! scope owner's thread so failures are never silently swallowed.
//!
//! That erasure is the only `unsafe` a parallel kernel needs: the
//! `par_*_mut` functions cut a kernel's output ([`SplitMut`]) and move
//! each piece into the task that writes it, so no task holds a pointer
//! into another's range. They are the one way this workspace divides a
//! mutable buffer among threads.

use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing fork–join scopes.
pub struct ThreadPool {
    sender: Sender<Job>,
    workers: usize,
}

/// Completion latch shared between a scope and its outstanding tasks.
struct Latch {
    /// Number of tasks spawned but not yet finished.
    pending: Mutex<usize>,
    cond: Condvar,
    /// First panic payload captured from a task, if any.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new() -> Arc<Latch> {
        Arc::new(Latch {
            pending: Mutex::new(0),
            cond: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn add(&self) {
        *self.pending.lock() += 1;
    }

    fn done(&self) {
        let mut pending = self.pending.lock();
        *pending -= 1;
        if *pending == 0 {
            self.cond.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock();
        while *pending != 0 {
            self.cond.wait(&mut pending);
        }
    }
}

/// A fork–join scope: tasks spawned on it may borrow data living outside
/// the scope closure, and are guaranteed to finish before `scope` returns.
pub struct Scope<'scope> {
    pool: &'scope ThreadPool,
    latch: Arc<Latch>,
    _marker: std::marker::PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` onto the pool. `f` may borrow anything that outlives the
    /// enclosing [`ThreadPool::scope`] call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.latch.add();
        let latch = Arc::clone(&self.latch);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                let mut slot = latch.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            latch.done();
        });
        // SAFETY: `scope` blocks on the latch until this job has run to
        // completion, so every borrow inside `job` (lifetime 'scope)
        // remains valid for the job's entire execution. The lifetime is
        // erased only to satisfy the channel's 'static bound.
        let job: Job = unsafe { mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.pool
            .sender
            .send(job)
            .expect("thread pool workers terminated unexpectedly");
    }
}

impl ThreadPool {
    /// Creates a pool with `workers` threads (at least 1).
    pub fn new(workers: usize) -> ThreadPool {
        let workers = workers.max(1);
        let (sender, receiver): (Sender<Job>, Receiver<Job>) = unbounded();
        for i in 0..workers {
            let rx = receiver.clone();
            std::thread::Builder::new()
                .name(format!("samo-worker-{i}"))
                .spawn(move || {
                    // Jobs already wrap user code in catch_unwind; a job
                    // that still panics here indicates latch poisoning,
                    // and the worker dying loudly is the right outcome.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn worker thread");
        }
        ThreadPool { sender, workers }
    }

    /// The process-global pool, sized to the number of available CPUs.
    /// Overridable with the `SAMO_THREADS` environment variable.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: std::sync::OnceLock<ThreadPool> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(|| ThreadPool::new(configured_workers()))
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` with a fork–join [`Scope`]; returns once every task spawned
    /// in the scope has completed. Panics from tasks are propagated.
    pub fn scope<'scope, F, R>(&'scope self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            latch: Latch::new(),
            _marker: std::marker::PhantomData,
        };
        // Tasks borrow from the caller: wait for them even when `f` itself
        // panics after spawning some, as `std::thread::scope` does.
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.latch.wait();
        let task_panic = scope.latch.panic.lock().take();
        match (result, task_panic) {
            (Ok(result), None) => result,
            (Err(payload), _) | (_, Some(payload)) => panic::resume_unwind(payload),
        }
    }
}

/// Worker count for the global pool: `SAMO_THREADS` if set, else the
/// number of available CPUs. A set but unusable value (unparseable, or
/// `0`) is rejected with a warning naming it — falling back to full
/// parallelism must not be silent.
pub fn configured_workers() -> usize {
    if let Ok(raw) = std::env::var("SAMO_THREADS") {
        match raw.parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => telemetry::log_warn!(
                "SAMO_THREADS={raw:?} is not a positive thread count; \
                 falling back to all available CPUs"
            ),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Length, in elements, of the equal contiguous chunks that `len`
/// elements in rows of `cols` are cut into (the last chunk takes what is
/// left): whole rows, at most two chunks per worker and at least
/// `min_rows` rows each — and always one chunk, `len`, on a one-worker
/// pool, where dispatching through the channel would only add latency
/// (and a per-job `Box` allocation). One chunk is the common answer and
/// is found without dividing: an attention-sized GEMM asks thousands of
/// times a step.
fn chunk_len(len: usize, cols: usize, min_rows: usize) -> usize {
    let (workers, min_rows) = (ThreadPool::global().workers(), min_rows.max(1));
    if workers == 1 || len <= cols * (2 * min_rows - 1) {
        return len;
    }
    let rows = len.div_ceil(cols);
    rows.div_ceil((rows / min_rows).min(workers * 2)) * cols
}

/// Splits `0..len` into equal contiguous ranges (see [`par_chunks_mut`]
/// for how many) and runs `f(start, end)` on each in parallel — the
/// fork–join of kernels that only read, or that reduce. Runs inline when
/// a single chunk suffices.
pub fn par_ranges<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let chunk = chunk_len(len, 1, min_chunk);
    if chunk >= len {
        if len > 0 {
            f(0, len);
        }
        return;
    }
    ThreadPool::global().scope(|s| {
        let f = &f;
        for start in (0..len).step_by(chunk) {
            s.spawn(move || f(start, (start + chunk).min(len)));
        }
    });
}

/// Mutable buffers that can be cut in two at a position — what the
/// `par_*_mut` functions hand out piece by piece, so that a kernel's
/// tasks own their outputs instead of sharing a pointer to them. A slice
/// is cut at an element; a pair, both members at the same position;
/// a kernel whose outputs are cut at different places for one position
/// (a scatter through a sorted index) brings its own impl.
#[allow(clippy::len_without_is_empty)]
pub trait SplitMut: Send + Sized {
    /// Number of positions: `split_at` accepts `0..=len`.
    fn len(&self) -> usize;
    /// The positions before `mid`, and those from `mid` on.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T: Send> SplitMut for &mut [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

impl<A: SplitMut, B: SplitMut> SplitMut for (A, B) {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.split_at(mid), self.1.split_at(mid));
        ((a0, b0), (a1, b1))
    }
}

/// A buffer that may not be there: `None` is cut into `None`s.
impl<S: SplitMut> SplitMut for Option<S> {
    fn len(&self) -> usize {
        self.as_ref().map_or(0, S::len)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.map(|s| s.split_at(mid)).unzip()
    }
}

/// The one place a mutable buffer is divided among kernel threads: cuts
/// `data` into the consecutive parts that end at `ends` (ascending, the
/// last one `data.len()`) and runs `f(part, offset, piece)` on each
/// non-empty one in parallel, `offset` being the position of the piece's
/// first element. Runs inline — no latch, no boxed job — on a one-worker
/// pool; a panicking task re-throws here.
pub fn par_parts_mut<S, F>(data: S, ends: impl IntoIterator<Item = usize>, f: F)
where
    S: SplitMut,
    F: Fn(usize, usize, S) + Sync,
{
    let pool = ThreadPool::global();
    if pool.workers() == 1 {
        return cut(data, ends.into_iter(), &f);
    }
    pool.scope(|s| {
        let f = &f;
        cut(data, ends.into_iter(), |part, offset, piece| s.spawn(move || f(part, offset, piece)));
    });
}

/// Hands `give` the non-empty parts of `data` that end at `ends`.
fn cut<S: SplitMut>(
    data: S,
    ends: impl Iterator<Item = usize>,
    mut give: impl FnMut(usize, usize, S),
) {
    let len = data.len();
    let (mut rest, mut offset) = (data, 0);
    for (part, end) in ends.enumerate() {
        assert!(offset <= end && end <= len, "part {part} ends at {end}: not in {offset}..={len}");
        let (piece, tail) = rest.split_at(end - offset);
        rest = tail;
        if end > offset {
            give(part, offset, piece);
        }
        offset = end;
    }
    assert_eq!(offset, len, "the parts must cover the buffer");
}

/// Applies `f` in parallel to disjoint mutable chunks of `data`, giving
/// each invocation the chunk and the index of its first element. Chunks
/// are equal but for the last, which takes what is left: at most two per
/// worker, at least `min_chunk` positions each.
pub fn par_chunks_mut<S, F>(data: S, min_chunk: usize, f: F)
where
    S: SplitMut,
    F: Fn(usize, S) + Sync,
{
    par_rows_mut(data, 1, min_chunk, f);
}

/// [`par_chunks_mut`] over the rows of a row-major matrix: every chunk
/// is a whole number of `cols`-element rows, at least `min_rows` of them.
/// The last row may be short — a strided matrix ends with its last
/// element, not its last stride — and belongs to the last chunk. Runs
/// inline when one chunk suffices.
pub fn par_rows_mut<S, F>(data: S, cols: usize, min_rows: usize, f: F)
where
    S: SplitMut,
    F: Fn(usize, S) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk = chunk_len(len, cols, min_rows);
    if chunk >= len {
        return f(0, data);
    }
    let ends = (1..=len.div_ceil(chunk)).map(|c| (c * chunk).min(len));
    par_parts_mut(data, ends, |_, offset, piece| f(offset, piece));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_allows_borrowing_stack_data() {
        let pool = ThreadPool::new(2);
        let data = [1u64, 2, 3, 4, 5];
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let sum = &sum;
                s.spawn(move || {
                    let local: u64 = chunk.iter().sum();
                    sum.fetch_add(local as usize, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn nested_scopes_work() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let counter = &counter;
                outer.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(10, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 14);
    }

    #[test]
    fn panics_propagate_to_scope_owner() {
        let pool = ThreadPool::new(2);
        let survived = AtomicBool::new(false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
                s.spawn(|| {
                    survived.store(true, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "scope must rethrow the task panic");
        // Pool must remain usable after a panic.
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_ranges_covers_everything_exactly_once() {
        let mut hits = vec![AtomicUsize::new(0), AtomicUsize::new(0)];
        hits.resize_with(10_000, || AtomicUsize::new(0));
        par_ranges(10_000, 16, |start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_ranges_empty_and_tiny() {
        par_ranges(0, 8, |_, _| panic!("must not be called"));
        let counter = AtomicUsize::new(0);
        par_ranges(3, 100, |start, end| {
            counter.fetch_add(end - start, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut data = vec![0u32; 5000];
        par_chunks_mut(&mut data[..], 8, |offset, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (offset + i) as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn configured_workers_rejects_bad_values_with_fallback() {
        // Process-global env: save and restore the knob around the probe.
        let saved = std::env::var("SAMO_THREADS").ok();
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        for (val, want) in [
            ("3", 3),
            ("1", 1),
            // Unparseable and zero both fall back (with a warning).
            ("three", fallback),
            ("0", fallback),
            ("-2", fallback),
            ("", fallback),
        ] {
            std::env::set_var("SAMO_THREADS", val);
            assert_eq!(configured_workers(), want, "SAMO_THREADS={val:?}");
        }
        match saved {
            Some(v) => std::env::set_var("SAMO_THREADS", v),
            None => std::env::remove_var("SAMO_THREADS"),
        }
    }

    #[test]
    fn global_pool_is_reusable() {
        for _ in 0..3 {
            let total = AtomicUsize::new(0);
            par_ranges(1000, 1, |s, e| {
                total.fetch_add(e - s, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 1000);
        }
    }
}
