//! The persistent pool and its scheduling machinery: one lock over the
//! open regions' claim cursors, one condvar to sleep on.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use telemetry::{Counter, Histogram, HistogramSnapshot, Registry, Stopwatch};

/// How many chunks each executor should get on average. Oversubscribing
/// the chunk count lets idle threads rebalance skewed per-chunk costs
/// (e.g. Gram-matrix row `i` costs `O(n − i)`) by claiming the rest.
const CHUNKS_PER_EXECUTOR: usize = 4;

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "GRAPHHD_THREADS";

/// The borrowed region closure with its lifetime erased so an open region
/// can sit in the pool's `'static` shared queue. Soundness is argued in
/// [`Pool::run_region`], the only place the erasure happens.
type ErasedTask = &'static (dyn Fn(Range<usize>) + Sync);

/// Mutable completion state of one parallel region.
#[derive(Default)]
struct RegionStatus {
    /// Chunks fully processed (executed, skipped after cancellation, or
    /// panicked). The region is complete when this reaches `total`.
    done: usize,
    /// Set on the first panic; chunks claimed afterwards are skipped.
    cancelled: bool,
    /// The first panic payload, re-thrown on the submitting thread.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One `run_region` call: a shared chunk closure, its chunking of `0..n`
/// and completion tracking. Heap-allocated behind an [`Arc`] so workers
/// can outlive the *stack* of the submitting call without touching freed
/// memory — the erased `task` reference itself is only ever dereferenced
/// before a chunk's `done` increment, and the submitter blocks until
/// `done == total`.
struct Region {
    task: ErasedTask,
    n: usize,
    chunk: usize,
    total: usize,
    status: Mutex<RegionStatus>,
}

impl Region {
    /// Runs chunk `index`: executes the closure on its range (unless the
    /// region is already cancelled), records panics, and counts the chunk
    /// done. The last chunk wakes the pool's condvar, where both idle
    /// workers and sleeping submitters wait. `stolen` marks a chunk run
    /// by a thread other than the region's submitter.
    fn execute(&self, index: usize, stolen: bool, shared: &SharedState) {
        if stolen {
            shared.metrics.steals.inc();
        }
        let begin = index * self.chunk;
        let range = begin..usize::min(begin + self.chunk, self.n);
        let cancelled = self.status.lock().expect("region lock").cancelled;
        let outcome = if cancelled {
            Ok(())
        } else {
            shared.metrics.tasks.inc();
            panic::catch_unwind(AssertUnwindSafe(|| {
                // Chaos hook: a worker crash mid-chunk, injected inside
                // the region's own catch_unwind so it surfaces through
                // the pool's one failure channel (panic actions unwind
                // in `inject` itself; error actions are promoted here).
                if faultpoint::inject("pool.region") {
                    panic!("faultpoint: injected error at `pool.region`");
                }
                (self.task)(range)
            }))
        };
        let is_last = {
            let mut status = self.status.lock().expect("region lock");
            if let Err(payload) = outcome {
                status.cancelled = true;
                if status.panic.is_none() {
                    status.panic = Some(payload);
                }
            }
            status.done += 1;
            status.done == self.total
        };
        // The status lock is released before `notify` takes the pool
        // lock, so the two are only ever nested pool-then-status (by the
        // submitter's completion re-check), never the other way round.
        if is_last {
            shared.notify();
        }
    }
}

/// Scheduling metrics shared by the pool handle and its workers.
/// Recording is lock-free (one relaxed atomic op per update) and never
/// changes a scheduling decision — telemetry observes, it does not steer.
#[derive(Debug)]
struct PoolMetrics {
    /// Chunks executed, on any thread (workers, submitters, helpers).
    tasks: Counter,
    /// Chunks run by a thread other than their region's submitter
    /// (background workers, and submitters helping a foreign region).
    steals: Counter,
    /// Parallel regions submitted (including serial fast-path regions).
    regions: Counter,
    /// Wall-clock nanoseconds per region, submission to quiescence.
    region_ns: Histogram,
    /// Per-worker execution counters, indexed by worker number.
    workers: Vec<WorkerMetrics>,
}

/// One background worker's execution counters.
#[derive(Debug, Default)]
struct WorkerMetrics {
    /// Chunks this worker executed.
    tasks: Counter,
    /// Nanoseconds this worker spent executing chunks (not sleeping).
    busy_ns: Counter,
}

impl PoolMetrics {
    fn new(workers: usize) -> Self {
        Self {
            tasks: Counter::new(),
            steals: Counter::new(),
            regions: Counter::new(),
            region_ns: Histogram::new(),
            workers: (0..workers).map(|_| WorkerMetrics::default()).collect(),
        }
    }
}

/// Everything the pool lock guards.
#[derive(Default)]
struct Queue {
    /// Regions with unclaimed chunks, oldest first, each with the index
    /// of its next unclaimed chunk. A region leaves once its last chunk
    /// is claimed.
    open: VecDeque<(Arc<Region>, usize)>,
    /// Set by `Drop for Pool`; idle workers exit when they see it.
    shutdown: bool,
}

impl Queue {
    /// Claims the next chunk of `own` when it has one left, otherwise of
    /// the oldest open region. Returns the region, the chunk index, and
    /// whether the claim is a steal (a chunk of someone else's region).
    fn claim(&mut self, own: Option<&Arc<Region>>) -> Option<(Arc<Region>, usize, bool)> {
        let own_slot = own.and_then(|own| {
            self.open
                .iter()
                .position(|(open, _)| Arc::ptr_eq(open, own))
        });
        let slot = own_slot.unwrap_or(0);
        let (region, next) = self.open.get_mut(slot)?;
        let index = *next;
        *next += 1;
        let region = if *next == region.total {
            self.open.remove(slot).expect("slot is in range").0
        } else {
            Arc::clone(region)
        };
        Some((region, index, own_slot.is_none()))
    }
}

/// State shared between the pool handle and its worker threads.
struct SharedState {
    /// The one pool lock: open regions and the shutdown flag.
    queue: Mutex<Queue>,
    /// Signalled after a region opens, a region's last chunk completes,
    /// or the pool shuts down. Waiters re-check under `queue`.
    wake: Condvar,
    /// Scheduling telemetry (tasks, steals, regions, per-worker load).
    metrics: PoolMetrics,
}

impl SharedState {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool lock")
    }

    /// Wakes every waiter after a change made outside the pool lock (a
    /// region's last chunk counted done). Taking and releasing the lock
    /// orders the change after any waiter's locked re-check, so the
    /// wakeup cannot be lost. Notifying only after the release — here and
    /// wherever a change is made under the lock — keeps woken threads
    /// from running straight into a held mutex.
    fn notify(&self) {
        drop(self.lock());
        self.wake.notify_all();
    }
}

/// Body of each persistent worker thread: claim and execute chunks of
/// the oldest open region until none is left, then sleep until a region
/// opens or the pool shuts down.
fn worker_loop(shared: &SharedState, index: usize) {
    let mut queue = shared.lock();
    loop {
        if let Some((region, chunk, stolen)) = queue.claim(None) {
            drop(queue);
            // The stopwatch captures nothing (no clock read) when
            // telemetry is disabled, so the idle path stays clean.
            let watch = Stopwatch::started();
            region.execute(chunk, stolen, shared);
            let worker = &shared.metrics.workers[index];
            worker.tasks.inc();
            if let Some(ns) = watch.elapsed_ns() {
                worker.busy_ns.add(ns);
            }
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wake.wait(queue).expect("pool lock");
        }
    }
}

/// A persistent thread pool whose idle threads claim the next chunk of
/// the oldest open region.
///
/// `Pool::with_threads(n)` provides a parallelism degree of exactly `n`:
/// `n − 1` background workers plus the thread that submits a region (the
/// submitter always participates, which also makes *nested* regions —
/// a worker's chunk submitting its own region — deadlock-free). With
/// `n == 1` every operation runs serially inline on the caller.
///
/// The data-parallel operations built on
/// [`par_for_ranges`](Pool::par_for_ranges) ([`par_map`](Pool::par_map),
/// [`par_chunks_mut`](Pool::par_chunks_mut)) are **bit-deterministic**:
/// given the documented contracts on the supplied closures, their results
/// are identical to the serial evaluation for every thread count.
///
/// # Examples
///
/// ```
/// use parallel::Pool;
///
/// let pool = Pool::with_threads(4);
/// let squares = pool.par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub struct Pool {
    shared: Arc<SharedState>,
    parallelism: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("parallelism", &self.parallelism)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Creates a pool with an exact parallelism degree of
    /// `threads.max(1)`: `threads − 1` persistent workers are spawned and
    /// the submitting thread acts as the last executor. Deterministic
    /// thread counts are what make the `BENCH_*` scaling tables
    /// reproducible.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = threads - 1;
        let shared = Arc::new(SharedState {
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
            metrics: PoolMetrics::new(workers),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("graphhd-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            parallelism: threads,
            handles,
        }
    }

    /// The process-wide shared pool. Sized by the `GRAPHHD_THREADS`
    /// environment variable when set to a positive integer, otherwise by
    /// [`std::thread::available_parallelism`]; the decision is made once,
    /// on first use.
    #[must_use]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::with_threads(default_threads()))
    }

    /// The pool's parallelism degree (workers plus the submitting thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.parallelism
    }

    /// Splits `0..n` into contiguous chunks of at least `min_chunk`
    /// indices, executes `task` once per chunk across the pool, and
    /// returns when every chunk has run. The chunks partition `0..n`
    /// exactly; their relative order of *execution* is unspecified, so
    /// `task` must be safe to call concurrently on disjoint ranges.
    ///
    /// This is the primitive underneath every `par_*` operation.
    ///
    /// # Panics
    ///
    /// If a chunk panics, remaining chunks are skipped (already-running
    /// ones finish) and the first panic resumes on the calling thread
    /// after the region has fully quiesced.
    pub fn par_for_ranges<F>(&self, n: usize, min_chunk: usize, task: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.run_region(n, min_chunk, &task);
    }

    /// Monomorphization-free core of [`par_for_ranges`](Self::par_for_ranges).
    fn run_region(&self, n: usize, min_chunk: usize, task: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        // The guard records the region's wall-clock into `region_ns` even
        // when a chunk panic unwinds out of this function.
        self.shared.metrics.regions.inc();
        let _region_span = self.shared.metrics.region_ns.start_span();
        let min_chunk = min_chunk.max(1);
        let chunk = n
            .div_ceil(self.parallelism * CHUNKS_PER_EXECUTOR)
            .max(min_chunk);
        let chunk_count = n.div_ceil(chunk);
        if self.parallelism == 1 || chunk_count <= 1 {
            // Serial fast path — also the `threads == 1` definition of the
            // "serial reference" every parallel result must reproduce.
            // The whole region is one inline chunk; count it so
            // `pool_tasks` stays meaningful on single-thread pools.
            self.shared.metrics.tasks.inc();
            task(0..n);
            return;
        }

        // SAFETY: `task` borrows the caller's stack, and the erased
        // reference is dereferenced only inside `Region::execute`, strictly
        // before that chunk's `done` increment. This function does not
        // return (or unwind) until `done == total`, i.e. until after the
        // last dereference, so the reference never outlives the borrow.
        // Everything a worker touches afterwards lives in heap
        // allocations it co-owns: the status mutex in the `Arc<Region>`,
        // the pool lock and condvar of the last completion's notify in
        // the `Arc<SharedState>`.
        let task: ErasedTask =
            unsafe { std::mem::transmute::<&(dyn Fn(Range<usize>) + Sync), ErasedTask>(task) };
        let region = Arc::new(Region {
            task,
            n,
            chunk,
            total: chunk_count,
            status: Mutex::default(),
        });
        // Open the region, then notify once the lock is released (see
        // `SharedState::notify`).
        self.shared.lock().open.push_back((Arc::clone(&region), 0));
        self.shared.wake.notify_all();

        // Participate until the region completes: the submitter claims its
        // own chunks first, then helps the oldest open region (helping
        // foreign regions is what keeps nested submissions from worker
        // threads live), and sleeps on the condvar when nothing is
        // claimable. Both a region opening (e.g. a nested region submitted
        // by a worker mid-chunk) and this region's last completion notify
        // it, and both conditions are re-checked under the pool lock.
        let mut queue = self.shared.lock();
        loop {
            if let Some((claimed, index, stolen)) = queue.claim(Some(&region)) {
                drop(queue);
                claimed.execute(index, stolen, &self.shared);
                queue = self.shared.lock();
            } else if region.status.lock().expect("region lock").done == region.total {
                break;
            } else {
                queue = self.shared.wake.wait(queue).expect("pool lock");
            }
        }
        drop(queue);
        let payload = region.status.lock().expect("region lock").panic.take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// A snapshot of the pool's scheduling telemetry: chunks executed,
    /// chunks stolen (run by a thread other than their region's
    /// submitter), regions run with their wall-clock distribution, and
    /// per-worker utilization. Counters are cumulative since pool
    /// creation; take two snapshots to measure an interval.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let metrics = &self.shared.metrics;
        PoolStats {
            threads: self.parallelism,
            tasks: metrics.tasks.get(),
            steals: metrics.steals.get(),
            regions: metrics.regions.get(),
            region_ns: metrics.region_ns.snapshot(),
            workers: metrics
                .workers
                .iter()
                .map(|w| WorkerStats {
                    tasks: w.tasks.get(),
                    busy_ns: w.busy_ns.get(),
                })
                .collect(),
        }
    }

    /// Registers the pool's aggregate metrics (`pool_tasks`,
    /// `pool_steals`, `pool_regions`, `pool_region_ns`) into `registry`
    /// for Prometheus/JSON rendering. Per-worker detail stays on
    /// [`stats`](Self::stats).
    pub fn register_metrics(&self, registry: &Registry) {
        let metrics = &self.shared.metrics;
        registry.register_counter(
            "pool_tasks",
            "Chunks executed across all threads",
            &metrics.tasks,
        );
        registry.register_counter(
            "pool_steals",
            "Chunks run by a thread other than their region's submitter",
            &metrics.steals,
        );
        registry.register_counter("pool_regions", "Parallel regions run", &metrics.regions);
        registry.register_histogram(
            "pool_region_ns",
            "Region wall-clock, submission to quiescence",
            &metrics.region_ns,
        );
    }
}

/// A point-in-time reading of a pool's scheduling telemetry (see
/// [`Pool::stats`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PoolStats {
    /// The pool's parallelism degree (workers + submitter).
    pub threads: usize,
    /// Chunks executed, on any thread.
    pub tasks: u64,
    /// Chunks run by a thread other than their region's submitter:
    /// background workers, and submitters helping a foreign region.
    pub steals: u64,
    /// Parallel regions run (serial fast-path regions included).
    pub regions: u64,
    /// Distribution of region wall-clock nanoseconds (empty when
    /// telemetry is disabled).
    pub region_ns: HistogramSnapshot,
    /// Per background worker: chunks executed and busy nanoseconds.
    pub workers: Vec<WorkerStats>,
}

/// One background worker's share of the pool's work (see
/// [`Pool::stats`]).
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct WorkerStats {
    /// Chunks this worker executed.
    pub tasks: u64,
    /// Nanoseconds spent executing chunks (0 when telemetry is
    /// disabled — busy time needs clock reads).
    pub busy_ns: u64,
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Thread count the global pool is created with: `GRAPHHD_THREADS` when it
/// parses as a positive integer, otherwise the machine's available
/// parallelism (falling back to 1 when that is unavailable).
#[must_use]
pub fn default_threads() -> usize {
    threads_from(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Pure helper behind [`default_threads`], split out so the environment
/// parsing is unit-testable without mutating process state.
fn threads_from(value: Option<&str>) -> usize {
    value
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Which pool a component should use: the process-wide global pool (the
/// default) or an explicitly owned one (deterministic benchmarking, tests
/// pinning a thread count).
#[derive(Clone, Debug, Default)]
pub enum PoolHandle {
    /// Resolve to [`Pool::global`] at use time.
    #[default]
    Global,
    /// A shared explicit pool.
    Owned(Arc<Pool>),
}

impl PoolHandle {
    /// The pool this handle resolves to.
    #[must_use]
    pub fn get(&self) -> &Pool {
        match self {
            PoolHandle::Global => Pool::global(),
            PoolHandle::Owned(pool) => pool,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::with_threads(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn serial_pool_spawns_no_workers() {
        let pool = Pool::with_threads(1);
        assert!(pool.handles.is_empty());
    }

    #[test]
    fn ranges_partition_exactly() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::with_threads(threads);
            for n in [0usize, 1, 63, 64, 1000] {
                let seen = AtomicU64::new(0);
                let count = AtomicUsize::new(0);
                pool.par_for_ranges(n, 1, |range| {
                    count.fetch_add(range.len(), Ordering::SeqCst);
                    for i in range {
                        seen.fetch_add(i as u64, Ordering::SeqCst);
                    }
                });
                assert_eq!(count.load(Ordering::SeqCst), n, "n={n} t={threads}");
                let expected: u64 = (0..n as u64).sum();
                assert_eq!(seen.load(Ordering::SeqCst), expected);
            }
        }
    }

    #[test]
    fn min_chunk_is_respected() {
        let pool = Pool::with_threads(4);
        let calls = AtomicUsize::new(0);
        pool.par_for_ranges(100, 40, |range| {
            assert!(range.len() >= 40 || range.end == 100);
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert!(calls.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let pool = Pool::with_threads(3);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_for_ranges(64, 1, |range| {
                if range.contains(&17) {
                    panic!("chunk failure");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert_eq!(message, "chunk failure");
        // The pool stays usable after a panicked region.
        let count = AtomicUsize::new(0);
        pool.par_for_ranges(32, 1, |range| {
            count.fetch_add(range.len(), Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn nested_regions_complete() {
        let pool = Pool::with_threads(2);
        let total = AtomicUsize::new(0);
        pool.par_for_ranges(8, 1, |outer| {
            for _ in outer {
                pool.par_for_ranges(8, 1, |inner| {
                    total.fetch_add(inner.len(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn concurrent_submissions_from_many_threads() {
        let pool = Pool::with_threads(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        pool.par_for_ranges(100, 1, |range| {
                            total.fetch_add(range.len(), Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 4 * 8 * 100);
    }

    #[test]
    fn a_blocked_chunk_does_not_hold_back_the_rest() {
        for threads in [2usize, 3, 8] {
            let pool = Pool::with_threads(threads);
            let ran = AtomicUsize::new(0);
            pool.par_for_ranges(32, 1, |range| {
                ran.fetch_add(range.len(), Ordering::SeqCst);
                if range.contains(&0) {
                    // The other executors must drain every other chunk
                    // while this one is parked.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while ran.load(Ordering::SeqCst) < 32 {
                        assert!(
                            Instant::now() < deadline,
                            "t={threads}: chunks stalled behind a blocked one"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
            assert_eq!(ran.load(Ordering::SeqCst), 32, "t={threads}");
        }
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from(Some("4")), 4);
        assert_eq!(threads_from(Some(" 2 ")), 2);
        let auto = threads_from(None);
        assert!(auto >= 1);
        assert_eq!(threads_from(Some("0")), auto);
        assert_eq!(threads_from(Some("not-a-number")), auto);
    }

    #[test]
    fn pool_handle_resolves() {
        let owned = PoolHandle::Owned(Arc::new(Pool::with_threads(2)));
        assert_eq!(owned.get().threads(), 2);
        assert_eq!(
            PoolHandle::default().get().threads(),
            Pool::global().threads()
        );
    }

    #[test]
    fn global_pool_is_a_singleton() {
        assert!(std::ptr::eq(Pool::global(), Pool::global()));
    }

    #[test]
    fn stats_count_regions_and_tasks() {
        let pool = Pool::with_threads(4);
        pool.par_for_ranges(1_000, 1, |_range| {});
        pool.par_for_ranges(1_000, 1, |_range| {});
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.regions, 2);
        assert!(stats.tasks >= 2, "at least one chunk per region");
        assert_eq!(stats.workers.len(), 3, "workers = threads - 1");
        let worker_tasks: u64 = stats.workers.iter().map(|w| w.tasks).sum();
        assert!(
            worker_tasks <= stats.tasks,
            "submitter-executed chunks are counted in the total only"
        );
        if telemetry::enabled() {
            assert_eq!(stats.region_ns.count, 2);
        }
    }

    #[test]
    fn serial_fast_path_counts_as_a_region() {
        let pool = Pool::with_threads(1);
        pool.par_for_ranges(10, 1, |_range| {});
        let stats = pool.stats();
        assert_eq!(stats.regions, 1);
        assert_eq!(stats.steals, 0, "nothing to steal with no workers");
    }

    #[test]
    fn register_metrics_renders() {
        let pool = Pool::with_threads(2);
        pool.par_for_ranges(100, 1, |_range| {});
        let registry = Registry::new();
        pool.register_metrics(&registry);
        let text = registry.render_prometheus();
        telemetry::validate_exposition(&text).expect("well-formed exposition");
        assert!(text.contains("pool_regions 1"));
    }
}
