//! **The serving front door.** One long-lived, cheaply-cloneable
//! [`Engine`] owns a trained GraphHD encoder + model and answers
//! `classify`/`scores` requests from any number of threads.
//!
//! GraphHD's pitch (Nunes et al., DATE 2022) is training and inference
//! cheap enough to serve online; the follow-up work (VS-Graph, the FPGA
//! port) treats the trained associative memory as a deployable artifact.
//! This crate is that story end-to-end, on the substrates the earlier
//! PRs built:
//!
//! - requests enter a **bounded queue** — submitters block when it is
//!   full (backpressure), so a burst degrades latency instead of memory;
//! - a dispatcher thread drains the queue in batches and scores each
//!   batch as a [`parallel::Pool`] region, so concurrent requests are
//!   amortized over one parallel sweep exactly like offline batch
//!   prediction;
//! - each request is answered with the label of [`GraphHdModel::predict`]
//!   (a batch's classify requests are decided together by
//!   [`GraphHdModel::predict_many`], one tiled class scan per pool range)
//!   or with [`GraphHdModel::scores`], so the engine and offline
//!   prediction share one decision rule on the blocked+SIMD
//!   `hdvec::ClassMemory` scan;
//! - [`Engine::shutdown`] (and dropping the last handle) closes the
//!   queue, **drains** every request already accepted, then joins the
//!   dispatcher — accepted work is never dropped;
//! - every stage is instrumented with lock-free `telemetry` metrics:
//!   [`Engine::stats`] returns a typed [`EngineStats`] (queue depth,
//!   accepted/rejected/failed counters, queue-wait / batch-size /
//!   dispatch / end-to-end latency distributions with p50/p90/p99), and
//!   [`Engine::registry`] renders the engine, pool, and model metrics
//!   as Prometheus text or JSON.
//!
//! # Resilience
//!
//! Three mechanisms keep an overloaded or failing engine well-behaved
//! (full treatment in `docs/RESILIENCE.md`):
//!
//! - **Admission control** — [`OverloadPolicy`] decides what a full
//!   queue does to a submitter: [`Block`](OverloadPolicy::Block)
//!   (today's backpressure), [`Shed`](OverloadPolicy::Shed) (immediate
//!   [`Error::Overloaded`]) or [`Timeout`](OverloadPolicy::Timeout)
//!   (bounded blocking, then `Overloaded`).
//! - **Deadlines** — [`Engine::classify_within`] /
//!   [`Engine::scores_within`] (or a builder-wide
//!   [`default_deadline`](EngineBuilder::default_deadline)) bound each
//!   request's total latency; an expired request is answered
//!   [`Error::DeadlineExceeded`] at admission **and re-checked at
//!   dispatch**, so queue-aged work never wastes pool time.
//! - **Supervision** — a panicking dispatcher loop is caught by a
//!   supervisor that answers the dropped batch, respawns the loop with
//!   capped exponential backoff, and after a bounded number of
//!   restarts ([`EngineBuilder::dispatcher_restarts`]) moves the
//!   engine to a terminal *poisoned* state where submits fail fast
//!   with [`Error::Poisoned`].
//!
//! The failure paths are exercised deterministically through the
//! `faultpoint` fail points `engine.dispatch` and `pool.region` by the
//! chaos suite (`crates/engine/tests/chaos.rs`).
//!
//! The engine serves a trained model and never trains one: fit with
//! [`GraphHdModel::fit`] (or [`GraphHdModel::fit_with_retraining`]) and
//! serve it via [`EngineBuilder::from_model`], or reload a model saved
//! with [`GraphHdModel::save`] via [`EngineBuilder::from_snapshot`]. The
//! builder holds serving knobs only; errors use [`graphhd::Error`].
//!
//! # Examples
//!
//! ```
//! use engine::Engine;
//! use graphcore::generate;
//! use graphhd::{GraphHdConfig, GraphHdModel};
//!
//! let graphs: Vec<_> = (6..14)
//!     .flat_map(|n| [generate::complete(n), generate::path(n)])
//!     .collect();
//! let labels: Vec<u32> = (0..graphs.len()).map(|i| (i % 2) as u32).collect();
//!
//! let config = GraphHdConfig::builder().dim(2048).build()?;
//! let model = GraphHdModel::fit(config, &graphs, &labels, 2)?;
//! let engine = Engine::builder().queue_capacity(64).from_model(model)?;
//!
//! assert_eq!(engine.classify(&generate::complete(10))?, 0);
//! let worker = engine.clone(); // cheap handle for another thread
//! assert_eq!(worker.classify_batch(&graphs)?, engine.model().predict_batch(&graphs));
//! # Ok::<(), graphhd::Error>(())
//! ```

use graphcore::Graph;
use graphhd::{Error, GraphHdModel};
use parallel::Pool;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{Registry, Stopwatch};

mod stats;

use stats::EngineMetrics;
pub use stats::EngineStats;

/// Default bound of the request queue (requests, not bytes). Full queue
/// = blocked submitters = backpressure.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Default maximum number of requests the dispatcher scores as one
/// parallel batch.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Default number of dispatcher crashes the supervisor absorbs before
/// declaring the engine poisoned.
pub const DEFAULT_DISPATCHER_RESTARTS: u32 = 5;

/// What a submitter experiences when the request queue is full.
///
/// Selected per engine via
/// [`EngineBuilder::overload_policy`]; the refusal counters
/// (`engine_shed`) and the reconciliation rules are documented in
/// `docs/RESILIENCE.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block until space frees up (classic backpressure; the default).
    /// A request with a deadline still stops waiting — and is answered
    /// [`Error::DeadlineExceeded`] — when the deadline passes.
    #[default]
    Block,
    /// Refuse immediately with [`Error::Overloaded`]. The submitter
    /// never blocks; the refusal is counted in `engine_shed`.
    Shed,
    /// Block up to the given duration, then refuse with
    /// [`Error::Overloaded`] (counted in `engine_shed`). A sharper
    /// request deadline bounds the wait further.
    Timeout(Duration),
}

/// What a request wants back.
enum Work {
    /// The winning class id.
    Classify,
    /// The full per-class cosine score vector.
    Scores,
}

/// A fulfilled request.
enum Response {
    Class(u32),
    Scores(Vec<f64>),
}

impl Response {
    /// The answer to a [`Work::Classify`] request.
    fn class(self) -> Result<u32, Error> {
        match self {
            Self::Class(class) => Ok(class),
            Self::Scores(_) => Err(WRONG_RESPONSE),
        }
    }

    /// The answer to a [`Work::Scores`] request.
    fn scores(self) -> Result<Vec<f64>, Error> {
        match self {
            Self::Scores(scores) => Ok(scores),
            Self::Class(_) => Err(WRONG_RESPONSE),
        }
    }
}

/// A request answered with the other [`Response`] variant than its
/// [`Work`] asked for (a dispatcher bug, never expected).
const WRONG_RESPONSE: Error = Error::Internal {
    what: "request answered with the wrong response variant",
};

/// One-shot response slot a submitter blocks on.
///
/// The slot's locks recover from poisoning rather than propagate it:
/// fulfilment can run inside a `Drop` during a panic unwind (a
/// supervisor catching a crashed dispatcher), where a second panic
/// would abort the process — and the stored `Option` is never observable
/// half-written.
struct Slot {
    response: Mutex<Option<Result<Response, Error>>>,
    ready: Condvar,
    /// Set by the first finisher; later finish attempts become no-ops,
    /// so a request answered by the batch loop is not answered again by
    /// its own drop-safety net (which would double-count metrics).
    claimed: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            response: Mutex::new(None),
            ready: Condvar::new(),
            claimed: AtomicBool::new(false),
        })
    }

    /// True exactly once, for the caller that gets to answer.
    fn claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::AcqRel)
    }

    fn fulfill(&self, response: Result<Response, Error>) {
        let mut guard = self.response.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = Some(response);
        self.ready.notify_one();
    }

    fn wait(&self) -> Result<Response, Error> {
        let mut guard = self.response.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(response) = guard.take() {
                return response;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A queued request: the graph to score, what to return, where to put
/// it, when it was accepted (for queue-wait and end-to-end latency; the
/// stopwatch holds nothing when telemetry is disabled), when it stops
/// being worth serving, and the metric handles its outcome is recorded
/// against.
struct Request {
    graph: Graph,
    work: Work,
    slot: Arc<Slot>,
    watch: Stopwatch,
    deadline: Option<Instant>,
    metrics: Arc<EngineMetrics>,
}

impl Request {
    /// Answers the request **exactly once**: classifies the outcome
    /// into the completed/expired/failed counters, records end-to-end
    /// latency, releases the queue-depth slot, and wakes the submitter.
    /// Every fulfilment — success, deadline expiry, internal error,
    /// panicked batch, poison drain — goes through here, which is what
    /// keeps the gauge draining to zero; the claim flag makes duplicate
    /// calls (the drop safety net after an explicit answer) no-ops.
    fn finish(&self, response: Result<Response, Error>) {
        if !self.slot.claim() {
            return;
        }
        match &response {
            Ok(_) => self.metrics.completed.inc(),
            Err(Error::DeadlineExceeded) => self.metrics.expired.inc(),
            Err(_) => self.metrics.failed.inc(),
        }
        self.watch.observe(&self.metrics.request_ns);
        self.metrics.queue_depth.dec();
        self.slot.fulfill(response);
    }
}

impl Drop for Request {
    /// Safety net: an accepted request must never be dropped
    /// unanswered. The normal paths all finish explicitly; this catches
    /// a dispatcher panic unwinding with a drained batch still in a
    /// local buffer, turning a stranded submitter into a
    /// [`Error::TaskFailed`] response.
    fn drop(&mut self) {
        self.finish(Err(Error::TaskFailed));
    }
}

/// Mutable queue state behind the engine's mutex.
struct QueueState {
    requests: VecDeque<Request>,
    closed: bool,
    /// Terminal: the dispatcher exhausted its restart budget. Implies
    /// `closed`; submits fail fast with [`Error::Poisoned`].
    poisoned: bool,
}

/// State shared by every engine handle and the dispatcher thread.
/// (`Debug` is manual: requests hold graphs and response slots that are
/// noise in a handle dump.)
struct Shared {
    model: GraphHdModel,
    state: Mutex<QueueState>,
    /// Signalled when queue space frees up (submitters wait here).
    not_full: Condvar,
    /// Signalled when requests arrive or the queue closes (the
    /// dispatcher waits here).
    not_empty: Condvar,
    capacity: usize,
    max_batch: usize,
    policy: OverloadPolicy,
    /// Deadline applied to requests submitted without an explicit one.
    default_deadline: Option<Duration>,
    /// Serving telemetry (lock-free to record; never touches `state`).
    /// Shared with every queued [`Request`], whose finish path records
    /// its own outcome.
    metrics: Arc<EngineMetrics>,
}

impl Shared {
    /// The queue lock, recovering from poisoning: every `QueueState`
    /// mutation is a single push/pop/flag write that cannot be observed
    /// half-done, and the supervisor must still be able to drain and
    /// poison the queue after an injected panic unwound the dispatcher.
    fn state_lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Marks the queue closed and wakes everyone: blocked submitters
    /// return [`Error::ShutDown`], the dispatcher drains and exits.
    fn close(&self) {
        let mut state = self.state_lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Terminal failure: the dispatcher exhausted its restart budget.
    /// Closes the queue, marks the engine poisoned, fails every queued
    /// request with [`Error::Poisoned`], and wakes everyone — blocked
    /// submitters observe the flag and fail fast.
    fn poison(&self) {
        let stranded: Vec<Request> = {
            let mut state = self.state_lock();
            state.poisoned = true;
            state.closed = true;
            state.requests.drain(..).collect()
        };
        for request in &stranded {
            request.finish(Err(Error::Poisoned));
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Builds the accepted-request record (stopwatch running, counters
    /// bumped). The caller either queues it or finishes it on the spot.
    fn accept(&self, graph: Graph, work: Work, deadline: Option<Instant>) -> Request {
        self.metrics.accepted.inc();
        self.metrics.queue_depth.inc();
        Request {
            graph,
            work,
            slot: Slot::new(),
            watch: Stopwatch::started(),
            deadline,
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// Submit under the engine's overload policy: waits for queue space
    /// as the policy allows, enqueues, wakes the dispatcher.
    ///
    /// Refusals are never accepted (closed/poisoned → `rejected`, full
    /// queue under `Shed`/`Timeout` → `shed`). A request whose deadline
    /// passes before space frees up *is* accepted and immediately
    /// answered [`Error::DeadlineExceeded`] — expiry is an outcome of
    /// an admitted request, which is what keeps
    /// `accepted == completed + failed + expired` reconcilable.
    fn submit(
        &self,
        graph: Graph,
        work: Work,
        deadline: Option<Instant>,
    ) -> Result<Arc<Slot>, Error> {
        let deadline = deadline.or_else(|| self.default_deadline.map(|d| Instant::now() + d));
        // Bound of a Timeout-policy wait, fixed at entry.
        let policy_bound = match self.policy {
            OverloadPolicy::Timeout(limit) => Some(Instant::now() + limit),
            _ => None,
        };
        let mut state = self.state_lock();
        loop {
            if state.poisoned {
                self.metrics.rejected.inc();
                return Err(Error::Poisoned);
            }
            if state.closed {
                self.metrics.rejected.inc();
                return Err(Error::ShutDown);
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    // Expired while blocked (or dead on arrival):
                    // accepted, then answered DeadlineExceeded.
                    drop(state);
                    let request = self.accept(graph, work, Some(deadline));
                    request.finish(Err(Error::DeadlineExceeded));
                    return Ok(request.slot.clone());
                }
            }
            if state.requests.len() < self.capacity {
                break;
            }
            match self.policy {
                OverloadPolicy::Shed => {
                    self.metrics.shed.inc();
                    return Err(Error::Overloaded);
                }
                OverloadPolicy::Block => match deadline {
                    None => {
                        state = self
                            .not_full
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                    Some(deadline) => {
                        state = self.wait_until(state, deadline);
                    }
                },
                OverloadPolicy::Timeout(_) => {
                    let bound = policy_bound.unwrap_or_else(Instant::now);
                    if Instant::now() >= bound {
                        self.metrics.shed.inc();
                        return Err(Error::Overloaded);
                    }
                    let wake = match deadline {
                        Some(deadline) => bound.min(deadline),
                        None => bound,
                    };
                    state = self.wait_until(state, wake);
                }
            }
        }
        // The stopwatch starts after the backpressure wait: queue-wait
        // and end-to-end latency measure accepted requests, while time
        // blocked on a full queue shows up in the submitter's own
        // end-to-end numbers (the bench measures both).
        let request = self.accept(graph, work, deadline);
        let slot = Arc::clone(&request.slot);
        state.requests.push_back(request);
        self.not_empty.notify_one();
        Ok(slot)
    }

    /// Waits on `not_full` until signalled or `until` passes (whichever
    /// first); the caller re-evaluates the queue and its own bounds.
    fn wait_until<'a>(
        &self,
        state: MutexGuard<'a, QueueState>,
        until: Instant,
    ) -> MutexGuard<'a, QueueState> {
        let timeout = until.saturating_duration_since(Instant::now());
        let (state, _timed_out) = self
            .not_full
            .wait_timeout(state, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        state
    }

    /// Dispatcher loop: drain up to `max_batch` requests, re-check
    /// deadlines, score the survivors as one parallel region, repeat.
    /// On close, keeps draining until the queue is empty — accepted
    /// requests are always answered.
    fn dispatch(&self) {
        loop {
            let batch: Vec<Request> = {
                let mut state = self.state_lock();
                loop {
                    if !state.requests.is_empty() {
                        break;
                    }
                    if state.closed {
                        return;
                    }
                    state = self
                        .not_empty
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                let take = state.requests.len().min(self.max_batch);
                let batch: Vec<Request> = state.requests.drain(..take).collect();
                // Space freed: wake every blocked submitter (capacity may
                // exceed the number waiting).
                self.not_full.notify_all();
                batch
            };
            self.metrics.batch_size.record(batch.len() as u64);
            for request in &batch {
                request.watch.observe(&self.metrics.queue_wait_ns);
            }
            // Chaos hook: an injected error fails the drained batch the
            // way a crashed region would; an injected panic unwinds to
            // the supervisor (the batch answers itself via Drop); an
            // injected delay ages the queue behind a slow dispatcher.
            if faultpoint::inject("engine.dispatch") {
                for request in &batch {
                    request.finish(Err(Error::TaskFailed));
                }
                continue;
            }
            // Deadline re-check at dispatch: a request that aged out in
            // the queue is answered without spending pool time on it.
            // One clock read covers the whole batch.
            let live: Vec<&Request> = if batch.iter().any(|r| r.deadline.is_some()) {
                let now = Instant::now();
                batch
                    .iter()
                    .filter(|request| match request.deadline {
                        Some(deadline) if now >= deadline => {
                            request.finish(Err(Error::DeadlineExceeded));
                            false
                        }
                        _ => true,
                    })
                    .collect()
            } else {
                batch.iter().collect()
            };
            if live.is_empty() {
                continue;
            }
            let dispatch_span = self.metrics.dispatch_ns.start_span();
            self.run_batch(&live);
            drop(dispatch_span);
        }
    }

    /// Answers one batch on the model's pool. In each pool range the
    /// `Classify` requests are encoded, then decided together by one
    /// [`GraphHdModel::predict_many`] call, so they share tiled class
    /// scans; `Scores` requests go through [`GraphHdModel::scores`] one
    /// by one. Labels are those of [`GraphHdModel::predict`].
    fn run_batch(&self, batch: &[&Request]) {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let model = &self.model;
            model
                .encoder()
                .pool()
                .par_for_ranges(batch.len(), 1, |range| {
                    let mut classify = Vec::new();
                    for &request in &batch[range] {
                        match request.work {
                            Work::Classify => classify.push(request),
                            Work::Scores => {
                                request.finish(Ok(Response::Scores(model.scores(&request.graph))))
                            }
                        }
                    }
                    let graphs: Vec<&Graph> = classify.iter().map(|r| &r.graph).collect();
                    for (request, class) in classify.iter().zip(model.predict_many(&graphs)) {
                        request.finish(Ok(Response::Class(class)));
                    }
                });
        }));
        if outcome.is_err() {
            // A panicking batch must not strand its submitters: every
            // request the region did not answer reports the failure
            // instead (already-claimed slots make this a no-op).
            for request in batch {
                request.finish(Err(Error::TaskFailed));
            }
        }
    }

    /// Supervisor loop, run on the dispatcher thread: catches a
    /// panicking [`dispatch`](Self::dispatch) loop, counts the restart,
    /// backs off exponentially (1 ms doubling, capped at 50 ms) and
    /// respawns the loop — up to `max_restarts` times, after which the
    /// engine is [poisoned](Self::poison). In-flight requests of a
    /// crashed iteration are answered by the [`Request`] drop safety
    /// net as the panic unwinds.
    fn supervise(&self, max_restarts: u32) {
        let mut restarts: u32 = 0;
        loop {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| self.dispatch()));
            match outcome {
                // Clean exit: queue closed and drained.
                Ok(()) => return,
                Err(_) => {
                    if restarts >= max_restarts {
                        self.poison();
                        return;
                    }
                    restarts += 1;
                    self.metrics.dispatcher_restarts.inc();
                    let backoff = Duration::from_millis((1u64 << restarts.min(6)).min(50));
                    std::thread::sleep(backoff);
                }
            }
        }
    }
}

/// Joins the dispatcher when the last engine handle goes away, after
/// closing the queue — the drop path is the same graceful drain as
/// [`Engine::shutdown`].
struct DispatcherGuard {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl DispatcherGuard {
    /// Closes the queue and joins the dispatcher, **holding the handle
    /// lock through the join**: when an explicit `shutdown` races the
    /// last handle's drop (or another `shutdown`), the loser blocks
    /// here until the winner's drain completes, so every caller
    /// observes a fully-drained engine — not merely a closed one.
    fn shutdown(&self) {
        self.shared.close();
        let mut handle = self.handle.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(handle) = handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DispatcherGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for DispatcherGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatcherGuard").finish_non_exhaustive()
    }
}

/// A long-lived serving handle: owns one trained encoder + model and
/// answers classification requests from many threads through a bounded,
/// batching request queue. Cloning is cheap (two `Arc`s) and every clone
/// talks to the same queue and model.
///
/// Built by [`EngineBuilder`] (see [`Engine::builder`]) from a trained
/// model or a snapshot. See the [crate documentation](crate) for the
/// serving architecture.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
    guard: Arc<DispatcherGuard>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("num_classes", &self.shared.model.num_classes())
            .field("dim", &self.shared.model.encoder().config().dim)
            .field("capacity", &self.shared.capacity)
            .field("max_batch", &self.shared.max_batch)
            .field("pending", &self.pending())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts a fluent builder with the global pool and default queue
    /// bounds.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The served model (read-only; the engine never mutates it).
    #[must_use]
    pub fn model(&self) -> &GraphHdModel {
        &self.shared.model
    }

    /// Number of classes the engine scores against.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.shared.model.num_classes()
    }

    /// Requests currently waiting in the queue (excludes the batch being
    /// scored). A sustained value near the capacity means submitters are
    /// experiencing backpressure.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.state_lock().requests.len()
    }

    /// Whether the engine is terminally out of service: its dispatcher
    /// crashed more times than the restart budget
    /// ([`EngineBuilder::dispatcher_restarts`]) allows. A poisoned
    /// engine answers every submit with [`Error::Poisoned`]; the only
    /// recovery is building a new engine.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.shared.state_lock().poisoned
    }

    /// A typed snapshot of the engine's serving telemetry: queue depth
    /// (queued **plus** in-flight, unlike [`pending`](Self::pending)),
    /// accepted/rejected/completed/failed counters, and the
    /// queue-wait / batch-size / dispatch / end-to-end distributions
    /// with `p50()`/`p90()`/`p99()`/`max` readouts.
    ///
    /// Counters are cumulative; use
    /// [`HistogramSnapshot::since`](telemetry::HistogramSnapshot::since)
    /// on two snapshots to measure an interval. With
    /// `GRAPHHD_TELEMETRY=off` the duration histograms stay empty while
    /// counts keep flowing.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let (queued, poisoned) = {
            let state = self.shared.state_lock();
            (state.requests.len(), state.poisoned)
        };
        self.shared.metrics.snapshot(queued, poisoned)
    }

    /// The engine-owned metric registry: the `engine_*` serving metrics
    /// plus the scheduling metrics of the pool it scores on (`pool_*`)
    /// and the model crate's global `graphhd_*` metrics. Render with
    /// [`Registry::render_prometheus`] or [`Registry::render_json`].
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.shared.metrics.registry
    }

    /// Classifies one graph: blocks as the overload policy allows while
    /// the queue is full, then until the dispatcher has scored the
    /// request. The result is bit-identical to
    /// [`GraphHdModel::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShutDown`] after [`shutdown`](Self::shutdown),
    /// [`Error::Poisoned`] on a dead engine, [`Error::Overloaded`] when
    /// a full queue sheds the request, [`Error::DeadlineExceeded`] if a
    /// configured [`default_deadline`](EngineBuilder::default_deadline)
    /// expires first, and [`Error::TaskFailed`] if the request's batch
    /// panicked.
    pub fn classify(&self, graph: &Graph) -> Result<u32, Error> {
        self.request(graph, Work::Classify, None)?.class()
    }

    /// [`classify`](Self::classify) with a per-request latency bound:
    /// the request is answered within roughly `timeout` or fails with
    /// [`Error::DeadlineExceeded`]. The deadline covers the whole
    /// journey — admission wait, queue time (re-checked at dispatch, so
    /// expired requests never waste pool time) — and overrides the
    /// builder's [`default_deadline`](EngineBuilder::default_deadline).
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify).
    pub fn classify_within(&self, graph: &Graph, timeout: Duration) -> Result<u32, Error> {
        self.request(graph, Work::Classify, Some(timeout))?.class()
    }

    /// Cosine similarity of `graph` to every class vector, served
    /// through the queue. Bit-identical to [`GraphHdModel::scores`].
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify).
    pub fn scores(&self, graph: &Graph) -> Result<Vec<f64>, Error> {
        self.request(graph, Work::Scores, None)?.scores()
    }

    /// [`scores`](Self::scores) with a per-request latency bound (see
    /// [`classify_within`](Self::classify_within)).
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify).
    pub fn scores_within(&self, graph: &Graph, timeout: Duration) -> Result<Vec<f64>, Error> {
        self.request(graph, Work::Scores, Some(timeout))?.scores()
    }

    /// Classifies a batch: all graphs are enqueued (blocking as
    /// backpressure demands), then awaited in order. Results are
    /// bit-identical to [`GraphHdModel::predict_all`]. Accepts both
    /// `&[Graph]` and `&[&Graph]`.
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify); the first failed request wins.
    pub fn classify_batch<G: Borrow<Graph>>(&self, graphs: &[G]) -> Result<Vec<u32>, Error> {
        self.request_batch(graphs, None)
    }

    /// [`classify_batch`](Self::classify_batch) with one deadline
    /// covering the whole batch: every request is enqueued with the
    /// same absolute expiry, so a batch that cannot finish inside
    /// `timeout` answers [`Error::DeadlineExceeded`] for the stragglers
    /// instead of holding the caller indefinitely. The network serving
    /// tier uses this for batched submits whose frame carries a
    /// deadline.
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify); the first failed request wins.
    pub fn classify_batch_within<G: Borrow<Graph>>(
        &self,
        graphs: &[G],
        timeout: Duration,
    ) -> Result<Vec<u32>, Error> {
        self.request_batch(graphs, Some(timeout))
    }

    /// The single-graph submit-and-await path. A `timeout` becomes an
    /// absolute deadline at entry; `None` leaves the request to the
    /// builder's default deadline.
    fn request(
        &self,
        graph: &Graph,
        work: Work,
        timeout: Option<Duration>,
    ) -> Result<Response, Error> {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        self.shared.submit(graph.clone(), work, deadline)?.wait()
    }

    /// The batch path: enqueues every graph under one deadline fixed at
    /// entry, then awaits the answers in order.
    fn request_batch<G: Borrow<Graph>>(
        &self,
        graphs: &[G],
        timeout: Option<Duration>,
    ) -> Result<Vec<u32>, Error> {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let slots = graphs
            .iter()
            .map(|graph| {
                self.shared
                    .submit(graph.borrow().clone(), Work::Classify, deadline)
            })
            .collect::<Result<Vec<_>, Error>>()?;
        slots.iter().map(|slot| slot.wait()?.class()).collect()
    }

    /// Graceful shutdown: closes the queue (new submissions fail with
    /// [`Error::ShutDown`]), waits for every already-accepted request to
    /// be answered, and joins the dispatcher. Idempotent; dropping the
    /// last handle does the same.
    pub fn shutdown(&self) {
        self.guard.shutdown();
    }
}

/// Fluent builder for [`Engine`]: execution knobs (thread count or
/// explicit pool) and serving knobs (queue bounds, overload policy,
/// deadlines, restart budget), with one validating construction step
/// at the end — [`from_model`](Self::from_model) for a trained model or
/// [`from_snapshot`](Self::from_snapshot) for a saved one.
///
/// # Examples
///
/// ```
/// use engine::Engine;
/// use graphcore::generate;
/// use graphhd::{CentralityKind, GraphEncoder, GraphHdConfig, GraphHdModel};
///
/// let graphs = vec![generate::complete(8), generate::path(8)];
/// let config = GraphHdConfig::builder()
///     .dim(1024)
///     .centrality(CentralityKind::Degree)
///     .seed(7)
///     .build()?;
/// let model =
///     GraphHdModel::fit_with_retraining(GraphEncoder::new(config)?, &graphs, &[0, 1], 2, 3)?;
/// let engine = Engine::builder()
///     .threads(2)
///     .queue_capacity(32)
///     .max_batch(8)
///     .from_model(model)?;
/// assert_eq!(engine.num_classes(), 2);
/// engine.shutdown();
/// # Ok::<(), graphhd::Error>(())
/// ```
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `from_model`/`from_snapshot`"]
pub struct EngineBuilder {
    pool: Option<Arc<Pool>>,
    queue_capacity: usize,
    max_batch: usize,
    overload_policy: OverloadPolicy,
    default_deadline: Option<Duration>,
    dispatcher_restarts: u32,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// Global pool, default queue bounds.
    pub fn new() -> Self {
        Self {
            pool: None,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_batch: DEFAULT_MAX_BATCH,
            overload_policy: OverloadPolicy::default(),
            default_deadline: None,
            dispatcher_restarts: DEFAULT_DISPATCHER_RESTARTS,
        }
    }

    /// Pins the engine to a dedicated pool of `threads.max(1)` threads
    /// (the default is the process-wide [`Pool::global`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.pool = Some(Arc::new(Pool::with_threads(threads)));
        self
    }

    /// Pins the engine to an existing pool (shared with other engines or
    /// pipelines).
    pub fn pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Bounds the request queue: submitters block while `capacity`
    /// requests are waiting. Default
    /// [`DEFAULT_QUEUE_CAPACITY`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Caps how many queued requests the dispatcher scores as one
    /// parallel batch. Default [`DEFAULT_MAX_BATCH`].
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Selects what a full queue does to submitters: block (default),
    /// shed immediately, or block up to a bound. See [`OverloadPolicy`].
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload_policy = policy;
        self
    }

    /// Applies a deadline of `deadline` from submission to every
    /// request that does not carry its own (see
    /// [`Engine::classify_within`]). Unset by default: requests wait as
    /// long as they must.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Bounds how many dispatcher crashes the supervisor absorbs before
    /// the engine is declared poisoned (default
    /// [`DEFAULT_DISPATCHER_RESTARTS`]). Zero means the first crash is
    /// terminal.
    pub fn dispatcher_restarts(mut self, restarts: u32) -> Self {
        self.dispatcher_restarts = restarts;
        self
    }

    /// Validates the serving knobs.
    fn validate(&self) -> Result<(), Error> {
        if self.queue_capacity == 0 {
            return Err(Error::ZeroQueueCapacity);
        }
        if self.max_batch == 0 {
            return Err(Error::ZeroBatch);
        }
        Ok(())
    }

    /// Starts serving a trained model, rebound to the builder's pool
    /// when one was set.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for invalid serving knobs.
    pub fn from_model(self, model: GraphHdModel) -> Result<Engine, Error> {
        self.validate()?;
        let model = match &self.pool {
            Some(pool) => model.with_pool(Arc::clone(pool)),
            None => model,
        };
        self.spawn(model)
    }

    /// Loads a snapshot (see [`GraphHdModel::save`]) and starts serving
    /// it as [`from_model`](Self::from_model) does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] / [`Error::Snapshot`] for unreadable or
    /// malformed snapshots and [`Error`] for invalid serving knobs.
    pub fn from_snapshot<P: AsRef<Path>>(self, path: P) -> Result<Engine, Error> {
        self.validate()?;
        let model = GraphHdModel::load(path)?;
        self.from_model(model)
    }

    /// Wraps the model in the shared state and spawns the supervised
    /// dispatcher.
    fn spawn(self, model: GraphHdModel) -> Result<Engine, Error> {
        let metrics = Arc::new(EngineMetrics::new());
        // One registry per engine, covering all three layers a request
        // crosses: the serving queue, the pool it is scored on, and the
        // model crate's process-global encode/predict counters.
        model.encoder().pool().register_metrics(&metrics.registry);
        graphhd::metrics::register_into(&metrics.registry);
        let shared = Arc::new(Shared {
            model,
            state: Mutex::new(QueueState {
                requests: VecDeque::new(),
                closed: false,
                poisoned: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: self.queue_capacity,
            max_batch: self.max_batch,
            policy: self.overload_policy,
            default_deadline: self.default_deadline,
            metrics,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let max_restarts = self.dispatcher_restarts;
            std::thread::Builder::new()
                .name("graphhd-engine".into())
                .spawn(move || shared.supervise(max_restarts))
                .map_err(Error::from)?
        };
        Ok(Engine {
            guard: Arc::new(DispatcherGuard {
                shared: Arc::clone(&shared),
                handle: Mutex::new(Some(dispatcher)),
            }),
            shared,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::generate;
    use graphhd::{EncoderKind, GraphHdConfig};

    fn toy() -> (Vec<Graph>, Vec<u32>) {
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for n in 6..14 {
            graphs.push(generate::complete(n));
            labels.push(0);
            graphs.push(generate::path(n));
            labels.push(1);
        }
        (graphs, labels)
    }

    /// A model fitted offline on [`toy`] at dimension `dim`.
    fn toy_model(dim: usize) -> GraphHdModel {
        let (graphs, labels) = toy();
        let config = GraphHdConfig::builder()
            .dim(dim)
            .build()
            .expect("valid dimension");
        GraphHdModel::fit(config, &graphs, &labels, 2).expect("valid inputs")
    }

    fn toy_engine(dim: usize, capacity: usize, max_batch: usize) -> (Engine, Vec<Graph>) {
        let engine = Engine::builder()
            .queue_capacity(capacity)
            .max_batch(max_batch)
            .from_model(toy_model(dim))
            .expect("valid knobs");
        (engine, toy().0)
    }

    #[test]
    fn classify_matches_model_predict() {
        let (engine, graphs) = toy_engine(1024, 16, 4);
        for graph in &graphs {
            assert_eq!(
                engine.classify(graph).expect("engine alive"),
                engine.model().predict(graph)
            );
        }
    }

    #[test]
    fn scores_match_model_scores_bitwise() {
        let (engine, graphs) = toy_engine(1024, 16, 4);
        for graph in &graphs {
            assert_eq!(
                engine.scores(graph).expect("engine alive"),
                engine.model().scores(graph)
            );
        }
    }

    #[test]
    fn classify_ties_go_to_the_lower_class_id() {
        // Classes 1 and 8 (different 8-lane blocks) share one encoding;
        // a query equal to it must be answered with the lower id.
        let config = GraphHdConfig::builder()
            .dim(1024)
            .build()
            .expect("valid dimension");
        let encoder = graphhd::GraphEncoder::new(config).expect("valid config");
        let graph = generate::path(7);
        let encodings: Vec<_> = (0..9)
            .map(|c| match c {
                1 | 8 => encoder.encode(&graph),
                _ => encoder.encode(&generate::complete(c + 3)),
            })
            .collect();
        let labels: Vec<u32> = (0..9).collect();
        let model = GraphHdModel::fit_encoded(encoder, &encodings, &labels, 9);
        let engine = Engine::builder().from_model(model).expect("valid knobs");
        assert_eq!(engine.classify(&graph).expect("engine alive"), 1);
        assert_eq!(engine.model().predict(&graph), 1);
    }

    #[test]
    fn classify_batch_matches_predict_all_through_tiny_queue() {
        // Capacity 2 with a 32-graph batch: the submit loop must ride
        // the backpressure (dispatcher drains while we enqueue).
        let (engine, graphs) = toy_engine(512, 2, 2);
        let expected = engine.model().predict_batch(&graphs);
        assert_eq!(
            engine.classify_batch(&graphs).expect("engine alive"),
            expected
        );
        let refs: Vec<&Graph> = graphs.iter().collect();
        assert_eq!(
            engine.classify_batch(&refs).expect("engine alive"),
            expected
        );
    }

    #[test]
    fn classify_batch_matches_predict_at_many_classes() {
        // 75 classes at d = 1,000: the last 8-lane block holds three
        // classes and the last word 40 bits. Classes 2/73 (different
        // blocks, the higher one in the partial block) and 40/44 (one
        // block) are twins, so queries equal to them tie at distance 0.
        let config = GraphHdConfig::builder()
            .dim(1000)
            .build()
            .expect("valid dimension");
        let encoder = graphhd::GraphEncoder::new(config).expect("valid config");
        let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(75);
        let mut random_graph = || generate::erdos_renyi(9, 0.35, &mut rng).expect("valid p");
        let class_graphs: Vec<Graph> = (0..75).map(|_| random_graph()).collect();
        let encodings: Vec<_> = (0..75)
            .map(|class| {
                let source = match class {
                    73 => 2,
                    44 => 40,
                    other => other,
                };
                encoder.encode(&class_graphs[source])
            })
            .collect();
        let labels: Vec<u32> = (0..75).collect();
        let model = GraphHdModel::fit_encoded(encoder, &encodings, &labels, 75);
        // The twin graphs first, then class graphs and unseen graphs
        // alternating.
        let mut queries: Vec<Graph> = [2, 40, 73, 44]
            .iter()
            .map(|&class| class_graphs[class].clone())
            .collect();
        for class in (4..64).step_by(2) {
            queries.push(class_graphs[class].clone());
            queries.push(random_graph());
        }
        let expected: Vec<u32> = queries.iter().map(|g| model.predict(g)).collect();
        assert_eq!(&expected[..2], &[2, 40], "twins tie to the lower id");
        let expected_scores: Vec<Vec<u64>> = queries
            .iter()
            .map(|g| model.scores(g).iter().map(|s| s.to_bits()).collect())
            .collect();

        for threads in [1usize, 2, 3, 8] {
            let engine = Engine::builder()
                .threads(threads)
                .from_model(model.clone())
                .expect("valid knobs");
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                // `Scores` requests race the batches below, so both kinds
                // of work share dispatched batches.
                let scorer = scope.spawn(|| {
                    let mut served = 0usize;
                    while served == 0 || !done.load(Ordering::Acquire) {
                        for (query, expected) in queries.iter().zip(&expected_scores).step_by(3) {
                            let scores = engine.scores(query).expect("engine alive");
                            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                            assert_eq!(&bits, expected, "scores at {threads} threads");
                            served += 1;
                        }
                    }
                });
                for batch in [1usize, 7, 8, 9, 33, 64] {
                    assert_eq!(
                        engine
                            .classify_batch(&queries[..batch])
                            .expect("engine alive"),
                        &expected[..batch],
                        "batch {batch} at {threads} threads"
                    );
                }
                done.store(true, Ordering::Release);
                scorer.join().expect("scorer thread");
            });
        }
    }

    #[test]
    fn with_encoder_survives_fit_and_snapshot_restore() {
        let (graphs, labels) = toy();
        let kind = EncoderKind::EdgeWeighted { weight_cap: 3 };
        let config = GraphHdConfig::builder()
            .dim(512)
            .with_encoder(kind)
            .build()
            .expect("valid config");
        let model = GraphHdModel::fit(config, &graphs, &labels, 2).expect("valid inputs");
        let engine = Engine::builder().from_model(model).expect("valid knobs");
        assert_eq!(engine.model().encoder().config().encoder, kind);
        let expected: Vec<u32> = graphs.iter().map(|g| engine.model().predict(g)).collect();

        let path =
            std::env::temp_dir().join(format!("graphhd-engine-encoder-{}.ghd", std::process::id()));
        engine.model().save(&path).expect("snapshot written");
        let restored = Engine::builder()
            .from_snapshot(&path)
            .expect("valid snapshot");
        std::fs::remove_file(&path).expect("cleanup");
        assert_eq!(restored.model().encoder().config().encoder, kind);
        let served: Vec<u32> = graphs
            .iter()
            .map(|g| restored.classify(g).expect("engine alive"))
            .collect();
        assert_eq!(served, expected);
    }

    #[test]
    fn builder_rejects_zero_bounds() {
        let model = toy_model(64);
        assert_eq!(
            Engine::builder()
                .queue_capacity(0)
                .from_model(model.clone())
                .unwrap_err(),
            Error::ZeroQueueCapacity
        );
        assert_eq!(
            Engine::builder()
                .max_batch(0)
                .from_model(model)
                .unwrap_err(),
            Error::ZeroBatch
        );
    }

    #[test]
    fn shutdown_rejects_new_requests_on_every_clone() {
        let (engine, graphs) = toy_engine(512, 8, 4);
        let clone = engine.clone();
        assert!(engine.classify(&graphs[0]).is_ok());
        engine.shutdown();
        assert_eq!(engine.classify(&graphs[0]).unwrap_err(), Error::ShutDown);
        assert_eq!(clone.classify(&graphs[0]).unwrap_err(), Error::ShutDown);
        // Idempotent.
        clone.shutdown();
    }

    #[test]
    fn stats_track_served_requests() {
        let (engine, graphs) = toy_engine(512, 8, 4);
        let n = graphs.len() as u64;
        for graph in &graphs {
            engine.classify(graph).expect("engine alive");
        }
        let stats = engine.stats();
        assert_eq!(stats.accepted, n);
        assert_eq!(stats.completed, n);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queue_depth, 0, "all answered -> gauge drained");
        // Sum over the batch-size histogram = total requests dispatched.
        assert_eq!(stats.batch_size.sum, n);
        assert!(stats.batch_size.max <= 4, "max_batch respected");
        if telemetry::enabled() {
            assert_eq!(stats.request_ns.count, n);
            assert_eq!(stats.queue_wait_ns.count, n);
            assert!(stats.dispatch_ns.count > 0);
            assert!(stats.request_ns.p99() >= stats.request_ns.p50());
            assert!(stats.request_ns.max >= stats.queue_wait_ns.min);
        }

        engine.shutdown();
        assert!(engine.classify(&graphs[0]).is_err());
        let stats = engine.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn shutdown_drains_gauges_to_zero() {
        // Many clones hammering a tiny queue, then a shutdown racing the
        // tail of the traffic: every accepted request must be answered
        // and the depth gauge must come back to exactly zero.
        let (engine, graphs) = toy_engine(512, 2, 2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = engine.clone();
                let graphs = &graphs;
                scope.spawn(move || {
                    for graph in graphs {
                        let _ = engine.classify(graph);
                    }
                });
            }
        });
        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.accepted, stats.completed + stats.failed);
    }

    #[test]
    fn registry_renders_all_three_layers() {
        let (engine, graphs) = toy_engine(512, 8, 4);
        engine.classify(&graphs[0]).expect("engine alive");
        let text = engine.registry().render_prometheus();
        telemetry::validate_exposition(&text).expect("well-formed exposition");
        for needle in [
            "engine_queue_depth",
            "engine_requests_accepted",
            "pool_tasks",
            "graphhd_graphs_encoded",
        ] {
            assert!(text.contains(needle), "{needle} missing from exposition");
        }
        let json = engine.registry().render_json();
        assert!(json.contains("\"engine_request_ns\""));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn expired_deadline_is_accepted_and_answered_deadline_exceeded() {
        let (engine, graphs) = toy_engine(512, 8, 4);
        // A zero timeout is already expired at admission: the request
        // is accepted (for reconciliation) and answered immediately.
        assert_eq!(
            engine
                .classify_within(&graphs[0], Duration::ZERO)
                .unwrap_err(),
            Error::DeadlineExceeded
        );
        let stats = engine.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.queue_depth, 0, "expired request released its slot");
        // A generous timeout serves normally.
        assert_eq!(
            engine
                .classify_within(&graphs[0], Duration::from_secs(60))
                .expect("served"),
            engine.model().predict(&graphs[0])
        );
        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(
            stats.accepted,
            stats.completed + stats.failed + stats.expired
        );
    }

    #[test]
    fn default_deadline_applies_to_plain_classify() {
        let graphs = toy().0;
        let engine = Engine::builder()
            .default_deadline(Duration::ZERO)
            .from_model(toy_model(256))
            .expect("valid knobs");
        assert_eq!(
            engine.classify(&graphs[0]).unwrap_err(),
            Error::DeadlineExceeded
        );
        assert_eq!(engine.stats().expired, 1);
    }

    #[test]
    fn healthy_engine_reports_no_resilience_events() {
        let (engine, graphs) = toy_engine(512, 8, 4);
        for graph in &graphs {
            engine.classify(graph).expect("engine alive");
        }
        let stats = engine.stats();
        assert!(!stats.poisoned);
        assert!(!engine.is_poisoned());
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.dispatcher_restarts, 0);
    }

    #[test]
    fn concurrent_shutdowns_both_observe_a_drained_engine() {
        // The drop/shutdown race fix: whichever caller loses the join
        // race must still block until the drain completes.
        let (engine, graphs) = toy_engine(512, 4, 2);
        let clone = engine.clone();
        std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..3)
                .map(|_| {
                    let engine = engine.clone();
                    let graphs = &graphs;
                    scope.spawn(move || {
                        for graph in graphs {
                            let _ = engine.classify(graph);
                        }
                    })
                })
                .collect();
            scope.spawn(move || clone.shutdown());
            scope.spawn(|| engine.shutdown());
            for submitter in submitters {
                submitter.join().expect("submitter exits");
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.queued, 0);
        assert_eq!(
            stats.accepted,
            stats.completed + stats.failed + stats.expired
        );
    }

    #[test]
    fn from_model_serves_an_existing_model() {
        let graphs = toy().0;
        let model = toy_model(1024);
        let expected = model.predict_batch(&graphs);
        let engine = Engine::builder()
            .threads(2)
            .from_model(model)
            .expect("valid knobs");
        assert_eq!(
            engine.classify_batch(&graphs).expect("engine alive"),
            expected
        );
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn from_model_rebinds_the_served_model_to_the_builder_pool() {
        let (graphs, labels) = toy();
        let config = GraphHdConfig::builder()
            .dim(512)
            .build()
            .expect("valid dimension");
        let model = GraphHdModel::fit(config, &graphs, &labels, 2).expect("valid inputs");
        let expected = model.predict_batch(&graphs);
        for threads in [1, 3] {
            let engine = Engine::builder()
                .threads(threads)
                .from_model(model.clone())
                .expect("valid knobs");
            assert_eq!(engine.model().encoder().pool().threads(), threads);
            assert_eq!(
                engine.classify_batch(&graphs).expect("engine alive"),
                expected
            );
        }
    }
}
