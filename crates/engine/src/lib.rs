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
//! - requests enter a **bounded queue** — a submitter that finds it full
//!   serves queued work itself before it may enqueue (backpressure), so
//!   a burst degrades latency instead of memory;
//! - the engine **owns no thread**: a caller waiting on its answer
//!   drains up to `max_batch` queued requests and scores them as one
//!   [`parallel::Pool`] region, on its own thread and the pool, so
//!   concurrent requests are amortized over one parallel sweep exactly
//!   like offline batch prediction;
//! - each request is answered with the label of [`GraphHdModel::predict`]
//!   (a batch's classify requests are decided together by
//!   [`GraphHdModel::predict_many`], one tiled class scan per pool range)
//!   or with [`GraphHdModel::scores`], so the engine and offline
//!   prediction share one decision rule on the blocked+SIMD
//!   `hdvec::ClassMemory` scan;
//! - [`Engine::shutdown`] closes the queue, **answers** every request
//!   already accepted and waits for batches in flight on other threads —
//!   accepted work is never dropped;
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
//!   (serve queued batches until there is room), [`Shed`](OverloadPolicy::Shed)
//!   (immediate [`Error::Overloaded`]) or [`Timeout`](OverloadPolicy::Timeout)
//!   (serve for a bounded time, then `Overloaded`).
//! - **Deadlines** — [`Engine::classify_within`] /
//!   [`Engine::scores_within`] bound each request's total latency; an
//!   expired request is answered [`Error::DeadlineExceeded`] at
//!   admission **and re-checked at dispatch**, so queue-aged work never
//!   wastes pool time.
//! - **Containment** — a panic while serving a batch is caught around
//!   that batch, whose requests are answered [`Error::TaskFailed`]; the
//!   next caller keeps serving. There is no terminal state.
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
//! assert_eq!(worker.classify_batch(&graphs)?, engine.model().predict_all(&graphs));
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
use std::time::{Duration, Instant};
use telemetry::{Registry, Stopwatch};

mod stats;

use stats::EngineMetrics;
pub use stats::EngineStats;

/// Default bound of the request queue (requests, not bytes). A full
/// queue makes submitters serve before they enqueue = backpressure.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Default maximum number of requests one caller scores as one
/// parallel batch.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// What a submitter experiences when the request queue is full.
///
/// Selected per engine via
/// [`EngineBuilder::overload_policy`]; the refusal counters
/// (`engine_shed`) and the reconciliation rules are documented in
/// `docs/RESILIENCE.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Serve the oldest queued batch, then retry, until there is room
    /// (backpressure; the default). A request with a deadline is
    /// answered [`Error::DeadlineExceeded`] once the deadline passes.
    #[default]
    Block,
    /// Refuse immediately with [`Error::Overloaded`]. The submitter
    /// never serves or waits; the refusal is counted in `engine_shed`.
    Shed,
    /// Serve as [`Block`](Self::Block) does until the given duration
    /// has passed since the submit began, then refuse with
    /// [`Error::Overloaded`] (counted in `engine_shed`). A sharper
    /// request deadline bounds the attempt further.
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
/// [`Work`] asked for (a serving bug, never expected).
const WRONG_RESPONSE: Error = Error::Internal {
    what: "request answered with the wrong response variant",
};

/// One-shot response slot a submitter takes its answer from.
///
/// The slot's locks recover from poisoning rather than propagate it:
/// fulfilment can run inside a `Drop` during a panic unwind (a batch
/// that panicked while being served), where a second panic would abort
/// the process — and the stored `Option` is never observable
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

    fn lock(&self) -> MutexGuard<'_, Option<Result<Response, Error>>> {
        self.response.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fulfill(&self, response: Result<Response, Error>) {
        *self.lock() = Some(response);
        self.ready.notify_one();
    }

    /// The answer, if it is already there.
    fn try_take(&self) -> Option<Result<Response, Error>> {
        self.lock().take()
    }

    /// Parks until the answer arrives.
    fn wait(&self) -> Result<Response, Error> {
        let mut guard = self.lock();
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
    /// panicked batch — goes through here, which is what keeps the gauge
    /// draining to zero; the claim flag makes duplicate calls (the drop
    /// safety net after an explicit answer) no-ops.
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
    /// a panic unwinding through [`Shared::serve`] with a drained batch
    /// still in a local buffer, turning a stranded submitter into a
    /// [`Error::TaskFailed`] response.
    fn drop(&mut self) {
        self.finish(Err(Error::TaskFailed));
    }
}

/// Mutable queue state behind the engine's mutex.
struct QueueState {
    requests: VecDeque<Request>,
    closed: bool,
    /// Batches drained from `requests` and not yet answered.
    in_flight: usize,
}

/// State shared by every engine handle. Whoever waits on an answer
/// drains the queue, so no thread belongs to the engine; every queued
/// request has a submitter inside a call that holds a handle, so
/// dropping the last handle needs no drain.
struct Shared {
    model: GraphHdModel,
    state: Mutex<QueueState>,
    /// Signalled when the queue is closed and the last in-flight batch
    /// is answered ([`Engine::shutdown`] waits here).
    drained: Condvar,
    capacity: usize,
    max_batch: usize,
    policy: OverloadPolicy,
    /// Serving telemetry (lock-free to record; never touches `state`).
    /// Shared with every queued [`Request`], whose finish path records
    /// its own outcome.
    metrics: Arc<EngineMetrics>,
}

impl Shared {
    /// The queue lock, recovering from poisoning: every `QueueState`
    /// mutation is a single push/drain/flag/count write that cannot be
    /// observed half-done, and no code that can panic runs under it.
    fn state_lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Submit under the engine's overload policy: while the queue is
    /// full, serve the oldest batch as the policy allows, then enqueue.
    ///
    /// Refusals are never accepted (closed → `rejected`, full queue
    /// under `Shed`/`Timeout` → `shed`). A request whose deadline
    /// passes before there is room *is* accepted and immediately
    /// answered [`Error::DeadlineExceeded`] — expiry is an outcome of
    /// an admitted request, which is what keeps
    /// `accepted == completed + failed + expired` reconcilable.
    fn submit(
        &self,
        graph: Graph,
        work: Work,
        deadline: Option<Instant>,
    ) -> Result<Arc<Slot>, Error> {
        // Bound of a Timeout-policy attempt, fixed at entry.
        let policy_bound = match self.policy {
            OverloadPolicy::Timeout(limit) => Some(Instant::now() + limit),
            _ => None,
        };
        let mut state = self.state_lock();
        loop {
            if state.closed {
                self.metrics.rejected.inc();
                return Err(Error::ShutDown);
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                // Expired while serving (or dead on arrival): accepted,
                // then answered DeadlineExceeded.
                drop(state);
                let request = self.accept(graph, work, deadline);
                request.finish(Err(Error::DeadlineExceeded));
                return Ok(request.slot.clone());
            }
            if state.requests.len() < self.capacity {
                break;
            }
            let refuse = self.policy == OverloadPolicy::Shed
                || policy_bound.is_some_and(|bound| Instant::now() >= bound);
            if refuse {
                self.metrics.shed.inc();
                return Err(Error::Overloaded);
            }
            // The queue is full, hence not empty: answer its oldest
            // batch instead of parking.
            self.serve(state);
            state = self.state_lock();
        }
        // The stopwatch starts after the backpressure: queue-wait and
        // end-to-end latency measure accepted requests, while time spent
        // serving a full queue shows up in the submitter's own
        // end-to-end numbers (the bench measures both).
        let request = self.accept(graph, work, deadline);
        let slot = Arc::clone(&request.slot);
        state.requests.push_back(request);
        Ok(slot)
    }

    /// Waits for the answer in `slot`, serving queued batches until it
    /// is there. An empty queue with no answer yet means the request is
    /// in flight on another thread, which will answer it: park on the
    /// slot.
    fn answer(&self, slot: &Slot) -> Result<Response, Error> {
        loop {
            if let Some(response) = slot.try_take() {
                return response;
            }
            let state = self.state_lock();
            if state.requests.is_empty() {
                drop(state);
                return slot.wait();
            }
            self.serve(state);
        }
    }

    /// Drains up to `max_batch` requests from the (non-empty) queue and
    /// answers them on this thread and the pool. A panic anywhere in
    /// the body is contained here: the [`Request`] drop safety net
    /// answers the batch [`Error::TaskFailed`] as it unwinds. The last
    /// in-flight batch of a closed queue wakes [`Engine::shutdown`].
    fn serve(&self, mut state: MutexGuard<'_, QueueState>) {
        let take = state.requests.len().min(self.max_batch);
        let batch: Vec<Request> = state.requests.drain(..take).collect();
        state.in_flight += 1;
        drop(state);
        let _contained = panic::catch_unwind(AssertUnwindSafe(|| self.dispatch(batch)));
        let mut state = self.state_lock();
        state.in_flight -= 1;
        let drained = state.closed && state.in_flight == 0;
        drop(state);
        if drained {
            self.drained.notify_all();
        }
    }

    /// The batch body: record the drain, re-check deadlines, score the
    /// survivors as one parallel region.
    fn dispatch(&self, batch: Vec<Request>) {
        self.metrics.batch_size.record(batch.len() as u64);
        for request in &batch {
            request.watch.observe(&self.metrics.queue_wait_ns);
        }
        // Chaos hook: an injected error fails the drained batch the way
        // a crashed region would; an injected panic unwinds to `serve`
        // (the batch answers itself via Drop); an injected delay ages
        // the queue behind a slow batch.
        if faultpoint::inject("engine.dispatch") {
            for request in &batch {
                request.finish(Err(Error::TaskFailed));
            }
            return;
        }
        // Deadline re-check at dispatch: a request that aged out in the
        // queue is answered without spending pool time on it. One clock
        // read covers the whole batch.
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
            return;
        }
        let _dispatch_span = self.metrics.dispatch_ns.start_span();
        self.run_batch(&live);
    }

    /// Answers one batch on the model's pool. In each pool range the
    /// `Classify` requests are encoded, then decided together by one
    /// [`GraphHdModel::predict_many`] call, so they share tiled class
    /// scans; `Scores` requests go through [`GraphHdModel::scores`] one
    /// by one. Labels are those of [`GraphHdModel::predict`].
    fn run_batch(&self, batch: &[&Request]) {
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
    }
}

/// A long-lived serving handle: owns one trained encoder + model and
/// answers classification requests from many threads through a bounded,
/// batching request queue. Cloning is cheap (one `Arc`) and every clone
/// talks to the same queue and model. The engine owns no thread:
/// callers serve the queue while they wait.
///
/// Built by [`EngineBuilder`] (see [`Engine::builder`]) from a trained
/// model or a snapshot. See the [crate documentation](crate) for the
/// serving architecture.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
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

    /// Requests currently waiting in the queue (excludes batches being
    /// scored). A sustained value near the capacity means submitters are
    /// experiencing backpressure.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared.state_lock().requests.len()
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
        let queued = self.pending();
        self.shared.metrics.snapshot(queued)
    }

    /// The engine-owned metric registry: the `engine_*` serving metrics
    /// plus the scheduling metrics of the pool it scores on (`pool_*`)
    /// and the model crate's global `graphhd_*` metrics. Render with
    /// [`Registry::render_prometheus`] or [`Registry::render_json`].
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.shared.metrics.registry
    }

    /// Classifies one graph: serves queued work as the overload policy
    /// allows while the queue is full, then until the request is
    /// answered. The result is bit-identical to
    /// [`GraphHdModel::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShutDown`] after [`shutdown`](Self::shutdown),
    /// [`Error::Overloaded`] when a full queue sheds the request, and
    /// [`Error::TaskFailed`] if the request's batch panicked.
    pub fn classify(&self, graph: &Graph) -> Result<u32, Error> {
        self.request(graph, Work::Classify, None)?.class()
    }

    /// [`classify`](Self::classify) with a per-request latency bound:
    /// the request is answered within roughly `timeout` or fails with
    /// [`Error::DeadlineExceeded`]. The deadline covers the whole
    /// journey — admission and queue time (re-checked at dispatch, so
    /// expired requests never waste pool time).
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify), plus
    /// [`Error::DeadlineExceeded`].
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
    /// As [`classify_within`](Self::classify_within).
    pub fn scores_within(&self, graph: &Graph, timeout: Duration) -> Result<Vec<f64>, Error> {
        self.request(graph, Work::Scores, Some(timeout))?.scores()
    }

    /// Classifies a batch: all graphs are enqueued (serving as
    /// backpressure demands), then answered in order. Results are
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
    /// As [`classify_within`](Self::classify_within); the first failed
    /// request wins.
    pub fn classify_batch_within<G: Borrow<Graph>>(
        &self,
        graphs: &[G],
        timeout: Duration,
    ) -> Result<Vec<u32>, Error> {
        self.request_batch(graphs, Some(timeout))
    }

    /// The single-graph submit-and-answer path. A `timeout` becomes an
    /// absolute deadline at entry.
    fn request(
        &self,
        graph: &Graph,
        work: Work,
        timeout: Option<Duration>,
    ) -> Result<Response, Error> {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let slot = self.shared.submit(graph.clone(), work, deadline)?;
        self.shared.answer(&slot)
    }

    /// The batch path: enqueues every graph under one deadline fixed at
    /// entry, then answers them in order. A refused submit stops the
    /// enqueueing, but the requests already queued are answered before
    /// the refusal is returned, so no queued request outlives its
    /// submitter's call.
    fn request_batch<G: Borrow<Graph>>(
        &self,
        graphs: &[G],
        timeout: Option<Duration>,
    ) -> Result<Vec<u32>, Error> {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let mut refused = Ok(());
        let slots: Vec<Arc<Slot>> = graphs
            .iter()
            .map_while(|graph| {
                let graph = graph.borrow().clone();
                let submitted = self.shared.submit(graph, Work::Classify, deadline);
                submitted.map_err(|error| refused = Err(error)).ok()
            })
            .collect();
        let answers: Vec<Result<u32, Error>> = slots
            .iter()
            .map(|slot| self.shared.answer(slot)?.class())
            .collect();
        let classes = answers.into_iter().collect::<Result<Vec<u32>, Error>>()?;
        refused.map(|()| classes)
    }

    /// Graceful shutdown: closes the queue (new submissions fail with
    /// [`Error::ShutDown`]), answers every request still queued, and
    /// waits until batches in flight on other threads are answered.
    /// Idempotent, and safe to race with other `shutdown` calls: each
    /// returns only once the engine is fully drained.
    pub fn shutdown(&self) {
        let shared = &*self.shared;
        let mut state = shared.state_lock();
        state.closed = true;
        loop {
            if !state.requests.is_empty() {
                shared.serve(state);
                state = shared.state_lock();
            } else if state.in_flight == 0 {
                return;
            } else {
                state = shared
                    .drained
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Fluent builder for [`Engine`]: execution knobs (thread count or
/// explicit pool) and serving knobs (queue bounds, overload policy),
/// with one validating construction step at the end —
/// [`from_model`](Self::from_model) for a trained model or
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

    /// Bounds the request queue: a submitter that finds `capacity`
    /// requests waiting serves before it enqueues. Default
    /// [`DEFAULT_QUEUE_CAPACITY`].
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Caps how many queued requests one caller scores as one parallel
    /// batch. Default [`DEFAULT_MAX_BATCH`].
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Selects what a full queue does to submitters: serve until there
    /// is room (default), shed immediately, or serve up to a bound. See
    /// [`OverloadPolicy`].
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload_policy = policy;
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
        Ok(self.build(model))
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

    /// Wraps the model in the shared state.
    fn build(self, model: GraphHdModel) -> Engine {
        let metrics = Arc::new(EngineMetrics::new());
        // One registry per engine, covering all three layers a request
        // crosses: the serving queue, the pool it is scored on, and the
        // model crate's process-global encode/predict counters.
        model.encoder().pool().register_metrics(&metrics.registry);
        graphhd::metrics::register_into(&metrics.registry);
        Engine {
            shared: Arc::new(Shared {
                model,
                state: Mutex::new(QueueState {
                    requests: VecDeque::new(),
                    closed: false,
                    in_flight: 0,
                }),
                drained: Condvar::new(),
                capacity: self.queue_capacity,
                max_batch: self.max_batch,
                policy: self.overload_policy,
                metrics,
            }),
        }
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
        // the backpressure (the submitter serves while it enqueues).
        let (engine, graphs) = toy_engine(512, 2, 2);
        let expected = engine.model().predict_all(&graphs);
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
    fn healthy_engine_reports_no_resilience_events() {
        let (engine, graphs) = toy_engine(512, 8, 4);
        for graph in &graphs {
            engine.classify(graph).expect("engine alive");
        }
        let stats = engine.stats();
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.expired, 0);
    }

    #[test]
    fn concurrent_shutdowns_both_observe_a_drained_engine() {
        // Racing shutdowns: whichever caller finds the queue empty first
        // must still wait until the other's in-flight batch is answered.
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
        let expected = model.predict_all(&graphs);
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
        let expected = model.predict_all(&graphs);
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
