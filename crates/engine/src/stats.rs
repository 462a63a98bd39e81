//! The engine's observability surface: internal metric handles, the
//! typed [`EngineStats`] snapshot, and the engine-owned registry.
//!
//! Every handle is lock-free to record (see the `telemetry` crate);
//! instrumentation never takes the queue lock and never changes a
//! scheduling decision. Durations are nanoseconds; names follow the
//! `docs/TELEMETRY.md` catalog.

use telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

/// Metric handles shared by every engine handle and queued request.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    /// Requests accepted but not yet answered: queued **plus** the
    /// batches currently being scored (unlike [`Engine::pending`], which
    /// is queued only).
    ///
    /// [`Engine::pending`]: crate::Engine::pending
    pub queue_depth: Gauge,
    /// Requests accepted into the queue.
    pub accepted: Counter,
    /// Submissions refused because the queue was closed.
    pub rejected: Counter,
    /// Requests answered successfully.
    pub completed: Counter,
    /// Requests answered with an error (panicked batch, internal error).
    pub failed: Counter,
    /// Submissions refused at admission because the queue was full
    /// under a `Shed` or expired `Timeout` overload policy.
    pub shed: Counter,
    /// Requests answered [`Error::DeadlineExceeded`] — expired at
    /// admission or aged out in the queue before dispatch.
    ///
    /// [`Error::DeadlineExceeded`]: graphhd::Error::DeadlineExceeded
    pub expired: Counter,
    /// Nanoseconds from acceptance to drain (the queue-age distribution:
    /// how long requests sit before a caller takes them to score).
    pub queue_wait_ns: Histogram,
    /// Requests per dispatched batch (a value histogram, not a duration).
    pub batch_size: Histogram,
    /// Nanoseconds scoring one batch (the parallel region, all requests).
    pub dispatch_ns: Histogram,
    /// Nanoseconds from acceptance to fulfilment, per request.
    pub request_ns: Histogram,
    /// The engine-owned registry rendering these metrics (plus the
    /// pool's and the model crate's) as Prometheus text or JSON.
    pub registry: Registry,
}

impl EngineMetrics {
    /// Creates the handles and registers them into a fresh registry.
    pub(crate) fn new() -> Self {
        let metrics = Self {
            queue_depth: Gauge::new(),
            accepted: Counter::new(),
            rejected: Counter::new(),
            completed: Counter::new(),
            failed: Counter::new(),
            shed: Counter::new(),
            expired: Counter::new(),
            queue_wait_ns: Histogram::new(),
            batch_size: Histogram::new(),
            dispatch_ns: Histogram::new(),
            request_ns: Histogram::new(),
            registry: Registry::new(),
        };
        let r = &metrics.registry;
        r.register_gauge(
            "engine_queue_depth",
            "Requests accepted but not yet answered (queued + in-flight)",
            &metrics.queue_depth,
        );
        r.register_counter(
            "engine_requests_accepted",
            "Requests accepted into the queue",
            &metrics.accepted,
        );
        r.register_counter(
            "engine_requests_rejected",
            "Submissions refused after shutdown",
            &metrics.rejected,
        );
        r.register_counter(
            "engine_requests_completed",
            "Requests answered successfully",
            &metrics.completed,
        );
        r.register_counter(
            "engine_requests_failed",
            "Requests answered with an error",
            &metrics.failed,
        );
        r.register_counter(
            "engine_shed",
            "Submissions refused because the queue was full under the overload policy",
            &metrics.shed,
        );
        r.register_counter(
            "engine_deadline_expired",
            "Requests answered DeadlineExceeded at admission or dispatch",
            &metrics.expired,
        );
        r.register_histogram(
            "engine_queue_wait_ns",
            "Acceptance to drain by a serving caller",
            &metrics.queue_wait_ns,
        );
        r.register_histogram(
            "engine_batch_size",
            "Requests per dispatched batch",
            &metrics.batch_size,
        );
        r.register_histogram(
            "engine_dispatch_ns",
            "Batch scoring wall-clock",
            &metrics.dispatch_ns,
        );
        r.register_histogram(
            "engine_request_ns",
            "Acceptance to fulfilment, per request",
            &metrics.request_ns,
        );
        metrics
    }

    /// The typed snapshot behind [`Engine::stats`](crate::Engine::stats).
    pub(crate) fn snapshot(&self, queued: usize) -> EngineStats {
        EngineStats {
            queue_depth: self.queue_depth.get(),
            queued,
            accepted: self.accepted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            shed: self.shed.get(),
            expired: self.expired.get(),
            queue_wait_ns: self.queue_wait_ns.snapshot(),
            batch_size: self.batch_size.snapshot(),
            dispatch_ns: self.dispatch_ns.snapshot(),
            request_ns: self.request_ns.snapshot(),
        }
    }
}

/// A point-in-time reading of the engine's serving telemetry (see
/// [`Engine::stats`](crate::Engine::stats)).
///
/// Counters are cumulative since engine construction; histograms carry
/// the full distribution with `p50()`/`p90()`/`p99()`/`max` readouts,
/// and [`HistogramSnapshot::since`] turns two readings into an interval
/// measurement. Duration histograms are empty when timing is disabled
/// via `GRAPHHD_TELEMETRY=off` (counters and gauges still count).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineStats {
    /// Requests accepted but not yet answered (queued + in-flight).
    /// Zero after a drained shutdown.
    pub queue_depth: i64,
    /// Requests waiting in the queue right now (excludes in-flight
    /// batches; the same reading as [`Engine::pending`](crate::Engine::pending)).
    pub queued: usize,
    /// Requests accepted into the queue (including ones later answered
    /// `DeadlineExceeded`). At any drained quiescent point,
    /// `accepted == completed + failed + expired`.
    pub accepted: u64,
    /// Submissions refused after shutdown (never accepted; disjoint
    /// from `shed`).
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error other than `DeadlineExceeded`.
    pub failed: u64,
    /// Submissions refused `Overloaded` by the `Shed`/`Timeout`
    /// overload policies (never accepted; disjoint from `rejected`).
    pub shed: u64,
    /// Requests answered `DeadlineExceeded` (counted in `accepted`).
    pub expired: u64,
    /// Nanoseconds from acceptance to drain (queue age at the moment a
    /// request leaves the queue).
    pub queue_wait_ns: HistogramSnapshot,
    /// Requests per dispatched batch.
    pub batch_size: HistogramSnapshot,
    /// Nanoseconds scoring one batch.
    pub dispatch_ns: HistogramSnapshot,
    /// Nanoseconds from acceptance to fulfilment, per request.
    pub request_ns: HistogramSnapshot,
}
