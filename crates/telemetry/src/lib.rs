//! **telemetry** — the suite's zero-dependency observability layer.
//!
//! Every serving-scale subsystem in this workspace (the [`engine`
//! queue](../engine/index.html), the `parallel` pool, the model's
//! fit/predict/retrain paths) needs to answer "how many, how long, why
//! is p99 high?" without a profiler attached. This crate provides the
//! shared substrate, in the same style as the rest of the workspace: no
//! dependencies, lock-free hot paths, and determinism-preserving (a
//! metric never changes a result, only observes it).
//!
//! - [`Counter`] / [`Gauge`] — lock-free monotone counts and up/down
//!   levels (one relaxed atomic op per update);
//! - [`Histogram`] — log-linear-bucket value distributions (≤ 12.5 %
//!   relative bucket width) with lock-free recording, mergeable
//!   [`HistogramSnapshot`]s and p50/p90/p99/max readouts;
//! - [`Stopwatch`] / [`SpanTimer`] — cheap timing: a stopwatch captures
//!   a start instant (or nothing, when telemetry is disabled), a span
//!   guard records its elapsed nanoseconds into a histogram on drop;
//! - [`Registry`] — names metrics and renders them as Prometheus text
//!   exposition format ([`Registry::render_prometheus`]) or a
//!   structured JSON snapshot ([`Registry::render_json`]).
//!
//! # Runtime knob
//!
//! Setting `GRAPHHD_TELEMETRY=off` (or `0` / `false`) disables every
//! *clock read*: stopwatches capture nothing and span guards record
//! nothing, so latency histograms stay empty while counters and gauges
//! (whose updates are a handful of nanoseconds) keep counting. The
//! value is read once, on first use.
//!
//! # Conventions
//!
//! Metric names are `snake_case`, prefixed by their subsystem
//! (`engine_`, `pool_`, `graphhd_`), with duration histograms suffixed
//! `_ns` (all durations are recorded in nanoseconds). See
//! `docs/TELEMETRY.md` for the full catalog.
//!
//! # Examples
//!
//! ```
//! use telemetry::{Counter, Histogram, Registry};
//!
//! let requests = Counter::new();
//! let latency = Histogram::new();
//! for v in [120u64, 450, 80_000] {
//!     requests.inc();
//!     latency.record(v);
//! }
//! let snap = latency.snapshot();
//! assert_eq!(snap.count, 3);
//! assert_eq!(snap.max, 80_000);
//! assert!(snap.percentile(0.5) >= 450);
//!
//! let registry = Registry::new();
//! registry.register_counter("demo_requests", "Requests observed", &requests);
//! registry.register_histogram("demo_latency_ns", "Request latency", &latency);
//! let text = registry.render_prometheus();
//! telemetry::validate_exposition(&text).expect("well-formed exposition");
//! ```

mod histogram;
mod metrics;
mod registry;
mod timer;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{validate_exposition, Registry};
pub use timer::{SpanTimer, Stopwatch};

use std::sync::OnceLock;

/// Environment variable disabling the timing instrumentation at
/// runtime: `off` / `0` / `false` (case-insensitive) stop all clock
/// reads. Counters and gauges keep updating either way.
pub const TELEMETRY_ENV: &str = "GRAPHHD_TELEMETRY";

/// Whether timing instrumentation is enabled (the default). Decided
/// once, on first use, from [`TELEMETRY_ENV`].
#[must_use]
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var(TELEMETRY_ENV)
            .map(|raw| {
                let v = raw.trim().to_ascii_lowercase();
                !matches!(v.as_str(), "off" | "0" | "false")
            })
            .unwrap_or(true)
    })
}
