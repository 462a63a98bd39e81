//! Cheap timing primitives: [`Stopwatch`] captures a start instant,
//! [`SpanTimer`] is an RAII guard recording its lifetime into a
//! [`Histogram`](crate::Histogram).
//!
//! Both respect the runtime knob ([`crate::enabled`]): when
//! `GRAPHHD_TELEMETRY=off`, no clock is ever read and nothing is
//! recorded.

use crate::Histogram;
use std::time::Instant;

/// A start instant captured for later readout. Holds nothing (and
/// reads no clock) when telemetry is disabled, so it can be
/// embedded in per-request structs unconditionally.
///
/// # Examples
///
/// ```
/// let sw = telemetry::Stopwatch::started();
/// let h = telemetry::Histogram::new();
/// sw.observe(&h);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::started()
    }
}

impl Stopwatch {
    /// Captures the current instant (or nothing, when telemetry is
    /// disabled).
    #[must_use]
    pub fn started() -> Self {
        Self {
            start: crate::enabled().then(Instant::now),
        }
    }

    /// A stopwatch that never records, regardless of the runtime
    /// knob. For placeholder slots that are re-armed later.
    #[must_use]
    pub fn unstarted() -> Self {
        Self { start: None }
    }

    /// Nanoseconds elapsed since [`started`](Self::started)
    /// (saturating), or `None` if no instant was captured.
    #[must_use]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start
            .map(|start| u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Records the elapsed nanoseconds into `histogram`, if an
    /// instant was captured. The stopwatch keeps running: calling
    /// `observe` twice records two (growing) readings.
    pub fn observe(&self, histogram: &Histogram) {
        if let Some(ns) = self.elapsed_ns() {
            histogram.record(ns);
        }
    }
}

/// An RAII span guard: created over a histogram, records its
/// elapsed nanoseconds into it when dropped. Create via
/// [`Histogram::start_span`].
///
/// # Examples
///
/// ```
/// let h = telemetry::Histogram::new();
/// {
///     let _span = h.start_span();
///     // ... timed work ...
/// }
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    watch: Stopwatch,
    histogram: Histogram,
}

impl SpanTimer {
    /// Starts a span over `histogram`.
    #[must_use]
    pub fn starting(histogram: &Histogram) -> Self {
        Self {
            watch: Stopwatch::started(),
            histogram: histogram.clone(),
        }
    }

    /// Drops the guard without recording anything.
    pub fn cancel(mut self) {
        self.watch = Stopwatch::unstarted();
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.watch.observe(&self.histogram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let _span = h.start_span();
            std::hint::black_box(0);
        }
        let snap = h.snapshot();
        // Telemetry defaults to enabled in tests (env not set).
        if crate::enabled() {
            assert_eq!(snap.count, 1);
        }
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let h = Histogram::new();
        let span = h.start_span();
        span.cancel();
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn unstarted_stopwatch_observes_nothing() {
        let h = Histogram::new();
        let sw = Stopwatch::unstarted();
        sw.observe(&h);
        assert_eq!(sw.elapsed_ns(), None);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn stopwatch_elapsed_grows() {
        if !crate::enabled() {
            return;
        }
        let sw = Stopwatch::started();
        let a = sw.elapsed_ns().unwrap_or(0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = sw.elapsed_ns().unwrap_or(0);
        assert!(b > a, "elapsed did not grow: {a} -> {b}");
    }
}
