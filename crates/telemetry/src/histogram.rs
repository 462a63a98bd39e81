//! Log-linear-bucket histograms: lock-free recording, mergeable
//! snapshots, percentile readouts.
//!
//! The bucket layout is the HDR-histogram scheme: values below
//! 2^[`SUB_BITS`] get one bucket each (exact), and every further octave
//! `[2^k, 2^{k+1})` is split into 2^[`SUB_BITS`] linear sub-buckets, so
//! the relative width of any bucket is at most `2^-SUB_BITS` (12.5 %
//! at the chosen 3 bits) while the whole `u64` range fits in
//! [`BUCKETS`] = 496 cells. Recording is one relaxed `fetch_add` on the
//! bucket plus bookkeeping atomics — no locks, no allocation — so
//! per-batch and per-request paths can record unconditionally.
//!
//! A [`HistogramSnapshot`] is a plain-data copy: snapshots of different
//! shards [`merge`](HistogramSnapshot::merge) by bucket-wise addition
//! (bit-identical to having recorded into one histogram), and
//! [`since`](HistogramSnapshot::since) takes interval deltas for
//! benchmarks that bracket a measured region.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` linear
/// buckets, bounding relative bucket width by `2^-SUB_BITS` = 12.5 %.
const SUB_BITS: u32 = 3;

/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`: one bucket per value below
/// `SUB` (= 8), then `SUB` buckets for each of the remaining `64 -
/// SUB_BITS` octave groups.
pub const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB;

/// Bucket index of a value. Total over `u64`; the result is `< BUCKETS`.
fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        // `value >= SUB` so the leading one sits at position `exp >=
        // SUB_BITS`; the SUB_BITS bits below it select the sub-bucket.
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        (((exp - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// Smallest value mapping to bucket `index`.
fn bucket_low(index: usize) -> u64 {
    if index < SUB {
        index as u64
    } else {
        let exp = (index >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (index & (SUB - 1)) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }
}

/// Largest value mapping to bucket `index`.
fn bucket_high(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(index + 1) - 1
    }
}

/// Shared histogram state: one atomic per bucket plus bookkeeping.
#[derive(Debug)]
struct Inner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free log-linear histogram of `u64` values (typically
/// durations in nanoseconds — see the crate's naming conventions).
/// Cloning shares the underlying cells, so the instrumented component
/// and the registry observe one distribution.
///
/// Concurrent `record` calls are never lost and never torn; a
/// [`snapshot`](Self::snapshot) taken concurrently with writers is
/// consistent up to the writes in flight at the instant of the read
/// (its `count` and bucket totals may each lag by at most the number of
/// concurrently recording threads — the bound the model-check test
/// pins down).
///
/// # Examples
///
/// ```
/// let h = telemetry::Histogram::new();
/// for v in 0..1000u64 {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 1000);
/// let p99 = snap.percentile(0.99);
/// assert!((985..=1000).contains(&p99), "p99 {p99}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<Inner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one value: one relaxed `fetch_add` on its bucket plus
    /// count/sum/min/max bookkeeping. Lock-free and allocation-free.
    pub fn record(&self, value: u64) {
        let inner = &*self.inner;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`,
    /// i.e. after ~584 years).
    pub fn record_duration(&self, duration: std::time::Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a [`SpanTimer`](crate::SpanTimer) that records its
    /// elapsed nanoseconds into this histogram when dropped. Captures
    /// no clock when telemetry is disabled.
    #[must_use]
    pub fn start_span(&self) -> crate::SpanTimer {
        crate::SpanTimer::starting(self)
    }

    /// A plain-data copy of the current distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        HistogramSnapshot {
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            min: inner.min.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`Histogram`] at one instant: bucket counts
/// plus count/sum/min/max, with percentile readouts and shard merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded value (0 while empty).
    pub max: u64,
    /// Per-bucket counts, length [`BUCKETS`].
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty distribution (what `Histogram::new().snapshot()`
    /// returns).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the recorded values (0.0 while empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` ∈ (0, 1]: an upper bound from the
    /// bucket containing the `ceil(q·count)`-th smallest recording,
    /// clamped to the observed `max` (so `percentile(1.0) == max`
    /// exactly). Returns 0 while empty. The bucket bound is within
    /// 12.5 % of the true order statistic.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                return bucket_high(index).min(self.max);
            }
        }
        self.max
    }

    /// The median ([`percentile`](Self::percentile) 0.5).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// The 90th percentile.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// The 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Folds another shard's snapshot into this one (bucket-wise
    /// addition) — bit-identical to having recorded both shards' values
    /// into a single histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.wrapping_add(*theirs);
        }
    }

    /// The distribution recorded since `earlier` (bucket-wise
    /// saturating difference) — how benchmarks bracket a measured
    /// region on a live, monotone histogram. `min`/`max` remain the
    /// lifetime extremes (the interval's true extremes are not
    /// recoverable from cumulative buckets); percentiles of the
    /// interval are exact up to bucket width.
    #[must_use]
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            // `sum` is wrapping arithmetic mod 2^64, so its delta must
            // wrap too (a saturating difference would zero out whenever
            // the lifetime sum wrapped between the two readings).
            sum: self.sum.wrapping_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
        }
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, in value
    /// order — the compact form the registry renders.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| (bucket_high(index), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_total_and_monotone() {
        // Every sampled value maps in range, and bucket index never
        // decreases as values grow.
        let mut last = 0usize;
        let mut v = 0u64;
        loop {
            let index = bucket_index(v);
            assert!(index < BUCKETS, "value {v} -> bucket {index}");
            assert!(index >= last, "index regressed at {v}");
            last = index;
            if v > u64::MAX / 3 {
                break;
            }
            v = v * 3 + 1;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        for index in 0..BUCKETS {
            let low = bucket_low(index);
            let high = bucket_high(index);
            assert!(low <= high, "bucket {index}");
            assert_eq!(bucket_index(low), index, "low of {index}");
            assert_eq!(bucket_index(high), index, "high of {index}");
        }
        // Buckets tile u64 with no gaps.
        for index in 1..BUCKETS {
            assert_eq!(bucket_high(index - 1) + 1, bucket_low(index));
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[100u64, 1_000, 123_456, 1 << 40, u64::MAX / 7] {
            let index = bucket_index(v);
            let width = bucket_high(index) - bucket_low(index);
            assert!(
                (width as f64) <= (v as f64) / 8.0 + 1.0,
                "bucket width {width} too wide for {v}"
            );
        }
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 10_000);
        assert_eq!(snap.percentile(1.0), 10_000);
        for (q, expected) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = snap.percentile(q) as f64;
            assert!(
                got >= expected && got <= expected * 1.13,
                "q={q}: got {got}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn empty_snapshot_reads_zero() {
        let snap = Histogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.percentile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap, HistogramSnapshot::empty());
    }

    #[test]
    fn since_subtracts_an_interval() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(1_000);
        h.record(2_000);
        h.record(4_000);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 3);
        assert_eq!(delta.sum, 7_000);
        assert!(delta.percentile(0.5) >= 2_000);
    }
}
