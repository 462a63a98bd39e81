//! Crate-wide model telemetry: how many graphs were encoded, how many
//! predictions served, how training and retraining behaved.
//!
//! The metrics are process-global (a [`Counter`] is an `Arc` handle, so
//! a `static` needs lazy construction) because encoding and prediction
//! happen on models and encoders that are cloned freely across threads
//! and engines — a per-model registry would fragment the counts the
//! operator actually asks about ("how many graphs has this process
//! encoded?"). Recording is one relaxed atomic op; the clock-reading
//! fit span respects the `GRAPHHD_TELEMETRY` knob.

use telemetry::{Counter, Histogram, Registry};

/// Handles to the crate's global metrics (see [`metrics`]).
#[derive(Debug)]
pub struct ModelMetrics {
    /// Graphs run through [`GraphEncoder::encode`](crate::GraphEncoder::encode)
    /// — training, serving and batch paths all funnel through it.
    pub graphs_encoded: Counter,
    /// Predictions decided, one per graph or query (`predict_encoded`
    /// counts one, `predict_many` one per graph of its batch).
    pub predictions: Counter,
    /// Models trained (`fit_encoded` completions).
    pub fits: Counter,
    /// Wall-clock nanoseconds per model fit (bundling, not encoding).
    pub fit_ns: Histogram,
    /// Retraining epochs executed across all
    /// [`retrain`](crate::GraphHdModel::retrain) calls.
    pub retrain_epochs: Counter,
    /// Distribution of per-epoch mistake counts — the epoch deltas: a
    /// falling p50 across a run means retraining is converging.
    pub retrain_epoch_errors: Histogram,
}

/// The crate's global metrics, created on first use.
#[must_use]
pub fn metrics() -> &'static ModelMetrics {
    static METRICS: std::sync::OnceLock<ModelMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ModelMetrics {
        graphs_encoded: Counter::new(),
        predictions: Counter::new(),
        fits: Counter::new(),
        fit_ns: Histogram::new(),
        retrain_epochs: Counter::new(),
        retrain_epoch_errors: Histogram::new(),
    })
}

/// Registers the crate's metrics into `registry` under `graphhd_*`
/// names (see `docs/TELEMETRY.md` for the catalog).
pub fn register_into(registry: &Registry) {
    let m = metrics();
    registry.register_counter(
        "graphhd_graphs_encoded",
        "Graphs encoded",
        &m.graphs_encoded,
    );
    registry.register_counter(
        "graphhd_predictions",
        "Predictions decided, one per graph",
        &m.predictions,
    );
    registry.register_counter("graphhd_fits", "Models trained", &m.fits);
    registry.register_histogram("graphhd_fit_ns", "Model fit wall-clock", &m.fit_ns);
    registry.register_counter(
        "graphhd_retrain_epochs",
        "Retraining epochs executed",
        &m.retrain_epochs,
    );
    registry.register_histogram(
        "graphhd_retrain_epoch_errors",
        "Mistakes per retraining epoch",
        &m.retrain_epoch_errors,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_a_singleton() {
        assert!(std::ptr::eq(metrics(), metrics()));
    }

    #[test]
    fn registration_renders_all_names() {
        let registry = Registry::new();
        register_into(&registry);
        let names = registry.names();
        for expected in [
            "graphhd_graphs_encoded",
            "graphhd_predictions",
            "graphhd_fits",
            "graphhd_fit_ns",
            "graphhd_retrain_epochs",
            "graphhd_retrain_epoch_errors",
        ] {
            assert!(names.iter().any(|n| n == expected), "{expected} missing");
        }
    }
}
