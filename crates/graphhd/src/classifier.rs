//! The suite-wide classifier interface and GraphHD's implementation of
//! it.
//!
//! [`GraphClassifier`] used to live in `datasets::harness`, which meant
//! serving code had to pull in the whole benchmark layer to program
//! against "a thing that classifies graphs". It now lives here, next to
//! the model it abstracts, speaking plain graph slices; `datasets`
//! re-exports it for compatibility and its CV driver, the serving
//! engine, baselines and examples all program against this one trait.

use crate::{EncoderKind, Error, GraphEncoder, GraphHdConfig, GraphHdModel};
use graphcore::Graph;
use parallel::Pool;
use std::sync::Arc;

/// A graph classification method under the paper's protocol.
///
/// `fit` trains **from scratch** — implementations must discard any state
/// from a previous call, because the CV driver reuses one instance across
/// folds. Both methods speak `&[&Graph]`, so callers select subsets
/// (folds, batches) without cloning graphs and without this crate
/// depending on any dataset container.
pub trait GraphClassifier {
    /// Human-readable method name (used in tables, e.g. `"GraphHD"`).
    fn name(&self) -> &str;

    /// Trains on `graphs`/`labels` with labels in `0..num_classes`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for inconsistent inputs (empty training set,
    /// length mismatch, out-of-range labels, zero classes).
    fn fit(&mut self, graphs: &[&Graph], labels: &[u32], num_classes: usize) -> Result<(), Error>;

    /// Predicts class labels for `graphs`. Called only after a
    /// successful `fit`; implementations may panic otherwise.
    fn predict(&self, graphs: &[&Graph]) -> Vec<u32>;
}

/// Shared input validation for [`GraphClassifier::fit`]
/// implementations: every classifier in the suite (and any downstream
/// one) rejects inconsistent training sets with identical errors.
///
/// # Errors
///
/// [`Error::ZeroClasses`], [`Error::EmptyTrainingSet`],
/// [`Error::LengthMismatch`] or [`Error::LabelOutOfRange`], checked in
/// that order.
pub fn validate_fit_inputs(
    graph_count: usize,
    labels: &[u32],
    num_classes: usize,
) -> Result<(), Error> {
    if num_classes == 0 {
        return Err(Error::ZeroClasses);
    }
    if graph_count == 0 {
        return Err(Error::EmptyTrainingSet);
    }
    if graph_count != labels.len() {
        return Err(Error::LengthMismatch {
            graphs: graph_count,
            labels: labels.len(),
        });
    }
    if let Some((index, &label)) = labels
        .iter()
        .enumerate()
        .find(|(_, &l)| l as usize >= num_classes)
    {
        return Err(Error::LabelOutOfRange {
            index,
            label,
            num_classes,
        });
    }
    Ok(())
}

/// GraphHD as a [`GraphClassifier`], with optional retraining epochs (the
/// paper's future-work extension, off by default to match the baseline
/// protocol of Section V).
///
/// # Examples
///
/// ```
/// use graphcore::generate;
/// use graphhd::{GraphClassifier, GraphHdClassifier, GraphHdConfig};
///
/// let graphs: Vec<_> = (6..14)
///     .flat_map(|n| [generate::complete(n), generate::path(n)])
///     .collect();
/// let refs: Vec<&_> = graphs.iter().collect();
/// let labels: Vec<u32> = (0..graphs.len()).map(|i| (i % 2) as u32).collect();
///
/// let config = GraphHdConfig::builder().dim(2048).build()?;
/// let mut clf = GraphHdClassifier::new(config);
/// clf.fit(&refs, &labels, 2)?;
/// assert_eq!(clf.predict(&refs[..2]), vec![0, 1]);
/// # Ok::<(), graphhd::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphHdClassifier {
    config: GraphHdConfig,
    retrain_epochs: usize,
    /// The pool [`with_pool`](Self::with_pool) pinned; `None` runs on
    /// the process-wide global pool.
    pool: Option<Arc<Pool>>,
    model: Option<GraphHdModel>,
    name: String,
}

/// Table name for a configuration: the plain centrality recipe keeps the
/// paper's `"GraphHD"` label, the alternative strategies get a bracketed
/// suffix, and retraining appends `+retrain` as before.
fn display_name(config: &GraphHdConfig, retrain_epochs: usize) -> String {
    let base = match config.encoder {
        EncoderKind::Centrality => "GraphHD",
        EncoderKind::VertexSimilarity { .. } => "GraphHD[vs]",
        EncoderKind::EdgeWeighted { .. } => "GraphHD[ew]",
    };
    if retrain_epochs > 0 {
        format!("{base}+retrain")
    } else {
        base.to_owned()
    }
}

impl GraphHdClassifier {
    /// Creates a classifier with the given GraphHD configuration.
    #[must_use]
    pub fn new(config: GraphHdConfig) -> Self {
        Self {
            config,
            retrain_epochs: 0,
            pool: None,
            model: None,
            name: display_name(&config, 0),
        }
    }

    /// Enables the retraining extension with the given epoch budget.
    #[must_use]
    pub fn with_retraining(mut self, epochs: usize) -> Self {
        self.retrain_epochs = epochs;
        self.name = display_name(&self.config, epochs);
        self
    }

    /// Pins training and inference to an explicit [`Pool`] (the default
    /// is the process-wide global pool). Results are bit-identical either
    /// way; this only controls the parallelism degree.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &GraphHdConfig {
        &self.config
    }

    /// The trained model, if fitted.
    #[must_use]
    pub fn model(&self) -> Option<&GraphHdModel> {
        self.model.as_ref()
    }
}

impl Default for GraphHdClassifier {
    fn default() -> Self {
        Self::new(GraphHdConfig::default())
    }
}

impl GraphClassifier for GraphHdClassifier {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, graphs: &[&Graph], labels: &[u32], num_classes: usize) -> Result<(), Error> {
        let mut encoder = GraphEncoder::new(self.config)?;
        if let Some(pool) = &self.pool {
            encoder = encoder.with_pool(Arc::clone(pool));
        }
        let model = GraphHdModel::fit_with_retraining(
            encoder,
            graphs,
            labels,
            num_classes,
            self.retrain_epochs,
        )?;
        self.model = Some(model);
        Ok(())
    }

    fn predict(&self, graphs: &[&Graph]) -> Vec<u32> {
        let model = self
            .model
            .as_ref()
            .expect("fit must be called before predict");
        model.predict_all(graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::generate;

    fn toy() -> (Vec<Graph>, Vec<u32>) {
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for n in 6..16 {
            graphs.push(generate::complete(n));
            labels.push(0);
            graphs.push(generate::path(n));
            labels.push(1);
        }
        (graphs, labels)
    }

    #[test]
    fn fit_and_predict_through_the_trait() {
        let (graphs, labels) = toy();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let config = GraphHdConfig::builder()
            .dim(4096)
            .build()
            .expect("valid dimension");
        let mut clf = GraphHdClassifier::new(config);
        clf.fit(&refs, &labels, 2).expect("consistent inputs");
        let predictions = clf.predict(&refs);
        let accuracy = predictions
            .iter()
            .zip(&labels)
            .filter(|(p, l)| p == l)
            .count() as f64
            / labels.len() as f64;
        assert!(accuracy >= 0.9, "training accuracy {accuracy}");
        // The trait predictions match the underlying model's.
        let model = clf.model().expect("fitted");
        assert_eq!(predictions, model.predict_all(&graphs));
    }

    #[test]
    fn fit_surfaces_validation_errors_instead_of_panicking() {
        // Regression (reshaped from the old panic-based test): both the
        // plain and the encode-once retraining branches reject bad input
        // through the unified error surface.
        let mut plain = GraphHdClassifier::default();
        assert_eq!(plain.fit(&[], &[], 2).unwrap_err(), Error::EmptyTrainingSet);
        let mut retraining = GraphHdClassifier::default().with_retraining(2);
        assert_eq!(
            retraining.fit(&[], &[], 2).unwrap_err(),
            Error::EmptyTrainingSet
        );
        let g = generate::path(3);
        assert_eq!(
            retraining.fit(&[&g], &[7], 2).unwrap_err(),
            Error::LabelOutOfRange {
                index: 0,
                label: 7,
                num_classes: 2
            }
        );
        assert!(retraining.model().is_none());
    }

    #[test]
    fn retraining_variant_renames_itself() {
        let clf = GraphHdClassifier::default().with_retraining(5);
        assert_eq!(clf.name(), "GraphHD+retrain");
        assert_eq!(GraphHdClassifier::default().name(), "GraphHD");
    }

    #[test]
    fn alternative_strategies_rename_the_classifier() {
        let vs = GraphHdConfig::builder()
            .with_encoder(EncoderKind::vertex_similarity())
            .build()
            .expect("valid config");
        assert_eq!(GraphHdClassifier::new(vs).name(), "GraphHD[vs]");
        let ew = GraphHdConfig::builder()
            .with_encoder(EncoderKind::edge_weighted())
            .build()
            .expect("valid config");
        assert_eq!(
            GraphHdClassifier::new(ew).with_retraining(3).name(),
            "GraphHD[ew]+retrain"
        );
    }

    #[test]
    #[should_panic(expected = "fit must be called")]
    fn predict_before_fit_panics() {
        let clf = GraphHdClassifier::default();
        let _ = clf.predict(&[]);
    }
}
