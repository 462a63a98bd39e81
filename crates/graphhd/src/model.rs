//! GraphHD training (Algorithm 1) and inference, plus the retraining
//! extension (future-work direction 1 of Section VII).

use crate::{Error, GraphEncoder, GraphHdConfig};
use graphcore::Graph;
use hdvec::backend::TILE_QUERIES;
use hdvec::{Accumulator, ClassMemory, Hypervector};
use parallel::Pool;
use std::borrow::Borrow;
use std::sync::Arc;

/// Outcome of a [`GraphHdModel::retrain`] run: mistakes per epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrainReport {
    /// Number of misclassified training samples in each epoch.
    pub epoch_errors: Vec<usize>,
}

impl RetrainReport {
    /// Whether the final epoch made no mistakes (training converged).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.epoch_errors.last().is_some_and(|&e| e == 0)
    }
}

/// A trained GraphHD model: one class vector per class (Section III-B /
/// Algorithm 1), with the underlying integer accumulators retained so the
/// retraining extension can update them. A model loaded from a snapshot
/// builds its accumulators at its first [`retrain`](Self::retrain).
///
/// A usage example lives in the [crate documentation](crate).
#[derive(Debug, Clone)]
pub struct GraphHdModel {
    encoder: GraphEncoder,
    /// One training counter per class; empty until the first retrain on
    /// a model loaded from class vectors.
    class_accumulators: Vec<Accumulator>,
    /// The single store of the trained class vectors, one word-interleaved
    /// lane per class, which every scan and decision runs on. Retraining
    /// rewrites the affected lanes in place via [`ClassMemory::set`].
    class_memory: ClassMemory,
}

impl GraphHdModel {
    /// Trains per Algorithm 1: encode every training graph, bundle the
    /// graph hypervectors of each class into its class vector. Accepts
    /// both `&[Graph]` and `&[&Graph]`.
    ///
    /// Encoding runs on the global pool; see
    /// [`fit_with_encoder`](Self::fit_with_encoder) to pin a pool.
    /// Bundling is then one serial pass over the encodings, so the
    /// result is bit-identical to a serial fit at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for inconsistent inputs.
    pub fn fit<G: Borrow<Graph> + Sync>(
        config: GraphHdConfig,
        graphs: &[G],
        labels: &[u32],
        num_classes: usize,
    ) -> Result<Self, Error> {
        let encoder = GraphEncoder::new(config)?;
        Self::fit_with_encoder(encoder, graphs, labels, num_classes)
    }

    /// As [`fit`](Self::fit), but training through an existing encoder —
    /// the entry point for pinning an explicit
    /// [`Pool`](parallel::Pool) via
    /// [`GraphEncoder::with_pool`]: the fitted model inherits the
    /// encoder's pool for all batch operations.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for inconsistent inputs.
    pub fn fit_with_encoder<G: Borrow<Graph> + Sync>(
        encoder: GraphEncoder,
        graphs: &[G],
        labels: &[u32],
        num_classes: usize,
    ) -> Result<Self, Error> {
        Self::fit_with_retraining(encoder, graphs, labels, num_classes, 0)
    }

    /// As [`fit_with_encoder`](Self::fit_with_encoder), followed by
    /// `epochs` perceptron [`retrain`](Self::retrain) epochs over the
    /// training set — encoded **once** and reused, since encoding
    /// dominates training cost. The single owner of the encode-once
    /// retraining sequence behind the harness classifier.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for inconsistent inputs.
    pub fn fit_with_retraining<G: Borrow<Graph> + Sync>(
        encoder: GraphEncoder,
        graphs: &[G],
        labels: &[u32],
        num_classes: usize,
        epochs: usize,
    ) -> Result<Self, Error> {
        crate::validate_fit_inputs(graphs.len(), labels, num_classes)?;
        let encodings = encoder.encode_all(graphs);
        let mut model = Self::fit_encoded(encoder, &encodings, labels, num_classes);
        if epochs > 0 {
            let _ = model.retrain(&encodings, labels, epochs);
        }
        Ok(model)
    }

    /// Trains from precomputed graph hypervectors (exposed so pipelines
    /// that already hold encodings — retraining loops, ablations — skip
    /// the redundant encode pass).
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch, labels are out of range, or
    /// `num_classes == 0` (a model needs at least one class-memory lane;
    /// callers going through [`fit`](Self::fit) are validated with
    /// errors).
    #[must_use]
    pub fn fit_encoded(
        encoder: GraphEncoder,
        encodings: &[Hypervector],
        labels: &[u32],
        num_classes: usize,
    ) -> Self {
        assert_eq!(encodings.len(), labels.len(), "encoding/label mismatch");
        crate::metrics::metrics().fits.inc();
        let _fit_span = crate::metrics::metrics().fit_ns.start_span();
        let dim = encoder.config().dim;
        // One bundle per class, filled in input order on the calling
        // thread. This costs more than encoding: on 2,048 classes of 4
        // small graphs each at d = 10,000 (2-vCPU AVX-512 Xeon), encoding
        // them took 33–43 ms and this function 95–116 ms. Zeroing the
        // 2,048 × 40 KB counters on cold pages took ~55 ms, the 8,192
        // serial adds ~37 ms (~4.6 µs each), the thresholds ~18 ms and
        // `ClassMemory::from_vectors` ~3 ms.
        let mut class_accumulators: Vec<Accumulator> = (0..num_classes)
            .map(|_| Accumulator::new(dim).expect("validated dimension"))
            .collect();
        for (hv, &label) in encodings.iter().zip(labels) {
            class_accumulators[label as usize].add(hv);
        }
        let tie = encoder.config().tie_break;
        let class_vectors: Vec<Hypervector> = class_accumulators
            .iter()
            .map(|acc| acc.to_hypervector(tie))
            .collect();
        let class_memory =
            ClassMemory::from_vectors(&class_vectors).expect("at least one validated class");
        Self {
            encoder,
            class_accumulators,
            class_memory,
        }
    }

    /// Rebuilds a model from already-thresholded class vectors — the
    /// snapshot load path. Predictions are bit-identical to the saved
    /// model. It keeps no training counters until the first
    /// [`retrain`](Self::retrain), which builds them from the class
    /// vectors (each counted once): it starts from ±1 counters rather
    /// than the original training counts (snapshots store the deployable
    /// artifact, not the training state).
    pub(crate) fn from_class_vectors(
        encoder: GraphEncoder,
        class_vectors: &[Hypervector],
    ) -> Result<Self, Error> {
        if class_vectors.is_empty() {
            return Err(Error::ZeroClasses);
        }
        let dim = encoder.config().dim;
        if let Some(hv) = class_vectors.iter().find(|hv| hv.dim() != dim) {
            return Err(Error::Hdv(hdvec::HdvError::DimensionMismatch {
                left: dim,
                right: hv.dim(),
            }));
        }
        let class_memory = ClassMemory::from_vectors(class_vectors)?;
        Ok(Self {
            encoder,
            class_accumulators: Vec::new(),
            class_memory,
        })
    }

    /// Builds ±1 training counters from the class memory (each class
    /// vector counted once) if the model has none: a loaded snapshot.
    fn ensure_counters(&mut self) {
        if self.class_accumulators.is_empty() {
            let dim = self.encoder.config().dim;
            self.class_accumulators = (0..self.num_classes())
                .map(|class| {
                    let mut acc = Accumulator::new(dim).expect("validated dimension");
                    acc.add(&self.class_memory.get(class));
                    acc
                })
                .collect();
        }
    }

    /// Pins all batch operations of this model to an explicit pool —
    /// the serving-engine hook for running a loaded snapshot on a
    /// dedicated thread pool instead of the process-wide global one.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.encoder = self.encoder.clone().with_pool(pool);
        self
    }

    /// The encoder (shared between training and inference, as the paper
    /// requires).
    #[must_use]
    pub fn encoder(&self) -> &GraphEncoder {
        &self.encoder
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.class_memory.len()
    }

    /// The trained class vectors, in class order, gathered out of the
    /// class memory's lanes.
    #[must_use]
    pub fn class_vectors(&self) -> Vec<Hypervector> {
        (0..self.num_classes())
            .map(|class| self.class_memory.get(class))
            .collect()
    }

    /// Cosine similarity of an already-encoded query to every class.
    ///
    /// Runs on the blocked [`ClassMemory`] engine: each query word is
    /// read once per 8-class block instead of once per class, and the
    /// XOR+popcount kernel underneath is SIMD-dispatched. Bit-identical
    /// to the naive per-class [`Hypervector::cosine`] loop.
    #[must_use]
    pub fn scores_encoded(&self, query: &Hypervector) -> Vec<f64> {
        self.class_memory.cosine_many(query)
    }

    /// Cosine similarity of a graph to every class vector.
    #[must_use]
    pub fn scores(&self, graph: &Graph) -> Vec<f64> {
        self.scores_encoded(&self.encoder.encode(graph))
    }

    /// Predicts the class of an already-encoded query: the class vector
    /// at the smallest Hamming distance, which is the most
    /// cosine-similar one (ties go to the lower class id).
    #[must_use]
    pub fn predict_encoded(&self, query: &Hypervector) -> u32 {
        crate::metrics::metrics().predictions.inc();
        self.class_memory
            .nearest(query)
            .expect("models always have >= 1 class") as u32
    }

    /// Predicts the class of a graph — `pred(y)` of Section III-C.
    #[must_use]
    pub fn predict(&self, graph: &Graph) -> u32 {
        self.predict_encoded(&self.encoder.encode(graph))
    }

    /// Predicts a slice of graphs on the calling thread: encodes them
    /// all, then decides them in one tiled class scan
    /// ([`ClassMemory::nearest_many`]), which reads the class memory
    /// once per tile of [`TILE_QUERIES`] graphs instead of once per
    /// graph. Identical to mapping [`predict`](Self::predict), and
    /// counted the same way: one prediction per graph.
    #[must_use]
    pub fn predict_many<G: Borrow<Graph>>(&self, graphs: &[G]) -> Vec<u32> {
        let encodings: Vec<Hypervector> = graphs
            .iter()
            .map(|g| self.encoder.encode(g.borrow()))
            .collect();
        let nearest = self.class_memory.nearest_many(&encodings);
        crate::metrics::metrics()
            .predictions
            .add(nearest.len() as u64);
        nearest
            .into_iter()
            .map(|class| class.expect("models always have >= 1 class") as u32)
            .collect()
    }

    /// Predicts many graphs in one parallel region on the model's pool,
    /// one task per tile of [`TILE_QUERIES`] graphs that
    /// [`predict_many`](Self::predict_many) encodes and decides in one
    /// class scan. Accepts both `&[Graph]` and `&[&Graph]`; the result is
    /// identical to mapping [`predict`](Self::predict).
    #[must_use]
    pub fn predict_all<G: Borrow<Graph> + Sync>(&self, graphs: &[G]) -> Vec<u32> {
        let tiles: Vec<&[G]> = graphs.chunks(TILE_QUERIES).collect();
        self.encoder
            .pool()
            .par_map(&tiles, |tile| self.predict_many(tile))
            .concat()
    }

    /// Predicts a batch of owned graphs: an alias of
    /// [`predict_all`](Self::predict_all), which takes `&[Graph]` as
    /// well. Prefer `predict_all`; this alias is due for removal.
    #[must_use]
    pub fn predict_batch(&self, graphs: &[Graph]) -> Vec<u32> {
        self.predict_all(graphs)
    }

    /// The retraining extension (Section VII, direction 1): perceptron-
    /// style refinement. For each epoch, every mispredicted training
    /// sample is *added* to its true class accumulator and *subtracted*
    /// from the wrongly predicted one; those two class vectors are
    /// re-thresholded before the next sample is scored.
    ///
    /// Returns the per-epoch mistake counts. Stops early when an epoch is
    /// mistake-free.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or a label is out of range.
    pub fn retrain(
        &mut self,
        encodings: &[Hypervector],
        labels: &[u32],
        epochs: usize,
    ) -> RetrainReport {
        assert_eq!(encodings.len(), labels.len(), "encoding/label mismatch");
        assert!(
            labels.iter().all(|&l| (l as usize) < self.num_classes()),
            "label out of range"
        );
        self.ensure_counters();
        let tie = self.encoder.config().tie_break;
        let mut epoch_errors = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut errors = 0usize;
            for (hv, &label) in encodings.iter().zip(labels) {
                let predicted = self.predict_encoded(hv);
                if predicted != label {
                    errors += 1;
                    self.class_accumulators[label as usize].add(hv);
                    self.class_accumulators[predicted as usize].sub(hv);
                    for class in [label as usize, predicted as usize] {
                        self.class_memory
                            .set(class, &self.class_accumulators[class].to_hypervector(tie));
                    }
                }
            }
            crate::metrics::metrics().retrain_epochs.inc();
            crate::metrics::metrics()
                .retrain_epoch_errors
                .record(errors as u64);
            epoch_errors.push(errors);
            if errors == 0 {
                break;
            }
        }
        RetrainReport { epoch_errors }
    }

    /// Replaces every class vector with a noisy copy (each bit flipped
    /// independently with probability `rate`) — the fault-injection hook
    /// behind the robustness experiment A3.
    #[must_use]
    pub fn with_noisy_class_vectors<R: prng::WordRng>(&self, rate: f64, rng: &mut R) -> Self {
        let mut noisy = self.clone();
        for class in 0..noisy.num_classes() {
            let mut class_vector = noisy.class_memory.get(class);
            class_vector.add_noise(rate, rng);
            noisy.class_memory.set(class, &class_vector);
        }
        noisy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::generate;
    use prng::Xoshiro256PlusPlus;

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

    fn fit_toy(dim: usize) -> (GraphHdModel, Vec<Graph>, Vec<u32>) {
        let (graphs, labels) = toy();
        let model = GraphHdModel::fit(
            GraphHdConfig::builder()
                .dim(dim)
                .build()
                .expect("valid dimension"),
            &graphs,
            &labels,
            2,
        )
        .expect("valid inputs");
        (model, graphs, labels)
    }

    #[test]
    fn fit_validates_inputs() {
        let g = generate::path(3);
        let config = GraphHdConfig::default();
        assert_eq!(
            GraphHdModel::fit::<&Graph>(config, &[], &[], 2).unwrap_err(),
            Error::EmptyTrainingSet
        );
        assert_eq!(
            GraphHdModel::fit(config, &[&g], &[], 2).unwrap_err(),
            Error::LengthMismatch {
                graphs: 1,
                labels: 0
            }
        );
        assert_eq!(
            GraphHdModel::fit(config, &[&g], &[7], 2).unwrap_err(),
            Error::LabelOutOfRange {
                index: 0,
                label: 7,
                num_classes: 2
            }
        );
        assert_eq!(
            GraphHdModel::fit(config, &[&g], &[0], 0).unwrap_err(),
            Error::ZeroClasses
        );
        assert_eq!(
            GraphHdModel::fit(
                GraphHdConfig {
                    dim: 0,
                    ..GraphHdConfig::default()
                },
                &[&g],
                &[0],
                1
            )
            .unwrap_err(),
            Error::ZeroDimension
        );
    }

    #[test]
    fn separable_task_is_learned() {
        let (model, graphs, labels) = fit_toy(10_000);
        let predictions = model.predict_all(&graphs);
        let accuracy = predictions
            .iter()
            .zip(&labels)
            .filter(|(p, l)| p == l)
            .count() as f64
            / labels.len() as f64;
        assert!(accuracy >= 0.9, "training accuracy {accuracy}");
        // Held-out sizes generalise.
        assert_eq!(model.predict(&generate::complete(20)), 0);
        assert_eq!(model.predict(&generate::path(20)), 1);
    }

    #[test]
    fn scores_align_with_prediction() {
        let (model, _, _) = fit_toy(4096);
        let g = generate::complete(11);
        let scores = model.scores(&g);
        assert_eq!(scores.len(), 2);
        let predicted = model.predict(&g);
        assert!(scores[predicted as usize] >= scores[1 - predicted as usize]);
    }

    #[test]
    fn training_is_deterministic() {
        let (a, _, _) = fit_toy(2048);
        let (b, _, _) = fit_toy(2048);
        assert_eq!(a.class_vectors(), b.class_vectors());
    }

    #[test]
    fn retrain_reduces_errors_on_hard_task() {
        // A harder task: same density, different motif structure.
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        for i in 0..40 {
            let base = generate::erdos_renyi(20, 0.15, &mut rng).expect("valid p");
            if i % 2 == 0 {
                graphs.push(base);
                labels.push(0u32);
            } else {
                graphs.push(generate::with_planted_triangles(&base, 6, &mut rng).expect("n >= 3"));
                labels.push(1u32);
            }
        }
        let config = GraphHdConfig::builder()
            .dim(4096)
            .build()
            .expect("valid dimension");
        let encoder = GraphEncoder::new(config).expect("valid config");
        let encodings = encoder.encode_all(&graphs);
        let mut model = GraphHdModel::fit_encoded(encoder, &encodings, &labels, 2);

        let before: usize = encodings
            .iter()
            .zip(&labels)
            .filter(|(hv, &l)| model.predict_encoded(hv) != l)
            .count();
        let report = model.retrain(&encodings, &labels, 20);
        let after: usize = encodings
            .iter()
            .zip(&labels)
            .filter(|(hv, &l)| model.predict_encoded(hv) != l)
            .count();
        assert!(
            after <= before,
            "retraining must not increase training errors ({before} -> {after})"
        );
        assert!(!report.epoch_errors.is_empty());
    }

    #[test]
    fn retrain_converged_flag() {
        let (mut model, graphs, labels) = fit_toy(4096);
        let encodings = model.encoder().encode_all(&graphs);
        let report = model.retrain(&encodings, &labels, 50);
        assert!(report.converged(), "separable task should converge");
    }

    #[test]
    fn predict_batch_equals_predict_all_refs() {
        let (model, graphs, _) = fit_toy(2048);
        let refs: Vec<&Graph> = graphs.iter().collect();
        assert_eq!(model.predict_batch(&graphs), model.predict_all(&refs));
        let serial: Vec<u32> = graphs.iter().map(|g| model.predict(g)).collect();
        assert_eq!(model.predict_batch(&graphs), serial);
    }

    #[test]
    fn fit_and_predict_are_bit_identical_across_thread_counts() {
        use parallel::Pool;
        use std::sync::Arc;
        let (graphs, labels) = toy();
        let config = GraphHdConfig::builder()
            .dim(2048)
            .build()
            .expect("valid dimension");
        let fit_at = |threads: usize| {
            let encoder = crate::GraphEncoder::new(config)
                .expect("valid config")
                .with_pool(Arc::new(Pool::with_threads(threads)));
            GraphHdModel::fit_with_encoder(encoder, &graphs, &labels, 2).expect("valid inputs")
        };
        let serial = fit_at(1);
        let serial_predictions = serial.predict_all(&graphs);
        for threads in [2usize, 3, 8] {
            let parallel = fit_at(threads);
            assert_eq!(
                parallel.class_vectors(),
                serial.class_vectors(),
                "fit diverged at {threads} threads"
            );
            assert_eq!(
                parallel.predict_all(&graphs),
                serial_predictions,
                "predict diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn many_class_fit_matches_per_class_bundling_reference() {
        // 300 classes with uneven sizes: class `c` gets `c % 5` samples
        // (so every fifth class stays empty), interleaved across classes.
        use hdvec::ItemMemory;
        use parallel::Pool;
        use std::sync::Arc;
        let dim = 256;
        let classes = 300usize;
        let items = ItemMemory::new(dim, 123).expect("valid dimension");
        let mut encodings = Vec::new();
        let mut labels = Vec::new();
        for round in 0..4 {
            for class in 0..classes {
                if round < class % 5 {
                    encodings.push(items.hypervector(encodings.len() as u64));
                    labels.push(class as u32);
                }
            }
        }
        let config = GraphHdConfig::builder()
            .dim(dim)
            .build()
            .expect("valid dimension");

        // Reference from public primitives: one accumulator per class,
        // `add` in input order, threshold with the config's tie rule.
        let mut reference: Vec<Accumulator> = (0..classes)
            .map(|_| Accumulator::new(dim).expect("valid dimension"))
            .collect();
        for (hv, &label) in encodings.iter().zip(&labels) {
            reference[label as usize].add(hv);
        }
        let reference_vectors: Vec<Hypervector> = reference
            .iter()
            .map(|acc| acc.to_hypervector(config.tie_break))
            .collect();

        for threads in [1usize, 2, 3, 8] {
            let encoder = GraphEncoder::new(config)
                .expect("valid config")
                .with_pool(Arc::new(Pool::with_threads(threads)));
            let model = GraphHdModel::fit_encoded(encoder, &encodings, &labels, classes);
            assert_eq!(
                model.class_vectors(),
                reference_vectors.as_slice(),
                "class vectors diverged at {threads} threads"
            );
            assert_eq!(
                model.class_accumulators, reference,
                "class accumulators diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn retrain_matches_serial_reference_at_every_thread_count() {
        use parallel::Pool;
        use std::sync::Arc;
        for classes in [2usize, 5] {
            // A hard (non-separable at this dimension) task so retraining
            // makes many updates: class `c` is an Erdős–Rényi graph with
            // `c + 3` planted triangles (none for class 0).
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
            let mut graphs = Vec::new();
            let mut labels = Vec::new();
            for i in 0..30 * classes {
                let class = i % classes;
                let base = generate::erdos_renyi(16, 0.2, &mut rng).expect("valid p");
                if class == 0 {
                    graphs.push(base);
                } else {
                    graphs.push(
                        generate::with_planted_triangles(&base, class + 3, &mut rng)
                            .expect("n >= 3"),
                    );
                }
                labels.push(class as u32);
            }
            let config = GraphHdConfig::builder()
                .dim(1024)
                .build()
                .expect("valid dimension");
            let encoder = crate::GraphEncoder::new(config).expect("valid config");
            let encodings = encoder.encode_all(&graphs);

            // Serial reference: the plain perceptron loop, verbatim.
            let mut reference =
                GraphHdModel::fit_encoded(encoder.clone(), &encodings, &labels, classes);
            let tie = config.tie_break;
            let mut reference_errors = Vec::new();
            for _ in 0..8 {
                let mut errors = 0usize;
                for (hv, &label) in encodings.iter().zip(&labels) {
                    let predicted = reference.predict_encoded(hv);
                    if predicted != label {
                        errors += 1;
                        reference.class_accumulators[label as usize].add(hv);
                        reference.class_accumulators[predicted as usize].sub(hv);
                        reference.class_memory.set(
                            label as usize,
                            &reference.class_accumulators[label as usize].to_hypervector(tie),
                        );
                        reference.class_memory.set(
                            predicted as usize,
                            &reference.class_accumulators[predicted as usize].to_hypervector(tie),
                        );
                    }
                }
                reference_errors.push(errors);
                if errors == 0 {
                    break;
                }
            }
            assert!(reference_errors[0] > 0, "classes {classes}: task too easy");

            for threads in [1usize, 2, 3, 8] {
                let pooled = encoder
                    .clone()
                    .with_pool(Arc::new(Pool::with_threads(threads)));
                let mut model = GraphHdModel::fit_encoded(pooled, &encodings, &labels, classes);
                let report = model.retrain(&encodings, &labels, 8);
                assert_eq!(
                    report.epoch_errors, reference_errors,
                    "epoch errors diverged at {classes} classes, {threads} threads"
                );
                assert_eq!(
                    model.class_vectors(),
                    reference.class_vectors(),
                    "class vectors diverged at {classes} classes, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn loaded_model_retrains_from_counters_built_on_demand() {
        // A hard task, so retraining a loaded model makes updates.
        let classes = 4usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(47);
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..24 * classes {
            let class = i % classes;
            let base = generate::erdos_renyi(16, 0.2, &mut rng).expect("valid p");
            graphs.push(
                generate::with_planted_triangles(&base, class + 2, &mut rng).expect("n >= 3"),
            );
            labels.push(class as u32);
        }
        let config = GraphHdConfig::builder()
            .dim(1024)
            .build()
            .expect("valid dimension");
        let fitted = GraphHdModel::fit(config, &graphs, &labels, classes).expect("valid inputs");
        let encodings = fitted.encoder().encode_all(&graphs);

        let mut bytes = Vec::new();
        fitted.save_to(&mut bytes).expect("in-memory save");
        let mut loaded = GraphHdModel::load_from(&mut bytes.as_slice()).expect("load");
        assert!(
            loaded.class_accumulators.is_empty(),
            "a load builds no training counters"
        );
        // The counters a load built before: each class vector once.
        let own_class: Vec<u32> = (0..classes as u32).collect();
        let mut reference = GraphHdModel::fit_encoded(
            loaded.encoder().clone(),
            &loaded.class_vectors(),
            &own_class,
            classes,
        );
        for round in 0..2 {
            let report = loaded.retrain(&encodings, &labels, 3);
            assert_eq!(
                report,
                reference.retrain(&encodings, &labels, 3),
                "epoch errors diverged in round {round}"
            );
            assert!(report.epoch_errors[0] > 0, "task too easy");
            assert_eq!(
                loaded.class_vectors(),
                reference.class_vectors(),
                "class vectors diverged in round {round}"
            );
        }
    }

    #[test]
    fn scores_encoded_matches_naive_cosine_loop() {
        // The blocked ClassMemory engine must be bit-identical to the
        // per-class cosine loop at 1, 2 and 23 classes (partial block,
        // exact block boundary crossed at 8/16, odd tail).
        use hdvec::ItemMemory;
        for &classes in &[1usize, 2, 23] {
            let dim = 1024;
            let items = ItemMemory::new(dim, 77).expect("valid dimension");
            let encodings: Vec<Hypervector> = (0..4 * classes as u64)
                .map(|i| items.hypervector(i))
                .collect();
            let labels: Vec<u32> = (0..encodings.len()).map(|i| (i % classes) as u32).collect();
            let encoder = GraphEncoder::new(
                GraphHdConfig::builder()
                    .dim(dim)
                    .build()
                    .expect("valid dimension"),
            )
            .expect("valid config");
            let model = GraphHdModel::fit_encoded(encoder, &encodings, &labels, classes);
            let query = items.hypervector(1_000_000);
            let naive: Vec<f64> = model
                .class_vectors()
                .iter()
                .map(|c| c.cosine(&query))
                .collect();
            assert_eq!(model.scores_encoded(&query), naive, "classes {classes}");
            // First-maximum scan: the documented tie-to-lower-id rule.
            let mut expected = 0usize;
            for (i, &s) in naive.iter().enumerate().skip(1) {
                if s > naive[expected] {
                    expected = i;
                }
            }
            assert_eq!(model.predict_encoded(&query), expected as u32);
        }
    }

    #[test]
    fn identical_class_vectors_tie_to_the_lower_class_id() {
        // Twin classes share one encoding, so a query equal to it sits at
        // distance 0 from both. The lower id must win on every decision
        // path, also when the twins sit in different 8-lane blocks.
        use hdvec::ItemMemory;
        let dim = 1024;
        let config = GraphHdConfig::builder()
            .dim(dim)
            .build()
            .expect("valid dimension");
        let encoder = GraphEncoder::new(config).expect("valid config");
        let graph = generate::path(7);
        let twin = encoder.encode(&graph);
        let items = ItemMemory::new(dim, 91).expect("valid dimension");
        for (classes, low, high) in [(2usize, 0usize, 1usize), (9, 1, 4), (9, 1, 8), (23, 1, 8)] {
            let encodings: Vec<Hypervector> = (0..classes)
                .map(|c| {
                    if c == low || c == high {
                        twin.clone()
                    } else {
                        items.hypervector(c as u64)
                    }
                })
                .collect();
            let labels: Vec<u32> = (0..classes as u32).collect();
            let model = GraphHdModel::fit_encoded(encoder.clone(), &encodings, &labels, classes);
            let scores = model.scores_encoded(&twin);
            assert_eq!(scores[low], 1.0, "classes {classes}");
            assert_eq!(scores[low], scores[high], "classes {classes}");
            assert_eq!(
                model.predict_encoded(&twin),
                low as u32,
                "classes {classes}"
            );
            assert_eq!(
                model.predict_all(&[&graph, &graph, &graph]),
                vec![low as u32; 3],
                "classes {classes}"
            );
        }
    }

    #[test]
    fn predict_all_matches_predict_at_many_classes() {
        // 75 classes at d = 1,000: a partial last block and a partial
        // last word. Classes 2/73 and 40/44 are twins.
        use parallel::Pool;
        let config = GraphHdConfig::builder()
            .dim(1000)
            .build()
            .expect("valid dimension");
        let encoder = GraphEncoder::new(config).expect("valid config");
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(75);
        let mut random_graph = || generate::erdos_renyi(9, 0.35, &mut rng).expect("valid p");
        let class_graphs: Vec<Graph> = (0..75).map(|_| random_graph()).collect();
        let encodings: Vec<Hypervector> = (0..75)
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
        let mut graphs: Vec<Graph> = [2, 40, 73, 44]
            .iter()
            .map(|&class| class_graphs[class].clone())
            .collect();
        for class in (4..64).step_by(2) {
            graphs.push(class_graphs[class].clone());
            graphs.push(random_graph());
        }
        for threads in [1usize, 2, 3, 8] {
            let pooled = encoder
                .clone()
                .with_pool(Arc::new(Pool::with_threads(threads)));
            let model = GraphHdModel::fit_encoded(pooled, &encodings, &labels, 75);
            let expected: Vec<u32> = graphs.iter().map(|g| model.predict(g)).collect();
            assert_eq!(&expected[..2], &[2, 40], "twins tie to the lower id");
            for count in [0usize, 1, 7, 8, 9, 33, 64] {
                assert_eq!(
                    model.predict_all(&graphs[..count]),
                    &expected[..count],
                    "{count} graphs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn noise_injection_keeps_dimensions() {
        let (model, _, _) = fit_toy(1024);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let noisy = model.with_noisy_class_vectors(0.2, &mut rng);
        assert_eq!(noisy.num_classes(), model.num_classes());
        for (a, b) in noisy.class_vectors().iter().zip(&model.class_vectors()) {
            assert_eq!(a.dim(), b.dim());
            assert_ne!(a, b, "20% noise should change the vectors");
        }
    }

    #[test]
    fn robustness_to_moderate_noise() {
        // The HDC robustness claim: 10% of flipped class-vector bits
        // barely moves accuracy on a separable task.
        let (model, graphs, labels) = fit_toy(10_000);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let noisy = model.with_noisy_class_vectors(0.10, &mut rng);
        let predictions = noisy.predict_all(&graphs);
        let accuracy = predictions
            .iter()
            .zip(&labels)
            .filter(|(p, l)| p == l)
            .count() as f64
            / labels.len() as f64;
        assert!(accuracy >= 0.9, "accuracy under noise {accuracy}");
    }
}
