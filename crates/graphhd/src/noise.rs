//! Fault-injection utilities behind the robustness experiment (A3).
//!
//! HDC's holographic representation is claimed (Sections I–II of the
//! paper, citing Kanerva and Rahimi et al.) to degrade gracefully under
//! bit-level faults. These helpers quantify that claim for GraphHD by
//! flipping a controlled fraction of bits in class vectors and/or query
//! encodings and measuring the surviving accuracy.

use crate::GraphHdModel;
use graphcore::Graph;
use prng::{mix_seed, Xoshiro256PlusPlus};
use std::borrow::Borrow;

/// Accuracy of `model` on `(graphs, labels)` when `rate` of the class
/// vectors' bits are flipped. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `graphs.len() != labels.len()` or `rate` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use graphhd::{noise, GraphHdConfig, GraphHdModel};
/// use graphcore::generate;
///
/// let graphs: Vec<_> = (6..12)
///     .flat_map(|n| [generate::complete(n), generate::path(n)])
///     .collect();
/// let labels: Vec<u32> = (0..graphs.len()).map(|i| (i % 2) as u32).collect();
/// let model = GraphHdModel::fit(GraphHdConfig::default(), &graphs, &labels, 2)?;
/// let clean = noise::accuracy_under_model_noise(&model, &graphs, &labels, 0.0, 1);
/// assert_eq!(clean, 1.0);
/// # Ok::<(), graphhd::Error>(())
/// ```
#[must_use]
pub fn accuracy_under_model_noise<G: Borrow<Graph> + Sync>(
    model: &GraphHdModel,
    graphs: &[G],
    labels: &[u32],
    rate: f64,
    seed: u64,
) -> f64 {
    assert_eq!(graphs.len(), labels.len(), "graph/label count mismatch");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix_seed(seed, 0xFA_17));
    let noisy = model.with_noisy_class_vectors(rate, &mut rng);
    let predictions = noisy.predict_all(graphs);
    correct_fraction(&predictions, labels)
}

/// Accuracy when each *query* encoding is corrupted instead (models a
/// faulty sensor/encoder rather than faulty associative memory).
///
/// # Panics
///
/// Panics if `graphs.len() != labels.len()` or `rate` is outside `[0, 1]`.
#[must_use]
pub fn accuracy_under_query_noise<G: Borrow<Graph> + Sync>(
    model: &GraphHdModel,
    graphs: &[G],
    labels: &[u32],
    rate: f64,
    seed: u64,
) -> f64 {
    assert_eq!(graphs.len(), labels.len(), "graph/label count mismatch");
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix_seed(seed, 0x9E_11));
    let encodings = model.encoder().encode_all(graphs);
    // The encodings are owned here, so corrupt them in place instead of
    // copying each one through `with_noise`.
    let predictions: Vec<u32> = encodings
        .into_iter()
        .map(|mut hv| {
            hv.add_noise(rate, &mut rng);
            model.predict_encoded(&hv)
        })
        .collect();
    correct_fraction(&predictions, labels)
}

/// Sweeps noise rates, returning `(rate, model-noise accuracy,
/// query-noise accuracy)` rows — the data series of experiment A3.
///
/// # Panics
///
/// Panics if `graphs.len() != labels.len()` or a rate is outside `[0, 1]`.
#[must_use]
pub fn noise_sweep<G: Borrow<Graph> + Sync>(
    model: &GraphHdModel,
    graphs: &[G],
    labels: &[u32],
    rates: &[f64],
    seed: u64,
) -> Vec<(f64, f64, f64)> {
    rates
        .iter()
        .map(|&rate| {
            (
                rate,
                accuracy_under_model_noise(model, graphs, labels, rate, seed),
                accuracy_under_query_noise(model, graphs, labels, rate, seed),
            )
        })
        .collect()
}

fn correct_fraction(predictions: &[u32], labels: &[u32]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count() as f64
        / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphHdConfig;
    use graphcore::generate;

    fn separable_model() -> (GraphHdModel, Vec<Graph>, Vec<u32>) {
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for n in 6..16 {
            graphs.push(generate::complete(n));
            labels.push(0);
            graphs.push(generate::path(n));
            labels.push(1);
        }
        let model =
            GraphHdModel::fit(GraphHdConfig::default(), &graphs, &labels, 2).expect("valid inputs");
        (model, graphs, labels)
    }

    #[test]
    fn zero_noise_is_clean_accuracy() {
        let (model, graphs, labels) = separable_model();
        let clean = correct_fraction(&model.predict_all(&graphs), &labels);
        assert_eq!(
            accuracy_under_model_noise(&model, &graphs, &labels, 0.0, 7),
            clean
        );
        assert_eq!(
            accuracy_under_query_noise(&model, &graphs, &labels, 0.0, 7),
            clean
        );
    }

    #[test]
    fn graceful_degradation_up_to_heavy_noise() {
        let (model, graphs, labels) = separable_model();
        let at_10 = accuracy_under_model_noise(&model, &graphs, &labels, 0.10, 7);
        let at_45 = accuracy_under_model_noise(&model, &graphs, &labels, 0.45, 7);
        assert!(at_10 >= 0.9, "10% noise accuracy {at_10}");
        // At 45% flipped bits the signal is nearly gone but must stay
        // defined; at 50% it is chance by construction.
        assert!((0.0..=1.0).contains(&at_45));
    }

    #[test]
    fn sweep_returns_aligned_rows() {
        let (model, graphs, labels) = separable_model();
        let rows = noise_sweep(&model, &graphs, &labels, &[0.0, 0.2], 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0.0);
        assert!(rows[0].1 >= rows[1].1 - 0.2, "monotone-ish degradation");
    }

    #[test]
    fn determinism_per_seed() {
        let (model, graphs, labels) = separable_model();
        let a = accuracy_under_model_noise(&model, &graphs, &labels, 0.3, 42);
        let b = accuracy_under_model_noise(&model, &graphs, &labels, 0.3, 42);
        assert_eq!(a, b);
    }
}
