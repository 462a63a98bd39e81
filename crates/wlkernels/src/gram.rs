//! Gram (kernel) matrix computation, parallelised across rows on the
//! shared `parallel` pool.

use crate::SparseCounts;
use parallel::Pool;

/// Which WL kernel to evaluate on a pair of feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// 1-WL subtree kernel: dot product of label histograms.
    Subtree,
    /// WL optimal assignment kernel: histogram intersection (sum of
    /// minima) over the WL label hierarchy.
    OptimalAssignment,
}

impl KernelKind {
    /// Evaluates the kernel on two feature maps.
    #[must_use]
    pub fn eval(&self, a: &SparseCounts, b: &SparseCounts) -> f64 {
        match self {
            KernelKind::Subtree => a.dot(b) as f64,
            KernelKind::OptimalAssignment => a.min_intersection(b) as f64,
        }
    }

    /// Evaluates one feature map against a block of candidates, writing
    /// `k(a, others[j])` into `out[j]` — the row-major analogue of
    /// hdvec's blocked `ClassMemory` scoring: the kernel variant is
    /// resolved once per row instead of once per cell, and the row map
    /// `a` stays hot in cache while the candidates stream past. This is
    /// the single inner loop the Gram computation runs on.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != others.len()`.
    pub fn eval_row(&self, a: &SparseCounts, others: &[SparseCounts], out: &mut [f64]) {
        assert_eq!(
            others.len(),
            out.len(),
            "gram row needs one output cell per candidate"
        );
        match self {
            KernelKind::Subtree => {
                for (cell, b) in out.iter_mut().zip(others) {
                    *cell = a.dot(b) as f64;
                }
            }
            KernelKind::OptimalAssignment => {
                for (cell, b) in out.iter_mut().zip(others) {
                    *cell = a.min_intersection(b) as f64;
                }
            }
        }
    }
}

/// A dense symmetric kernel matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct GramMatrix {
    n: usize,
    values: Vec<f64>,
}

impl GramMatrix {
    /// Matrix order (number of graphs).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The kernel value k(i, j).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "gram index out of bounds");
        self.values[i * self.n + j]
    }

    /// Cosine normalization: k'(i, j) = k(i, j) / √(k(i,i)·k(j,j)).
    /// Entries with a zero diagonal are mapped to 0.
    #[must_use]
    pub fn normalized(&self) -> GramMatrix {
        let diag: Vec<f64> = (0..self.n).map(|i| self.get(i, i)).collect();
        let mut values = vec![0.0f64; self.n * self.n];
        for i in 0..self.n {
            for j in 0..self.n {
                let denom = (diag[i] * diag[j]).sqrt();
                values[i * self.n + j] = if denom > 0.0 {
                    self.values[i * self.n + j] / denom
                } else {
                    0.0
                };
            }
        }
        GramMatrix { n: self.n, values }
    }

    /// Builds a matrix directly from row-major values (mainly for tests).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n * n`.
    #[must_use]
    pub fn from_values(n: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), n * n, "gram matrix needs n*n values");
        Self { n, values }
    }
}

/// Computes the full Gram matrix of `features` under `kind` on the
/// process-wide [`Pool::global`] (sized by `GRAPHHD_THREADS` or the
/// machine).
#[must_use]
pub fn compute_gram(features: &[SparseCounts], kind: KernelKind) -> GramMatrix {
    compute_gram_with_pool(features, kind, Pool::global())
}

/// Computes the Gram matrix on an explicit pool.
///
/// Rows are split into more chunks than the pool has threads, and each
/// idle thread claims the next unclaimed chunk. Row `i` costs O(n − i),
/// so claiming on demand rebalances that skew (the previous round-robin
/// static dealing systematically overloaded the first worker). Only the
/// upper triangle is computed and then mirrored, and the result is
/// bit-identical for every thread count because every cell is an
/// independent pure function of `features`.
#[must_use]
pub fn compute_gram_with_pool(
    features: &[SparseCounts],
    kind: KernelKind,
    pool: &Pool,
) -> GramMatrix {
    let n = features.len();
    let mut values = vec![0.0f64; n * n];
    if n == 0 {
        return GramMatrix { n, values };
    }
    pool.par_chunks_mut(&mut values, n, |i, row| {
        // One blocked row evaluation per row: parallel over rows on the
        // pool, streaming multi-candidate evaluation within.
        kind.eval_row(&features[i], &features[i..], &mut row[i..]);
    });
    // Mirror the upper triangle.
    for i in 0..n {
        for j in (i + 1)..n {
            values[j * n + i] = values[i * n + j];
        }
    }
    GramMatrix { n, values }
}

/// Computes the Gram matrix with an explicit thread count, on a transient
/// pool of exactly that parallelism — the deterministic-benchmarking and
/// regression-test entry point. Production paths should prefer
/// [`compute_gram`] (shared global pool) or
/// [`compute_gram_with_pool`].
///
/// # Panics
///
/// Panics if `threads == 0`.
#[must_use]
pub fn compute_gram_with_threads(
    features: &[SparseCounts],
    kind: KernelKind,
    threads: usize,
) -> GramMatrix {
    assert!(threads > 0, "need at least one thread");
    compute_gram_with_pool(features, kind, &Pool::with_threads(threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wl_features;
    use graphcore::generate;

    fn toy_features() -> Vec<SparseCounts> {
        let graphs = vec![
            generate::path(5),
            generate::cycle(5),
            generate::star(5),
            generate::complete(5),
            generate::path(7),
        ];
        wl_features(&graphs, 2).maps
    }

    #[test]
    fn gram_is_symmetric_with_positive_diagonal() {
        for kind in [KernelKind::Subtree, KernelKind::OptimalAssignment] {
            let features = toy_features();
            let gram = compute_gram(&features, kind);
            assert_eq!(gram.n(), 5);
            for i in 0..5 {
                assert!(gram.get(i, i) > 0.0);
                for j in 0..5 {
                    assert_eq!(gram.get(i, j), gram.get(j, i));
                }
            }
        }
    }

    #[test]
    fn eval_row_matches_per_cell_eval() {
        let features = toy_features();
        for kind in [KernelKind::Subtree, KernelKind::OptimalAssignment] {
            for i in 0..features.len() {
                let mut row = vec![0.0f64; features.len()];
                kind.eval_row(&features[i], &features, &mut row);
                for (j, &cell) in row.iter().enumerate() {
                    assert_eq!(cell, kind.eval(&features[i], &features[j]), "({i}, {j})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output cell per candidate")]
    fn eval_row_length_mismatch_panics() {
        let features = toy_features();
        let mut row = vec![0.0f64; 2];
        KernelKind::Subtree.eval_row(&features[0], &features, &mut row);
    }

    #[test]
    fn thread_counts_agree() {
        let features = toy_features();
        let serial = compute_gram_with_threads(&features, KernelKind::Subtree, 1);
        let parallel = compute_gram_with_threads(&features, KernelKind::Subtree, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn normalization_puts_ones_on_diagonal() {
        let features = toy_features();
        let gram = compute_gram(&features, KernelKind::OptimalAssignment).normalized();
        for i in 0..gram.n() {
            assert!((gram.get(i, i) - 1.0).abs() < 1e-12);
            for j in 0..gram.n() {
                assert!(gram.get(i, j) <= 1.0 + 1e-12);
                assert!(gram.get(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn identical_graphs_have_maximal_normalized_similarity() {
        let graphs = vec![generate::path(6), generate::path(6), generate::star(6)];
        let features = wl_features(&graphs, 3);
        let gram = compute_gram(&features.maps, KernelKind::Subtree).normalized();
        assert!((gram.get(0, 1) - 1.0).abs() < 1e-12);
        assert!(gram.get(0, 2) < 1.0);
    }

    #[test]
    fn subtree_known_answer() {
        // P3 vs K3, h = 1 (see refine.rs known-answer test for the math).
        let graphs = vec![generate::path(3), generate::cycle(3)];
        let features = wl_features(&graphs, 1);
        let gram = compute_gram(&features.maps, KernelKind::Subtree);
        assert_eq!(gram.get(0, 1), 12.0);
        assert_eq!(gram.get(0, 0), 14.0);
        assert_eq!(gram.get(1, 1), 18.0);
        let oa = compute_gram(&features.maps, KernelKind::OptimalAssignment);
        assert_eq!(oa.get(0, 1), 4.0);
    }

    #[test]
    fn empty_input_yields_empty_gram() {
        let gram = compute_gram(&[], KernelKind::Subtree);
        assert_eq!(gram.n(), 0);
    }

    #[test]
    fn subtree_gram_is_positive_semidefinite_by_construction() {
        // The subtree kernel is an explicit dot product, so x^T K x >= 0
        // for a few random x.
        let features = toy_features();
        let gram = compute_gram(&features, KernelKind::Subtree);
        let n = gram.n();
        let xs = [
            vec![1.0, -1.0, 0.5, -0.5, 0.25],
            vec![0.0, 1.0, -2.0, 1.0, 0.0],
        ];
        for x in xs {
            let mut quad = 0.0;
            for i in 0..n {
                for j in 0..n {
                    quad += x[i] * x[j] * gram.get(i, j);
                }
            }
            assert!(quad >= -1e-9, "quadratic form {quad} negative");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let gram = GramMatrix::from_values(1, vec![1.0]);
        let _ = gram.get(0, 1);
    }
}
