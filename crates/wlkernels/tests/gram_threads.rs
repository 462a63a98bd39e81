//! Regression for the load-imbalance bug of the pre-pool Gram code.
//!
//! The old `compute_gram_with_threads` dealt row `i` (cost O(n − i))
//! round-robin, so the first worker always drew the most expensive rows;
//! the port to the shared `parallel` pool removed the pattern. These tests pin
//! the contract the port must keep: the Gram matrix is **bit-identical**
//! for every thread count, including counts that do not divide the row
//! count.

use wlkernels::{compute_gram, compute_gram_with_threads, wl_features, KernelKind};

/// 23 graphs (deliberately prime, so no thread count in {2, 7} divides
/// it) of skewed sizes — the shape that exposed the old imbalance.
fn feature_set() -> Vec<wlkernels::SparseCounts> {
    let mut graphs = Vec::new();
    for i in 0..23usize {
        let n = 4 + (i * 7) % 19; // sizes 4..=22, scattered
        graphs.push(match i % 4 {
            0 => graphcore::generate::path(n),
            1 => graphcore::generate::cycle(n),
            2 => graphcore::generate::star(n),
            _ => graphcore::generate::complete(n.min(9)),
        });
    }
    assert_eq!(graphs.len(), 23);
    wl_features(&graphs, 2).maps
}

#[test]
fn gram_is_identical_for_non_divisible_thread_counts() {
    let features = feature_set();
    for kind in [KernelKind::Subtree, KernelKind::OptimalAssignment] {
        let serial = compute_gram_with_threads(&features, kind, 1);
        for threads in [2usize, 7] {
            let parallel = compute_gram_with_threads(&features, kind, threads);
            assert_eq!(
                serial, parallel,
                "gram diverged at {threads} threads ({kind:?})"
            );
        }
        // The global-pool entry point agrees too.
        assert_eq!(serial, compute_gram(&features, kind), "{kind:?}");
    }
}

#[test]
fn gram_values_are_exact_not_just_close() {
    // Spot-check against directly evaluated kernels: the parallel path
    // must place every cell, not merely produce a symmetric matrix.
    let features = feature_set();
    let gram = compute_gram_with_threads(&features, KernelKind::Subtree, 7);
    for i in 0..features.len() {
        for j in 0..features.len() {
            let expected = KernelKind::Subtree.eval(&features[i], &features[j]);
            assert_eq!(gram.get(i, j), expected, "cell ({i}, {j})");
        }
    }
}
