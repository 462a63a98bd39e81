//! Differential pinning of the SIMD backends against the scalar
//! reference.
//!
//! Every kernel ported to the runtime-dispatched backend — fused
//! XOR+popcount `hamming`, `bind`, the accumulator counter update and
//! threshold, component packing, and the blocked `ClassMemory` scoring —
//! is property-checked **bit-identical** between `Backend::scalar()` and
//! every SIMD backend in `Backend::available()` (AVX2, plus AVX-512 on
//! hosts with VPOPCNTDQ; on a scalar-only host the comparisons
//! degenerate to self-checks and the suite still passes). The class-scan
//! kernel is checked at every tile size from one query to
//! `TILE_QUERIES`. The dimension grid covers both word-boundary
//! edges and the paper-scale sizes: {1, 63, 64, 65, 127, 128, 10_000,
//! 100_003}.

use hdvec::backend::{Backend, TieWords, BLOCK_LANES, TILE_QUERIES};
use hdvec::{Accumulator, ClassMemory, Hypervector, ItemMemory, TieBreak};
use proptest::prelude::*;

/// Word-boundary dimensions plus the paper's d=10k and a large prime.
const DIMS: [usize; 8] = [1, 63, 64, 65, 127, 128, 10_000, 100_003];

fn random_vector(dim: usize, seed: u64) -> Hypervector {
    ItemMemory::new(dim, seed)
        .expect("non-zero dimension")
        .hypervector(0)
}

/// Packed words of a random vector (tail bits clear by construction).
fn random_words(dim: usize, seed: u64) -> Vec<u64> {
    random_vector(dim, seed).words().to_vec()
}

fn simd_backends() -> Vec<Backend> {
    Backend::available()
        .into_iter()
        .filter(|b| b.is_simd())
        .collect()
}

proptest! {
    #[test]
    fn hamming_and_popcount_match_scalar(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let a = random_words(dim, seed);
        let b = random_words(dim, seed ^ 0xD1FF);
        let reference = Backend::scalar();
        for backend in simd_backends() {
            prop_assert_eq!(
                backend.hamming(&a, &b),
                reference.hamming(&a, &b),
                "{} hamming dim {}", backend.name(), dim
            );
            prop_assert_eq!(
                backend.popcount(&a),
                reference.popcount(&a),
                "{} popcount dim {}", backend.name(), dim
            );
        }
    }

    #[test]
    fn bind_matches_scalar(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let a = random_words(dim, seed);
        let b = random_words(dim, seed ^ 0xB1D);
        let mut expected = a.clone();
        Backend::scalar().xor_assign(&mut expected, &b);
        for backend in simd_backends() {
            let mut got = a.clone();
            backend.xor_assign(&mut got, &b);
            prop_assert_eq!(&got, &expected, "{} xor dim {}", backend.name(), dim);
        }
    }

    #[test]
    fn add_weighted_matches_scalar(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
        weight in -31i32..=31,
        start in -5i32..=5,
    ) {
        let dim = DIMS[dim_idx];
        let packed = random_words(dim, seed);
        let mut expected = vec![start; dim];
        Backend::scalar().add_weighted(&mut expected, &packed, weight);
        for backend in simd_backends() {
            let mut got = vec![start; dim];
            backend.add_weighted(&mut got, &packed, weight);
            prop_assert_eq!(&got, &expected, "{} add_weighted dim {}", backend.name(), dim);
        }
    }

    #[test]
    fn threshold_matches_scalar(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        // Small magnitudes so zero counters (the tie path) are frequent.
        let counts: Vec<i32> = {
            let v = random_words(dim, seed);
            (0..dim).map(|i| ((v[i / 64] >> (i % 64)) & 3) as i32 - 1).collect()
        };
        let pattern = random_words(dim, seed ^ 0x7AE);
        let reference = Backend::scalar();
        for backend in simd_backends() {
            for tie in [
                TieWords::Constant(0),
                TieWords::Constant(!0),
                TieWords::Pattern(&pattern),
            ] {
                prop_assert_eq!(
                    backend.threshold(&counts, tie),
                    reference.threshold(&counts, tie),
                    "{} threshold dim {}", backend.name(), dim
                );
            }
        }
    }

    #[test]
    fn pack_components_matches_scalar(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
        corrupt in any::<bool>(),
        pos in any::<u16>(),
        value in any::<i8>(),
    ) {
        let dim = DIMS[dim_idx];
        let mut comps = random_vector(dim, seed).to_components();
        if corrupt {
            comps[pos as usize % dim] = value;
        }
        let expected = Backend::scalar().pack_components(&comps);
        for backend in simd_backends() {
            prop_assert_eq!(
                backend.pack_components(&comps),
                expected.clone(),
                "{} pack dim {}", backend.name(), dim
            );
        }
    }

    #[test]
    fn hamming_tile_matches_scalar(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let words = dim.div_ceil(64);
        // An interleaved block built from BLOCK_LANES random vectors.
        let lanes: Vec<Vec<u64>> = (0..BLOCK_LANES)
            .map(|l| random_words(dim, seed ^ (l as u64 + 1)))
            .collect();
        let mut block = vec![0u64; words * BLOCK_LANES];
        for (l, lane) in lanes.iter().enumerate() {
            for (w, &word) in lane.iter().enumerate() {
                block[w * BLOCK_LANES + l] = word;
            }
        }
        let queries: Vec<Vec<u64>> = (0..TILE_QUERIES)
            .map(|q| random_words(dim, seed ^ (0x9E37 * (q as u64 + 1))))
            .collect();
        let refs: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
        for tile in 1..=TILE_QUERIES {
            let mut expected = vec![[0u64; BLOCK_LANES]; tile];
            Backend::scalar().hamming_tile(&refs[..tile], &block, &mut expected);
            for backend in simd_backends() {
                let mut got = vec![[0u64; BLOCK_LANES]; tile];
                backend.hamming_tile(&refs[..tile], &block, &mut got);
                prop_assert_eq!(
                    &got, &expected,
                    "{} tile of {} dim {}", backend.name(), tile, dim
                );
            }
        }
    }

    /// End-to-end: the public types (whose hot paths run on the *active*
    /// backend, whichever that is) agree with explicit scalar kernels.
    #[test]
    fn public_api_agrees_with_scalar_kernels(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
        weight in -7i32..=7,
    ) {
        let dim = DIMS[dim_idx];
        let a = random_vector(dim, seed);
        let b = random_vector(dim, seed ^ 0xAB);
        let scalar = Backend::scalar();
        prop_assert_eq!(
            a.hamming(&b) as u64,
            scalar.hamming(a.words(), b.words())
        );
        prop_assert_eq!(a.count_negative() as u64, scalar.popcount(a.words()));
        let mut acc = Accumulator::new(dim).expect("non-zero dimension");
        acc.add_weighted(&a, weight);
        let mut expected_counts = vec![0i32; dim];
        scalar.add_weighted(&mut expected_counts, a.words(), weight);
        prop_assert_eq!(acc.counts(), expected_counts.as_slice());
        let thresholded = acc.to_hypervector(TieBreak::Positive);
        prop_assert_eq!(
            thresholded.words(),
            scalar.threshold(acc.counts(), TieWords::Constant(0)).as_slice()
        );
    }
}

/// `ClassMemory` blocked scoring versus the naive per-vector loop, at the
/// class counts the equivalence must hold for (1 = degenerate, 2 = the
/// binary datasets, 23 = a multi-block odd count crossing lane
/// boundaries).
#[test]
fn class_memory_matches_naive_scoring_at_1_2_23_classes() {
    for &classes in &[1usize, 2, 23] {
        for &dim in &[1usize, 63, 64, 65, 127, 128, 10_000] {
            let items = ItemMemory::new(dim, 0xC1A55).expect("non-zero dimension");
            let vectors: Vec<Hypervector> =
                (0..classes as u64).map(|i| items.hypervector(i)).collect();
            let memory = ClassMemory::from_vectors(&vectors).expect("non-empty");
            let query = items.hypervector(1_000_000);
            let naive_hamming: Vec<usize> = vectors.iter().map(|v| v.hamming(&query)).collect();
            let naive_cosine: Vec<f64> = vectors.iter().map(|v| v.cosine(&query)).collect();
            assert_eq!(
                memory.hamming_many(&query),
                naive_hamming,
                "hamming classes {classes} dim {dim}"
            );
            assert_eq!(
                memory.cosine_many(&query),
                naive_cosine,
                "cosine classes {classes} dim {dim}"
            );
        }
    }
}
