//! Differential pinning of the SIMD backends against the scalar
//! reference.
//!
//! The four kernels `Backend` dispatches — the accumulator counter
//! update (`add_weighted`) and `threshold`, the tiled class scan
//! (`hamming_tile`) and the fused edge bundle (`bundle_edges`) — are
//! property-checked **bit-identical** between `Backend::scalar()` and
//! every SIMD backend in `Backend::available()` (AVX2, plus AVX-512 on
//! hosts with VPOPCNTDQ; on a scalar-only host the comparisons
//! degenerate to self-checks and the suite still passes). The class-scan
//! kernel is checked at every tile size from one query to
//! `TILE_QUERIES`. The dimension grid covers both word-boundary
//! edges and the paper-scale sizes: {1, 63, 64, 65, 127, 128, 10_000,
//! 100_003}. The fused edge-bundle kernel is checked on every backend
//! against scalar, and scalar against an `Accumulator` oracle, on a grid
//! that adds the 512-bit chunk boundaries (511, 513) and every vote
//! total up to 40 (the carry-save rounds take 16 votes each).

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

/// The fused-bundle grid: word boundaries, the first 512-bit chunk's
/// edges, the paper's d = 10k (a partial last chunk) and a large prime.
const BUNDLE_DIMS: [usize; 10] = [1, 63, 64, 65, 127, 128, 511, 513, 10_000, 100_003];

/// A fused-bundle input: distinct `lo` and `hi` row tables of random
/// vectors, and edges whose votes (1–4 each) total exactly `total`.
struct BundleCase {
    lo: Vec<Hypervector>,
    hi: Vec<Hypervector>,
    edges: Vec<(u32, u32, u32)>,
}

impl BundleCase {
    fn new(dim: usize, seed: u64, total: u32) -> Self {
        let rows = |count: u64, stream: u64| -> Vec<Hypervector> {
            let memory = ItemMemory::new(dim, seed ^ stream).expect("non-zero dimension");
            (0..count).map(|r| memory.hypervector(r)).collect()
        };
        let (lo, hi) = (rows(5, 0x10), rows(7, 0x41));
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut edges = Vec::new();
        let mut left = total;
        while left > 0 {
            let votes = (1 + next(4) as u32).min(left);
            edges.push((next(5) as u32, next(7) as u32, votes));
            left -= votes;
        }
        Self { lo, hi, edges }
    }

    fn table(rows: &[Hypervector]) -> Vec<u64> {
        rows.iter().flat_map(|r| r.words().to_vec()).collect()
    }

    /// The integer oracle: every bound pair added with weight `votes`,
    /// then thresholded.
    fn oracle(&self, dim: usize, tie: TieBreak) -> Hypervector {
        let mut acc = Accumulator::new(dim).expect("non-zero dimension");
        for &(a, b, votes) in &self.edges {
            let bound = self.lo[a as usize].bind(&self.hi[b as usize]);
            acc.add_weighted(&bound, votes as i32);
        }
        acc.to_hypervector(tie)
    }

    /// Checks every backend against scalar and scalar against the oracle
    /// under all three tie sources.
    fn check(&self, dim: usize, tie_seed: u64) {
        let (lo, hi) = (Self::table(&self.lo), Self::table(&self.hi));
        // An empty bundle thresholds to the tie source itself.
        let pattern = Accumulator::new(dim)
            .expect("non-zero dimension")
            .to_hypervector(TieBreak::Seeded(tie_seed));
        for (tie, words) in [
            (TieBreak::Positive, TieWords::Constant(0)),
            (TieBreak::Negative, TieWords::Constant(!0)),
            (
                TieBreak::Seeded(tie_seed),
                TieWords::Pattern(pattern.words()),
            ),
        ] {
            let run = |backend: Backend| {
                // Garbage in the output must be overwritten.
                let mut out = vec![!0u64; dim.div_ceil(64)];
                backend.bundle_edges(dim, &lo, &hi, &self.edges, words, &mut out);
                out
            };
            let expected = run(Backend::scalar());
            assert_eq!(
                expected.as_slice(),
                self.oracle(dim, tie).words(),
                "scalar vs oracle, dim {}, {:?}, edges {:?}",
                dim,
                tie,
                &self.edges
            );
            for backend in simd_backends() {
                assert_eq!(
                    &run(backend),
                    &expected,
                    "{} vs scalar, dim {}, {:?}, edges {:?}",
                    backend.name(),
                    dim,
                    tie,
                    &self.edges
                );
            }
        }
    }
}

fn simd_backends() -> Vec<Backend> {
    Backend::available()
        .into_iter()
        .filter(|b| b.is_simd())
        .collect()
}

proptest! {
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

    #[test]
    fn bundle_edges_matches_scalar_and_oracle(
        dim_idx in 0usize..BUNDLE_DIMS.len(),
        seed in any::<u64>(),
        total in 0u32..=40,
        tie_seed in any::<u64>(),
    ) {
        let dim = BUNDLE_DIMS[dim_idx];
        BundleCase::new(dim, seed, total).check(dim, tie_seed);
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
        let scalar = Backend::scalar();
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

/// Every vote total from 0 to 40 — both parities and each carry-save
/// round edge (15/16/17, 31/32/33) — at a whole-word, a one-past-chunk
/// and the paper's dimension, on every backend.
#[test]
fn bundle_edges_handles_every_vote_total_up_to_40() {
    for dim in [64usize, 513, 10_000] {
        for total in 0..=40 {
            BundleCase::new(dim, 0x5EED ^ u64::from(total), total).check(dim, 0x71E);
        }
    }
}
