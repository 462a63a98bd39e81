//! Property-based tests for the HDC algebra.

use hdvec::{bundle, bundle_edges, Accumulator, Hypervector, ItemMemory, TieBreak};
use proptest::prelude::*;

/// Strategy: a dimension that exercises word boundaries.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), 2usize..130, Just(256usize), Just(1000usize)]
}

/// Strategy: (dim, seed) pair for generating random vectors.
fn dim_and_seed() -> impl Strategy<Value = (usize, u64)> {
    (dims(), any::<u64>())
}

fn vector(dim: usize, seed: u64, index: u64) -> Hypervector {
    ItemMemory::new(dim, seed)
        .expect("non-zero dimension")
        .hypervector(index)
}

proptest! {
    #[test]
    fn bind_is_commutative((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bind_is_associative((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        let c = vector(dim, seed, 2);
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn bind_is_self_inverse((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bind_preserves_hamming_distance((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        let c = vector(dim, seed, 2);
        prop_assert_eq!(a.bind(&c).hamming(&b.bind(&c)), a.hamming(&b));
    }

    #[test]
    fn permute_is_invertible((dim, seed) in dim_and_seed(), shift in 0usize..4096) {
        let a = vector(dim, seed, 0);
        let s = shift % dim;
        let inverse = (dim - s) % dim;
        prop_assert_eq!(a.permute(s).permute(inverse), a);
    }

    #[test]
    fn permute_preserves_negative_count((dim, seed) in dim_and_seed(), shift in 0usize..4096) {
        let a = vector(dim, seed, 0);
        prop_assert_eq!(a.permute(shift).count_negative(), a.count_negative());
    }

    #[test]
    fn cosine_is_symmetric_and_bounded((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        let ab = a.cosine(&b);
        prop_assert_eq!(ab, b.cosine(&a));
        prop_assert!((-1.0..=1.0).contains(&ab));
        prop_assert_eq!(a.cosine(&a), 1.0);
    }

    #[test]
    fn dot_equals_dim_minus_twice_hamming((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let b = vector(dim, seed, 1);
        prop_assert_eq!(a.dot(&b), dim as i64 - 2 * a.hamming(&b) as i64);
    }

    #[test]
    fn components_roundtrip((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        let back = Hypervector::from_components(&a.to_components()).expect("valid components");
        prop_assert_eq!(back, a);
    }

    #[test]
    fn negation_flips_all((dim, seed) in dim_and_seed()) {
        let a = vector(dim, seed, 0);
        prop_assert_eq!(a.negated().count_negative(), dim - a.count_negative());
        prop_assert_eq!(a.negated().negated(), a);
    }

    #[test]
    fn bundle_of_odd_copies_is_identity((dim, seed) in dim_and_seed(), copies in 1usize..6) {
        let a = vector(dim, seed, 0);
        let odd = 2 * copies - 1;
        let refs: Vec<&Hypervector> = (0..odd).map(|_| &a).collect();
        prop_assert_eq!(bundle(refs, TieBreak::default()).expect("non-empty"), a);
    }

    #[test]
    fn accumulator_order_does_not_matter((dim, seed) in dim_and_seed()) {
        let vs: Vec<Hypervector> = (0..5).map(|i| vector(dim, seed, i)).collect();
        let mut forward = Accumulator::new(dim).expect("non-zero dimension");
        let mut backward = Accumulator::new(dim).expect("non-zero dimension");
        for v in &vs {
            forward.add(v);
        }
        for v in vs.iter().rev() {
            backward.add(v);
        }
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn accumulator_counts_stay_bounded((dim, seed) in dim_and_seed(), n in 1usize..10) {
        let mut acc = Accumulator::new(dim).expect("non-zero dimension");
        for i in 0..n {
            acc.add(&vector(dim, seed, i as u64));
        }
        // Each vote changes a counter by exactly ±1.
        prop_assert!(acc.counts().iter().all(|&c| c.unsigned_abs() as usize <= n));
        // Parity: counter parity matches vote-count parity.
        prop_assert!(acc
            .counts()
            .iter()
            .all(|&c| (c.unsigned_abs() as usize) % 2 == n % 2));
    }

    #[test]
    fn fused_bundle_equals_reference_accumulation(
        (dim, seed) in dim_and_seed(),
        n in 0usize..40,
        tie_seed in any::<u64>(),
    ) {
        // The fused edge bundle must agree exactly with the i32-counter
        // reference for any bundle size, including the carry-save round
        // boundaries (multiples of 16) and the plane-growth boundaries
        // (powers of two). Binding every vector with the all-+1 row
        // bundles the vectors themselves.
        let vectors: Vec<Hypervector> = (0..n).map(|i| vector(dim, seed, i as u64)).collect();
        let mut reference = Accumulator::new(dim).expect("non-zero dimension");
        for v in &vectors {
            reference.add(v);
        }
        prop_assert_eq!(reference.added(), n as u64);
        let table: Vec<u64> = vectors.iter().flat_map(|v| v.words().to_vec()).collect();
        let identity = Hypervector::positive(dim).expect("non-zero dimension");
        let edges: Vec<(u32, u32, u32)> = (0..n as u32).map(|i| (i, 0, 1)).collect();
        for tie in [TieBreak::Positive, TieBreak::Negative, TieBreak::Seeded(tie_seed)] {
            let mut fused = Hypervector::positive(dim).expect("non-zero dimension");
            bundle_edges(&table, identity.words(), &edges, tie, &mut fused);
            prop_assert_eq!(fused, reference.to_hypervector(tie));
        }
    }

    #[test]
    fn noise_flips_at_most_everything((dim, seed) in dim_and_seed(), rate in 0.0f64..=1.0) {
        let a = vector(dim, seed, 0);
        let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(seed ^ 0xABCD);
        let noisy = a.with_noise(rate, &mut rng);
        prop_assert!(a.hamming(&noisy) <= dim);
    }
}
