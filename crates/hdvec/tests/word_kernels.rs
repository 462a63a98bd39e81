//! Property-based equivalence of the word-level hypervector kernels
//! against exhaustive per-bit references.
//!
//! The fast paths — funnel-shift `permute`, skip-sampling `with_noise`,
//! and the word-at-a-time component constructors — are checked against
//! implementations that go through the public per-bit accessors
//! (`component` / `set_component`), across the dimension grid
//! {1, 63, 64, 65, 127, 128, 100003} and the shift grid
//! {0, 1, 63, 64, 65, dim−1, dim, dim+7}. Every case also asserts the
//! storage invariant: bits beyond `dim` in the last word stay clear.
//! The in-place row writers `ItemMemory::{fill, bind_into}` and the
//! packed-word constructor `Hypervector::from_words` are checked against
//! the allocating `hypervector` and `words` at the word-boundary
//! dimensions {1, 63, 64, 65, 127, 128, 10000}.

use hdvec::{HdvError, Hypervector, ItemMemory};
use proptest::prelude::*;

/// Word-boundary dimensions plus a large prime (157 words + 35-bit tail).
const DIMS: [usize; 7] = [1, 63, 64, 65, 127, 128, 100_003];

/// The shift grid from the optimization plan, parameterized by `dim`.
fn shift_grid(dim: usize) -> [usize; 8] {
    [0, 1, 63, 64, 65, dim - 1, dim, dim + 7]
}

fn random_vector(dim: usize, seed: u64) -> Hypervector {
    ItemMemory::new(dim, seed)
        .expect("non-zero dimension")
        .hypervector(0)
}

fn tail_is_clear(v: &Hypervector) -> bool {
    let last = *v.words().last().expect("non-empty");
    match v.dim() % 64 {
        0 => true,
        r => last & !((1u64 << r) - 1) == 0,
    }
}

/// Per-bit reference permutation through the public component accessors.
fn per_bit_permute(v: &Hypervector, shift: usize) -> Hypervector {
    let dim = v.dim();
    let mut out = Hypervector::positive(dim).expect("non-zero dimension");
    for i in 0..dim {
        out.set_component((i + shift) % dim, v.component(i));
    }
    out
}

proptest! {
    #[test]
    fn permute_equals_per_bit_reference(
        dim_idx in 0usize..DIMS.len(),
        shift_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let shift = shift_grid(dim)[shift_idx];
        let v = random_vector(dim, seed);
        let fast = v.permute(shift);
        let reference = per_bit_permute(&v, shift);
        prop_assert_eq!(fast.words(), reference.words(), "dim {} shift {}", dim, shift);
        prop_assert!(tail_is_clear(&fast), "tail leaked at dim {} shift {}", dim, shift);
    }

    #[test]
    fn permute_assign_equals_permute(
        dim_idx in 0usize..DIMS.len(),
        shift_idx in 0usize..8,
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let shift = shift_grid(dim)[shift_idx];
        let v = random_vector(dim, seed);
        let mut in_place = v.clone();
        in_place.permute_assign(shift);
        prop_assert_eq!(in_place.words(), v.permute(shift).words());
        prop_assert!(tail_is_clear(&in_place));
    }

    #[test]
    fn with_noise_flip_count_tracks_binomial(
        dim_idx in 0usize..DIMS.len(),
        rate in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let v = random_vector(dim, seed);
        let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x5EED);
        let noisy = v.with_noise(rate, &mut rng);
        prop_assert!(tail_is_clear(&noisy), "tail leaked at dim {}", dim);
        let flips = v.hamming(&noisy);
        prop_assert!(flips <= dim);
        // Distributional check, not a stream check: the flip count of
        // independent Bernoulli(rate) bits is Binomial(dim, rate); stay
        // within 6 standard deviations (plus slack for tiny dims).
        let sigma = (dim as f64 * rate * (1.0 - rate)).sqrt();
        let deviation = (flips as f64 - dim as f64 * rate).abs();
        prop_assert!(
            deviation <= 6.0 * sigma + 3.0,
            "flips {} vs expectation {} at dim {} rate {}",
            flips,
            dim as f64 * rate,
            dim,
            rate
        );
    }

    #[test]
    fn from_components_roundtrips_word_for_word(
        dim_idx in 0usize..DIMS.len(),
        seed in any::<u64>(),
    ) {
        let dim = DIMS[dim_idx];
        let v = random_vector(dim, seed);
        let components = v.to_components();
        // Per-bit reference read-back.
        for (i, &c) in components.iter().enumerate() {
            prop_assert_eq!(c, v.component(i));
        }
        let rebuilt = Hypervector::from_components(&components).expect("valid components");
        prop_assert_eq!(rebuilt.words(), v.words());
        prop_assert!(tail_is_clear(&rebuilt));
        let from_fn = Hypervector::from_fn(dim, |i| components[i] == -1).expect("non-zero dim");
        prop_assert_eq!(from_fn.words(), v.words());
    }
}

/// The word-boundary dimensions of the in-place row checks.
const ROW_DIMS: [usize; 7] = [1, 63, 64, 65, 127, 128, 10_000];

#[test]
fn fill_and_bind_into_match_the_allocating_hypervector() {
    for dim in ROW_DIMS {
        let memory = ItemMemory::new(dim, 31).expect("non-zero dimension");
        let words = dim.div_ceil(64);
        for index in [0u64, 1, 7, u64::MAX] {
            let expected = memory.hypervector(index);
            // Pre-filled with ones, so every bit and the tail must be
            // overwritten.
            let mut row = vec![!0u64; words];
            memory.fill(index, &mut row);
            assert_eq!(row, expected.words(), "fill at dim {dim}, index {index}");

            let base = random_vector(dim, index ^ 0x5EED);
            let mut row = base.words().to_vec();
            memory.bind_into(index, &mut row);
            let bound = Hypervector::from_words(dim, row).expect("tail bits stay clear");
            assert_eq!(bound, base.bind(&expected), "bind_into at dim {dim}");
            assert!(tail_is_clear(&bound));
        }
    }
}

#[test]
#[should_panic(expected = "row length")]
fn fill_rejects_a_row_of_the_wrong_length() {
    let memory = ItemMemory::new(65, 1).expect("non-zero dimension");
    memory.fill(0, &mut [0u64; 1]);
}

#[test]
fn from_words_roundtrips_and_rejects_malformed_words() {
    for dim in ROW_DIMS {
        let v = random_vector(dim, dim as u64);
        let rebuilt = Hypervector::from_words(dim, v.words().to_vec()).expect("valid words");
        assert_eq!(rebuilt, v);
        let words = dim.div_ceil(64);
        for found in [words - 1, words + 1] {
            assert_eq!(
                Hypervector::from_words(dim, vec![0; found]),
                Err(HdvError::WordCount {
                    expected: words,
                    found
                }),
                "dim {dim}"
            );
        }
        let mut tail = v.words().to_vec();
        tail[words - 1] |= 1 << 63;
        let result = Hypervector::from_words(dim, tail);
        if dim % 64 == 0 {
            assert!(result.is_ok(), "dim {dim} has no tail bits");
        } else {
            assert_eq!(result, Err(HdvError::TailBits), "dim {dim}");
        }
    }
    assert_eq!(
        Hypervector::from_words(0, Vec::new()),
        Err(HdvError::ZeroDimension)
    );
}
