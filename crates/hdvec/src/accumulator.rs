//! Bundling accumulators: exact element-wise majority voting.

use crate::backend::{Backend, TieWords};
use crate::{HdvError, Hypervector};

/// Policy for resolving per-dimension ties when an [`Accumulator`] is
/// thresholded to a bipolar hypervector.
///
/// Ties occur whenever an even number of vectors has been bundled and a
/// dimension received exactly as many +1 as −1 votes. The paper does not
/// specify a rule; all three policies below are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Resolve every tie to +1.
    Positive,
    /// Resolve every tie to −1.
    Negative,
    /// Resolve ties pseudo-randomly but reproducibly: dimension `i` of a
    /// tie takes the sign of a fixed random pattern derived from the seed.
    Seeded(u64),
}

impl Default for TieBreak {
    /// The suite-wide default: seeded pseudo-random ties with seed 0, which
    /// avoids the systematic bias of `Positive`/`Negative` while staying
    /// reproducible.
    fn default() -> Self {
        TieBreak::Seeded(0)
    }
}

/// Signed per-dimension vote counters implementing HDC bundling exactly.
///
/// The paper's Σ (bundling) is element-wise majority voting. Summing ±1
/// components in `i32` counters and thresholding at zero implements it
/// without the precision loss of iterated pairwise majorities.
///
/// # Examples
///
/// ```
/// use hdvec::{Accumulator, ItemMemory, TieBreak};
///
/// let memory = ItemMemory::new(10_000, 3)?;
/// let mut acc = Accumulator::new(10_000)?;
/// for i in 0..7 {
///     acc.add(&memory.hypervector(i));
/// }
/// let class_vector = acc.to_hypervector(TieBreak::default());
/// assert_eq!(class_vector.dim(), 10_000);
/// # Ok::<(), hdvec::HdvError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accumulator {
    counts: Vec<i32>,
    added: u64,
}

impl Accumulator {
    /// Creates an empty accumulator of the given dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, HdvError> {
        if dim == 0 {
            return Err(HdvError::ZeroDimension);
        }
        Ok(Self {
            counts: vec![0; dim],
            added: 0,
        })
    }

    /// The dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.counts.len()
    }

    /// Number of `add` calls minus `sub` calls weighted by their weights —
    /// i.e. the net number of vectors currently bundled.
    #[must_use]
    pub fn added(&self) -> u64 {
        self.added
    }

    /// Whether nothing has been accumulated yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added == 0 && self.counts.iter().all(|&c| c == 0)
    }

    /// The raw signed counters.
    #[must_use]
    pub fn counts(&self) -> &[i32] {
        &self.counts
    }

    /// Adds one vote of `hv` (+1 components increment, −1 decrement).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add(&mut self, hv: &Hypervector) {
        self.add_weighted(hv, 1);
    }

    /// Removes one vote of `hv`; the inverse of [`add`](Self::add), used by
    /// retraining to subtract a mispredicted sample from a class.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub(&mut self, hv: &Hypervector) {
        self.add_weighted(hv, -1);
    }

    /// Adds `weight` votes of `hv` at once.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_weighted(&mut self, hv: &Hypervector, weight: i32) {
        assert_eq!(
            self.dim(),
            hv.dim(),
            "cannot accumulate a {}-dimensional hypervector into a {}-dimensional accumulator",
            hv.dim(),
            self.dim()
        );
        // Per packed word (bit=1 ⇔ −1): ±weight across 64 counters at a
        // time on the dispatched backend (sign-select vectors on AVX2, a
        // branch-free credit pass plus set-bit fixups scalar).
        Backend::active().add_weighted(&mut self.counts, hv.words(), weight);
        self.added = self.added.saturating_add_signed(i64::from(weight));
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.added = 0;
    }

    /// Thresholds the counters into a bipolar hypervector: positive counts
    /// map to +1, negative to −1, and zeros are resolved by `tie_break`.
    /// This is the normalization `[...]` of the paper's encoding equations.
    #[must_use]
    pub fn to_hypervector(&self, tie_break: TieBreak) -> Hypervector {
        let dim = self.dim();
        // Assemble 64 thresholded dimensions per word on the dispatched
        // backend; ties take the matching bit of the tie source. The last
        // chunk is `dim % 64` counters long, so tail bits beyond `dim`
        // are never set and the storage invariant holds by shape.
        let words = tie_break.with_words(dim, |tie| Backend::active().threshold(&self.counts, tie));
        Hypervector::from_raw(dim, words)
    }
}

impl TieBreak {
    /// Runs `kernel` with this policy's tie source for `dim` dimensions:
    /// a constant word for `Positive`/`Negative`, the seeded pattern for
    /// `Seeded`.
    pub(crate) fn with_words<R>(self, dim: usize, kernel: impl FnOnce(TieWords<'_>) -> R) -> R {
        match self {
            TieBreak::Positive => kernel(TieWords::Constant(0)),
            TieBreak::Negative => kernel(TieWords::Constant(!0)),
            TieBreak::Seeded(seed) => kernel(TieWords::Pattern(
                Hypervector::tie_pattern(dim, seed).words(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemMemory;

    #[test]
    fn zero_dimension_rejected() {
        assert!(matches!(Accumulator::new(0), Err(HdvError::ZeroDimension)));
    }

    #[test]
    fn add_then_threshold_is_identity() {
        let memory = ItemMemory::new(200, 5).unwrap();
        let v = memory.hypervector(0);
        let mut acc = Accumulator::new(200).unwrap();
        acc.add(&v);
        assert_eq!(acc.to_hypervector(TieBreak::Positive), v);
        assert_eq!(acc.added(), 1);
    }

    #[test]
    fn add_sub_cancels() {
        let memory = ItemMemory::new(200, 6).unwrap();
        let v = memory.hypervector(1);
        let mut acc = Accumulator::new(200).unwrap();
        acc.add(&v);
        acc.sub(&v);
        assert!(acc.is_empty());
        assert!(acc.counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn majority_beats_minority() {
        let memory = ItemMemory::new(512, 7).unwrap();
        let a = memory.hypervector(0);
        let b = memory.hypervector(1);
        let mut acc = Accumulator::new(512).unwrap();
        acc.add(&a);
        acc.add(&a);
        acc.add(&a);
        acc.add(&b);
        // a has 3 votes vs 1: result equals a wherever they disagree, so
        // the result is exactly a (where they agree it is trivially a).
        assert_eq!(acc.to_hypervector(TieBreak::Positive), a);
    }

    #[test]
    fn weighted_add_equals_repeated_add() {
        let memory = ItemMemory::new(128, 8).unwrap();
        let v = memory.hypervector(2);
        let mut a = Accumulator::new(128).unwrap();
        let mut b = Accumulator::new(128).unwrap();
        for _ in 0..5 {
            a.add(&v);
        }
        b.add_weighted(&v, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn tie_break_policies_differ_only_on_ties() {
        let memory = ItemMemory::new(1000, 10).unwrap();
        let a = memory.hypervector(0);
        let b = memory.hypervector(1);
        let mut acc = Accumulator::new(1000).unwrap();
        acc.add(&a);
        acc.add(&b);
        let pos = acc.to_hypervector(TieBreak::Positive);
        let neg = acc.to_hypervector(TieBreak::Negative);
        let seeded = acc.to_hypervector(TieBreak::Seeded(42));
        for i in 0..1000 {
            if acc.counts()[i] != 0 {
                assert_eq!(pos.component(i), neg.component(i));
                assert_eq!(pos.component(i), seeded.component(i));
            } else {
                assert_eq!(pos.component(i), 1);
                assert_eq!(neg.component(i), -1);
            }
        }
        // Roughly half the dimensions of two random vectors tie.
        let ties = acc.counts().iter().filter(|&&c| c == 0).count();
        assert!(ties > 350 && ties < 650, "tie count {ties}");
    }

    #[test]
    fn seeded_tie_break_is_deterministic() {
        let memory = ItemMemory::new(256, 11).unwrap();
        let mut acc = Accumulator::new(256).unwrap();
        acc.add(&memory.hypervector(0));
        acc.add(&memory.hypervector(1));
        let x = acc.to_hypervector(TieBreak::Seeded(7));
        let y = acc.to_hypervector(TieBreak::Seeded(7));
        assert_eq!(x, y);
    }

    #[test]
    fn reset_clears_state() {
        let memory = ItemMemory::new(64, 12).unwrap();
        let mut acc = Accumulator::new(64).unwrap();
        acc.add(&memory.hypervector(0));
        acc.reset();
        assert!(acc.is_empty());
        assert_eq!(acc.added(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot accumulate")]
    fn dimension_mismatch_panics() {
        let memory = ItemMemory::new(64, 13).unwrap();
        let mut acc = Accumulator::new(128).unwrap();
        acc.add(&memory.hypervector(0));
    }

    #[test]
    fn add_weighted_matches_per_bit_reference() {
        // Per-bit reference for the word-level update, covering mixed,
        // all-clear and all-set words plus a partial tail word.
        fn reference_add(counts: &mut [i32], hv: &Hypervector, weight: i32) {
            for (i, count) in counts.iter_mut().enumerate() {
                if hv.component(i) == -1 {
                    *count -= weight;
                } else {
                    *count += weight;
                }
            }
        }
        for dim in [1usize, 63, 64, 65, 130, 500] {
            let memory = ItemMemory::new(dim, 21).unwrap();
            let mut acc = Accumulator::new(dim).unwrap();
            let mut expected = vec![0i32; dim];
            let vectors = [
                memory.hypervector(0),
                Hypervector::positive(dim).unwrap(),
                Hypervector::negative(dim).unwrap(),
                memory.hypervector(1),
            ];
            for (hv, weight) in vectors.iter().zip([1, -2, 5, 3]) {
                acc.add_weighted(hv, weight);
                reference_add(&mut expected, hv, weight);
            }
            assert_eq!(acc.counts(), expected.as_slice(), "dim {dim}");
        }
    }

    #[test]
    fn bundle_similarity_grows_with_votes() {
        // A vector bundled twice among unrelated vectors is closer to the
        // bundle than one bundled once.
        let memory = ItemMemory::new(10_000, 14).unwrap();
        let favored = memory.hypervector(0);
        let other = memory.hypervector(1);
        let mut acc = Accumulator::new(10_000).unwrap();
        acc.add_weighted(&favored, 3);
        acc.add(&other);
        for i in 2..6 {
            acc.add(&memory.hypervector(i));
        }
        let bundle = acc.to_hypervector(TieBreak::default());
        assert!(bundle.cosine(&favored) > bundle.cosine(&other));
    }
}
