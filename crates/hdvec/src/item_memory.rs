//! Deterministic basis ("item") hypervector memories.

use crate::{HdvError, Hypervector};
use prng::{mix_seed, WordRng, Xoshiro256PlusPlus};

/// A deterministic, conceptually infinite set of random basis hypervectors.
///
/// The hypervector for item `i` is a pure function of `(seed, i)`: each item
/// gets its own PRNG stream via [`prng::mix_seed`]. This is how GraphHD's
/// vertex basis set H_v is realised — rank *r* across all graphs maps to
/// `memory.hypervector(r)` without ever materialising the whole basis.
///
/// Distinct items are quasi-orthogonal with overwhelming probability, the
/// property the paper requires of categorical value hypervectors
/// (δ(Vi, Vj) ≃ 0 for i ≠ j).
///
/// # Examples
///
/// ```
/// use hdvec::ItemMemory;
///
/// let memory = ItemMemory::new(10_000, 99)?;
/// // Same (seed, index) — same hypervector, even across processes.
/// assert_eq!(memory.hypervector(5), memory.hypervector(5));
/// // Different indices — quasi-orthogonal.
/// let sim = memory.hypervector(0).cosine(&memory.hypervector(1));
/// assert!(sim.abs() < 0.05);
/// # Ok::<(), hdvec::HdvError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ItemMemory {
    dim: usize,
    seed: u64,
}

impl ItemMemory {
    /// Creates an item memory producing `dim`-dimensional hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`.
    pub fn new(dim: usize, seed: u64) -> Result<Self, HdvError> {
        if dim == 0 {
            return Err(HdvError::ZeroDimension);
        }
        Ok(Self { dim, seed })
    }

    /// The dimensionality of produced hypervectors.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates the basis hypervector for `index`.
    #[must_use]
    pub fn hypervector(&self, index: u64) -> Hypervector {
        let mut words = vec![0; self.dim.div_ceil(64)];
        self.fill(index, &mut words);
        Hypervector::from_raw(self.dim, words)
    }

    /// Writes the packed words of [`hypervector(index)`](Self::hypervector)
    /// into `row` in place, e.g. a row of a caller's vertex table.
    ///
    /// # Panics
    ///
    /// Panics unless `row` holds `dim.div_ceil(64)` words.
    pub fn fill(&self, index: u64, row: &mut [u64]) {
        self.apply(index, row, |word, basis| *word = basis);
    }

    /// Binds [`hypervector(index)`](Self::hypervector) into the packed
    /// words of `row` in place (XOR), leaving the bits beyond `dim` clear.
    ///
    /// # Panics
    ///
    /// Panics unless `row` holds `dim.div_ceil(64)` words.
    pub fn bind_into(&self, index: u64, row: &mut [u64]) {
        self.apply(index, row, |word, basis| *word ^= basis);
    }

    /// Combines `index`'s basis words into `row` in stream order, then
    /// clears the bits beyond `dim`.
    fn apply(&self, index: u64, row: &mut [u64], op: impl Fn(&mut u64, u64)) {
        assert_eq!(row.len(), self.dim.div_ceil(64), "row length in words");
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix_seed(self.seed, index));
        for word in row.iter_mut() {
            op(word, rng.next_u64());
        }
        row[row.len() - 1] &= Hypervector::tail_mask(self.dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_dimension_rejected() {
        assert!(matches!(
            ItemMemory::new(0, 1),
            Err(HdvError::ZeroDimension)
        ));
    }

    #[test]
    fn deterministic_per_index() {
        let m = ItemMemory::new(512, 21).unwrap();
        assert_eq!(m.hypervector(9), m.hypervector(9));
    }

    #[test]
    fn distinct_indices_distinct_vectors() {
        let m = ItemMemory::new(10_000, 22).unwrap();
        let a = m.hypervector(0);
        let b = m.hypervector(1);
        assert_ne!(a, b);
        assert!(a.cosine(&b).abs() < 0.05);
    }

    #[test]
    fn distinct_seeds_distinct_bases() {
        let m1 = ItemMemory::new(1024, 1).unwrap();
        let m2 = ItemMemory::new(1024, 2).unwrap();
        assert_ne!(m1.hypervector(0), m2.hypervector(0));
    }

    #[test]
    fn pairwise_quasi_orthogonality_over_many_items() {
        let m = ItemMemory::new(10_000, 23).unwrap();
        let items: Vec<_> = (0..20).map(|i| m.hypervector(i)).collect();
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                let sim = items[i].cosine(&items[j]);
                assert!(sim.abs() < 0.06, "items {i} and {j} too similar: {sim}");
            }
        }
    }
}
