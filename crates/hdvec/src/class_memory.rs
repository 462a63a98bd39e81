//! Blocked multi-query similarity memory.
//!
//! Scoring a query against K stored vectors with K separate
//! [`Hypervector::hamming`] calls re-reads the query words K times and
//! re-enters the kernel dispatch K times. [`ClassMemory`] instead stores
//! the vectors **word-interleaved** in blocks of
//! [`BLOCK_LANES`](crate::backend::BLOCK_LANES) lanes — word `w` of the
//! block's lanes sits at `block[w * BLOCK_LANES + lane]` — so every scan
//! streams each query word once per block across all of its lanes while
//! the per-lane distance accumulators stay in registers (or two SIMD
//! vectors on the AVX2 backend). This is the structure-of-arrays
//! "associative memory" layout that HDC inference engines batch their
//! similarity pipelines over, and the only copy of the class vectors
//! `GraphHdModel` keeps. [`nearest`](ClassMemory::nearest) is the
//! decision rule on top: the smallest Hamming distance is the largest
//! cosine, since `cos = 1 − 2h/d` for bipolar vectors.

use crate::backend::{Backend, BLOCK_LANES};
use crate::{HdvError, Hypervector};

/// A set of same-dimension hypervectors laid out for one-query-to-many
/// similarity scoring.
///
/// # Examples
///
/// ```
/// use hdvec::{ClassMemory, ItemMemory};
///
/// let items = ItemMemory::new(10_000, 42)?;
/// let classes: Vec<_> = (0..23).map(|i| items.hypervector(i)).collect();
/// let memory = ClassMemory::from_vectors(&classes)?;
/// let query = items.hypervector(3);
/// let distances = memory.hamming_many(&query);
/// assert_eq!(distances.len(), 23);
/// assert_eq!(distances[3], 0);
/// assert_eq!(memory.cosine_many(&query)[3], 1.0);
/// assert_eq!(memory.nearest(&query), Some(3));
/// # Ok::<(), hdvec::HdvError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMemory {
    dim: usize,
    words: usize,
    len: usize,
    /// The stored vectors, word-interleaved in lane blocks of
    /// `words * BLOCK_LANES` words each; lanes at index ≥ `len` (in the
    /// last block) hold zeros and are never read back.
    blocks: Vec<Vec<u64>>,
}

impl ClassMemory {
    /// Creates an empty memory for `dim`-dimensional vectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, HdvError> {
        if dim == 0 {
            return Err(HdvError::ZeroDimension);
        }
        Ok(Self {
            dim,
            words: dim.div_ceil(64),
            len: 0,
            blocks: Vec::new(),
        })
    }

    /// Builds a memory holding `vectors`, in order.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::EmptyBundle`] for an empty slice (the
    /// dimension would be unknown) and [`HdvError::DimensionMismatch`] if
    /// the vectors disagree on dimension.
    pub fn from_vectors(vectors: &[Hypervector]) -> Result<Self, HdvError> {
        let first = vectors.first().ok_or(HdvError::EmptyBundle)?;
        let mut memory = Self::new(first.dim())?;
        for v in vectors {
            if v.dim() != first.dim() {
                return Err(HdvError::DimensionMismatch {
                    left: first.dim(),
                    right: v.dim(),
                });
            }
            memory.push(v);
        }
        Ok(memory)
    }

    /// The dimensionality of the stored vectors.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored vectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vectors are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a vector (lane `len()` of the interleaved layout).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn push(&mut self, hv: &Hypervector) {
        self.check_dim(hv);
        if self.len % BLOCK_LANES == 0 {
            self.blocks.push(vec![0u64; self.words * BLOCK_LANES]);
        }
        self.len += 1;
        self.set(self.len - 1, hv);
    }

    /// Replaces the vector at `index` — the retraining hook: a class
    /// vector that was re-thresholded after a perceptron update is
    /// written back into its lane in place.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()` or the dimensions differ.
    pub fn set(&mut self, index: usize, hv: &Hypervector) {
        self.check_index(index);
        self.check_dim(hv);
        let block = &mut self.blocks[index / BLOCK_LANES];
        let lane = index % BLOCK_LANES;
        for (w, &word) in hv.words().iter().enumerate() {
            block[w * BLOCK_LANES + lane] = word;
        }
    }

    /// The vector at `index`, gathered out of its lane.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> Hypervector {
        self.check_index(index);
        let block = &self.blocks[index / BLOCK_LANES];
        let words = block[index % BLOCK_LANES..]
            .iter()
            .step_by(BLOCK_LANES)
            .copied()
            .collect();
        Hypervector::from_raw(self.dim, words)
    }

    fn check_index(&self, index: usize) {
        assert!(
            index < self.len,
            "class memory index {index} out of bounds for {} vectors",
            self.len
        );
    }

    fn check_dim(&self, hv: &Hypervector) {
        assert_eq!(
            self.dim,
            hv.dim(),
            "cannot store a {}-dimensional hypervector in a {}-dimensional class memory",
            hv.dim(),
            self.dim
        );
    }

    /// Streams the Hamming distance of `query` to every stored vector
    /// (in order) into `emit`, one block kernel call per
    /// [`BLOCK_LANES`] vectors on every backend and at every size.
    fn distances<F: FnMut(u64)>(&self, query: &Hypervector, mut emit: F) {
        assert_eq!(
            self.dim,
            query.dim(),
            "cannot compare a {}-dimensional query against a {}-dimensional class memory",
            query.dim(),
            self.dim
        );
        let backend = Backend::active();
        let mut remaining = self.len;
        for block in &self.blocks {
            let mut acc = [0u64; BLOCK_LANES];
            backend.hamming_block(query.words(), block, &mut acc);
            let lanes = usize::min(remaining, BLOCK_LANES);
            for &d in &acc[..lanes] {
                emit(d);
            }
            remaining -= lanes;
        }
    }

    /// Index of the stored vector nearest to `query` in Hamming distance
    /// — equivalently, the most cosine-similar one. Ties go to the
    /// lowest index; an empty memory has no nearest vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn nearest(&self, query: &Hypervector) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        let mut index = 0;
        self.distances(query, |d| {
            if best.is_none_or(|(_, nearest)| d < nearest) {
                best = Some((index, d));
            }
            index += 1;
        });
        best.map(|(index, _)| index)
    }

    /// Hamming distance of `query` to every stored vector, in storage
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn hamming_many(&self, query: &Hypervector) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        self.distances(query, |d| out.push(d as usize));
        out
    }

    /// Cosine similarity of `query` with every stored vector.
    /// Bit-identical to calling [`Hypervector::cosine`] per vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn cosine_many(&self, query: &Hypervector) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        let dim = self.dim as f64;
        self.distances(query, |h| {
            out.push((self.dim as i64 - 2 * h as i64) as f64 / dim);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemMemory;

    fn vectors(dim: usize, n: usize, seed: u64) -> Vec<Hypervector> {
        let items = ItemMemory::new(dim, seed).expect("non-zero dimension");
        (0..n as u64).map(|i| items.hypervector(i)).collect()
    }

    #[test]
    fn zero_dimension_and_empty_inputs_rejected() {
        assert!(matches!(ClassMemory::new(0), Err(HdvError::ZeroDimension)));
        assert!(matches!(
            ClassMemory::from_vectors(&[]),
            Err(HdvError::EmptyBundle)
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut vs = vectors(100, 2, 1);
        vs.push(ItemMemory::new(101, 1).unwrap().hypervector(0));
        assert!(matches!(
            ClassMemory::from_vectors(&vs),
            Err(HdvError::DimensionMismatch {
                left: 100,
                right: 101
            })
        ));
    }

    #[test]
    fn roundtrip_across_block_boundaries() {
        // 23 vectors span three 8-lane blocks with a partial tail block.
        let vs = vectors(130, 23, 2);
        let memory = ClassMemory::from_vectors(&vs).unwrap();
        assert_eq!(memory.len(), 23);
        assert_eq!(memory.dim(), 130);
        assert!(!memory.is_empty());
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(&memory.get(i), v, "vector {i}");
        }
    }

    #[test]
    fn hamming_many_matches_pairwise_hamming() {
        for n in [1usize, 2, 7, 8, 9, 23] {
            for dim in [1usize, 64, 65, 1000] {
                let vs = vectors(dim, n, 3);
                let memory = ClassMemory::from_vectors(&vs).unwrap();
                let query = ItemMemory::new(dim, 77).unwrap().hypervector(0);
                let blocked = memory.hamming_many(&query);
                let naive: Vec<usize> = vs.iter().map(|v| v.hamming(&query)).collect();
                assert_eq!(blocked, naive, "n={n} dim={dim}");
                // `min_by_key` keeps the first of equal minima.
                let first_minimum = naive.iter().enumerate().min_by_key(|&(_, d)| d);
                assert_eq!(
                    memory.nearest(&query),
                    first_minimum.map(|(i, _)| i),
                    "n={n} dim={dim}"
                );
            }
        }
        // A duplicated vector ties with its original at distance 0, in
        // the same block and across a block boundary: the lower index wins.
        let mut vs = vectors(1000, 23, 3);
        vs[4] = vs[1].clone();
        vs[17] = vs[1].clone();
        let memory = ClassMemory::from_vectors(&vs).unwrap();
        assert_eq!(memory.nearest(&vs[1]), Some(1));
        assert_eq!(memory.nearest(&vs[17]), Some(1));
        let empty = ClassMemory::new(64).unwrap();
        assert_eq!(empty.nearest(&vectors(64, 1, 3)[0]), None);
    }

    #[test]
    fn cosine_many_matches_pairwise_cosine() {
        let vs = vectors(10_000, 23, 4);
        let memory = ClassMemory::from_vectors(&vs).unwrap();
        let query = ItemMemory::new(10_000, 5).unwrap().hypervector(9);
        let cosines = memory.cosine_many(&query);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(cosines[i], v.cosine(&query), "cosine {i}");
        }
    }

    #[test]
    fn set_replaces_one_lane_only() {
        let vs = vectors(500, 10, 6);
        let mut memory = ClassMemory::from_vectors(&vs).unwrap();
        let replacement = ItemMemory::new(500, 7).unwrap().hypervector(0);
        memory.set(9, &replacement);
        assert_eq!(memory.get(9), replacement);
        for (i, v) in vs.iter().enumerate().take(9) {
            assert_eq!(&memory.get(i), v, "lane {i} must be untouched");
        }
        let query = ItemMemory::new(500, 8).unwrap().hypervector(0);
        assert_eq!(memory.hamming_many(&query)[9], replacement.hamming(&query));
    }

    #[test]
    #[should_panic(expected = "cannot compare")]
    fn query_dimension_mismatch_panics() {
        let memory = ClassMemory::from_vectors(&vectors(128, 2, 11)).unwrap();
        let query = ItemMemory::new(64, 1).unwrap().hypervector(0);
        let _ = memory.hamming_many(&query);
    }

    #[test]
    #[should_panic(expected = "cannot store")]
    fn push_dimension_mismatch_panics() {
        let mut memory = ClassMemory::new(128).unwrap();
        memory.push(&ItemMemory::new(64, 1).unwrap().hypervector(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut memory = ClassMemory::from_vectors(&vectors(64, 2, 12)).unwrap();
        let v = ItemMemory::new(64, 1).unwrap().hypervector(0);
        memory.set(2, &v);
    }
}
