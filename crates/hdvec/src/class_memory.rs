//! Blocked multi-query similarity memory.
//!
//! Scoring a query against K stored vectors with K separate
//! [`Hypervector::hamming`] calls re-reads the query words K times and
//! re-enters the kernel dispatch K times. [`ClassMemory`] instead stores
//! the vectors **word-interleaved** in blocks of
//! [`BLOCK_LANES`](crate::backend::BLOCK_LANES) lanes — word `w` of the
//! block's lanes sits at `block[w * BLOCK_LANES + lane]` — so every scan
//! streams each query word once per block across all of its lanes while
//! the per-lane distance accumulators stay in registers (two SIMD
//! vectors on the AVX2 backend, one on AVX-512). Batches go one step
//! further: [`nearest_many`](ClassMemory::nearest_many) scores a tile of
//! up to [`TILE_QUERIES`] queries per pass, so each block is read once
//! per tile rather than once per query. This is the structure-of-arrays
//! "associative memory" layout that HDC inference engines batch their
//! similarity pipelines over, and the only copy of the class vectors
//! `GraphHdModel` keeps. [`nearest`](ClassMemory::nearest) is the
//! decision rule on top: the smallest Hamming distance is the largest
//! cosine, since `cos = 1 − 2h/d` for bipolar vectors.

use crate::backend::{Backend, BLOCK_LANES, TILE_QUERIES};
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
/// let batch = [items.hypervector(5), query];
/// assert_eq!(memory.nearest_many(&batch), vec![Some(5), Some(3)]);
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
        if self.len.is_multiple_of(BLOCK_LANES) {
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

    /// Streams the Hamming distance of every query in `tile` (at most
    /// [`TILE_QUERIES`]) to every stored vector into
    /// `emit(query, index, distance)`, one tile kernel call per
    /// [`BLOCK_LANES`] vectors on every backend and at every size: each
    /// block is read once for the whole tile, and indices arrive in
    /// storage order for each query.
    fn scan_tile<F: FnMut(usize, usize, u64)>(&self, tile: &[Hypervector], mut emit: F) {
        let mut words: [&[u64]; TILE_QUERIES] = [&[]; TILE_QUERIES];
        for (slot, query) in words.iter_mut().zip(tile) {
            assert_eq!(
                self.dim,
                query.dim(),
                "cannot compare a {}-dimensional query against a {}-dimensional class memory",
                query.dim(),
                self.dim
            );
            *slot = query.words();
        }
        let words = &words[..tile.len()];
        let backend = Backend::active();
        let mut acc = [[0u64; BLOCK_LANES]; TILE_QUERIES];
        let acc = &mut acc[..tile.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            acc.fill([0; BLOCK_LANES]);
            backend.hamming_tile(words, block, acc);
            let first = b * BLOCK_LANES;
            let lanes = usize::min(self.len - first, BLOCK_LANES);
            for (q, row) in acc.iter().enumerate() {
                for (lane, &d) in row[..lanes].iter().enumerate() {
                    emit(q, first + lane, d);
                }
            }
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
        self.nearest_tile(std::slice::from_ref(query))[0]
    }

    /// [`nearest`](Self::nearest) for every query, in order. The queries
    /// are scanned in tiles of [`TILE_QUERIES`], so the class vectors are
    /// streamed once per tile instead of once per query; each answer is
    /// the one `nearest` gives.
    ///
    /// # Panics
    ///
    /// Panics if a query's dimension differs from the memory's.
    #[must_use]
    pub fn nearest_many(&self, queries: &[Hypervector]) -> Vec<Option<usize>> {
        let mut nearest = Vec::with_capacity(queries.len());
        for tile in queries.chunks(TILE_QUERIES) {
            nearest.extend_from_slice(&self.nearest_tile(tile)[..tile.len()]);
        }
        nearest
    }

    /// The streaming Hamming argmin of each query of one tile, in its
    /// first `tile.len()` slots: a strict `<` keeps the lowest index
    /// among equal distances.
    fn nearest_tile(&self, tile: &[Hypervector]) -> [Option<usize>; TILE_QUERIES] {
        let mut best: [Option<(usize, u64)>; TILE_QUERIES] = [None; TILE_QUERIES];
        self.scan_tile(tile, |q, index, d| {
            if best[q].is_none_or(|(_, nearest)| d < nearest) {
                best[q] = Some((index, d));
            }
        });
        best.map(|best| best.map(|(index, _)| index))
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
        self.scan_tile(std::slice::from_ref(query), |_, _, d| out.push(d as usize));
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
        self.scan_tile(std::slice::from_ref(query), |_, _, h| {
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
    fn nearest_many_matches_mapping_nearest() {
        let queries = vectors(1000, 17, 78);
        for n in [1usize, 2, 7, 8, 9, 23] {
            let mut vs = vectors(1000, n, 3);
            // Some queries are stored vectors (distance 0), and one sits
            // in two lanes so its query ties.
            for (i, q) in queries.iter().enumerate().step_by(3) {
                vs[(i * 5) % n] = q.clone();
            }
            if n > 1 {
                vs[n - 1] = vs[0].clone();
            }
            let memory = ClassMemory::from_vectors(&vs).unwrap();
            for count in [0usize, 1, 7, 8, 9, 17] {
                let batch = &queries[..count];
                let mapped: Vec<Option<usize>> = batch.iter().map(|q| memory.nearest(q)).collect();
                assert_eq!(memory.nearest_many(batch), mapped, "n={n} count={count}");
            }
        }
        // The duplicated-vector ties, in the same block and across a
        // block boundary, inside one tile.
        let mut vs = vectors(1000, 23, 3);
        vs[4] = vs[1].clone();
        vs[17] = vs[1].clone();
        let memory = ClassMemory::from_vectors(&vs).unwrap();
        let batch = [vs[17].clone(), vs[2].clone(), vs[4].clone(), vs[1].clone()];
        assert_eq!(
            memory.nearest_many(&batch),
            vec![Some(1), Some(2), Some(1), Some(1)]
        );
        let empty = ClassMemory::new(64).unwrap();
        assert_eq!(empty.nearest_many(&vectors(64, 9, 3)), vec![None; 9]);
    }

    #[test]
    #[should_panic(expected = "cannot compare")]
    fn nearest_many_dimension_mismatch_panics() {
        let memory = ClassMemory::from_vectors(&vectors(128, 2, 11)).unwrap();
        let mut queries = vectors(128, 3, 1);
        queries.push(ItemMemory::new(64, 1).unwrap().hypervector(0));
        let _ = memory.nearest_many(&queries);
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
