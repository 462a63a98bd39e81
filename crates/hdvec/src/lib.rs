//! Hyperdimensional computing (HDC) substrate.
//!
//! This crate implements the representation and the three fundamental HDC
//! operations that GraphHD (Nunes et al., DATE 2022, Section III) builds on:
//!
//! - [`Hypervector`] — a *bipolar* vector in {+1, −1}^d, stored one bit per
//!   dimension so that **binding** (element-wise multiplication) is a word
//!   XOR and similarity reduces to popcounts.
//! - [`Accumulator`] — signed per-dimension counters implementing
//!   **bundling** (element-wise majority voting) exactly, including explicit
//!   [`TieBreak`] policies for the even-count ties the paper leaves
//!   unspecified.
//! - [`Hypervector::permute`] — the **permutation** operation (circular
//!   shift), completing Kanerva's operation triple.
//! - [`ItemMemory`] — deterministic basis ("item") hypervector
//!   generation: the hypervector for symbol *i* is a pure function of
//!   `(seed, i)`, so independent processes agree on the basis without
//!   sharing state.
//! - [`ClassMemory`] — a word-interleaved layout for one-query-to-many
//!   similarity scoring (the associative-memory lookup of HDC inference),
//!   storing each vector once and streaming each query word once across
//!   a block of stored vectors; [`ClassMemory::nearest`] picks the
//!   smallest Hamming distance, ties to the lowest index.
//!
//! The four word-level kernels the workloads spend their time in are
//! runtime-dispatched through [`Backend`]: the fused edge bundle of
//! graph encoding, the tiled class scan of inference, and the counter
//! update and thresholding of the class accumulators. An AVX-512
//! implementation (AVX-512F + VPOPCNTDQ) is selected when the CPU
//! supports it, AVX2+POPCNT next, a portable scalar reference
//! otherwise, and setting `GRAPHHD_FORCE_SCALAR=1` pins the scalar path
//! for differential testing. All backends are bit-identical by contract
//! and by test. Single-vector Hamming distance, popcount, binding and
//! component packing are plain portable code.
//!
//! # Examples
//!
//! Bind two random hypervectors and verify quasi-orthogonality, the
//! statistical property HDC encodings rely on:
//!
//! ```
//! use hdvec::ItemMemory;
//!
//! let memory = ItemMemory::new(10_000, 42)?;
//! let a = memory.hypervector(0);
//! let b = memory.hypervector(1);
//! let edge = a.bind(&b);
//! // The bound vector is quasi-orthogonal to both operands.
//! assert!(edge.cosine(&a).abs() < 0.05);
//! assert!(edge.cosine(&b).abs() < 0.05);
//! // Binding is self-inverse: unbinding recovers the other operand.
//! assert_eq!(edge.bind(&a), b);
//! # Ok::<(), hdvec::HdvError>(())
//! ```

// Unsafe code is allowed only in vetted leaf modules, and even
// there every unsafe operation inside an `unsafe fn` must sit in
// an explicit `unsafe {}` block with its own `// SAFETY:` record.
#![deny(unsafe_op_in_unsafe_fn)]

mod accumulator;
pub mod backend;
mod class_memory;
mod error;
mod hypervector;
mod item_memory;
mod level_memory;

pub use accumulator::{Accumulator, TieBreak};
pub use backend::Backend;
pub use class_memory::ClassMemory;
pub use error::HdvError;
pub use hypervector::Hypervector;
pub use item_memory::ItemMemory;
pub use level_memory::LevelMemory;

/// The hypervector dimensionality used by the paper in all experiments
/// (Section V: "GraphHD uses 10,000-dimensional bipolar hypervectors").
pub const DEFAULT_DIM: usize = 10_000;

/// Bundles an iterator of hypervectors into their element-wise majority.
///
/// This is the `bundle(·)` of the paper's Algorithm 1: ties (possible when
/// an even number of vectors is bundled) are resolved by `tie_break`.
///
/// # Errors
///
/// Returns [`HdvError::EmptyBundle`] if the iterator is empty and
/// [`HdvError::DimensionMismatch`] if the vectors disagree on dimension.
///
/// # Examples
///
/// ```
/// use hdvec::{bundle, ItemMemory, TieBreak};
///
/// let memory = ItemMemory::new(10_000, 7)?;
/// let vs: Vec<_> = (0..5).map(|i| memory.hypervector(i)).collect();
/// let sum = bundle(vs.iter(), TieBreak::Positive)?;
/// // The bundle is similar to each of its (quasi-orthogonal) inputs.
/// for v in &vs {
///     assert!(sum.cosine(v) > 0.2);
/// }
/// # Ok::<(), hdvec::HdvError>(())
/// ```
pub fn bundle<'a, I>(vectors: I, tie_break: TieBreak) -> Result<Hypervector, HdvError>
where
    I: IntoIterator<Item = &'a Hypervector>,
{
    let mut iter = vectors.into_iter();
    let first = iter.next().ok_or(HdvError::EmptyBundle)?;
    let mut acc = Accumulator::new(first.dim())?;
    acc.add(first);
    for v in iter {
        if v.dim() != first.dim() {
            return Err(HdvError::DimensionMismatch {
                left: first.dim(),
                right: v.dim(),
            });
        }
        acc.add(v);
    }
    Ok(acc.to_hypervector(tie_break))
}

/// Bundles bound row pairs straight into `out`, their majority
/// hypervector: for each edge `(a, b, votes)`, row `a` of `lo` bound with
/// row `b` of `hi`, counted `votes` times, with ties resolved by
/// `tie_break`.
///
/// Each table holds `out.dim().div_ceil(64)` packed words per row (the
/// layout of [`Hypervector::words`]); `lo` and `hi` may be the same
/// table. The result equals adding every bound pair to an
/// [`Accumulator`] with weight `votes` and thresholding it with
/// `tie_break`, but it runs the fused [`Backend::bundle_edges`] kernel on
/// the active backend and never builds the per-dimension counters. No
/// edges (or no votes) yield the tie pattern. Writing into a
/// caller-allocated vector lets a caller allocate its long-lived result
/// before its short-lived tables.
///
/// # Panics
///
/// Panics under the conditions of [`Backend::bundle_edges`]: a table
/// that is not a whole number of rows, an edge naming a row outside its
/// table, or more than `u32::MAX` votes.
///
/// # Examples
///
/// ```
/// use hdvec::{bundle_edges, Accumulator, Hypervector, ItemMemory, TieBreak};
///
/// let memory = ItemMemory::new(1000, 5)?;
/// let rows: Vec<_> = (0..3).map(|i| memory.hypervector(i)).collect();
/// let table: Vec<u64> = rows.iter().flat_map(|r| r.words().to_vec()).collect();
/// let edges = [(0, 1, 1), (1, 2, 2)];
/// let mut fused = Hypervector::positive(1000)?;
/// bundle_edges(&table, &table, &edges, TieBreak::Seeded(9), &mut fused);
///
/// let mut reference = Accumulator::new(1000)?;
/// reference.add_weighted(&rows[0].bind(&rows[1]), 1);
/// reference.add_weighted(&rows[1].bind(&rows[2]), 2);
/// assert_eq!(fused, reference.to_hypervector(TieBreak::Seeded(9)));
/// # Ok::<(), hdvec::HdvError>(())
/// ```
pub fn bundle_edges(
    lo: &[u64],
    hi: &[u64],
    edges: &[(u32, u32, u32)],
    tie_break: TieBreak,
    out: &mut Hypervector,
) {
    let dim = out.dim();
    tie_break.with_words(dim, |tie| {
        Backend::active().bundle_edges(dim, lo, hi, edges, tie, out.words_mut());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_of_one_is_identity() {
        let memory = ItemMemory::new(256, 1).unwrap();
        let v = memory.hypervector(3);
        let out = bundle([&v], TieBreak::Positive).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn bundle_empty_errors() {
        let out = bundle([], TieBreak::Positive);
        assert!(matches!(out, Err(HdvError::EmptyBundle)));
    }

    #[test]
    fn bundle_dimension_mismatch_errors() {
        let a = ItemMemory::new(128, 1).unwrap().hypervector(0);
        let b = ItemMemory::new(256, 1).unwrap().hypervector(0);
        let out = bundle([&a, &b], TieBreak::Positive);
        assert!(matches!(out, Err(HdvError::DimensionMismatch { .. })));
    }

    #[test]
    fn bundle_majority_of_three() {
        let memory = ItemMemory::new(512, 9).unwrap();
        let a = memory.hypervector(0);
        let b = memory.hypervector(1);
        // Majority of {a, a, b} is a at every dimension (2 votes vs 1).
        let out = bundle([&a, &a, &b], TieBreak::Positive).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn default_dim_matches_paper() {
        assert_eq!(DEFAULT_DIM, 10_000);
    }
}
