//! The bit-packed bipolar hypervector type.

use crate::backend;
use crate::HdvError;
use prng::{SplitMix64, WordRng};

/// A bipolar hypervector in {+1, −1}^d.
///
/// Components are stored one bit per dimension with the convention
/// **bit = 1 ⇔ component = −1**, so that element-wise multiplication
/// (HDC *binding*) is a bitwise XOR and the dot product is
/// `d − 2·hamming`. The storage invariant is that bits beyond `dim` in the
/// last word are always zero; every operation preserves it.
///
/// # Examples
///
/// ```
/// use hdvec::Hypervector;
///
/// let v = Hypervector::from_components(&[1, -1, 1, 1])?;
/// assert_eq!(v.component(1), -1);
/// assert_eq!(v.dot(&v), 4);
/// assert_eq!(v.cosine(&v), 1.0);
/// # Ok::<(), hdvec::HdvError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    dim: usize,
    words: Vec<u64>,
}

impl Hypervector {
    /// Number of 64-bit words needed for `dim` dimensions.
    fn word_count(dim: usize) -> usize {
        dim.div_ceil(64)
    }

    /// Mask with ones at every valid bit position of the final word.
    pub(crate) fn tail_mask(dim: usize) -> u64 {
        match dim % 64 {
            0 => !0u64,
            r => (1u64 << r) - 1,
        }
    }

    fn check_dim(dim: usize) -> Result<(), HdvError> {
        if dim == 0 {
            Err(HdvError::ZeroDimension)
        } else {
            Ok(())
        }
    }

    /// Assembles a hypervector from already-packed words. The caller must
    /// uphold the storage invariant (word count and clear tail bits).
    pub(crate) fn from_raw(dim: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), Self::word_count(dim));
        debug_assert!(words.last().is_none_or(|w| w & !Self::tail_mask(dim) == 0));
        Self { dim, words }
    }

    /// The packed words, for kernels that overwrite them in place. The
    /// caller must leave the tail bits beyond `dim` clear.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Creates the all-(+1) hypervector, the identity element of binding.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`.
    pub fn positive(dim: usize) -> Result<Self, HdvError> {
        Self::check_dim(dim)?;
        Ok(Self {
            dim,
            words: vec![0u64; Self::word_count(dim)],
        })
    }

    /// Creates the all-(−1) hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`.
    pub fn negative(dim: usize) -> Result<Self, HdvError> {
        Self::check_dim(dim)?;
        let mut words = vec![!0u64; Self::word_count(dim)];
        if let Some(last) = words.last_mut() {
            *last &= Self::tail_mask(dim);
        }
        Ok(Self { dim, words })
    }

    /// Draws a uniformly random hypervector from `rng`.
    ///
    /// Each component is independently ±1 with probability ½, which makes
    /// distinct random hypervectors quasi-orthogonal in high dimension —
    /// the property HDC basis sets rely on.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`.
    pub fn random<R: WordRng>(dim: usize, rng: &mut R) -> Result<Self, HdvError> {
        Self::check_dim(dim)?;
        let mut words: Vec<u64> = (0..Self::word_count(dim)).map(|_| rng.next_u64()).collect();
        if let Some(last) = words.last_mut() {
            *last &= Self::tail_mask(dim);
        }
        Ok(Self { dim, words })
    }

    /// Builds a hypervector from explicit ±1 components.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] for an empty slice and
    /// [`HdvError::InvalidComponent`] if any value is not +1 or −1.
    pub fn from_components(components: &[i8]) -> Result<Self, HdvError> {
        Self::check_dim(components.len())?;
        let dim = components.len();
        // 64 components per word: the sign bits accumulate in a register
        // instead of read-modify-write cycles through the vector.
        let mut words = Vec::with_capacity(Self::word_count(dim));
        for (word_idx, chunk) in components.chunks(64).enumerate() {
            let mut word = 0u64;
            for (bit, &value) in chunk.iter().enumerate() {
                match value {
                    1 => {}
                    -1 => word |= 1u64 << bit,
                    _ => {
                        let index = word_idx * 64 + bit;
                        return Err(HdvError::InvalidComponent { index, value });
                    }
                }
            }
            words.push(word);
        }
        Ok(Self { dim, words })
    }

    /// Builds a hypervector from a predicate over dimensions; `true` maps
    /// to −1 (set bit), mirroring the storage convention.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`.
    pub fn from_fn<F: FnMut(usize) -> bool>(dim: usize, mut f: F) -> Result<Self, HdvError> {
        Self::check_dim(dim)?;
        let mut words = Vec::with_capacity(Self::word_count(dim));
        for base in (0..dim).step_by(64) {
            let take = usize::min(64, dim - base);
            let mut word = 0u64;
            for bit in 0..take {
                if f(base + bit) {
                    word |= 1u64 << bit;
                }
            }
            words.push(word);
        }
        Ok(Self { dim, words })
    }

    /// Builds a hypervector from packed words in the layout of
    /// [`words`](Self::words): bit `i % 64` of word `i / 64` set ⇔
    /// component `i` is −1.
    ///
    /// # Errors
    ///
    /// Returns [`HdvError::ZeroDimension`] if `dim == 0`,
    /// [`HdvError::WordCount`] unless there are `dim.div_ceil(64)` words,
    /// and [`HdvError::TailBits`] if a bit beyond `dim` is set.
    pub fn from_words(dim: usize, words: Vec<u64>) -> Result<Self, HdvError> {
        Self::check_dim(dim)?;
        let expected = Self::word_count(dim);
        if words.len() != expected {
            return Err(HdvError::WordCount {
                expected,
                found: words.len(),
            });
        }
        if words[expected - 1] & !Self::tail_mask(dim) != 0 {
            return Err(HdvError::TailBits);
        }
        Ok(Self { dim, words })
    }

    /// The dimensionality d.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed 64-bit words (bit = 1 ⇔ component −1). Bits beyond
    /// `dim()` in the last word are zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The component at `index`, +1 or −1.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()`.
    #[must_use]
    pub fn component(&self, index: usize) -> i8 {
        assert!(
            index < self.dim,
            "component index {index} out of bounds for dimension {}",
            self.dim
        );
        if (self.words[index / 64] >> (index % 64)) & 1 == 1 {
            -1
        } else {
            1
        }
    }

    /// Sets the component at `index` to `value` (+1 or −1).
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim()` or `value` is not ±1.
    pub fn set_component(&mut self, index: usize, value: i8) {
        assert!(
            index < self.dim,
            "component index {index} out of bounds for dimension {}",
            self.dim
        );
        assert!(value == 1 || value == -1, "component must be +1 or -1");
        let word = index / 64;
        let bit = 1u64 << (index % 64);
        if value == -1 {
            self.words[word] |= bit;
        } else {
            self.words[word] &= !bit;
        }
    }

    /// Returns the components as `i8` values (+1/−1).
    #[must_use]
    pub fn to_components(&self) -> Vec<i8> {
        let mut out = Vec::with_capacity(self.dim);
        for (word_idx, &word) in self.words.iter().enumerate() {
            let take = usize::min(64, self.dim - word_idx * 64);
            out.extend((0..take).map(|bit| 1 - 2 * ((word >> bit) & 1) as i8));
        }
        out
    }

    /// Iterates over components as +1/−1 values.
    pub fn iter(&self) -> impl Iterator<Item = i8> + '_ {
        let dim = self.dim;
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(word_idx, &word)| {
                let take = usize::min(64, dim - word_idx * 64);
                (0..take).map(move |bit| 1 - 2 * ((word >> bit) & 1) as i8)
            })
    }

    /// Binds two hypervectors (element-wise multiplication; XOR on the
    /// packed representation). Binding is commutative, associative and
    /// self-inverse, and the result is quasi-orthogonal to both operands.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn bind(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.bind_assign(other);
        out
    }

    /// In-place [`bind`](Self::bind).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn bind_assign(&mut self, other: &Self) {
        assert_eq!(
            self.dim, other.dim,
            "cannot bind hypervectors of dimensions {} and {}",
            self.dim, other.dim
        );
        for (word, other) in self.words.iter_mut().zip(&other.words) {
            *word ^= other;
        }
    }

    /// Returns the element-wise negation (every +1 ↔ −1).
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        if let Some(last) = words.last_mut() {
            *last &= Self::tail_mask(self.dim);
        }
        Self {
            dim: self.dim,
            words,
        }
    }

    /// Circularly shifts components by `shift` positions (Kanerva's
    /// permutation operation ρ): output dimension `(i + shift) mod d` takes
    /// the value of input dimension `i`. `permute(0)` is the identity.
    ///
    /// Runs word-at-a-time: the rotation of the d-bit ring decomposes into
    /// an upward shift by `shift` OR-ed with a downward shift by
    /// `d − shift`, each a funnel shift stitching adjacent words, so the
    /// cost is ~2 passes over the packed words regardless of `shift`.
    #[must_use]
    pub fn permute(&self, shift: usize) -> Self {
        let shift = shift % self.dim;
        if shift == 0 {
            return self.clone();
        }
        Self {
            dim: self.dim,
            words: self.rotated_words(shift),
        }
    }

    /// In-place [`permute`](Self::permute): replaces this vector's storage
    /// with the rotation. The rotation itself still builds one scratch
    /// word buffer (a true in-place bit-ring rotation would cost extra
    /// passes), so the win over `permute` is skipping the result-object
    /// construction — and `permute_assign(0)` is entirely free where
    /// `permute(0)` clones.
    pub fn permute_assign(&mut self, shift: usize) {
        let shift = shift % self.dim;
        if shift == 0 {
            return;
        }
        self.words = self.rotated_words(shift);
    }

    /// Rotates the d-bit ring upward by `shift` (`0 < shift < dim`),
    /// returning the new packed words.
    ///
    /// Output bit `j` is input bit `(j − shift) mod d`: bits `j ≥ shift`
    /// come from the upward funnel shift by `shift`, bits `j < shift` wrap
    /// around from the top of the ring, i.e. the downward funnel shift by
    /// `d − shift`. The two contributions cannot overlap because bits
    /// beyond `dim` in the last source word are zero (storage invariant);
    /// bits the upward shift pushes past `dim` are cut by the tail mask.
    fn rotated_words(&self, shift: usize) -> Vec<u64> {
        debug_assert!(shift > 0 && shift < self.dim);
        let src = &self.words;
        let n = src.len();
        let mut out = vec![0u64; n];

        // Upward part: out[w] takes src[w − off] stitched with the spill
        // of src[w − off − 1] (split the shift into whole words + bits).
        let off = shift / 64;
        let bits = shift % 64;
        if bits == 0 {
            out[off..n].copy_from_slice(&src[..n - off]);
        } else {
            for w in off..n {
                let lo = src[w - off] << bits;
                let hi = if w > off {
                    src[w - off - 1] >> (64 - bits)
                } else {
                    0
                };
                out[w] = lo | hi;
            }
        }

        // Wrap-around part: the top `shift` bits of the ring land at the
        // bottom — a downward shift by `back = d − shift`.
        let back = self.dim - shift;
        let off = back / 64;
        let bits = back % 64;
        if bits == 0 {
            for w in 0..n - off {
                out[w] |= src[w + off];
            }
        } else {
            for w in 0..n - off {
                let lo = src[w + off] >> bits;
                let hi = if w + off + 1 < n {
                    src[w + off + 1] << (64 - bits)
                } else {
                    0
                };
                out[w] |= lo | hi;
            }
        }

        if let Some(last) = out.last_mut() {
            *last &= Self::tail_mask(self.dim);
        }
        out
    }

    /// Number of −1 components (popcount of the packed words).
    #[must_use]
    pub fn count_negative(&self) -> usize {
        backend::popcount(&self.words) as usize
    }

    /// Hamming distance: the number of dimensions where the two vectors
    /// disagree.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(
            self.dim, other.dim,
            "cannot compare hypervectors of dimensions {} and {}",
            self.dim, other.dim
        );
        // Harley–Seal XOR+popcount. Inference decisions do not come
        // through here: they use `ClassMemory`'s dispatched tiled scan.
        backend::hamming(&self.words, &other.words) as usize
    }

    /// Dot product over the ±1 components: `d − 2·hamming`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn dot(&self, other: &Self) -> i64 {
        self.dim as i64 - 2 * self.hamming(other) as i64
    }

    /// Cosine similarity in [−1, 1]. For bipolar vectors every vector has
    /// norm √d, so this is exactly `dot / d`. This is the similarity metric
    /// δ used by GraphHD at inference time.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn cosine(&self, other: &Self) -> f64 {
        self.dot(other) as f64 / self.dim as f64
    }

    /// Normalized Hamming similarity in [0, 1]: `1 − hamming/d`, the
    /// "inverse Hamming distance" mentioned by the paper as an alternative
    /// similarity metric.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    #[must_use]
    pub fn hamming_similarity(&self, other: &Self) -> f64 {
        1.0 - self.hamming(other) as f64 / self.dim as f64
    }

    /// Returns a copy with each component independently flipped with
    /// probability `rate`, modelling bit-level faults in an HDC memory.
    ///
    /// Flip positions are drawn by geometric skip-sampling — the gap
    /// between consecutive flipped bits of an independent-Bernoulli
    /// process is geometric — so the cost is ~`d·rate` RNG draws instead
    /// of one draw per dimension. The flip-count distribution is exactly
    /// Binomial(d, rate); only the RNG consumption pattern differs from a
    /// per-bit implementation.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a finite value in `[0, 1]`.
    #[must_use]
    pub fn with_noise<R: WordRng>(&self, rate: f64, rng: &mut R) -> Self {
        let mut out = self.clone();
        out.add_noise(rate, rng);
        out
    }

    /// In-place [`with_noise`](Self::with_noise).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a finite value in `[0, 1]`.
    pub fn add_noise<R: WordRng>(&mut self, rate: f64, rng: &mut R) {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "noise rate must lie in [0, 1], got {rate}"
        );
        if rate == 0.0 {
            return;
        }
        if rate >= 1.0 {
            for w in self.words.iter_mut() {
                *w = !*w;
            }
            if let Some(last) = self.words.last_mut() {
                *last &= Self::tail_mask(self.dim);
            }
            return;
        }
        // Skip-sample: jump straight to the next flipped bit. Gaps can
        // exceed any index for tiny rates, hence the saturating walk.
        let dim = self.dim as u64;
        let mut index = rng.geometric(rate);
        while index < dim {
            self.words[(index / 64) as usize] ^= 1u64 << (index % 64);
            index = index.saturating_add(1).saturating_add(rng.geometric(rate));
        }
    }

    /// Flips the components at the given indices in place.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn flip_indices(&mut self, indices: &[usize]) {
        for &i in indices {
            assert!(
                i < self.dim,
                "flip index {i} out of bounds for dimension {}",
                self.dim
            );
            self.words[i / 64] ^= 1u64 << (i % 64);
        }
    }

    /// A deterministic "tie-break" hypervector derived from `seed`; used by
    /// [`Accumulator::to_hypervector`](crate::Accumulator::to_hypervector)
    /// to resolve majority ties pseudo-randomly but reproducibly.
    pub(crate) fn tie_pattern(dim: usize, seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut words: Vec<u64> = (0..Self::word_count(dim)).map(|_| sm.next_u64()).collect();
        if let Some(last) = words.last_mut() {
            *last &= Self::tail_mask(dim);
        }
        Self { dim, words }
    }
}

impl core::fmt::Debug for Hypervector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Hypervector")
            .field("dim", &self.dim)
            .field("negative_components", &self.count_negative())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(1234)
    }

    /// Exhaustive per-bit reference implementations of the word-level
    /// kernels. They exist only under `#[cfg(test)]`: equivalence with the
    /// fast paths is property-checked here and in `tests/word_kernels.rs`,
    /// never assumed.
    mod reference {
        use super::*;

        pub fn permute(v: &Hypervector, shift: usize) -> Hypervector {
            let dim = v.dim();
            let mut out = Hypervector::positive(dim).expect("non-zero dimension");
            for i in 0..dim {
                out.set_component((i + shift) % dim, v.component(i));
            }
            out
        }

        pub fn from_components(components: &[i8]) -> Result<Hypervector, HdvError> {
            Hypervector::check_dim(components.len())?;
            let mut out = Hypervector::positive(components.len())?;
            for (i, &c) in components.iter().enumerate() {
                match c {
                    1 => {}
                    -1 => out.set_component(i, -1),
                    other => {
                        return Err(HdvError::InvalidComponent {
                            index: i,
                            value: other,
                        })
                    }
                }
            }
            Ok(out)
        }

        pub fn to_components(v: &Hypervector) -> Vec<i8> {
            (0..v.dim()).map(|i| v.component(i)).collect()
        }
    }

    #[test]
    fn permute_matches_per_bit_reference() {
        let mut r = rng();
        for dim in [1usize, 5, 63, 64, 65, 127, 128, 200, 1000] {
            let v = Hypervector::random(dim, &mut r).unwrap();
            for shift in [0, 1, 13, 63, 64, 65, dim - 1, dim, dim + 7] {
                assert_eq!(
                    v.permute(shift).words(),
                    reference::permute(&v, shift % dim).words(),
                    "dim {dim} shift {shift}"
                );
            }
        }
    }

    #[test]
    fn permute_assign_matches_permute() {
        let mut r = rng();
        let v = Hypervector::random(300, &mut r).unwrap();
        for shift in [0usize, 1, 64, 77, 299, 300, 613] {
            let mut w = v.clone();
            w.permute_assign(shift);
            assert_eq!(w, v.permute(shift));
        }
    }

    #[test]
    fn component_ops_match_per_bit_reference() {
        let mut r = rng();
        for dim in [1usize, 63, 64, 65, 130, 500] {
            let v = Hypervector::random(dim, &mut r).unwrap();
            let comps = reference::to_components(&v);
            assert_eq!(v.to_components(), comps);
            assert_eq!(v.iter().collect::<Vec<_>>(), comps);
            assert_eq!(
                Hypervector::from_components(&comps).unwrap(),
                reference::from_components(&comps).unwrap()
            );
            let built = Hypervector::from_fn(dim, |i| comps[i] == -1).unwrap();
            assert_eq!(built, v);
        }
    }

    #[test]
    fn add_noise_matches_with_noise() {
        let mut r = rng();
        let v = Hypervector::random(777, &mut r).unwrap();
        for rate in [0.0, 0.05, 0.5, 1.0] {
            let mut a = Xoshiro256PlusPlus::seed_from_u64(9);
            let mut b = Xoshiro256PlusPlus::seed_from_u64(9);
            let copied = v.with_noise(rate, &mut a);
            let mut in_place = v.clone();
            in_place.add_noise(rate, &mut b);
            assert_eq!(copied, in_place);
        }
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(matches!(
            Hypervector::positive(0),
            Err(HdvError::ZeroDimension)
        ));
        assert!(matches!(
            Hypervector::random(0, &mut rng()),
            Err(HdvError::ZeroDimension)
        ));
    }

    #[test]
    fn positive_and_negative_are_opposites() {
        for dim in [1, 63, 64, 65, 100, 10_000] {
            let p = Hypervector::positive(dim).unwrap();
            let n = Hypervector::negative(dim).unwrap();
            assert_eq!(p.count_negative(), 0);
            assert_eq!(n.count_negative(), dim);
            assert_eq!(p.negated(), n);
            assert_eq!(p.cosine(&n), -1.0);
        }
    }

    #[test]
    fn tail_bits_stay_clear() {
        // dim not a multiple of 64 exercises the tail mask.
        let dim = 70;
        let mut r = rng();
        let a = Hypervector::random(dim, &mut r).unwrap();
        let b = Hypervector::random(dim, &mut r).unwrap();
        for v in [
            a.bind(&b),
            a.negated(),
            a.permute(13),
            a.with_noise(0.5, &mut r),
        ] {
            let tail = v.words().last().copied().unwrap();
            assert_eq!(tail & !((1u64 << (dim % 64)) - 1), 0, "tail bits leaked");
        }
    }

    #[test]
    fn from_components_roundtrip() {
        let comps = [1i8, -1, -1, 1, -1];
        let v = Hypervector::from_components(&comps).unwrap();
        assert_eq!(v.to_components(), comps);
    }

    #[test]
    fn from_components_rejects_invalid() {
        let out = Hypervector::from_components(&[1, 0, -1]);
        assert!(matches!(
            out,
            Err(HdvError::InvalidComponent { index: 1, value: 0 })
        ));
    }

    #[test]
    fn from_components_reports_first_invalid_index() {
        let mut comps = vec![1i8; 130];
        comps[67] = -1;
        let v = Hypervector::from_components(&comps).expect("valid input");
        assert_eq!(v.words()[1], 1 << 3);
        // The first bad value sits past the first word; a later one must
        // not be reported instead.
        comps[100] = 0;
        comps[120] = 7;
        assert!(matches!(
            Hypervector::from_components(&comps),
            Err(HdvError::InvalidComponent {
                index: 100,
                value: 0
            })
        ));
    }

    #[test]
    fn bind_is_self_inverse_and_identity() {
        let mut r = rng();
        let a = Hypervector::random(1000, &mut r).unwrap();
        let ident = Hypervector::positive(1000).unwrap();
        assert_eq!(a.bind(&a), ident);
        assert_eq!(a.bind(&ident), a);
    }

    #[test]
    fn bind_preserves_distance() {
        let mut r = rng();
        let a = Hypervector::random(2048, &mut r).unwrap();
        let b = Hypervector::random(2048, &mut r).unwrap();
        let c = Hypervector::random(2048, &mut r).unwrap();
        assert_eq!(a.bind(&c).hamming(&b.bind(&c)), a.hamming(&b));
    }

    #[test]
    #[should_panic(expected = "cannot bind")]
    fn bind_dimension_mismatch_panics() {
        let a = Hypervector::positive(64).unwrap();
        let b = Hypervector::positive(128).unwrap();
        let _ = a.bind(&b);
    }

    #[test]
    fn random_vectors_are_quasi_orthogonal() {
        let mut r = rng();
        let a = Hypervector::random(10_000, &mut r).unwrap();
        let b = Hypervector::random(10_000, &mut r).unwrap();
        assert!(a.cosine(&b).abs() < 0.05);
        // And roughly balanced.
        let frac = a.count_negative() as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn permute_rotates_and_inverts() {
        let mut r = rng();
        let a = Hypervector::random(100, &mut r).unwrap();
        let p = a.permute(17);
        assert_eq!(p.component(17), a.component(0));
        assert_eq!(p.component(0), a.component(83));
        assert_eq!(p.permute(100 - 17), a);
        assert_eq!(a.permute(0), a);
        assert_eq!(a.permute(100), a);
    }

    #[test]
    fn permute_preserves_pairwise_distance() {
        let mut r = rng();
        let a = Hypervector::random(500, &mut r).unwrap();
        let b = Hypervector::random(500, &mut r).unwrap();
        assert_eq!(a.permute(7).hamming(&b.permute(7)), a.hamming(&b));
    }

    #[test]
    fn dot_matches_hamming_identity() {
        let mut r = rng();
        let a = Hypervector::random(300, &mut r).unwrap();
        let b = Hypervector::random(300, &mut r).unwrap();
        assert_eq!(a.dot(&b), 300 - 2 * a.hamming(&b) as i64);
        let naive: i64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| i64::from(x) * i64::from(y))
            .sum();
        assert_eq!(a.dot(&b), naive);
    }

    #[test]
    fn noise_zero_and_one_are_exact() {
        let mut r = rng();
        let a = Hypervector::random(256, &mut r).unwrap();
        assert_eq!(a.with_noise(0.0, &mut r), a);
        assert_eq!(a.with_noise(1.0, &mut r), a.negated());
    }

    #[test]
    fn noise_rate_is_respected() {
        let mut r = rng();
        let a = Hypervector::random(10_000, &mut r).unwrap();
        let noisy = a.with_noise(0.1, &mut r);
        let flipped = a.hamming(&noisy) as f64 / 10_000.0;
        assert!((flipped - 0.1).abs() < 0.02, "flip fraction {flipped}");
    }

    #[test]
    fn flip_indices_flips_exactly() {
        let mut v = Hypervector::positive(128).unwrap();
        v.flip_indices(&[0, 64, 127]);
        assert_eq!(v.count_negative(), 3);
        assert_eq!(v.component(64), -1);
        v.flip_indices(&[64]);
        assert_eq!(v.component(64), 1);
    }

    #[test]
    fn hamming_similarity_bounds() {
        let mut r = rng();
        let a = Hypervector::random(512, &mut r).unwrap();
        assert_eq!(a.hamming_similarity(&a), 1.0);
        assert_eq!(a.hamming_similarity(&a.negated()), 0.0);
    }

    #[test]
    fn debug_is_nonempty_and_compact() {
        let v = Hypervector::positive(64).unwrap();
        let s = format!("{v:?}");
        assert!(s.contains("Hypervector"));
        assert!(s.contains("dim"));
    }
}
