//! Runtime-dispatched kernel backends for the packed-word hot paths.
//!
//! Four bulk kernels over `u64` words carry the traffic, and only they
//! are dispatched:
//!
//! - [`Backend::bundle_edges`] — graph encoding: the fused edge bundle
//!   that binds, counts and thresholds in one pass;
//! - [`Backend::hamming_tile`] — inference: the class scan that scores a
//!   tile of queries against a block of interleaved class vectors;
//! - [`Backend::add_weighted`] and [`Backend::threshold`] — the signed
//!   counter update and sign packing of the `fit` and `retrain`
//!   accumulators.
//!
//! Each has three implementations:
//!
//! - **Scalar** — portable Rust, the *source of truth*. The fused edge
//!   bundle runs an unrolled Harley–Seal carry-save-adder tree (16 votes
//!   per round) over `[u64; 8]` chunks of bound edges.
//! - **Avx2** — `std::arch` intrinsics (AVX2 + POPCNT, via the positional
//!   nibble-lookup popcount of Muła et al.), selected at runtime with
//!   `is_x86_feature_detected!`. The fused edge bundle holds each
//!   512-bit chunk in two registers.
//! - **Avx512** — selected when AVX-512F and AVX512-VPOPCNTDQ are
//!   detected on top of AVX2 + POPCNT. Two kernels are native: the class
//!   scan, a `vpopcntq` over one whole 8-lane block per 512-bit
//!   register, and the fused edge bundle, one register per chunk with
//!   each carry-save adder two `vpternlogq` ops and a masked load for
//!   the partial last chunk. The counter kernels run the AVX2 code.
//!
//! Everything else over packed words — Hamming distance and popcount
//! (the crate-private Harley–Seal `hamming` and `popcount` here),
//! binding and component packing — is plain portable code that no
//! workload spends its time in.
//!
//! Dispatch happens once per process: [`Backend::active`] caches the
//! detected backend, and setting the environment variable
//! `GRAPHHD_FORCE_SCALAR` (to anything but empty, `0`, `false` or `off`)
//! pins the scalar reference — the differential-testing and
//! benchmarking switch. Tests and benches compare backends directly by
//! value: [`Backend::scalar`] versus every entry of
//! [`Backend::available`], so they do not depend on process-global
//! environment state.
//!
//! The SIMD paths are required to be **bit-identical** to the scalar
//! reference for every input; `tests/backend_differential.rs` enforces
//! this across word-boundary dimension grids.

// The workspace denies `unsafe_code`; `std::arch` intrinsics are unsafe
// by construction, so this one module opts out. Every unsafe block must
// still carry a SAFETY comment (clippy::undocumented_unsafe_blocks is
// denied workspace-wide).
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Number of vectors interleaved per block by
/// [`ClassMemory`](crate::ClassMemory); the block kernels below are
/// written against this width (8 × u64 = two 256-bit or one 512-bit
/// register).
pub const BLOCK_LANES: usize = 8;

/// Most queries one [`Backend::hamming_tile`] call scores against a
/// block: the tile's `TILE_QUERIES × BLOCK_LANES` distance accumulators
/// stay in registers while the block streams past them once.
pub const TILE_QUERIES: usize = 8;

/// Tie-resolution input for the [`Backend::threshold`] kernel: for each
/// 64-counter chunk, the word whose bits decide zero-count dimensions.
#[derive(Debug, Clone, Copy)]
pub enum TieWords<'a> {
    /// Every chunk uses the same tie word (all-zeros resolves ties to +1,
    /// all-ones to −1).
    Constant(u64),
    /// Chunk `i` uses `pattern[i]` (the seeded pseudo-random policy).
    Pattern(&'a [u64]),
}

impl TieWords<'_> {
    #[inline]
    fn word(&self, chunk: usize) -> u64 {
        match self {
            TieWords::Constant(w) => *w,
            TieWords::Pattern(p) => p[chunk],
        }
    }
}

/// Words per chunk of [`Backend::bundle_edges`]: 512 bits, one AVX-512
/// register or two AVX2 registers.
const CHUNK_WORDS: usize = 8;

/// Most count bit planes a fused bundle needs: vote totals fit `u32`.
const MAX_PLANES: usize = 32;

/// How a fused bundle's per-dimension vote counts are held and judged:
/// the number of bit planes (at least the four Harley–Seal registers,
/// enough for the vote total) and half the vote total, the majority
/// threshold the planes are compared against.
#[derive(Debug, Clone, Copy)]
struct Planes {
    count: usize,
    half: u32,
}

impl Planes {
    /// Whether bit `k` of the half-total is set.
    #[inline]
    fn half_bit(self, k: usize) -> bool {
        (self.half >> k) & 1 == 1
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// A kernel implementation selected at runtime.
///
/// The inner kind is private so that the SIMD variants can only be
/// obtained through [`Backend::detect`] / [`Backend::available`], both of
/// which verify the CPU features first — that containment is what makes
/// the `unsafe` intrinsic calls below sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend(Kind);

/// Whether a `GRAPHHD_FORCE_SCALAR` value pins the scalar backend: any
/// value but unset, empty, `0`, `false` or `off` (trimmed, any case)
/// does — the off-words of `GRAPHHD_TELEMETRY`.
fn forces_scalar(value: Option<&str>) -> bool {
    value.is_some_and(|raw| {
        let v = raw.trim().to_ascii_lowercase();
        !matches!(v.as_str(), "" | "0" | "false" | "off")
    })
}

impl Backend {
    /// The portable scalar reference backend (always available).
    #[must_use]
    pub fn scalar() -> Self {
        Backend(Kind::Scalar)
    }

    /// The fastest backend supported by the running CPU.
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
                if is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vpopcntdq")
                {
                    return Backend(Kind::Avx512);
                }
                return Backend(Kind::Avx2);
            }
        }
        Backend(Kind::Scalar)
    }

    /// Every backend usable on the running CPU — scalar, then AVX2, then
    /// AVX-512 — the iteration set for differential tests and kernel
    /// benches. An AVX-512 host lists AVX2 too, since the AVX-512
    /// features are only detected on top of it.
    #[must_use]
    pub fn available() -> Vec<Backend> {
        let mut backends = vec![Backend::scalar()];
        #[cfg(target_arch = "x86_64")]
        {
            let best = Backend::detect();
            if best != Backend::scalar() {
                backends.push(Backend(Kind::Avx2));
            }
            if best.0 == Kind::Avx512 {
                backends.push(best);
            }
        }
        backends
    }

    /// The process-wide backend: [`detect`](Self::detect), unless
    /// `GRAPHHD_FORCE_SCALAR` pins the scalar reference. Resolved once
    /// and cached.
    #[must_use]
    pub fn active() -> Self {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if forces_scalar(std::env::var("GRAPHHD_FORCE_SCALAR").ok().as_deref()) {
                Backend::scalar()
            } else {
                Backend::detect()
            }
        })
    }

    /// A short human-readable name (`"scalar"` / `"avx2"` / `"avx512"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self.0 {
            Kind::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Kind::Avx512 => "avx512",
        }
    }

    /// Whether this backend uses explicit SIMD intrinsics.
    #[must_use]
    pub fn is_simd(self) -> bool {
        self != Backend::scalar()
    }

    /// Signed counter update: `counts[i] += weight` where bit `i` of
    /// `words` is clear, `counts[i] -= weight` where it is set. `counts`
    /// may be shorter than `64 * words.len()` (partial tail word); bits
    /// beyond `counts.len()` must be clear, which is the hypervector
    /// storage invariant.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly `counts.len().div_ceil(64)` long.
    pub fn add_weighted(self, counts: &mut [i32], words: &[u64], weight: i32) {
        assert_eq!(
            words.len(),
            counts.len().div_ceil(64),
            "counter update needs one word per 64 counters"
        );
        match self.0 {
            Kind::Scalar => scalar::add_weighted(counts, words, weight),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx2` and `Kind::Avx512` values are only
            // created by `detect()` / `available()` after
            // `is_x86_feature_detected!` confirmed AVX2 and POPCNT.
            Kind::Avx2 | Kind::Avx512 => unsafe { avx2::add_weighted(counts, words, weight) },
        }
    }

    /// Thresholds signed counters into packed sign words: bit `i` of the
    /// output is 1 (component −1) when `counts[i] < 0`, 0 when positive,
    /// and takes the matching bit of `tie` when the counter is zero.
    /// Output bits beyond `counts.len()` are clear.
    ///
    /// # Panics
    ///
    /// Panics if a [`TieWords::Pattern`] holds fewer than one word per
    /// 64-counter chunk.
    #[must_use]
    pub fn threshold(self, counts: &[i32], tie: TieWords<'_>) -> Vec<u64> {
        if let TieWords::Pattern(pattern) = tie {
            assert!(
                pattern.len() >= counts.len().div_ceil(64),
                "tie pattern needs one word per 64 counters"
            );
        }
        match self.0 {
            Kind::Scalar => scalar::threshold(counts, tie),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: both SIMD kinds imply runtime-verified AVX2+POPCNT.
            Kind::Avx2 | Kind::Avx512 => unsafe { avx2::threshold(counts, tie) },
        }
    }

    /// The fused edge-bundle kernel: writes into `out` the packed
    /// majority of the bound pairs `lo[a] ⊗ hi[b]`, each edge `(a, b,
    /// votes)` counted `votes` times, without materialising
    /// per-dimension counters.
    ///
    /// `lo` and `hi` are row tables of `dim.div_ceil(64)` words per row
    /// (row `r` is words `r * stride..(r + 1) * stride`); they may be the
    /// same table. Output bit `i` is 1 (component −1) when more than half
    /// of the votes have bit `i` set, 0 when fewer, and takes the
    /// matching bit of `tie` on an exact half — every bit, when the edges
    /// carry no votes. Bits beyond `dim` are clear. The result is
    /// bit-identical to adding each bound pair to an
    /// [`Accumulator`](crate::Accumulator) with weight `votes` and
    /// thresholding it.
    ///
    /// The output is built one 512-bit chunk at a time: every vote's
    /// bound chunk streams through a Harley–Seal carry-save tree (16
    /// votes per round) into per-dimension count bit planes, which are
    /// then compared against half the vote total, most significant plane
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `out` or a [`TieWords::Pattern`] does not
    /// hold `dim.div_ceil(64)` words, a table is not a whole number of
    /// rows, an edge names a row outside its table, or the votes total
    /// more than `u32::MAX`.
    pub fn bundle_edges(
        self,
        dim: usize,
        lo: &[u64],
        hi: &[u64],
        edges: &[(u32, u32, u32)],
        tie: TieWords<'_>,
        out: &mut [u64],
    ) {
        assert!(dim > 0, "a fused bundle needs a non-zero dimension");
        let stride = dim.div_ceil(64);
        assert_eq!(out.len(), stride, "the output needs dim.div_ceil(64) words");
        assert!(
            lo.len().is_multiple_of(stride) && hi.len().is_multiple_of(stride),
            "row tables must hold whole rows of dim.div_ceil(64) words"
        );
        if let TieWords::Pattern(pattern) = tie {
            assert!(
                pattern.len() >= stride,
                "tie pattern needs one word per 64 dimensions"
            );
        }
        let total: u64 = edges.iter().map(|&(_, _, votes)| u64::from(votes)).sum();
        assert!(
            total <= u64::from(u32::MAX),
            "a fused bundle counts at most u32::MAX votes"
        );
        let added = total as u32;
        // The SIMD chunk kernels load rows at these word offsets without
        // bounds checks, so every endpoint is validated here, once.
        let (lo_rows, hi_rows) = (lo.len() / stride, hi.len() / stride);
        let mut pairs = Vec::with_capacity(added as usize);
        for &(a, b, votes) in edges {
            let (a, b) = (a as usize, b as usize);
            assert!(
                a < lo_rows && b < hi_rows,
                "edge ({a}, {b}) names a row outside its table"
            );
            pairs.extend(std::iter::repeat_n(
                [a * stride, b * stride],
                votes as usize,
            ));
        }
        let shape = Planes {
            count: ((u32::BITS - added.leading_zeros()) as usize).max(4),
            half: added / 2,
        };
        for (chunk, words) in out.chunks_mut(CHUNK_WORDS).enumerate() {
            let w0 = chunk * CHUNK_WORDS;
            let (gt, eq) = match self.0 {
                Kind::Scalar => scalar::bundle_chunk(lo, hi, &pairs, w0, words.len(), shape),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Kind::Avx2` implies runtime-verified AVX2; every
                // offset in `pairs` starts a whole row of its table (checked
                // above) and `w0 + words.len() <= stride`.
                Kind::Avx2 => unsafe { avx2::bundle_chunk(lo, hi, &pairs, w0, words.len(), shape) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Kind::Avx512` implies runtime-verified AVX-512F;
                // the row offsets are in bounds as for AVX2 above.
                Kind::Avx512 => unsafe {
                    avx512::bundle_chunk(lo, hi, &pairs, w0, words.len(), shape)
                },
            };
            for (i, word) in words.iter_mut().enumerate() {
                *word = if added.is_multiple_of(2) {
                    gt[i] | (eq[i] & tie.word(w0 + i))
                } else {
                    gt[i]
                };
            }
        }
        if !dim.is_multiple_of(64) {
            out[stride - 1] &= (1u64 << (dim % 64)) - 1;
        }
    }

    /// The class-scan kernel: for each query of a tile and each of the
    /// [`BLOCK_LANES`] vectors interleaved in `block`
    /// (`block[w * BLOCK_LANES + lane]` is word `w` of vector `lane`),
    /// accumulates the XOR-popcount into `acc[query][lane]`. The SIMD
    /// backends load each block word once for the whole tile and keep
    /// the `queries.len() × BLOCK_LANES` sums in registers; a tile of one
    /// query is the single-query scan.
    ///
    /// # Panics
    ///
    /// Panics if `acc` does not hold one row per query, the tile holds
    /// more than [`TILE_QUERIES`] queries, or a query does not have
    /// `block.len() / BLOCK_LANES` words.
    pub fn hamming_tile(self, queries: &[&[u64]], block: &[u64], acc: &mut [[u64; BLOCK_LANES]]) {
        assert_eq!(
            queries.len(),
            acc.len(),
            "hamming tile needs one accumulator row per query"
        );
        assert!(
            queries.len() <= TILE_QUERIES,
            "a hamming tile holds at most {TILE_QUERIES} queries"
        );
        for query in queries {
            assert_eq!(
                block.len(),
                query.len() * BLOCK_LANES,
                "interleaved block must hold BLOCK_LANES words per query word"
            );
        }
        match self.0 {
            Kind::Scalar => scalar::hamming_tile(queries, block, acc),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx2` implies runtime-verified AVX2+POPCNT.
            Kind::Avx2 => unsafe { avx2::hamming_tile(queries, block, acc) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx512` implies runtime-verified AVX-512F and
            // AVX512-VPOPCNTDQ.
            Kind::Avx512 => unsafe { avx512::hamming_tile(queries, block, acc) },
        }
    }
}

/// Expands to a `match` on the tile size that calls the const-generic
/// `$tile::<Q>` kernel with `Q = queries.len()` (at most
/// [`TILE_QUERIES`]), so every tile size keeps its own fixed set of
/// register accumulators.
#[cfg(target_arch = "x86_64")]
macro_rules! by_tile_size {
    ($tile:ident($queries:expr, $block:expr, $acc:expr)) => {
        match $queries.len() {
            0 => {}
            1 => $tile::<1>($queries, $block, $acc),
            2 => $tile::<2>($queries, $block, $acc),
            3 => $tile::<3>($queries, $block, $acc),
            4 => $tile::<4>($queries, $block, $acc),
            5 => $tile::<5>($queries, $block, $acc),
            6 => $tile::<6>($queries, $block, $acc),
            7 => $tile::<7>($queries, $block, $acc),
            _ => $tile::<{ super::TILE_QUERIES }>($queries, $block, $acc),
        }
    };
}

/// One Harley–Seal round: folds the 16 inputs `$input!(0)` ..
/// `$input!(15)` into the carry-save planes `$ones`, `$twos`, `$fours`
/// and `$eights` with the three-input adder `$csa` (returning `(sum,
/// carry)`), and evaluates to the round's `sixteens` carry. Shared by
/// the scalar popcount and the fused edge-bundle kernels.
macro_rules! csa_round {
    ($csa:ident, $input:ident, $ones:ident, $twos:ident, $fours:ident, $eights:ident) => {{
        let (mut twos_a, mut twos_b, mut fours_a, mut fours_b, eights_a, eights_b, sixteens);
        ($ones, twos_a) = $csa($ones, $input!(0), $input!(1));
        ($ones, twos_b) = $csa($ones, $input!(2), $input!(3));
        ($twos, fours_a) = $csa($twos, twos_a, twos_b);
        ($ones, twos_a) = $csa($ones, $input!(4), $input!(5));
        ($ones, twos_b) = $csa($ones, $input!(6), $input!(7));
        ($twos, fours_b) = $csa($twos, twos_a, twos_b);
        ($fours, eights_a) = $csa($fours, fours_a, fours_b);
        ($ones, twos_a) = $csa($ones, $input!(8), $input!(9));
        ($ones, twos_b) = $csa($ones, $input!(10), $input!(11));
        ($twos, fours_a) = $csa($twos, twos_a, twos_b);
        ($ones, twos_a) = $csa($ones, $input!(12), $input!(13));
        ($ones, twos_b) = $csa($ones, $input!(14), $input!(15));
        ($twos, fours_b) = $csa($twos, twos_a, twos_b);
        ($fours, eights_b) = $csa($fours, fours_a, fours_b);
        ($eights, sixteens) = $csa($eights, eights_a, eights_b);
        sixteens
    }};
}

pub(crate) use scalar::{hamming, popcount};

/// Portable reference kernels. Exact by construction; every other backend
/// is tested bit-identical against these.
mod scalar {
    use super::{Planes, TieWords, BLOCK_LANES, CHUNK_WORDS, MAX_PLANES};

    /// Carry-save adder: compresses three equal-weight words into a sum
    /// word (same weight) and a carry word (double weight).
    #[inline(always)]
    fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
        let partial = a ^ b;
        (partial ^ c, (a & b) | (partial & c))
    }

    /// Harley–Seal popcount over `len` words produced by `word(i)`:
    /// a 16-word CSA tree per round turns 16 `count_ones` calls into one
    /// (plus four at drain time). Exact for any input.
    #[inline(always)]
    fn harley_seal<F: FnMut(usize) -> u64>(len: usize, mut word: F) -> u64 {
        let (mut ones, mut twos, mut fours, mut eights) = (0u64, 0u64, 0u64, 0u64);
        let mut total = 0u64;
        let rounds = len / 16;
        for r in 0..rounds {
            let base = r * 16;
            macro_rules! input {
                ($i:expr) => {
                    word(base + $i)
                };
            }
            let sixteens = csa_round!(csa, input, ones, twos, fours, eights);
            total += 16 * u64::from(sixteens.count_ones());
        }
        total += 8 * u64::from(eights.count_ones());
        total += 4 * u64::from(fours.count_ones());
        total += 2 * u64::from(twos.count_ones());
        total += u64::from(ones.count_ones());
        for i in rounds * 16..len {
            total += u64::from(word(i).count_ones());
        }
        total
    }

    /// Hamming distance of two word slices; `b` must be at least as
    /// long as `a`.
    pub fn hamming(a: &[u64], b: &[u64]) -> u64 {
        harley_seal(a.len(), |i| a[i] ^ b[i])
    }

    /// Number of set bits in a word slice.
    pub fn popcount(words: &[u64]) -> u64 {
        harley_seal(words.len(), |i| words[i])
    }

    pub fn add_weighted(counts: &mut [i32], words: &[u64], weight: i32) {
        // Per packed word (bit=1 ⇔ −1): credit every counter with +weight
        // in a branch-free (vectorizable) pass, then walk only the set
        // bits to turn their +weight into −weight. Constant words skip a
        // pass entirely.
        for (word_idx, &word) in words.iter().enumerate() {
            let base = word_idx * 64;
            let upper = usize::min(base + 64, counts.len());
            let chunk = &mut counts[base..upper];
            // Wrapping arithmetic throughout: the SIMD paths wrap on i32
            // overflow by construction, and the backends must stay
            // bit-identical even on that (unreachable in practice) edge.
            if word == 0 {
                for count in chunk.iter_mut() {
                    *count = count.wrapping_add(weight);
                }
            } else if word == !0u64 && chunk.len() == 64 {
                for count in chunk.iter_mut() {
                    *count = count.wrapping_sub(weight);
                }
            } else {
                for count in chunk.iter_mut() {
                    *count = count.wrapping_add(weight);
                }
                let mut bits = word;
                while bits != 0 {
                    // Bits beyond the chunk are clear per the kernel
                    // contract, so every set bit indexes a valid counter.
                    let bit = bits.trailing_zeros() as usize;
                    chunk[bit] = chunk[bit].wrapping_sub(weight).wrapping_sub(weight);
                    bits &= bits - 1;
                }
            }
        }
    }

    pub fn threshold(counts: &[i32], tie: TieWords<'_>) -> Vec<u64> {
        // Branch-free per 64-counter chunk: a sign mask and a zero mask,
        // then the tie word fills the zero positions. Bits past a partial
        // chunk are clear in both masks, so they stay clear.
        counts
            .chunks(64)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                let (mut neg, mut zero) = (0u64, 0u64);
                for (bit, &c) in chunk.iter().enumerate() {
                    neg |= u64::from(c < 0) << bit;
                    zero |= u64::from(c == 0) << bit;
                }
                neg | (zero & tie.word(chunk_idx))
            })
            .collect()
    }

    /// One query at a time: the reference the tiled SIMD kernels must
    /// reproduce.
    pub fn hamming_tile(queries: &[&[u64]], block: &[u64], acc: &mut [[u64; BLOCK_LANES]]) {
        for (query, row) in queries.iter().zip(acc) {
            for (w, &q) in query.iter().enumerate() {
                let base = w * BLOCK_LANES;
                for (lane, slot) in row.iter_mut().enumerate() {
                    *slot += u64::from((q ^ block[base + lane]).count_ones());
                }
            }
        }
    }

    type Chunk = [u64; CHUNK_WORDS];

    /// [`csa`] on every word of a chunk.
    #[inline(always)]
    fn csa_chunk(a: Chunk, b: Chunk, c: Chunk) -> (Chunk, Chunk) {
        let (mut sum, mut carry) = ([0; CHUNK_WORDS], [0; CHUNK_WORDS]);
        for i in 0..CHUNK_WORDS {
            (sum[i], carry[i]) = csa(a[i], b[i], c[i]);
        }
        (sum, carry)
    }

    /// Adds `carry` into the bit planes, lowest first (a ripple-carry
    /// increment per dimension).
    #[inline(always)]
    fn ripple<'a>(planes: impl IntoIterator<Item = &'a mut Chunk>, mut carry: Chunk) {
        for plane in planes {
            for (p, c) in plane.iter_mut().zip(&mut carry) {
                (*p, *c) = (*p ^ *c, *p & *c);
            }
        }
    }

    /// One chunk of [`Backend::bundle_edges`](super::Backend::bundle_edges):
    /// counts the `n` words at `w0` of every bound pair (`pairs` holds
    /// the row offsets of each vote) into bit planes and returns
    /// `(count > half, count == half)` per dimension. Words past `n` are
    /// unspecified.
    pub fn bundle_chunk(
        lo: &[u64],
        hi: &[u64],
        pairs: &[[usize; 2]],
        w0: usize,
        n: usize,
        shape: Planes,
    ) -> (Chunk, Chunk) {
        let bound = |[a, b]: [usize; 2]| {
            let (x, y) = (&lo[a + w0..a + w0 + n], &hi[b + w0..b + w0 + n]);
            let mut bound = [0; CHUNK_WORDS];
            for ((word, x), y) in bound.iter_mut().zip(x).zip(y) {
                *word = x ^ y;
            }
            bound
        };
        let zero = [0; CHUNK_WORDS];
        let (mut ones, mut twos, mut fours, mut eights) = (zero, zero, zero, zero);
        let mut upper = [zero; MAX_PLANES - 4];
        let upper = &mut upper[..shape.count - 4];
        let mut rounds = pairs.chunks_exact(16);
        for g in &mut rounds {
            macro_rules! input {
                ($i:expr) => {
                    bound(g[$i])
                };
            }
            let sixteens = csa_round!(csa_chunk, input, ones, twos, fours, eights);
            ripple(upper.iter_mut(), sixteens);
        }
        for &pair in rounds.remainder() {
            let low = [&mut ones, &mut twos, &mut fours, &mut eights];
            ripple(low.into_iter().chain(upper.iter_mut()), bound(pair));
        }
        // Compare the count with the half-total, most significant plane
        // first: `gt` marks dimensions already above it, `eq` those equal
        // so far.
        let (mut gt, mut eq) = (zero, [!0; CHUNK_WORDS]);
        let low = [ones, twos, fours, eights];
        for k in (0..shape.count).rev() {
            let plane = if k < 4 { low[k] } else { upper[k - 4] };
            for i in 0..CHUNK_WORDS {
                if shape.half_bit(k) {
                    eq[i] &= plane[i];
                } else {
                    gt[i] |= eq[i] & plane[i];
                    eq[i] &= !plane[i];
                }
            }
        }
        (gt, eq)
    }
}

/// AVX2 + POPCNT kernels. Every function in this module is
/// `#[target_feature]`-gated; callers must have verified the features at
/// runtime (enforced by the private `Kind::Avx2` constructor).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Planes, TieWords, BLOCK_LANES, CHUNK_WORDS, MAX_PLANES};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256,
        _mm256_andnot_si256, _mm256_castsi256_ps, _mm256_cmpeq_epi32, _mm256_cmpgt_epi32,
        _mm256_cmpgt_epi64, _mm256_loadu_si256, _mm256_maskload_epi64, _mm256_movemask_ps,
        _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_epi8,
        _mm256_setr_epi32, _mm256_setr_epi64x, _mm256_setr_epi8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256, _mm256_sub_epi32,
        _mm256_xor_si256,
    };

    /// Per-64-bit-lane popcount of a 256-bit vector (Muła's positional
    /// nibble lookup: two `pshufb` table probes summed per byte, then
    /// `psadbw` folds bytes into the four u64 lanes).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn popcnt256(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// Expands bits `8*group..8*group+8` of `word` into an 8×i32 all-ones
    /// mask per set bit.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn bit_mask8(word: u64, group: usize) -> __m256i {
        let byte = _mm256_set1_epi32(((word >> (8 * group)) & 0xff) as i32);
        let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        _mm256_cmpeq_epi32(_mm256_and_si256(byte, bits), bits)
    }

    /// # Safety
    ///
    /// The caller must have verified at runtime that the CPU supports
    /// AVX2 and POPCNT, and `counts` must hold 64 counters per word of
    /// `words` (`counts.len() >= 64 * words.len()` up to the tail).
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn add_weighted(counts: &mut [i32], words: &[u64], weight: i32) {
        let full = counts.len() / 64;
        let vw = _mm256_set1_epi32(weight);
        for (word_idx, &word) in words.iter().take(full).enumerate() {
            let base = word_idx * 64;
            for group in 0..8 {
                // delta = +w where the bit is clear, −w where set:
                // (w ^ m) − m with m ∈ {0, −1} per lane.
                let mask = bit_mask8(word, group);
                let delta = _mm256_sub_epi32(_mm256_xor_si256(vw, mask), mask);
                // SAFETY: `base + 8 * group + 7 < 64 * full <=
                // counts.len()`, so the 8-counter read-modify-write
                // stays inside `counts`.
                unsafe {
                    let ptr: *mut __m256i = counts.as_mut_ptr().add(base + 8 * group).cast();
                    let cur = _mm256_loadu_si256(ptr);
                    _mm256_storeu_si256(ptr, _mm256_add_epi32(cur, delta));
                }
            }
        }
        if full < words.len() {
            super::scalar::add_weighted(&mut counts[full * 64..], &words[full..], weight);
        }
    }

    /// # Safety
    ///
    /// The caller must have verified at runtime that the CPU supports
    /// AVX2 and POPCNT; `tie` must cover `counts.len()` counters when it
    /// is a pattern.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn threshold(counts: &[i32], tie: TieWords<'_>) -> Vec<u64> {
        let mut words = Vec::with_capacity(counts.len().div_ceil(64));
        let full = counts.len() / 64;
        let zero = _mm256_setzero_si256();
        for chunk_idx in 0..full {
            let tie_word = tie.word(chunk_idx);
            let mut word = 0u64;
            for group in 0..8 {
                // SAFETY: `chunk_idx * 64 + 8 * group + 7 < 64 * full
                // <= counts.len()`, so the 8-counter load stays inside
                // `counts`.
                let c = unsafe {
                    _mm256_loadu_si256(counts.as_ptr().add(chunk_idx * 64 + 8 * group).cast())
                };
                let negative = _mm256_cmpgt_epi32(zero, c);
                let tied =
                    _mm256_and_si256(_mm256_cmpeq_epi32(c, zero), bit_mask8(tie_word, group));
                let m = _mm256_or_si256(negative, tied);
                // movemask over the 8 f32-lane sign bits: one output bit
                // per counter.
                let bits = _mm256_movemask_ps(_mm256_castsi256_ps(m)) as u32 as u64;
                word |= bits << (8 * group);
            }
            words.push(word);
        }
        if full * 64 < counts.len() {
            let tail_tie = match tie {
                TieWords::Constant(w) => TieWords::Constant(w),
                TieWords::Pattern(p) => TieWords::Pattern(&p[full..]),
            };
            words.extend(super::scalar::threshold(&counts[full * 64..], tail_tie));
        }
        words
    }

    /// # Safety
    ///
    /// The caller must have verified at runtime that the CPU supports
    /// AVX2 and POPCNT. The tile size and shapes are checked by
    /// [`Backend::hamming_tile`](super::Backend::hamming_tile).
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn hamming_tile(queries: &[&[u64]], block: &[u64], acc: &mut [[u64; BLOCK_LANES]]) {
        by_tile_size!(tile(queries, block, acc));
    }

    /// Scores `Q` queries against one block: per block word, the two
    /// 4-lane halves are loaded once and each query's broadcast word is
    /// XOR-popcounted against both into its own pair of accumulators.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tile<const Q: usize>(queries: &[&[u64]], block: &[u64], acc: &mut [[u64; BLOCK_LANES]]) {
        let words = block.len() / BLOCK_LANES;
        // Re-sliced to `words`, so the per-word query reads need no
        // bounds checks.
        let mut tile: [&[u64]; Q] = [&[]; Q];
        for (slot, query) in tile.iter_mut().zip(queries) {
            *slot = &query[..words];
        }
        let mut sums = [[_mm256_setzero_si256(); 2]; Q];
        for w in 0..words {
            let base = w * BLOCK_LANES;
            // SAFETY: `base + BLOCK_LANES <= words * BLOCK_LANES <=
            // block.len()`, so both 4-word loads stay inside `block`.
            let (lo, hi) = unsafe {
                (
                    _mm256_loadu_si256(block.as_ptr().add(base).cast()),
                    _mm256_loadu_si256(block.as_ptr().add(base + 4).cast()),
                )
            };
            for (sum, query) in sums.iter_mut().zip(&tile) {
                let vq = _mm256_set1_epi64x(query[w] as i64);
                sum[0] = _mm256_add_epi64(sum[0], popcnt256(_mm256_xor_si256(vq, lo)));
                sum[1] = _mm256_add_epi64(sum[1], popcnt256(_mm256_xor_si256(vq, hi)));
            }
        }
        for (row, [lo, hi]) in acc.iter_mut().zip(sums) {
            let mut lanes = [0u64; BLOCK_LANES];
            // SAFETY: `lanes` is exactly `BLOCK_LANES == 8` words, so the
            // two 4-word stores exactly tile it.
            unsafe {
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), lo);
                _mm256_storeu_si256(lanes.as_mut_ptr().add(4).cast(), hi);
            }
            for (slot, lane) in row.iter_mut().zip(lanes) {
                *slot += lane;
            }
        }
    }
    type Chunk = [u64; CHUNK_WORDS];

    /// One 512-bit chunk as two 256-bit halves.
    type Pair = [__m256i; 2];

    #[inline]
    #[target_feature(enable = "avx2")]
    fn xor2(a: Pair, b: Pair) -> Pair {
        [_mm256_xor_si256(a[0], b[0]), _mm256_xor_si256(a[1], b[1])]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn and2(a: Pair, b: Pair) -> Pair {
        [_mm256_and_si256(a[0], b[0]), _mm256_and_si256(a[1], b[1])]
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn or2(a: Pair, b: Pair) -> Pair {
        [_mm256_or_si256(a[0], b[0]), _mm256_or_si256(a[1], b[1])]
    }

    /// Carry-save adder on both halves of a chunk.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn csa2(a: Pair, b: Pair, c: Pair) -> (Pair, Pair) {
        let partial = xor2(a, b);
        (xor2(partial, c), or2(and2(a, b), and2(partial, c)))
    }

    /// Adds `carry` into the bit planes, lowest first.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn ripple2<'a>(planes: impl IntoIterator<Item = &'a mut Pair>, mut carry: Pair) {
        for plane in planes {
            (*plane, carry) = (xor2(*plane, carry), and2(*plane, carry));
        }
    }

    /// The bound chunk `lo[a + w0..] ^ hi[b + w0..]`: two plain loads per
    /// table when `FULL`, else masked loads of the lanes `mask` enables
    /// (the others read as zero).
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `a + w0 < lo.len()`, `b + w0 < hi.len()`,
    /// and the chunk's words — all 8 when `FULL`, else the lanes `mask`
    /// enables — must lie inside their tables.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bound<const FULL: bool>(
        lo: &[u64],
        hi: &[u64],
        [a, b]: [usize; 2],
        w0: usize,
        mask: Pair,
    ) -> Pair {
        let (x, y) = (
            lo.as_ptr().wrapping_add(a + w0),
            hi.as_ptr().wrapping_add(b + w0),
        );
        // SAFETY: both start pointers are inside their tables; a full
        // chunk reads 8 in-bounds words, a partial one only the lanes
        // `mask` enables (disabled lanes are never accessed, so the
        // second half's start may lie past the end).
        unsafe {
            if FULL {
                xor2(
                    [
                        _mm256_loadu_si256(x.cast()),
                        _mm256_loadu_si256(x.add(4).cast()),
                    ],
                    [
                        _mm256_loadu_si256(y.cast()),
                        _mm256_loadu_si256(y.add(4).cast()),
                    ],
                )
            } else {
                xor2(
                    [
                        _mm256_maskload_epi64(x.cast(), mask[0]),
                        _mm256_maskload_epi64(x.wrapping_add(4).cast(), mask[1]),
                    ],
                    [
                        _mm256_maskload_epi64(y.cast(), mask[0]),
                        _mm256_maskload_epi64(y.wrapping_add(4).cast(), mask[1]),
                    ],
                )
            }
        }
    }

    /// The AVX2 form of the scalar `bundle_chunk`: two registers per
    /// plane, and masked loads for the partial last chunk.
    ///
    /// # Safety
    ///
    /// The caller must have verified at runtime that the CPU supports
    /// AVX2; every offset in `pairs` must start a whole row of its table,
    /// `w0 + n` must not exceed the row length, and `1 <= n <= 8`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn bundle_chunk(
        lo: &[u64],
        hi: &[u64],
        pairs: &[[usize; 2]],
        w0: usize,
        n: usize,
        shape: Planes,
    ) -> (Chunk, Chunk) {
        // SAFETY: the caller's contract is `chunk`'s.
        unsafe {
            if n == CHUNK_WORDS {
                chunk::<true>(lo, hi, pairs, w0, n, shape)
            } else {
                chunk::<false>(lo, hi, pairs, w0, n, shape)
            }
        }
    }

    /// [`bundle_chunk`] for a whole (`FULL`) or partial chunk.
    ///
    /// # Safety
    ///
    /// As for [`bundle_chunk`], and `n == 8` when `FULL`.
    #[target_feature(enable = "avx2")]
    unsafe fn chunk<const FULL: bool>(
        lo: &[u64],
        hi: &[u64],
        pairs: &[[usize; 2]],
        w0: usize,
        n: usize,
        shape: Planes,
    ) -> (Chunk, Chunk) {
        let lanes = _mm256_set1_epi64x(n as i64);
        let mask = [
            _mm256_cmpgt_epi64(lanes, _mm256_setr_epi64x(0, 1, 2, 3)),
            _mm256_cmpgt_epi64(lanes, _mm256_setr_epi64x(4, 5, 6, 7)),
        ];
        let zero = [_mm256_setzero_si256(); 2];
        let (mut ones, mut twos, mut fours, mut eights) = (zero, zero, zero, zero);
        let mut upper = [zero; MAX_PLANES - 4];
        let upper = &mut upper[..shape.count - 4];
        let mut rounds = pairs.chunks_exact(16);
        for g in &mut rounds {
            macro_rules! input {
                ($i:expr) => {
                    bound::<FULL>(lo, hi, g[$i], w0, mask)
                };
            }
            // SAFETY: every pair of `pairs` is a pair of in-bounds row
            // starts, and the chunk's `n` words at `w0` (all 8 when
            // `FULL`) lie inside each row, per the caller's contract.
            let sixteens = unsafe { csa_round!(csa2, input, ones, twos, fours, eights) };
            ripple2(upper.iter_mut(), sixteens);
        }
        for &pair in rounds.remainder() {
            // SAFETY: as for the rounds above.
            let carry = unsafe { bound::<FULL>(lo, hi, pair, w0, mask) };
            let low = [&mut ones, &mut twos, &mut fours, &mut eights];
            ripple2(low.into_iter().chain(upper.iter_mut()), carry);
        }
        let (mut gt, mut eq) = (zero, [_mm256_set1_epi64x(-1); 2]);
        let low = [ones, twos, fours, eights];
        for k in (0..shape.count).rev() {
            let plane = if k < 4 { low[k] } else { upper[k - 4] };
            if shape.half_bit(k) {
                eq = and2(eq, plane);
            } else {
                gt = or2(gt, and2(eq, plane));
                eq = [
                    _mm256_andnot_si256(plane[0], eq[0]),
                    _mm256_andnot_si256(plane[1], eq[1]),
                ];
            }
        }
        let (mut gt_words, mut eq_words) = ([0; CHUNK_WORDS], [0; CHUNK_WORDS]);
        // SAFETY: each array is exactly `CHUNK_WORDS == 8` words, so the
        // two 4-word stores exactly tile it.
        unsafe {
            _mm256_storeu_si256(gt_words.as_mut_ptr().cast(), gt[0]);
            _mm256_storeu_si256(gt_words.as_mut_ptr().add(4).cast(), gt[1]);
            _mm256_storeu_si256(eq_words.as_mut_ptr().cast(), eq[0]);
            _mm256_storeu_si256(eq_words.as_mut_ptr().add(4).cast(), eq[1]);
        }
        (gt_words, eq_words)
    }
}

/// AVX-512 kernels: the class scan on native 64-bit-lane popcounts and
/// the fused edge bundle on `vpternlogq` carry-save adders. The
/// functions are `#[target_feature]`-gated; callers must have verified
/// AVX-512F and AVX512-VPOPCNTDQ at runtime (enforced by the private
/// `Kind::Avx512` constructor).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Planes, BLOCK_LANES, CHUNK_WORDS, MAX_PLANES};
    use core::arch::x86_64::{
        __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_andnot_si512,
        _mm512_loadu_si512, _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_storeu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
    };

    /// # Safety
    ///
    /// The caller must have verified at runtime that the CPU supports
    /// AVX-512F and AVX512-VPOPCNTDQ. The tile size and shapes are
    /// checked by [`Backend::hamming_tile`](super::Backend::hamming_tile).
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn hamming_tile(queries: &[&[u64]], block: &[u64], acc: &mut [[u64; BLOCK_LANES]]) {
        by_tile_size!(tile(queries, block, acc));
    }

    /// Scores `Q` queries against one block: each block word — all eight
    /// lanes — is one 512-bit load, XORed with each query's broadcast
    /// word and popcounted per lane into that query's accumulator.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn tile<const Q: usize>(queries: &[&[u64]], block: &[u64], acc: &mut [[u64; BLOCK_LANES]]) {
        let words = block.len() / BLOCK_LANES;
        // Re-sliced to `words`, so the per-word query reads need no
        // bounds checks.
        let mut tile: [&[u64]; Q] = [&[]; Q];
        for (slot, query) in tile.iter_mut().zip(queries) {
            *slot = &query[..words];
        }
        let mut sums = [_mm512_setzero_si512(); Q];
        for w in 0..words {
            // SAFETY: `(w + 1) * BLOCK_LANES <= block.len()`, so the
            // 8-word load stays inside `block`.
            let lanes = unsafe { _mm512_loadu_si512(block.as_ptr().add(w * BLOCK_LANES).cast()) };
            for (sum, query) in sums.iter_mut().zip(&tile) {
                let diff = _mm512_xor_si512(lanes, _mm512_set1_epi64(query[w] as i64));
                *sum = _mm512_add_epi64(*sum, _mm512_popcnt_epi64(diff));
            }
        }
        for (row, sum) in acc.iter_mut().zip(sums) {
            let mut lanes = [0u64; BLOCK_LANES];
            // SAFETY: `lanes` is exactly `BLOCK_LANES == 8` words, one
            // 512-bit store.
            unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), sum) };
            for (slot, lane) in row.iter_mut().zip(lanes) {
                *slot += lane;
            }
        }
    }
    type Chunk = [u64; CHUNK_WORDS];

    /// Carry-save adder on one `vpternlogq` each: xor3 (0x96) for the
    /// sum, majority (0xE8) for the carry.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn csa(a: __m512i, b: __m512i, c: __m512i) -> (__m512i, __m512i) {
        (
            _mm512_ternarylogic_epi64::<0x96>(a, b, c),
            _mm512_ternarylogic_epi64::<0xE8>(a, b, c),
        )
    }

    /// Adds `carry` into the bit planes, lowest first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn ripple(planes: &mut [__m512i], mut carry: __m512i) {
        for plane in planes {
            (*plane, carry) = (
                _mm512_xor_si512(*plane, carry),
                _mm512_and_si512(*plane, carry),
            );
        }
    }

    /// The bound chunk `lo[a + w0..] ^ hi[b + w0..]`, the lanes outside
    /// `mask` zeroed.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available, `a + w0 < lo.len()`, `b + w0 <
    /// hi.len()`, and every lane `mask` enables must index a word inside
    /// its table.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn bound(
        lo: &[u64],
        hi: &[u64],
        [a, b]: [usize; 2],
        w0: usize,
        mask: __mmask8,
    ) -> __m512i {
        // SAFETY: both start pointers stay inside their tables and the
        // masked loads read only the enabled lanes, which the caller
        // guarantees are in bounds; disabled lanes are never accessed.
        unsafe {
            _mm512_xor_si512(
                _mm512_maskz_loadu_epi64(mask, lo.as_ptr().add(a + w0).cast()),
                _mm512_maskz_loadu_epi64(mask, hi.as_ptr().add(b + w0).cast()),
            )
        }
    }

    /// The AVX-512 form of the scalar `bundle_chunk`: one register per
    /// plane, and a masked load for the partial last chunk.
    ///
    /// # Safety
    ///
    /// The caller must have verified at runtime that the CPU supports
    /// AVX-512F; every offset in `pairs` must start a whole row of its
    /// table, `w0 + n` must not exceed the row length, and `1 <= n <= 8`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn bundle_chunk(
        lo: &[u64],
        hi: &[u64],
        pairs: &[[usize; 2]],
        w0: usize,
        n: usize,
        shape: Planes,
    ) -> (Chunk, Chunk) {
        let mask = (0xFFu16 >> (CHUNK_WORDS - n)) as __mmask8;
        let zero = _mm512_setzero_si512();
        let (mut ones, mut twos, mut fours, mut eights) = (zero, zero, zero, zero);
        let mut upper = [zero; MAX_PLANES - 4];
        let upper = &mut upper[..shape.count - 4];
        let mut rounds = pairs.chunks_exact(16);
        for g in &mut rounds {
            macro_rules! input {
                ($i:expr) => {
                    bound(lo, hi, g[$i], w0, mask)
                };
            }
            // SAFETY: every pair of `pairs` is a pair of in-bounds row
            // starts and `mask` enables the `n` words at `w0`, which the
            // caller guarantees lie inside each row.
            let sixteens = unsafe { csa_round!(csa, input, ones, twos, fours, eights) };
            ripple(upper, sixteens);
        }
        for &pair in rounds.remainder() {
            // SAFETY: as for the rounds above.
            let mut carry = unsafe { bound(lo, hi, pair, w0, mask) };
            for plane in [&mut ones, &mut twos, &mut fours, &mut eights] {
                (*plane, carry) = (
                    _mm512_xor_si512(*plane, carry),
                    _mm512_and_si512(*plane, carry),
                );
            }
            ripple(upper, carry);
        }
        let (mut gt, mut eq) = (zero, _mm512_set1_epi64(-1));
        let low = [ones, twos, fours, eights];
        for k in (0..shape.count).rev() {
            let plane = if k < 4 { low[k] } else { upper[k - 4] };
            if shape.half_bit(k) {
                eq = _mm512_and_si512(eq, plane);
            } else {
                // gt | (eq & plane)
                gt = _mm512_ternarylogic_epi64::<0xF8>(gt, eq, plane);
                eq = _mm512_andnot_si512(plane, eq);
            }
        }
        let (mut gt_words, mut eq_words) = ([0; CHUNK_WORDS], [0; CHUNK_WORDS]);
        // SAFETY: each array is exactly `CHUNK_WORDS == 8` words, one
        // 512-bit store.
        unsafe {
            _mm512_storeu_si512(gt_words.as_mut_ptr().cast(), gt);
            _mm512_storeu_si512(eq_words.as_mut_ptr().cast(), eq);
        }
        (gt_words, eq_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::{SplitMix64, WordRng};

    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn scalar_is_always_available_and_named() {
        let backends = Backend::available();
        assert_eq!(backends[0], Backend::scalar());
        assert_eq!(Backend::scalar().name(), "scalar");
        assert!(!Backend::scalar().is_simd());
        for b in &backends[1..] {
            assert!(b.is_simd());
        }
    }

    #[test]
    fn active_is_one_of_available() {
        assert!(Backend::available().contains(&Backend::active()));
    }

    #[test]
    fn harley_seal_matches_naive_popcount_at_every_length() {
        // Cover the 16-word round boundary and the drain path.
        for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 48, 100, 157] {
            let a = words(n, 0xA11CE ^ n as u64);
            let naive: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
            assert_eq!(popcount(&a), naive, "n={n}");
        }
    }

    #[test]
    fn scalar_hamming_matches_naive() {
        for n in [0usize, 1, 16, 17, 157] {
            let a = words(n, 1);
            let b = words(n, 2);
            let naive: u64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| u64::from((x ^ y).count_ones()))
                .sum();
            assert_eq!(hamming(&a, &b), naive, "n={n}");
        }
    }

    #[test]
    fn every_backend_agrees_on_counter_kernels() {
        let reference = Backend::scalar();
        for backend in Backend::available() {
            for dim in [1usize, 63, 64, 65, 127, 128, 500] {
                let packed: Vec<u64> = {
                    let mut w = words(dim.div_ceil(64), dim as u64);
                    // Clear tail bits to honor the kernel contract.
                    if dim % 64 != 0 {
                        let last = w.last_mut().unwrap();
                        *last &= (1u64 << (dim % 64)) - 1;
                    }
                    w
                };
                for weight in [1i32, -1, 5, -17] {
                    let mut a = vec![3i32; dim];
                    let mut b = vec![3i32; dim];
                    backend.add_weighted(&mut a, &packed, weight);
                    reference.add_weighted(&mut b, &packed, weight);
                    assert_eq!(a, b, "{} add_weighted dim={dim}", backend.name());
                }
                let counts: Vec<i32> = (0..dim).map(|i| (i as i32 % 5) - 2).collect();
                let pattern = words(dim.div_ceil(64), 99);
                for tie in [
                    TieWords::Constant(0),
                    TieWords::Constant(!0),
                    TieWords::Pattern(&pattern),
                ] {
                    assert_eq!(
                        backend.threshold(&counts, tie),
                        reference.threshold(&counts, tie),
                        "{} threshold dim={dim}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_threshold_matches_per_counter_reference() {
        for dim in [1usize, 63, 64, 65, 127, 128, 10_000] {
            // Negative, zero and positive counters in every chunk.
            let counts: Vec<i32> = (0..dim).map(|i| (i as i32 * 7 % 5) - 2).collect();
            let pattern = words(dim.div_ceil(64), 0x7AE ^ dim as u64);
            for tie in [
                TieWords::Constant(0),
                TieWords::Constant(!0),
                TieWords::Pattern(&pattern),
            ] {
                let got = Backend::scalar().threshold(&counts, tie);
                assert_eq!(got.len(), dim.div_ceil(64), "dim={dim}");
                for (i, &c) in counts.iter().enumerate() {
                    let tie_bit = (tie.word(i / 64) >> (i % 64)) & 1 == 1;
                    let expected = c < 0 || (c == 0 && tie_bit);
                    let bit = (got[i / 64] >> (i % 64)) & 1 == 1;
                    assert_eq!(bit, expected, "dim={dim} counter {i} = {c}, {tie:?}");
                }
                if dim % 64 != 0 {
                    assert_eq!(got[dim / 64] >> (dim % 64), 0, "tail bits, dim={dim}");
                }
            }
        }
    }

    #[test]
    fn force_scalar_parses_off_words() {
        for off in [
            None,
            Some(""),
            Some("0"),
            Some("false"),
            Some(" OFF "),
            Some("False"),
        ] {
            assert!(!forces_scalar(off), "{off:?}");
        }
        for on in [Some("1"), Some("true"), Some(" yes "), Some("on")] {
            assert!(forces_scalar(on), "{on:?}");
        }
    }

    #[test]
    fn hamming_tile_matches_per_lane_hamming() {
        for backend in Backend::available() {
            for nwords in [0usize, 1, 2, 157] {
                let block = words(nwords * BLOCK_LANES, 6);
                for tile in 1..=TILE_QUERIES {
                    let queries: Vec<Vec<u64>> = (0..tile)
                        .map(|q| words(nwords, 5 + 10 * q as u64))
                        .collect();
                    let refs: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
                    let mut acc = vec![[1u64; BLOCK_LANES]; tile];
                    backend.hamming_tile(&refs, &block, &mut acc);
                    for (q, query) in queries.iter().enumerate() {
                        for lane in 0..BLOCK_LANES {
                            let lane_words: Vec<u64> =
                                (0..nwords).map(|w| block[w * BLOCK_LANES + lane]).collect();
                            assert_eq!(
                                acc[q][lane],
                                1 + hamming(query, &lane_words),
                                "{} query {q} of {tile}, lane {lane}, nwords {nwords}",
                                backend.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn available_lists_backends_fastest_last() {
        let backends = Backend::available();
        assert_eq!(backends.last(), Some(&Backend::detect()));
        let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
        assert!(
            [
                &["scalar"][..],
                &["scalar", "avx2"][..],
                &["scalar", "avx2", "avx512"][..]
            ]
            .contains(&names.as_slice()),
            "unexpected backend list {names:?}"
        );
    }

    #[test]
    fn bundle_edges_rejects_rows_outside_their_tables() {
        // The SIMD kernels load rows unchecked; the dispatcher must stop
        // an out-of-table endpoint on every backend before they run.
        let (lo, hi) = (words(2 * 2, 1), words(3 * 2, 2));
        for backend in Backend::available() {
            for edge in [(2, 0, 1), (0, 3, 1)] {
                let result = std::panic::catch_unwind(|| {
                    let mut out = [0u64; 2];
                    backend.bundle_edges(128, &lo, &hi, &[edge], TieWords::Constant(0), &mut out);
                });
                assert!(result.is_err(), "{} accepted edge {edge:?}", backend.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_tile_panics() {
        let query = [0u64; 1];
        let block = [0u64; BLOCK_LANES];
        let queries = [&query[..]; TILE_QUERIES + 1];
        let mut acc = [[0u64; BLOCK_LANES]; TILE_QUERIES + 1];
        Backend::active().hamming_tile(&queries, &block, &mut acc);
    }
}
