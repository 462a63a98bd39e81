//! The GraphHD graph encoder (paper Section IV-B/IV-C, Figure 2).
//!
//! Every [`EncoderKind`] runs through one edge-bundling recipe: rank the
//! vertices, bind the hypervectors of each edge's two endpoints, and
//! bundle the bound edges by majority. The kinds differ only in the
//! inputs to that recipe — the vertex hypervector, the orientation of
//! the bind, and the edge's vote weight — and
//! [`LabeledGraphEncoder`](crate::labeled::LabeledGraphEncoder) reuses
//! it with label-bound vertex hypervectors.
//!
//! [`GraphEncoder::encode`] bundles with the fused
//! [`hdvec::bundle_edges`] kernel: the vertex hypervectors go into a
//! per-graph row table, and the kernel binds, counts and thresholds
//! every edge 512 bits at a time without building per-dimension
//! counters. [`GraphEncoder::encode_to_accumulator`] keeps the integer
//! path — each bound edge added to an [`Accumulator`] — as the reference
//! the fused path is tested bit-identical against.

use crate::{CentralityKind, EncoderKind, Error, GraphHdConfig};
use graphcore::{degree_centrality, pagerank_ranks, ranks_by_score, similarity, Graph};
use hdvec::{Accumulator, Hypervector, ItemMemory, LevelMemory};
use parallel::{Pool, PoolHandle};
use prng::mix_seed;
use std::borrow::Borrow;
use std::sync::Arc;

/// Seed stream for the level memory of the vertex-similarity kind,
/// independent from the basis item memory (which uses the config seed
/// directly) and from the label memory of [`crate::labeled`].
const LEVEL_SEED_STREAM: u64 = 0x1E_5E1;

/// Encodes graphs into hypervectors with the recipe the config's
/// [`EncoderKind`] selects. Under the default [`EncoderKind::Centrality`]
/// this is the paper's recipe: PageRank ranks select basis vertex
/// hypervectors, edges bind their endpoints, and the edge hypervectors
/// are bundled into the graph hypervector.
///
/// The same encoder instance (same config/seed) **must** be used for
/// training and inference — the paper emphasises that `Enc` is shared —
/// and because every kind is a pure function of the config and the
/// graph, encoders constructed from equal configs agree bit-for-bit
/// across threads, processes and machines.
///
/// # Examples
///
/// ```
/// use graphhd::{GraphEncoder, GraphHdConfig};
/// use graphcore::generate;
///
/// let encoder = GraphEncoder::new(GraphHdConfig::default())?;
/// let hv = encoder.encode(&generate::star(10));
/// assert_eq!(hv.dim(), 10_000);
/// // Isomorphic graphs encode identically (same structure, same ranks).
/// assert_eq!(hv, encoder.encode(&generate::star(10)));
/// # Ok::<(), graphhd::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphEncoder {
    config: GraphHdConfig,
    memory: ItemMemory,
    /// The similarity level memory, built only for
    /// [`EncoderKind::VertexSimilarity`] (shared by clones).
    levels: Option<Arc<LevelMemory>>,
    pool: PoolHandle,
}

impl GraphEncoder {
    /// Creates an encoder from a configuration. Batch operations run on
    /// the process-wide [`Pool::global`] unless [`with_pool`] selects an
    /// explicit one.
    ///
    /// [`with_pool`]: Self::with_pool
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDimension`] if `config.dim == 0` and
    /// [`Error::InvalidEncoderConfig`] for degenerate encoder parameters
    /// — the same checks as [`GraphHdConfigBuilder::build`], applied
    /// here too because the config fields are public.
    ///
    /// [`GraphHdConfigBuilder::build`]: crate::GraphHdConfigBuilder::build
    pub fn new(config: GraphHdConfig) -> Result<Self, Error> {
        config.validate()?;
        let levels = match config.encoder {
            EncoderKind::VertexSimilarity { levels } => Some(Arc::new(LevelMemory::new(
                config.dim,
                levels as usize,
                mix_seed(config.seed, LEVEL_SEED_STREAM),
            )?)),
            EncoderKind::Centrality | EncoderKind::EdgeWeighted { .. } => None,
        };
        Ok(Self {
            memory: ItemMemory::new(config.dim, config.seed)?,
            levels,
            config,
            pool: PoolHandle::Global,
        })
    }

    /// Pins batch operations (and those of every model fitted from this
    /// encoder) to an explicit pool — the deterministic-thread-count knob
    /// behind the `BENCH_*` scaling tables.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = PoolHandle::Owned(pool);
        self
    }

    /// The pool batch operations run on.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        self.pool.get()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &GraphHdConfig {
        &self.config
    }

    /// The basis item memory (rank → hypervector).
    #[must_use]
    pub fn memory(&self) -> &ItemMemory {
        &self.memory
    }

    /// Computes the *centrality* vertex identifiers (ranks) of a graph.
    ///
    /// Rank 0 is the most central vertex; ties are broken by vertex id,
    /// the deterministic convention adopted suite-wide. This ranking is
    /// the centrality one whatever the encoder kind — the centrality and
    /// edge-weighted kinds encode with it, and it backs the
    /// kind-agnostic [`labeled`](crate::labeled) extension and the
    /// centrality ablations.
    #[must_use]
    pub fn vertex_ranks(&self, graph: &Graph) -> Vec<u32> {
        match self.config.centrality {
            CentralityKind::PageRank => pagerank_ranks(graph, &self.config.pagerank),
            CentralityKind::Degree => ranks_by_score(&degree_centrality(graph)),
            CentralityKind::VertexId => (0..graph.vertex_count() as u32).collect(),
        }
    }

    /// Encodes a graph into the edge-bundle accumulator: every bound edge
    /// added to `i32` counters with [`Accumulator::add_weighted`]. This
    /// is the integer reference that [`encode`]'s fused kernel is tested
    /// against, and it serves callers needing raw counts (e.g.
    /// soft-similarity ablations). The recipe is the config's
    /// [`EncoderKind`]:
    ///
    /// - **centrality** — vertex hypervector `H_rank(rank)` from the
    ///   centrality ranking, one vote per edge;
    /// - **vertex similarity** — vertices ranked by neighborhood
    ///   similarity, vertex hypervector `H_rank(rank) ⊗
    ///   H_level(quantize(score))`, and each edge binds its lower-ranked
    ///   endpoint with a one-step permutation of the higher-ranked one
    ///   (without it, endpoints on the same level would cancel their
    ///   level components, since `x ⊗ x` is the identity);
    /// - **edge weighted** — centrality vertex hypervectors, each edge
    ///   voting `1 + min(common_neighbors, weight_cap − 1)` times.
    ///
    /// An edgeless graph yields an empty accumulator; [`encode`]
    /// thresholds it to the deterministic tie-break pattern, so all
    /// edgeless graphs share one neutral hypervector.
    ///
    /// [`encode`]: Self::encode
    #[must_use]
    pub fn encode_to_accumulator(&self, graph: &Graph) -> Accumulator {
        self.with_recipe(graph, |recipe| self.accumulate_edges(graph, recipe))
    }

    /// Runs `bundle` on the edge recipe of the config's [`EncoderKind`]
    /// (see [`encode_to_accumulator`](Self::encode_to_accumulator)).
    fn with_recipe<R>(&self, graph: &Graph, bundle: impl FnOnce(EdgeRecipe<'_>) -> R) -> R {
        match self.config.encoder {
            EncoderKind::Centrality | EncoderKind::EdgeWeighted { .. } => {
                let ranks = self.vertex_ranks(graph);
                bundle(EdgeRecipe {
                    vertex: &|v| self.rank_hypervector(ranks[v]),
                    orient_by: None,
                    weight_cap: match self.config.encoder {
                        EncoderKind::EdgeWeighted { weight_cap } => Some(weight_cap),
                        _ => None,
                    },
                })
            }
            EncoderKind::VertexSimilarity { .. } => {
                let levels = self
                    .levels
                    .as_deref()
                    .expect("level memory built at construction for vertex similarity");
                let scores = similarity::neighborhood_similarity(graph);
                let ranks = ranks_by_score(&scores);
                bundle(EdgeRecipe {
                    vertex: &|v| {
                        let mut hv = self.rank_hypervector(ranks[v]);
                        hv.bind_assign(levels.hypervector(levels.quantize(scores[v])));
                        hv
                    },
                    orient_by: Some(&ranks),
                    weight_cap: None,
                })
            }
        }
    }

    /// The basis hypervector of a vertex rank.
    pub(crate) fn rank_hypervector(&self, rank: u32) -> Hypervector {
        self.memory.hypervector(u64::from(rank))
    }

    /// The integer reference bundle: each bound edge hypervector added
    /// to an [`Accumulator`] with its votes as the weight. Vertex
    /// hypervectors are built once per vertex and role.
    fn accumulate_edges(&self, graph: &Graph, recipe: EdgeRecipe<'_>) -> Accumulator {
        let dim = self.config.dim;
        let n = graph.vertex_count();
        let mut acc = Accumulator::new(dim).expect("dimension validated at construction");
        let mut cache: Vec<Option<Hypervector>> = vec![None; n];
        let mut permuted: Vec<Option<Hypervector>> = vec![None; n];
        let mut edge = Hypervector::positive(dim).expect("dimension validated at construction");
        for (a, b, votes) in recipe.edges(graph) {
            edge.clone_from(cache[a].get_or_insert_with(|| (recipe.vertex)(a)));
            let second = if recipe.orient_by.is_some() {
                permuted[b].get_or_insert_with(|| (recipe.vertex)(b).permute(1))
            } else {
                cache[b].get_or_insert_with(|| (recipe.vertex)(b))
            };
            edge.bind_assign(second);
            acc.add_weighted(&edge, votes as i32);
        }
        acc
    }

    /// The fused bundle behind [`encode`](Self::encode): gathers each
    /// vertex hypervector once per role into a per-graph row table, then
    /// [`hdvec::bundle_edges`] binds, counts and thresholds the edges 512
    /// bits at a time into `out`, without per-dimension counters.
    /// Bit-identical to thresholding
    /// [`accumulate_edges`](Self::accumulate_edges). The tables and the
    /// edge list live only for the call; `out`, allocated by the caller
    /// before them, outlives them (see [`encode`](Self::encode)).
    pub(crate) fn bundle_edges(
        &self,
        graph: &Graph,
        recipe: EdgeRecipe<'_>,
        out: &mut Hypervector,
    ) {
        let n = graph.vertex_count();
        let stride = self.config.dim.div_ceil(64);
        let mut first = Rows::new(n, stride);
        // The second endpoint of an oriented edge takes the permuted
        // vertex hypervector, so it gets a table of its own; a symmetric
        // bind reads both endpoints from one table.
        let mut second = Rows::new(if recipe.orient_by.is_some() { n } else { 0 }, stride);
        let mut edges = Vec::with_capacity(graph.edge_count());
        for (a, b, votes) in recipe.edges(graph) {
            let row_a = first.row(a, || (recipe.vertex)(a));
            let row_b = if recipe.orient_by.is_some() {
                second.row(b, || (recipe.vertex)(b).permute(1))
            } else {
                first.row(b, || (recipe.vertex)(b))
            };
            edges.push((row_a, row_b, votes as u32));
        }
        let hi = if recipe.orient_by.is_some() {
            &second.words
        } else {
            &first.words
        };
        hdvec::bundle_edges(&first.words, hi, &edges, self.config.tie_break, out);
    }

    /// Encodes a graph into its bipolar graph hypervector — the `Enc_G`
    /// of the paper — with the fused edge bundle. Equal to thresholding
    /// [`encode_to_accumulator`](Self::encode_to_accumulator) with the
    /// config's tie-break.
    #[must_use]
    pub fn encode(&self, graph: &Graph) -> Hypervector {
        crate::metrics::metrics().graphs_encoded.inc();
        let mut encoding = self.blank_encoding();
        self.with_recipe(graph, |recipe| {
            self.bundle_edges(graph, recipe, &mut encoding)
        });
        encoding
    }

    /// A fresh output vector for [`bundle_edges`](Self::bundle_edges).
    /// Callers allocate it before the per-graph tables: an encoding
    /// outlives them, and one allocated after them would sit between
    /// their freed blocks, leaving holes across a batch that later
    /// allocations (such as class accumulators) cannot reuse.
    pub(crate) fn blank_encoding(&self) -> Hypervector {
        Hypervector::positive(self.config.dim).expect("dimension validated at construction")
    }

    /// Encodes many graphs, parallelised on the encoder's pool. Accepts
    /// both owned slices (`&[Graph]`) and reference slices (`&[&Graph]`).
    ///
    /// The result is identical to mapping [`encode`](Self::encode) — the
    /// parallelism is an implementation detail mirroring the paper's
    /// observation that HDC encoding is trivially parallel. The pool cuts
    /// the slice into more chunks than it has threads and idle threads
    /// claim the next one, which keeps skewed graph sizes balanced (the
    /// old round-robin static dealing did not).
    #[must_use]
    pub fn encode_all<G: Borrow<Graph> + Sync>(&self, graphs: &[G]) -> Vec<Hypervector> {
        self.pool()
            .par_map(graphs, |graph| self.encode(graph.borrow()))
    }
}

/// What an encoder kind feeds the edge-bundling loop.
///
/// `vertex` supplies each vertex's hypervector. With `orient_by` ranks,
/// each edge binds its lower-ranked endpoint with a one-step permutation
/// of the higher-ranked one (rank order, unlike vertex id, is
/// topology-derived, so the encoding stays isomorphism-invariant);
/// without, the bind is symmetric. With a `weight_cap`, each edge votes
/// `1 + min(common_neighbors, weight_cap − 1)` times instead of once.
pub(crate) struct EdgeRecipe<'a> {
    pub(crate) vertex: &'a dyn Fn(usize) -> Hypervector,
    pub(crate) orient_by: Option<&'a [u32]>,
    pub(crate) weight_cap: Option<u32>,
}

impl EdgeRecipe<'_> {
    /// Each edge of `graph` as `(first, second, votes)`: `first` is bound
    /// with `second` (permuted when oriented), `votes` times.
    fn edges<'g>(&'g self, graph: &'g Graph) -> impl Iterator<Item = (usize, usize, usize)> + 'g {
        graph.edges().map(move |(u, v)| {
            let (a, b) = (u as usize, v as usize);
            // Ranks are a permutation, so the order is strict.
            let (a, b) = match self.orient_by {
                Some(ranks) if ranks[b] < ranks[a] => (b, a),
                _ => (a, b),
            };
            let votes = self.weight_cap.map_or(1, |cap| {
                1 + graph.common_neighbors(u, v).min(cap as usize - 1)
            });
            (a, b, votes)
        })
    }
}

/// A fused bundle's row table: the packed words of each vertex
/// hypervector it needs, in order of first use.
struct Rows {
    words: Vec<u64>,
    /// Vertex → row, `None` until the vertex is first used.
    index: Vec<Option<u32>>,
    len: u32,
}

impl Rows {
    /// An empty table for up to `vertices` rows of `stride` words. The
    /// capacity is reserved once, so filling it never copies rows, and
    /// only the rows written are touched.
    fn new(vertices: usize, stride: usize) -> Self {
        Self {
            words: Vec::with_capacity(vertices * stride),
            index: vec![None; vertices],
            len: 0,
        }
    }

    /// The row of vertex `v`, appending `make()` on its first use.
    fn row(&mut self, v: usize, make: impl FnOnce() -> Hypervector) -> u32 {
        *self.index[v].get_or_insert_with(|| {
            self.words.extend_from_slice(make().words());
            self.len += 1;
            self.len - 1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentralityKind;
    use graphcore::{generate, GraphBuilder};
    use prng::{WordRng, Xoshiro256PlusPlus};

    fn encoder(dim: usize) -> GraphEncoder {
        GraphEncoder::new(
            GraphHdConfig::builder()
                .dim(dim)
                .build()
                .expect("valid dimension"),
        )
        .expect("valid dimension")
    }

    #[test]
    fn rejects_zero_dimension() {
        let zero = GraphHdConfig {
            dim: 0,
            ..GraphHdConfig::default()
        };
        assert_eq!(
            GraphEncoder::new(zero).unwrap_err(),
            crate::Error::ZeroDimension
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let e = encoder(2048);
        let g = generate::star(12);
        assert_eq!(e.encode(&g), e.encode(&g));
    }

    #[test]
    fn different_structures_encode_differently() {
        let e = encoder(10_000);
        let a = e.encode(&generate::complete(10));
        let b = e.encode(&generate::path(10));
        assert!(a.cosine(&b) < 0.6, "cosine {}", a.cosine(&b));
    }

    #[test]
    fn isomorphic_graphs_encode_identically_under_relabeling() {
        // Build an asymmetric graph (distinct PageRank scores), then apply
        // a vertex permutation; the encoding must not change because ranks
        // are topology-derived.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(77);
        let g = {
            let mut b = GraphBuilder::new(8);
            // A "lollipop": K4 attached to a path, no automorphism mixing
            // path and clique ranks ambiguously.
            for (u, v) in [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
            ] {
                b.add_edge(u, v);
            }
            b.build()
        };
        let mut perm: Vec<u32> = (0..8).collect();
        rng.shuffle(&mut perm);
        let mut b = GraphBuilder::new(8);
        for (u, v) in g.edges() {
            b.add_edge(perm[u as usize], perm[v as usize]);
        }
        let permuted = b.build();
        let e = encoder(4096);
        assert_eq!(e.encode(&g), e.encode(&permuted));
    }

    #[test]
    fn vertex_id_centrality_is_not_permutation_invariant() {
        // The strawman the paper rejects: identifiers tied to raw vertex
        // ids lose correspondence under relabeling.
        let e = GraphEncoder::new(GraphHdConfig {
            centrality: CentralityKind::VertexId,
            ..GraphHdConfig::builder()
                .dim(4096)
                .build()
                .expect("valid dimension")
        })
        .expect("valid config");
        let g = generate::path(6);
        let mut b = GraphBuilder::new(6);
        for (u, v) in g.edges() {
            b.add_edge(5 - u, 5 - v); // reverse labeling
        }
        let reversed = b.build();
        // The path reversed is the same graph, but vertex-id encoding sees
        // different (rank -> endpoint) pairings in general. (Reversal of a
        // path maps edge {i, i+1} to {4-i, 5-i}: different id pairs.)
        assert_eq!(e.encode(&g).dim(), e.encode(&reversed).dim());
    }

    #[test]
    fn edge_count_is_reflected_in_accumulator() {
        let e = encoder(1024);
        let g = generate::cycle(9);
        let acc = e.encode_to_accumulator(&g);
        assert_eq!(acc.added(), 9);
        let empty = e.encode_to_accumulator(&graphcore::Graph::empty(5));
        assert!(empty.is_empty());
    }

    #[test]
    fn edgeless_graphs_share_a_neutral_encoding() {
        let e = encoder(512);
        let a = e.encode(&graphcore::Graph::empty(3));
        let b = e.encode(&graphcore::Graph::empty(10));
        assert_eq!(a, b);
    }

    #[test]
    fn encode_all_matches_sequential() {
        let e = encoder(1024);
        let graphs: Vec<_> = (4..20).map(generate::cycle).collect();
        let refs: Vec<&graphcore::Graph> = graphs.iter().collect();
        let parallel = e.encode_all(&refs);
        let sequential: Vec<_> = refs.iter().map(|g| e.encode(g)).collect();
        assert_eq!(parallel, sequential);
        // Owned slices encode identically to reference slices.
        assert_eq!(e.encode_all(&graphs), sequential);
    }

    #[test]
    fn encode_all_is_identical_across_pinned_thread_counts() {
        let graphs: Vec<_> = (3..40).map(|n| generate::star(n % 17 + 3)).collect();
        let serial = encoder(512)
            .with_pool(Arc::new(Pool::with_threads(1)))
            .encode_all(&graphs);
        for threads in [2usize, 3, 8] {
            let e = encoder(512).with_pool(Arc::new(Pool::with_threads(threads)));
            assert_eq!(e.pool().threads(), threads);
            assert_eq!(e.encode_all(&graphs), serial, "threads {threads}");
        }
    }

    #[test]
    fn alternative_strategies_flow_through_the_encoder_surface() {
        let graphs: Vec<_> = (4..12).map(generate::complete).collect();
        for kind in [
            EncoderKind::vertex_similarity(),
            EncoderKind::edge_weighted(),
        ] {
            let e = GraphEncoder::new(
                GraphHdConfig::builder()
                    .dim(512)
                    .with_encoder(kind)
                    .build()
                    .expect("valid config"),
            )
            .expect("valid config");
            assert_eq!(e.config().encoder, kind);
            // encode/encode_all route through the kind consistently.
            let batch = e.encode_all(&graphs);
            let sequential: Vec<_> = graphs.iter().map(|g| e.encode(g)).collect();
            assert_eq!(batch, sequential, "{kind:?}");
        }
    }

    #[test]
    fn centrality_kinds_produce_valid_ranks() {
        let g = generate::star(7);
        for kind in [
            CentralityKind::PageRank,
            CentralityKind::Degree,
            CentralityKind::VertexId,
        ] {
            let e = GraphEncoder::new(GraphHdConfig {
                centrality: kind,
                ..GraphHdConfig::builder()
                    .dim(256)
                    .build()
                    .expect("valid dimension")
            })
            .expect("valid config");
            let ranks = e.vertex_ranks(&g);
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<u32>>(), "{kind:?}");
        }
        // Star center is rank 0 under both structural centralities.
        for kind in [CentralityKind::PageRank, CentralityKind::Degree] {
            let e = GraphEncoder::new(GraphHdConfig {
                centrality: kind,
                ..GraphHdConfig::builder()
                    .dim(256)
                    .build()
                    .expect("valid dimension")
            })
            .expect("valid config");
            assert_eq!(e.vertex_ranks(&g)[0], 0);
        }
    }

    fn encoder_with(kind: EncoderKind, dim: usize) -> GraphEncoder {
        GraphEncoder::new(
            GraphHdConfig::builder()
                .dim(dim)
                .with_encoder(kind)
                .build()
                .expect("valid config"),
        )
        .expect("valid config")
    }

    fn all_kinds() -> [EncoderKind; 3] {
        [
            EncoderKind::Centrality,
            EncoderKind::vertex_similarity(),
            EncoderKind::edge_weighted(),
        ]
    }

    #[test]
    fn rejects_similarity_levels_beyond_half_the_dimension() {
        // The config fields are public, so `new` repeats the builder's
        // checks instead of allocating a level per requested level.
        let config = GraphHdConfig {
            encoder: EncoderKind::VertexSimilarity { levels: u32::MAX },
            ..GraphHdConfig::builder()
                .dim(64)
                .build()
                .expect("valid dimension")
        };
        assert!(matches!(
            GraphEncoder::new(config).unwrap_err(),
            Error::InvalidEncoderConfig { .. }
        ));
    }

    #[test]
    fn every_kind_is_deterministic() {
        let g = generate::complete(9);
        for kind in all_kinds() {
            let a = encoder_with(kind, 1024);
            let b = encoder_with(kind, 1024);
            assert_eq!(
                a.encode_to_accumulator(&g).counts(),
                b.encode_to_accumulator(&g).counts(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn kinds_disagree_with_each_other() {
        // The three recipes are genuinely different encoders: on a graph
        // with non-trivial clustering their accumulators differ.
        let g = generate::complete(8);
        let accs: Vec<Accumulator> = all_kinds()
            .iter()
            .map(|&k| encoder_with(k, 2048).encode_to_accumulator(&g))
            .collect();
        assert_ne!(accs[0].counts(), accs[1].counts());
        assert_ne!(accs[0].counts(), accs[2].counts());
        assert_ne!(accs[1].counts(), accs[2].counts());
    }

    #[test]
    fn edge_weighted_with_unit_cap_matches_centrality_bitwise() {
        // cap = 1 forces every weight to 1, which must reproduce the
        // unweighted centrality bundle exactly (same ranks, same basis).
        for g in [generate::complete(9), generate::star(12), generate::path(7)] {
            let unweighted = encoder_with(EncoderKind::Centrality, 512).encode_to_accumulator(&g);
            let capped = encoder_with(EncoderKind::EdgeWeighted { weight_cap: 1 }, 512)
                .encode_to_accumulator(&g);
            assert_eq!(unweighted.counts(), capped.counts());
            assert_eq!(unweighted.added(), capped.added());
        }
    }

    #[test]
    fn edge_weighted_boosts_triangle_edges() {
        // K4 has common neighbors on every edge; the weighted bundle
        // must count more votes than edges.
        let e = encoder_with(EncoderKind::edge_weighted(), 256);
        let g = generate::complete(4);
        assert!(e.encode_to_accumulator(&g).added() > g.edge_count() as u64);
        // A triangle-free star gets no boost.
        assert_eq!(e.encode_to_accumulator(&generate::star(6)).added(), 5);
    }

    #[test]
    fn vertex_similarity_distinguishes_clustering_patterns() {
        // Complete vs path: wildly different similarity profiles.
        let e = encoder_with(EncoderKind::vertex_similarity(), 10_000);
        let a = e.encode(&generate::complete(10));
        let b = e.encode(&generate::path(10));
        assert!(a.cosine(&b) < 0.6, "cosine {}", a.cosine(&b));
    }

    #[test]
    fn edgeless_graphs_yield_empty_accumulators_under_every_kind() {
        for kind in all_kinds() {
            assert!(encoder_with(kind, 128)
                .encode_to_accumulator(&graphcore::Graph::empty(4))
                .is_empty());
        }
    }
}
