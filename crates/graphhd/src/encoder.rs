//! The GraphHD graph encoder (paper Section IV-B/IV-C, Figure 2).
//!
//! Every [`EncoderKind`] runs through one edge-bundling recipe: rank the
//! vertices, bind the hypervectors of each edge's two endpoints, and
//! bundle the bound edges by majority. The kinds differ only in the
//! inputs to that recipe — the vertex hypervector, the orientation of
//! the bind, and the edge's vote weight — and
//! [`GraphEncoder::encode_labeled`] also binds a label hypervector into
//! each vertex's.
//!
//! One private builder writes every vertex hypervector in place into a
//! dense per-graph row table: the vertex's basis words, then the kind's
//! level row and the label row XORed in. [`GraphEncoder::encode`] hands
//! the table to the fused [`hdvec::bundle_edges`] kernel, which binds,
//! counts and thresholds every edge 512 bits at a time without building
//! per-dimension counters. [`GraphEncoder::encode_to_accumulator`] adds
//! the same table's bound rows to an [`Accumulator`], the integer
//! reference the fused path is tested bit-identical against.

use crate::{CentralityKind, EncoderKind, Error, GraphHdConfig};
use graphcore::{degree_centrality, pagerank_ranks, ranks_by_score, similarity, Graph};
use hdvec::{Accumulator, Hypervector, ItemMemory, LevelMemory};
use parallel::{Pool, PoolHandle};
use prng::mix_seed;
use std::borrow::Borrow;
use std::sync::Arc;

/// Seed stream for the level memory of the vertex-similarity kind,
/// independent from the basis item memory (which uses the config seed
/// directly) and from the label memory.
const LEVEL_SEED_STREAM: u64 = 0x1E_5E1;

/// Seed stream for the label memory of [`GraphEncoder::encode_labeled`].
const LABEL_SEED_STREAM: u64 = 0x1A_BE1;

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
    /// The vertex-label basis of [`encode_labeled`](Self::encode_labeled).
    labels: ItemMemory,
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
            labels: ItemMemory::new(config.dim, mix_seed(config.seed, LABEL_SEED_STREAM))?,
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
    /// the centrality one whatever the encoder kind: the centrality and
    /// edge-weighted kinds encode with it, labeled or not, and it backs
    /// the centrality ablations.
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
    ///   level components, since `x ⊗ x` is the identity; rank order,
    ///   unlike vertex id, is topology-derived, so the encoding stays
    ///   isomorphism-invariant);
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
        let (dim, stride) = (self.config.dim, self.config.dim.div_ceil(64));
        let (rows, edges) = self.edge_table(graph, None);
        let row = |r: u32| &rows[r as usize * stride..][..stride];
        let mut acc = Accumulator::new(dim).expect("dimension validated at construction");
        for (a, b, votes) in edges {
            let bound = row(a).iter().zip(row(b)).map(|(x, y)| x ^ y).collect();
            let edge = Hypervector::from_words(dim, bound).expect("bound rows keep the tail clear");
            acc.add_weighted(&edge, votes as i32);
        }
        acc
    }

    /// Encodes a graph into its bipolar graph hypervector — the `Enc_G`
    /// of the paper — with the fused edge bundle. Equal to thresholding
    /// [`encode_to_accumulator`](Self::encode_to_accumulator) with the
    /// config's tie-break.
    #[must_use]
    pub fn encode(&self, graph: &Graph) -> Hypervector {
        crate::metrics::metrics().graphs_encoded.inc();
        self.bundle(graph, None)
    }

    /// Encodes a graph with per-vertex labels (future-work direction 2
    /// of Section VII). Each vertex hypervector of the config's kind is
    /// bound with a label hypervector from an independent item memory,
    /// `Enc_v(v) ⊗ H_label(label(v))`, so two vertices must agree on
    /// both topology role *and* label to share an encoding. For vertex
    /// similarity the label is bound before the one-step permutation of
    /// the oriented bind.
    ///
    /// Binding is self-inverse, so under a symmetric bind (centrality,
    /// edge weighted) an edge whose endpoints share a label encodes as
    /// without labels: uniform labels reduce to [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LabelCountMismatch`] if `labels.len()` differs
    /// from the vertex count.
    ///
    /// # Examples
    ///
    /// ```
    /// use graphhd::{GraphEncoder, GraphHdConfig};
    /// use graphcore::generate;
    ///
    /// let encoder = GraphEncoder::new(GraphHdConfig::default())?;
    /// let graph = generate::cycle(6);
    /// let uniform = vec![0u32; 6];
    /// let alternating: Vec<u32> = (0..6).map(|v| v % 2).collect();
    /// let a = encoder.encode_labeled(&graph, &uniform)?;
    /// let b = encoder.encode_labeled(&graph, &alternating)?;
    /// // Same topology, different labels: encodings diverge.
    /// assert!(a.cosine(&b) < 0.9);
    /// # Ok::<(), graphhd::Error>(())
    /// ```
    pub fn encode_labeled(&self, graph: &Graph, labels: &[u32]) -> Result<Hypervector, Error> {
        if labels.len() != graph.vertex_count() {
            return Err(Error::LabelCountMismatch {
                vertices: graph.vertex_count(),
                labels: labels.len(),
            });
        }
        Ok(self.bundle(graph, Some(labels)))
    }

    /// The fused bundle of the graph's
    /// [`edge_table`](Self::edge_table). The encoding is allocated
    /// before the table: it outlives the table, and one allocated after
    /// it would sit between freed tables, leaving holes across a batch
    /// that later allocations (such as class accumulators) cannot reuse.
    fn bundle(&self, graph: &Graph, labels: Option<&[u32]>) -> Hypervector {
        let mut encoding =
            Hypervector::positive(self.config.dim).expect("dimension validated at construction");
        let (rows, edges) = self.edge_table(graph, labels);
        hdvec::bundle_edges(&rows, &rows, &edges, self.config.tie_break, &mut encoding);
        encoding
    }

    /// Builds the graph's vertex row table (`dim.div_ceil(64)` packed
    /// words per row) and its edges as `(first, second, votes)`: row
    /// `first` bound with row `second`, `votes` times, under the config's
    /// kind (see [`encode_to_accumulator`](Self::encode_to_accumulator)).
    /// Row `v` gets vertex `v`'s basis words, then its level row and its
    /// label row are XORed in, all in place. An oriented bind reads its
    /// second endpoint from `n` more rows, row `n + v` holding row `v`
    /// permuted by one.
    fn edge_table(
        &self,
        graph: &Graph,
        labels: Option<&[u32]>,
    ) -> (Vec<u64>, Vec<(u32, u32, u32)>) {
        let (n, stride) = (graph.vertex_count(), self.config.dim.div_ceil(64));
        // Vertex similarity ranks by (and binds a level of) the score.
        let scores = self
            .levels
            .as_ref()
            .map(|_| similarity::neighborhood_similarity(graph));
        let ranks = match &scores {
            Some(scores) => ranks_by_score(scores),
            None => self.vertex_ranks(graph),
        };
        let oriented = scores.is_some();
        let mut rows = vec![0; if oriented { 2 * n } else { n } * stride];
        let (plain, permuted) = rows.split_at_mut(n * stride);
        for (v, row) in plain.chunks_exact_mut(stride).enumerate() {
            self.memory.fill(u64::from(ranks[v]), row);
            if let (Some(levels), Some(scores)) = (&self.levels, &scores) {
                let level = levels.hypervector(levels.quantize(scores[v]));
                row.iter_mut().zip(level.words()).for_each(|(w, l)| *w ^= l);
            }
            if let Some(labels) = labels {
                self.labels.bind_into(u64::from(labels[v]), row);
            }
        }
        // `permuted` is empty under a symmetric bind.
        for (row, out) in plain
            .chunks_exact(stride)
            .zip(permuted.chunks_exact_mut(stride))
        {
            let hv = Hypervector::from_words(self.config.dim, row.to_vec());
            out.copy_from_slice(hv.expect("tail bits clear").permute(1).words());
        }
        // The row of an oriented edge's second endpoint is permuted.
        let second_offset = if oriented { n as u32 } else { 0 };
        let weight_cap = match self.config.encoder {
            EncoderKind::EdgeWeighted { weight_cap } => Some(weight_cap as usize),
            _ => None,
        };
        // Reserved once: `edges()` gives no size hint, and a growing
        // list would leave freed blocks behind across a batch.
        let mut edges = Vec::with_capacity(graph.edge_count());
        edges.extend(graph.edges().map(|(u, v)| {
            // Ranks are a permutation, so the order is strict.
            let (a, b) = if oriented && ranks[v as usize] < ranks[u as usize] {
                (v, u)
            } else {
                (u, v)
            };
            let votes = weight_cap.map_or(1, |cap| 1 + graph.common_neighbors(u, v).min(cap - 1));
            (a, second_offset + b, votes as u32)
        }));
        (rows, edges)
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

    #[test]
    fn validates_label_count() {
        let e = encoder(4096);
        let g = generate::path(4);
        assert_eq!(
            e.encode_labeled(&g, &[0, 1]).unwrap_err(),
            Error::LabelCountMismatch {
                vertices: 4,
                labels: 2
            }
        );
    }

    #[test]
    fn deterministic_and_label_sensitive() {
        let e = encoder(4096);
        let g = generate::cycle(8);
        let l1 = vec![0u32; 8];
        let l2: Vec<u32> = (0..8u32).map(|v| v % 2).collect();
        assert_eq!(
            e.encode_labeled(&g, &l1).unwrap(),
            e.encode_labeled(&g, &l1).unwrap()
        );
        let a = e.encode_labeled(&g, &l1).unwrap();
        let b = e.encode_labeled(&g, &l2).unwrap();
        assert!(a.cosine(&b) < 0.9, "cosine {}", a.cosine(&b));
    }

    #[test]
    fn uniform_labels_cancel_under_binding() {
        // A known property of multiplicative binding: the edge encoding
        // (r_u × l_u) × (r_v × l_v) reduces to r_u × r_v whenever
        // l_u = l_v, because binding is self-inverse. Hence *uniform*
        // labelings — any label value — collapse to the structural
        // encoding; only label *variation along edges* is visible.
        let e = encoder(4096);
        let g = generate::cycle(6);
        let structural = e.encode(&g);
        let all_zero = e.encode_labeled(&g, &[0u32; 6]).unwrap();
        let all_one = e.encode_labeled(&g, &[1u32; 6]).unwrap();
        assert_eq!(all_zero, structural);
        assert_eq!(all_one, structural);
    }

    #[test]
    fn separates_label_patterns_in_a_model_setting() {
        // Same topology (cycle), classes differ only in label pattern.
        let e = encoder(4096);
        let g = generate::cycle(10);
        let uniform = vec![0u32; 10];
        let alternating: Vec<u32> = (0..10u32).map(|v| v % 2).collect();
        let enc_uniform = e.encode_labeled(&g, &uniform).unwrap();
        let enc_alternating = e.encode_labeled(&g, &alternating).unwrap();
        // A nearest-class-vector rule built from one example per class
        // classifies both patterns correctly.
        let query_u = e.encode_labeled(&g, &uniform).unwrap();
        assert!(query_u.cosine(&enc_uniform) > query_u.cosine(&enc_alternating));
    }

    #[test]
    fn uniform_labels_reduce_to_encode_only_under_a_symmetric_bind() {
        // Under the oriented bind of vertex similarity an edge binds
        // l ⊗ permute(l, 1), which is not the identity, so even uniform
        // labels stay visible there.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);
        let random = generate::erdos_renyi(16, 0.3, &mut rng).expect("valid p");
        for g in [generate::complete(7), generate::star(9), random] {
            let uniform = vec![3u32; g.vertex_count()];
            for kind in all_kinds() {
                let e = encoder_with(kind, 1000);
                let labeled = e
                    .encode_labeled(&g, &uniform)
                    .expect("one label per vertex");
                let symmetric = !matches!(kind, EncoderKind::VertexSimilarity { .. });
                assert_eq!(labeled == e.encode(&g), symmetric, "{kind:?}");
            }
        }
    }
}
