//! Property-based tests for the GraphHD encoder and model.

use graphcore::{generate, Graph, GraphBuilder};
use graphhd::{EncoderKind, GraphEncoder, GraphHdConfig};
use hdvec::{Accumulator, TieBreak};
use prng::{WordRng, Xoshiro256PlusPlus};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (5usize..25, 0.05f64..0.5, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        generate::erdos_renyi(n, p, &mut rng).expect("valid parameters")
    })
}

const KINDS: [EncoderKind; 3] = [
    EncoderKind::Centrality,
    EncoderKind::VertexSimilarity { levels: 16 },
    EncoderKind::EdgeWeighted { weight_cap: 4 },
];

const TIES: [TieBreak; 3] = [TieBreak::Positive, TieBreak::Negative, TieBreak::Seeded(7)];

/// Word boundaries, the 512-bit chunk edges and the paper's dimension.
const FUSED_DIMS: [usize; 8] = [1, 63, 64, 65, 511, 513, 1000, 10_000];

/// An encoder of `kind`, or `None` where `dim` is too small for it (the
/// vertex-similarity kind needs at least two levels, at most `dim / 2 +
/// 1`).
fn encoder_for(kind: EncoderKind, tie: TieBreak, dim: usize) -> Option<GraphEncoder> {
    let config = GraphHdConfig::builder()
        .dim(dim)
        .with_encoder(kind)
        .tie_break(tie)
        .build()
        .ok()?;
    Some(GraphEncoder::new(config).expect("built configs are valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encodings_equal_naive_accumulation(g in arb_graph()) {
        // Re-derive the edge bundle naively from public primitives and
        // compare both the reference accumulator and the fused encoding
        // exactly.
        let encoder = GraphEncoder::new(GraphHdConfig::builder().dim(512).build().expect("valid dimension")).expect("valid");
        let reference = encoder.encode_to_accumulator(&g);

        let ranks = encoder.vertex_ranks(&g);
        let mut naive = Accumulator::new(512).expect("valid dimension");
        for (u, v) in g.edges() {
            let hu = encoder.memory().hypervector(u64::from(ranks[u as usize]));
            let hv = encoder.memory().hypervector(u64::from(ranks[v as usize]));
            naive.add(&hu.bind(&hv));
        }
        prop_assert_eq!(encoder.encode(&g), naive.to_hypervector(encoder.config().tie_break));
        prop_assert_eq!(reference, naive);
    }

    #[test]
    fn encoding_is_isomorphism_invariant_on_tie_free_graphs(g in arb_graph()) {
        // Relabel vertices; if the PageRank scores are tie-free the rank
        // assignment is permutation-equivariant and the encoding fixed.
        let scores = graphcore::pagerank(&g, &graphcore::PageRankConfig::default());
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let tie_free = sorted.windows(2).all(|w| (w[1] - w[0]).abs() > 1e-12);
        prop_assume!(tie_free);

        let n = g.vertex_count();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut perm);
        let mut builder = GraphBuilder::new(n);
        for (u, v) in g.edges() {
            builder.add_edge(perm[u as usize], perm[v as usize]);
        }
        let permuted = builder.build();

        let encoder = GraphEncoder::new(GraphHdConfig::builder().dim(256).build().expect("valid dimension")).expect("valid");
        prop_assert_eq!(encoder.encode(&g), encoder.encode(&permuted));
    }

    #[test]
    fn accumulator_edge_budget(g in arb_graph()) {
        let encoder = GraphEncoder::new(GraphHdConfig::builder().dim(128).build().expect("valid dimension")).expect("valid");
        let acc = encoder.encode_to_accumulator(&g);
        prop_assert_eq!(acc.added(), g.edge_count() as u64);
        // Counter magnitudes cannot exceed the number of edges.
        let m = g.edge_count() as i32;
        prop_assert!(acc.counts().iter().all(|c| c.abs() <= m));
    }

    #[test]
    fn encode_all_parallel_equals_serial(seed in any::<u64>(), count in 1usize..40) {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let graphs: Vec<Graph> = (0..count)
            .map(|i| generate::erdos_renyi(5 + i % 7, 0.3, &mut rng).expect("valid"))
            .collect();
        let encoder = GraphEncoder::new(GraphHdConfig::builder().dim(256).build().expect("valid dimension")).expect("valid");
        let parallel = encoder.encode_all(&graphs);
        let serial: Vec<_> = graphs.iter().map(|g| encoder.encode(g)).collect();
        prop_assert_eq!(parallel, serial);
    }
}

/// `encode` (the fused kernel) equals thresholding the integer reference
/// for every kind, tie policy and dimension, on the graphs whose vote
/// totals are degenerate: no edges (the tie pattern), one edge (odd),
/// two edges (even, with ties) and a denser random graph.
#[test]
fn fused_encoding_equals_thresholded_reference_on_degenerate_graphs() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2026);
    let graphs = [
        Graph::empty(4),
        generate::path(2),
        generate::path(3),
        generate::erdos_renyi(18, 0.3, &mut rng).expect("valid parameters"),
    ];
    for kind in KINDS {
        for tie in TIES {
            for dim in FUSED_DIMS {
                let Some(encoder) = encoder_for(kind, tie, dim) else {
                    continue;
                };
                for g in &graphs {
                    assert_eq!(
                        encoder.encode(g),
                        encoder.encode_to_accumulator(g).to_hypervector(tie),
                        "{kind:?}, {tie:?}, dim {dim}, {} edges",
                        g.edge_count()
                    );
                }
            }
        }
    }
}
