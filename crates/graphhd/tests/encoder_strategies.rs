//! Differential properties of the pluggable encoder strategies: every
//! strategy is deterministic under a fixed seed, bit-identical across
//! thread counts, survives a snapshot round trip with its identity
//! intact, and labels its vertices the way a hand-built integer
//! reference does.

use graphcore::{generate, ranks_by_score, similarity, Graph};
use graphhd::{EncoderKind, GraphEncoder, GraphHdConfig, GraphHdModel};
use hdvec::{Accumulator, Hypervector, ItemMemory, LevelMemory};
use parallel::Pool;
use prng::{mix_seed, Xoshiro256PlusPlus};
use proptest::prelude::*;
use std::sync::Arc;

const KINDS: [EncoderKind; 3] = [
    EncoderKind::Centrality,
    EncoderKind::VertexSimilarity { levels: 16 },
    EncoderKind::EdgeWeighted { weight_cap: 4 },
];

fn arb_graph() -> impl Strategy<Value = Graph> {
    (5usize..25, 0.05f64..0.5, any::<u64>()).prop_map(|(n, p, seed)| {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        generate::erdos_renyi(n, p, &mut rng).expect("valid parameters")
    })
}

fn arb_kind() -> impl Strategy<Value = EncoderKind> {
    prop_oneof![
        Just(EncoderKind::Centrality),
        (2u32..64).prop_map(|levels| EncoderKind::VertexSimilarity { levels }),
        (1u32..16).prop_map(|weight_cap| EncoderKind::EdgeWeighted { weight_cap }),
    ]
}

fn encoder(kind: EncoderKind, seed: u64) -> GraphEncoder {
    encoder_at(kind, seed, 512)
}

fn encoder_at(kind: EncoderKind, seed: u64, dim: usize) -> GraphEncoder {
    let config = GraphHdConfig::builder()
        .dim(dim)
        .seed(seed)
        .with_encoder(kind)
        .build()
        .expect("valid config");
    GraphEncoder::new(config).expect("valid config")
}

/// `encode_labeled` re-stated from public primitives: per-vertex
/// hypervectors `H_rank(rank) [⊗ H_level(score)] ⊗ H_label(label)` from
/// the documented seed streams (level `0x1E_5E1`, label `0x1A_BE1`), each
/// edge bound symmetrically or, for vertex similarity, lower rank with
/// the higher one permuted by one, added `votes` times to an
/// [`Accumulator`], then thresholded.
fn labeled_reference(encoder: &GraphEncoder, graph: &Graph, labels: &[u32]) -> Hypervector {
    let config = encoder.config();
    let label_memory =
        ItemMemory::new(config.dim, mix_seed(config.seed, 0x1A_BE1)).expect("valid dimension");
    let (ranks, level_rows) = match config.encoder {
        EncoderKind::VertexSimilarity { levels } => {
            let scores = similarity::neighborhood_similarity(graph);
            let memory =
                LevelMemory::new(config.dim, levels as usize, mix_seed(config.seed, 0x1E_5E1))
                    .expect("valid levels");
            let rows = scores
                .iter()
                .map(|&score| memory.hypervector(memory.quantize(score)).clone())
                .collect();
            (ranks_by_score(&scores), Some(rows))
        }
        _ => (encoder.vertex_ranks(graph), None::<Vec<Hypervector>>),
    };
    let vertex: Vec<Hypervector> = (0..graph.vertex_count())
        .map(|v| {
            let mut hv = encoder.memory().hypervector(u64::from(ranks[v]));
            if let Some(rows) = &level_rows {
                hv.bind_assign(&rows[v]);
            }
            hv.bind_assign(&label_memory.hypervector(u64::from(labels[v])));
            hv
        })
        .collect();
    let mut reference = Accumulator::new(config.dim).expect("valid dimension");
    for (u, v) in graph.edges() {
        let (a, b) = (u as usize, v as usize);
        let (edge, votes) = match config.encoder {
            EncoderKind::Centrality => (vertex[a].bind(&vertex[b]), 1),
            EncoderKind::VertexSimilarity { .. } => {
                let (lo, hi) = if ranks[a] < ranks[b] { (a, b) } else { (b, a) };
                (vertex[lo].bind(&vertex[hi].permute(1)), 1)
            }
            EncoderKind::EdgeWeighted { weight_cap } => {
                let common = graph.common_neighbors(u, v).min(weight_cap as usize - 1);
                (vertex[a].bind(&vertex[b]), 1 + common as i32)
            }
        };
        reference.add_weighted(&edge, votes);
    }
    reference.to_hypervector(config.tie_break)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_strategy_is_deterministic_under_a_fixed_seed(
        g in arb_graph(),
        kind in arb_kind(),
        seed in any::<u64>(),
    ) {
        // Two independently constructed encoders with the same seed must
        // agree bit-for-bit — nothing in a strategy may draw entropy
        // outside the seeded item/level memories.
        let a = encoder(kind, seed);
        let b = encoder(kind, seed);
        prop_assert_eq!(a.encode(&g), b.encode(&g));
        prop_assert_eq!(
            a.encode_to_accumulator(&g),
            b.encode_to_accumulator(&g)
        );
    }

    #[test]
    fn batch_encoding_is_bit_identical_across_thread_counts(
        kind in arb_kind(),
        seed in any::<u64>(),
    ) {
        let graphs: Vec<Graph> = (5..17)
            .flat_map(|n| [generate::complete(n), generate::path(n), generate::star(n)])
            .collect();
        let serial = encoder(kind, seed).with_pool(Arc::new(Pool::with_threads(1)));
        let expected: Vec<_> = graphs.iter().map(|g| serial.encode(g)).collect();
        for threads in [1usize, 4] {
            let pooled = encoder(kind, seed).with_pool(Arc::new(Pool::with_threads(threads)));
            prop_assert_eq!(&pooled.encode_all(&graphs), &expected, "threads {}", threads);
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_encoder_identity(
        kind in arb_kind(),
        seed in any::<u64>(),
    ) {
        let graphs = [generate::complete(9), generate::path(9)];
        let config = GraphHdConfig::builder()
            .dim(256)
            .seed(seed)
            .with_encoder(kind)
            .build()
            .expect("valid config");
        let model = GraphHdModel::fit(config, &graphs, &[0, 1], 2).expect("valid inputs");
        let mut bytes = Vec::new();
        model.save_to(&mut bytes).expect("in-memory write");
        let restored = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid snapshot");
        prop_assert_eq!(restored.encoder().config(), model.encoder().config());
        prop_assert_eq!(restored.encoder().config().encoder, kind);
        // The restored model re-derives the same strategy: fresh graphs
        // encode and classify identically.
        for n in 5..15 {
            let g = generate::cycle(n);
            prop_assert_eq!(restored.predict(&g), model.predict(&g));
        }
    }
}

#[test]
fn labeled_encodings_equal_the_hand_built_reference_for_every_kind() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2024);
    let graphs = [
        generate::erdos_renyi(24, 0.3, &mut rng).expect("valid parameters"),
        generate::erdos_renyi(40, 0.1, &mut rng).expect("valid parameters"),
        generate::complete(7),
        generate::star(9),
        Graph::empty(5),
    ];
    for dim in [65, 1000, 10_000] {
        for kind in KINDS {
            let e = encoder_at(kind, 7, dim);
            for g in &graphs {
                let n = g.vertex_count() as u64;
                let labels: Vec<u32> = (0..n).map(|v| (mix_seed(n, v) % 4) as u32).collect();
                assert_eq!(
                    e.encode_labeled(g, &labels).expect("one label per vertex"),
                    labeled_reference(&e, g, &labels),
                    "{} at dim {dim} on {n} vertices",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn the_three_shipped_strategies_disagree_on_a_clustered_graph() {
    // A graph with both a clique and a tail exercises the similarity
    // levels and the edge weights; no two strategies may collapse into
    // the same encoding there.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let g = generate::erdos_renyi(24, 0.3, &mut rng).expect("valid parameters");
    let encodings: Vec<_> = KINDS
        .iter()
        .map(|&kind| encoder(kind, 1).encode_to_accumulator(&g))
        .collect();
    for i in 0..KINDS.len() {
        for j in i + 1..KINDS.len() {
            assert_ne!(
                encodings[i],
                encodings[j],
                "{} vs {}",
                KINDS[i].name(),
                KINDS[j].name()
            );
        }
    }
}

#[test]
fn version_1_fixture_bytes_load_as_the_centrality_strategy() {
    // A byte-exact v1 snapshot (the pre-strategy format: no encoder
    // fields, num_classes at offset 54) assembled by hand, independent
    // of the current writer.
    let graphs = [generate::complete(8), generate::path(8)];
    let config = GraphHdConfig::builder()
        .dim(64)
        .seed(0xA5)
        .build()
        .expect("valid config");
    let model = GraphHdModel::fit(config, &graphs, &[0, 1], 2).expect("valid inputs");

    let mut fixture = Vec::new();
    fixture.extend_from_slice(b"GRAPHHD\0");
    fixture.extend_from_slice(&1u32.to_le_bytes()); // format version 1
    fixture.extend_from_slice(&64u64.to_le_bytes()); // dim
    fixture.extend_from_slice(&0xA5u64.to_le_bytes()); // seed
    fixture.push(0); // centrality tag: PageRank
    fixture.push(2); // tie-break tag: Seeded (the config default)
    fixture.extend_from_slice(&0u64.to_le_bytes()); // tie-break seed
    let pagerank = graphcore::PageRankConfig::default();
    fixture.extend_from_slice(&(pagerank.iterations as u64).to_le_bytes());
    fixture.extend_from_slice(&pagerank.damping.to_bits().to_le_bytes());
    fixture.extend_from_slice(&2u64.to_le_bytes()); // num_classes
    for class_vector in model.class_vectors() {
        for &word in class_vector.words() {
            fixture.extend_from_slice(&word.to_le_bytes());
        }
    }

    let restored = GraphHdModel::load_from(&mut fixture.as_slice()).expect("valid v1 snapshot");
    assert_eq!(restored.encoder().config().encoder, EncoderKind::Centrality);
    assert_eq!(restored.encoder().config(), model.encoder().config());
    assert_eq!(restored.class_vectors(), model.class_vectors());
}
