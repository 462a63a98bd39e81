//! Golden encodings: every encoder's output on a fixed set of graphs,
//! pinned bit-for-bit.
//!
//! Each row records the number of bundled votes (`added()`) and an
//! FNV-1a hash of the accumulator counts at `dim = 1000` under the
//! default seed. The label-aware encoder only exposes its thresholded
//! hypervector, so its rows pin a hash of the packed hypervector words
//! instead. A refactor of the encoding loop must leave every row
//! unchanged; a deliberate change to an encoding recipe must update the
//! table in the same commit.

use graphcore::{generate, Graph};
use graphhd::labeled::LabeledGraphEncoder;
use graphhd::{EncoderKind, GraphEncoder, GraphHdConfig};
use prng::Xoshiro256PlusPlus;

const DIM: usize = 1000;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn graphs() -> [(&'static str, Graph); 4] {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(2022);
    let random = generate::erdos_renyi(20, 0.3, &mut rng).expect("valid probability");
    [
        ("complete(9)", generate::complete(9)),
        ("star(12)", generate::star(12)),
        ("path(7)", generate::path(7)),
        ("erdos_renyi(20, 0.3, seed 2022)", random),
    ]
}

fn config(kind: EncoderKind) -> GraphHdConfig {
    GraphHdConfig::builder()
        .dim(DIM)
        .with_encoder(kind)
        .build()
        .expect("valid config")
}

/// `(added, hash of counts)` per graph, in the order of [`graphs`].
fn accumulator_rows(kind: EncoderKind) -> Vec<(u64, u64)> {
    let encoder = GraphEncoder::new(config(kind)).expect("valid config");
    graphs()
        .iter()
        .map(|(_, g)| {
            let acc = encoder.encode_to_accumulator(g);
            let hash = fnv1a(acc.counts().iter().flat_map(|c| c.to_le_bytes()));
            (acc.added(), hash)
        })
        .collect()
}

fn check(kind: &str, actual: &[(u64, u64)], expected: &[(u64, u64)]) {
    for ((name, _), (actual, expected)) in graphs().iter().zip(actual.iter().zip(expected)) {
        assert_eq!(
            actual, expected,
            "{kind} on {name}: (added, counts hash) drifted"
        );
    }
}

#[test]
fn centrality_encodings_are_pinned() {
    check(
        "centrality",
        &accumulator_rows(EncoderKind::Centrality),
        &[
            (36, 11571199859326147522),
            (11, 12027735007216241598),
            (6, 8944162414009135427),
            (58, 15046913366557873234),
        ],
    );
}

#[test]
fn vertex_similarity_encodings_are_pinned() {
    check(
        "vertex-similarity",
        &accumulator_rows(EncoderKind::VertexSimilarity { levels: 16 }),
        &[
            (36, 13898374848184329537),
            (11, 12813389405628961990),
            (6, 15376414826485499894),
            (58, 5927664032236632814),
        ],
    );
}

#[test]
fn edge_weighted_encodings_are_pinned() {
    check(
        "edge-weighted",
        &accumulator_rows(EncoderKind::EdgeWeighted { weight_cap: 4 }),
        &[
            (144, 1457409809928015142),
            (11, 12027735007216241598),
            (6, 8944162414009135427),
            (150, 10471581395308795245),
        ],
    );
}

#[test]
fn labeled_encodings_are_pinned() {
    let encoder = LabeledGraphEncoder::new(config(EncoderKind::Centrality)).expect("valid config");
    let actual: Vec<u64> = graphs()
        .iter()
        .map(|(_, g)| {
            let labels: Vec<u32> = (0..g.vertex_count() as u32).map(|v| v % 3).collect();
            let hv = encoder.encode(g, &labels).expect("one label per vertex");
            fnv1a(hv.words().iter().flat_map(|w| w.to_le_bytes()))
        })
        .collect();
    let expected: [u64; 4] = [
        2336577440882115063,
        947876979993578760,
        5699947434641888778,
        1413120627911151013,
    ];
    for ((name, _), (actual, expected)) in graphs().iter().zip(actual.iter().zip(&expected)) {
        assert_eq!(
            actual, expected,
            "labeled on {name}: hypervector hash drifted"
        );
    }
}
