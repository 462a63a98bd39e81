//! Golden encodings: every encoder's output on a fixed set of graphs,
//! pinned bit-for-bit.
//!
//! Each accumulator row records the number of bundled votes (`added()`)
//! and an FNV-1a hash of the accumulator counts at `dim = 1000` under
//! the default seed. The hypervector rows pin an FNV-1a hash of the
//! packed words `encode()` returns, at `dim = 1000` and at `dim =
//! 10_000` (157 words, so the last 512-bit chunk is partial).
//! `encode_labeled` only exposes its thresholded hypervector, so its
//! rows pin a hash of the packed hypervector words as well. A refactor
//! of the encoding loop must leave every row unchanged; a deliberate
//! change to an encoding recipe must update the table in the same
//! commit.

use graphcore::{generate, Graph};
use graphhd::{EncoderKind, GraphEncoder, GraphHdConfig};
use prng::Xoshiro256PlusPlus;

const DIM: usize = 1000;

/// Dimensions of the `encode()` rows: one whole-word case and the
/// paper's 10,000, whose 157 words end in a partial 512-bit chunk.
const HYPERVECTOR_DIMS: [usize; 2] = [DIM, 10_000];

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
    config_at(kind, DIM)
}

fn config_at(kind: EncoderKind, dim: usize) -> GraphHdConfig {
    GraphHdConfig::builder()
        .dim(dim)
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

fn words_hash(hv: &hdvec::Hypervector) -> u64 {
    fnv1a(hv.words().iter().flat_map(|w| w.to_le_bytes()))
}

/// Hash of `encode()`'s packed words per graph, in the order of
/// [`graphs`], at each dimension of [`HYPERVECTOR_DIMS`] in turn.
fn hypervector_rows(kind: EncoderKind) -> Vec<u64> {
    HYPERVECTOR_DIMS
        .iter()
        .flat_map(|&dim| {
            let encoder = GraphEncoder::new(config_at(kind, dim)).expect("valid config");
            graphs()
                .iter()
                .map(|(_, g)| words_hash(&encoder.encode(g)))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn check_hypervectors(kind: &str, actual: &[u64], expected: &[u64]) {
    assert_eq!(actual.len(), expected.len(), "{kind}: row count");
    let names = HYPERVECTOR_DIMS
        .iter()
        .flat_map(|dim| graphs().map(|(name, _)| format!("{name} at dim {dim}")));
    for (name, (actual, expected)) in names.zip(actual.iter().zip(expected)) {
        assert_eq!(
            actual, expected,
            "{kind} on {name}: hypervector hash drifted"
        );
    }
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
    let encoder = GraphEncoder::new(config(EncoderKind::Centrality)).expect("valid config");
    let actual: Vec<u64> = graphs()
        .iter()
        .map(|(_, g)| {
            let labels: Vec<u32> = (0..g.vertex_count() as u32).map(|v| v % 3).collect();
            let hv = encoder
                .encode_labeled(g, &labels)
                .expect("one label per vertex");
            words_hash(&hv)
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

#[test]
fn centrality_hypervectors_are_pinned() {
    check_hypervectors(
        "centrality",
        &hypervector_rows(EncoderKind::Centrality),
        &[
            // dim 1000
            774555642070260412,
            17703458074074996105,
            11368885391887851637,
            4832214645645035871,
            // dim 10,000
            17746093580101788284,
            17603534775983644405,
            9885537841473609623,
            7321714265784758,
        ],
    );
}

#[test]
fn vertex_similarity_hypervectors_are_pinned() {
    check_hypervectors(
        "vertex-similarity",
        &hypervector_rows(EncoderKind::VertexSimilarity { levels: 16 }),
        &[
            // dim 1000
            2265918008688021462,
            9689583827422710384,
            3627652520506221427,
            16520747795517116700,
            // dim 10,000
            4974502579407100946,
            10250407076333514554,
            5992293664768797785,
            1565861651327413180,
        ],
    );
}

#[test]
fn edge_weighted_hypervectors_are_pinned() {
    check_hypervectors(
        "edge-weighted",
        &hypervector_rows(EncoderKind::EdgeWeighted { weight_cap: 4 }),
        &[
            // dim 1000
            774555642070260412,
            17703458074074996105,
            11368885391887851637,
            9827866629659504830,
            // dim 10,000
            17746093580101788284,
            17603534775983644405,
            9885537841473609623,
            14378265660288368670,
        ],
    );
}
