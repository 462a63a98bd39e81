//! The deployable-artifact contract, end to end: a model trained in one
//! "process", snapshotted to a real file, and loaded back (directly or
//! into a serving [`Engine`]) predicts **bit-identically** on the full
//! surrogate-MUTAG test split.
//!
//! Backend coverage: CI runs this suite under the default runtime
//! dispatch *and* with `GRAPHHD_FORCE_SCALAR=1`, so the round-trip
//! equality below is asserted on both the AVX2 and the scalar scoring
//! paths (snapshots are backend-independent by construction — they store
//! packed words, not scores).

use datasets::{surrogate, StratifiedKFold};
use engine::Engine;
use graphcore::Graph;
use graphhd::{EncoderKind, GraphHdConfig, GraphHdModel};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique throwaway path per call: tests run concurrently in one
/// process, and dims differ per proptest case, so names must not
/// collide.
fn temp_snapshot_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "graphhd-roundtrip-{tag}-{}-{unique}.ghd",
        std::process::id()
    ))
}

fn save_load_through_file(model: &GraphHdModel, tag: &str) -> GraphHdModel {
    let path = temp_snapshot_path(tag);
    model.save(&path).expect("temp dir is writable");
    let restored = GraphHdModel::load(&path).expect("just-written snapshot decodes");
    std::fs::remove_file(&path).expect("cleanup");
    restored
}

/// The acceptance scenario: full surrogate-MUTAG, a real train/test
/// split, a real file between "processes".
#[test]
fn mutag_model_round_trips_bit_identically_through_disk() {
    let dataset = surrogate::by_name("MUTAG", 77).expect("known dataset");
    let folds = StratifiedKFold::new(5, 3)
        .expect("at least two folds")
        .split(dataset.labels())
        .expect("splittable");
    let fold = &folds[0];
    let train_graphs: Vec<&Graph> = fold.train.iter().map(|&i| dataset.graph(i)).collect();
    let train_labels: Vec<u32> = fold.train.iter().map(|&i| dataset.label(i)).collect();
    let test_graphs: Vec<&Graph> = fold.test.iter().map(|&i| dataset.graph(i)).collect();
    assert!(!test_graphs.is_empty());

    // Paper-default configuration (dim 10,000), non-default seed.
    let config = GraphHdConfig::builder()
        .seed(0xC0FFEE)
        .build()
        .expect("valid dimension");
    let model = GraphHdModel::fit(config, &train_graphs, &train_labels, dataset.num_classes())
        .expect("consistent dataset");
    let expected = model.predict_all(&test_graphs);

    // Process 2a: plain model load.
    let restored = save_load_through_file(&model, "mutag");
    assert_eq!(restored.encoder().config(), model.encoder().config());
    assert_eq!(restored.class_vectors(), model.class_vectors());
    assert_eq!(restored.predict_all(&test_graphs), expected);

    // Process 2b: serving engine load, full test split through the
    // request queue.
    let path = temp_snapshot_path("mutag-engine");
    model.save(&path).expect("temp dir is writable");
    let served = Engine::builder()
        .from_snapshot(&path)
        .expect("just-written snapshot decodes");
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(
        served.classify_batch(&test_graphs).expect("engine alive"),
        expected
    );
    for graph in test_graphs.iter().take(5) {
        assert_eq!(
            served.scores(graph).expect("engine alive"),
            model.scores(graph),
            "scores must be bit-identical, not just argmax-equal"
        );
    }
    served.shutdown();
}

/// A retrained (perceptron-refined) model snapshots its *current* class
/// vectors — the artifact reflects the refinement.
#[test]
fn retrained_model_round_trips_current_state() {
    let dataset = surrogate::generate_surrogate_sized(
        surrogate::spec_by_name("MUTAG").expect("known"),
        13,
        60,
    );
    let graphs: Vec<&Graph> = dataset.graphs().iter().collect();
    let config = GraphHdConfig::builder()
        .dim(2048)
        .build()
        .expect("valid dimension");
    let encoder = graphhd::GraphEncoder::new(config).expect("valid config");
    let encodings = encoder.encode_all(&graphs);
    let mut model =
        GraphHdModel::fit_encoded(encoder, &encodings, dataset.labels(), dataset.num_classes());
    let _ = model.retrain(&encodings, dataset.labels(), 5);

    let restored = save_load_through_file(&model, "retrained");
    assert_eq!(restored.class_vectors(), model.class_vectors());
    assert_eq!(restored.predict_all(&graphs), model.predict_all(&graphs));
}

/// Dimension grid for the round-trip property: one word minus a bit, an
/// exact word, a word plus a bit, and the paper dimension.
const DIMS: [usize; 4] = [63, 64, 65, 10_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (dim, seed, tie-seed, class count, encoder strategy) → fit
    /// on synthetic families → save → load through a real temp file →
    /// identical config (including encoder identity), class vectors and
    /// predictions.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        dim_idx in 0usize..DIMS.len(),
        model_seed in any::<u64>(),
        tie_seed in any::<u64>(),
        classes in 2usize..5,
        kind_idx in 0usize..3,
    ) {
        let dim = DIMS[dim_idx];
        let kind = [
            EncoderKind::Centrality,
            EncoderKind::VertexSimilarity { levels: 16 },
            EncoderKind::EdgeWeighted { weight_cap: 4 },
        ][kind_idx];
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for n in 6..(6 + 3 * classes) {
            // Distinct structural families per class.
            let graph = match n % classes {
                0 => graphcore::generate::complete(n),
                1 => graphcore::generate::path(n),
                2 => graphcore::generate::star(n),
                _ => graphcore::generate::cycle(n),
            };
            graphs.push(graph);
            labels.push((n % classes) as u32);
        }
        let config = GraphHdConfig::builder()
            .dim(dim)
            .seed(model_seed)
            .tie_break(hdvec::TieBreak::Seeded(tie_seed))
            .with_encoder(kind)
            .build()
            .expect("valid dimension");
        let model = GraphHdModel::fit(config, &graphs, &labels, classes)
            .expect("consistent inputs");

        let restored = save_load_through_file(&model, "prop");
        prop_assert_eq!(restored.encoder().config(), model.encoder().config());
        prop_assert_eq!(restored.encoder().config().encoder, kind);
        prop_assert_eq!(restored.class_vectors(), model.class_vectors());
        let probes: Vec<Graph> = (4..14).map(graphcore::generate::cycle).collect();
        prop_assert_eq!(
            restored.predict_all(&probes),
            model.predict_all(&probes),
            "dim {}", dim
        );
    }
}
