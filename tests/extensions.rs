//! Integration: the paper's future-work extensions (Section VII) work
//! end-to-end on benchmark surrogates.

use datasets::harness::{evaluate_cv, CvProtocol};
use datasets::{surrogate, StratifiedKFold};
use graphcore::Graph;
use graphhd::prototypes::{MultiPrototypeModel, PrototypeConfig};
use graphhd::{EncoderKind, GraphEncoder, GraphHdClassifier, GraphHdConfig, GraphHdModel};
use hdvec::Accumulator;

fn split(dataset: &datasets::GraphDataset) -> (Vec<usize>, Vec<usize>) {
    let folds = StratifiedKFold::new(4, 3)
        .expect("at least two folds")
        .split(dataset.labels())
        .expect("splittable");
    (folds[0].train.clone(), folds[0].test.clone())
}

#[test]
fn retraining_never_hurts_training_accuracy() {
    let dataset = surrogate::generate_surrogate_sized(
        surrogate::spec_by_name("PROTEINS").expect("known dataset"),
        21,
        80,
    );
    let (train, _) = split(&dataset);
    let graphs: Vec<&Graph> = train.iter().map(|&i| dataset.graph(i)).collect();
    let labels: Vec<u32> = train.iter().map(|&i| dataset.label(i)).collect();

    let config = GraphHdConfig::builder()
        .dim(4096)
        .build()
        .expect("valid dimension");
    let encoder = GraphEncoder::new(config).expect("valid config");
    let encodings = encoder.encode_all(&graphs);
    let mut model = GraphHdModel::fit_encoded(encoder, &encodings, &labels, 2);

    let errors_before: usize = encodings
        .iter()
        .zip(&labels)
        .filter(|(hv, &l)| model.predict_encoded(hv) != l)
        .count();
    let report = model.retrain(&encodings, &labels, 15);
    let errors_after: usize = encodings
        .iter()
        .zip(&labels)
        .filter(|(hv, &l)| model.predict_encoded(hv) != l)
        .count();
    assert!(
        errors_after <= errors_before,
        "retraining increased training errors: {errors_before} -> {errors_after}"
    );
    assert!(report.epoch_errors[0] >= *report.epoch_errors.last().expect("non-empty"));
}

#[test]
fn multi_prototype_model_runs_on_surrogates() {
    let dataset = surrogate::generate_surrogate_sized(
        surrogate::spec_by_name("ENZYMES").expect("known dataset"),
        22,
        72,
    );
    let (train, test) = split(&dataset);
    let graphs: Vec<&Graph> = train.iter().map(|&i| dataset.graph(i)).collect();
    let labels: Vec<u32> = train.iter().map(|&i| dataset.label(i)).collect();
    let config = PrototypeConfig {
        base: GraphHdConfig::builder()
            .dim(4096)
            .build()
            .expect("valid dimension"),
        ..PrototypeConfig::default()
    };
    let model = MultiPrototypeModel::fit(config, &graphs, &labels, dataset.num_classes())
        .expect("valid dataset");
    assert_eq!(model.prototype_counts().len(), 6);
    let test_graphs: Vec<&Graph> = test.iter().map(|&i| dataset.graph(i)).collect();
    let predictions = model.predict_all(&test_graphs);
    assert_eq!(predictions.len(), test.len());
    assert!(predictions.iter().all(|&p| p < 6));
}

/// The pluggable-encoder acceptance test: the extracted centrality
/// strategy must reproduce the pre-refactor encoder **bit-for-bit** on
/// surrogate-MUTAG. The reference below is the paper recipe restated
/// from public primitives only (ranks → basis vectors → edge binds →
/// integer-counter bundling), exactly as `GraphEncoder` implemented it
/// before the strategy layer existed.
#[test]
fn centrality_strategy_is_bit_identical_to_the_paper_recipe_on_mutag() {
    let dataset = surrogate::by_name("MUTAG", 29).expect("known dataset");
    let config = GraphHdConfig::builder()
        .dim(2048)
        .seed(0xFEED)
        .build()
        .expect("valid dimension");
    assert_eq!(config.encoder, EncoderKind::Centrality, "paper default");
    let encoder = GraphEncoder::new(config).expect("valid config");

    for graph in dataset.graphs() {
        let ranks = encoder.vertex_ranks(graph);
        let mut reference = Accumulator::new(2048).expect("valid dimension");
        for (u, v) in graph.edges() {
            let hu = encoder.memory().hypervector(u64::from(ranks[u as usize]));
            let hv = encoder.memory().hypervector(u64::from(ranks[v as usize]));
            reference.add(&hu.bind(&hv));
        }
        assert_eq!(encoder.encode_to_accumulator(graph), reference);
        assert_eq!(
            encoder.encode(graph),
            reference.to_hypervector(config.tie_break)
        );
    }
}

/// Three-way encoder ablation under the paper's CV protocol on
/// surrogate-MUTAG. Measured means (dim 4096, seeds 9/123): centrality
/// ≈ 0.64–0.69, edge-weighted ≈ 0.60–0.63, vertex-similarity ≈
/// 0.54–0.58; the floors below leave noise margin while still requiring
/// every strategy to beat chance and the paper recipe to stay on top of
/// this roster.
#[test]
fn encoder_strategy_ablation_on_surrogate_mutag() {
    let dataset = surrogate::generate_surrogate_sized(
        surrogate::spec_by_name("MUTAG").expect("known dataset"),
        17,
        90,
    );
    let protocol = CvProtocol {
        folds: 3,
        repetitions: 1,
        seed: 5,
    };
    let base = GraphHdConfig::builder().dim(4096).seed(9);
    let mut means = Vec::new();
    for (kind, floor) in [
        (EncoderKind::Centrality, 0.60),
        (EncoderKind::VertexSimilarity { levels: 16 }, 0.50),
        (EncoderKind::EdgeWeighted { weight_cap: 4 }, 0.55),
    ] {
        let config = base.with_encoder(kind).build().expect("valid config");
        let mut classifier = GraphHdClassifier::new(config);
        let report = evaluate_cv(&mut classifier, &dataset, &protocol).expect("splittable");
        let accuracy = report.accuracy().mean;
        assert!(
            accuracy >= floor,
            "{} accuracy {accuracy} below floor {floor}",
            kind.name()
        );
        means.push(accuracy);
    }
    assert!(
        means[0] >= means[1] && means[0] >= means[2],
        "the paper recipe should lead this roster: {means:?}"
    );
}

#[test]
fn label_aware_encoding_separates_label_patterns_topology_cannot() {
    // Two "datasets" share identical topology; only vertex labels differ.
    // The structural encoding is blind to this; the labeled one is not.
    let encoder = GraphEncoder::new(
        GraphHdConfig::builder()
            .dim(4096)
            .build()
            .expect("valid dimension"),
    )
    .expect("valid");
    let graph = graphcore::generate::cycle(12);
    let pattern_a: Vec<u32> = (0..12).map(|v| v % 2).collect(); // alternating
    let pattern_b: Vec<u32> = (0..12).map(|v| u32::from(v >= 6)).collect(); // halves

    let s = encoder.encode(&graph);
    assert_eq!(s, encoder.encode(&graph), "structure alone is fixed");

    let a = encoder
        .encode_labeled(&graph, &pattern_a)
        .expect("matching labels");
    let b = encoder
        .encode_labeled(&graph, &pattern_b)
        .expect("matching labels");
    assert!(
        a.cosine(&b) < 0.8,
        "label patterns should separate: cosine {}",
        a.cosine(&b)
    );
    // And each pattern is self-consistent.
    assert_eq!(
        a,
        encoder
            .encode_labeled(&graph, &pattern_a)
            .expect("matching")
    );
}
