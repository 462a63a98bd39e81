//! Thread-scaling of the pooled pipeline at pinned parallelism degrees
//! (1/2/4/8): end-to-end fit+predict on the Fig. 4 scaling workload, plus
//! the three component hot paths (batch encoding, WL Gram matrix,
//! PageRank batches). Every entry is bit-identical across thread counts —
//! only the wall clock may move — so the entries measure the runtime, not
//! the numerics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::StratifiedKFold;
use graphcore::{pagerank_ranks_batch_with_pool, Graph, PageRankConfig};
use graphhd::{GraphEncoder, GraphHdConfig, GraphHdModel};
use parallel::Pool;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use wlkernels::{compute_gram_with_threads, wl_features, KernelKind};

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn scaling_workload() -> (Vec<Graph>, Vec<u32>, Vec<Graph>, usize) {
    // The Fig. 4 workload: 40 Erdős–Rényi graphs of 50 vertices, split
    // once; fit on the training fold, predict the held-out fold.
    let dataset = datasets::surrogate::scaling_dataset(50, 40, 9).expect("valid parameters");
    let folds = StratifiedKFold::new(4, 1)
        .expect("at least two folds")
        .split(dataset.labels())
        .expect("splittable");
    let train_graphs: Vec<Graph> = folds[0]
        .train
        .iter()
        .map(|&i| dataset.graph(i).clone())
        .collect();
    let train_labels: Vec<u32> = folds[0].train.iter().map(|&i| dataset.label(i)).collect();
    let test_graphs: Vec<Graph> = folds[0]
        .test
        .iter()
        .map(|&i| dataset.graph(i).clone())
        .collect();
    (
        train_graphs,
        train_labels,
        test_graphs,
        dataset.num_classes(),
    )
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));

    let (train_graphs, train_labels, test_graphs, num_classes) = scaling_workload();
    let config = GraphHdConfig::default();

    for &threads in &THREADS {
        let pool = Arc::new(Pool::with_threads(threads));

        // End-to-end: encode + bundle the training fold, then classify
        // the test fold — the acceptance workload for BENCH_pr3.json.
        group.bench_with_input(
            BenchmarkId::new("fit_predict", threads),
            &threads,
            |bencher, _| {
                bencher.iter(|| {
                    let encoder = GraphEncoder::new(config)
                        .expect("valid config")
                        .with_pool(Arc::clone(&pool));
                    let model = GraphHdModel::fit_with_encoder(
                        encoder,
                        black_box(&train_graphs),
                        &train_labels,
                        num_classes,
                    )
                    .expect("valid inputs");
                    model.predict_all(black_box(&test_graphs))
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("encode_batch", threads),
            &threads,
            |bencher, _| {
                let encoder = GraphEncoder::new(config)
                    .expect("valid config")
                    .with_pool(Arc::clone(&pool));
                bencher.iter(|| encoder.encode_all(black_box(&train_graphs)));
            },
        );

        group.bench_with_input(
            BenchmarkId::new("pagerank_batch", threads),
            &threads,
            |bencher, _| {
                let pr = PageRankConfig::default();
                bencher
                    .iter(|| pagerank_ranks_batch_with_pool(black_box(&train_graphs), &pr, &pool));
            },
        );
    }

    // The Gram matrix keeps its explicit-thread-count API; its transient
    // pool is part of what this entry measures.
    let features = wl_features(&train_graphs, 3).maps;
    for &threads in &THREADS {
        group.bench_with_input(
            BenchmarkId::new("wl_gram", threads),
            &threads,
            |bencher, _| {
                bencher.iter(|| {
                    compute_gram_with_threads(black_box(&features), KernelKind::Subtree, threads)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
