//! Multi-query similarity scoring: the blocked `ClassMemory` engine
//! versus the naive per-class cosine loop it replaces in
//! `GraphHdModel::scores_encoded`.
//!
//! The class counts cover the suite's real datasets (2 = binary
//! MUTAG-style tasks) plus block-boundary and many-class shapes (8 = one
//! full lane block, 23 = three blocks with an odd tail, the satellite
//! equivalence grid).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdvec::{ClassMemory, Hypervector, ItemMemory};
use std::hint::black_box;

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    let dim = 10_000;
    let memory = ItemMemory::new(dim, 7).expect("valid dimension");
    let query = memory.hypervector(1_000_000);
    for &classes in &[2usize, 8, 23] {
        let class_vectors: Vec<Hypervector> =
            (0..classes as u64).map(|i| memory.hypervector(i)).collect();
        let class_memory = ClassMemory::from_vectors(&class_vectors).expect("non-empty");

        // The pre-PR4 scoring loop: one dispatched hamming per class,
        // query words re-read every time.
        group.bench_with_input(
            BenchmarkId::new("cosine_loop", classes),
            &classes,
            |bencher, _| {
                bencher.iter(|| -> f64 {
                    class_vectors
                        .iter()
                        .map(|cv| cv.cosine(black_box(&query)))
                        .sum()
                });
            },
        );
        // The blocked engine: each query word streams once across an
        // 8-lane block and the accumulators live in SIMD registers.
        group.bench_with_input(
            BenchmarkId::new("scores_many", classes),
            &classes,
            |bencher, _| {
                bencher.iter(|| class_memory.cosine_many(black_box(&query))[0]);
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_similarity);
criterion_main!(benches);
