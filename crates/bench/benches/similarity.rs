//! Multi-query similarity scoring: the blocked `ClassMemory` engine
//! versus the naive per-class cosine loop it replaces in
//! `GraphHdModel::scores_encoded`.
//!
//! The class counts cover the suite's real datasets (2 = binary
//! MUTAG-style tasks) plus block-boundary and many-class shapes (8 = one
//! full lane block, 23 = three blocks with an odd tail, the satellite
//! equivalence grid).
//!
//! The `class_scan_2048` group times the class-scan kernel itself,
//! `Backend::hamming_tile`, over a 2,048-class memory (256 interleaved
//! 8-lane blocks at d = 10,000) on every backend the CPU supports, at a
//! tile of one query and a full tile of `TILE_QUERIES`. The reported time
//! is one pass over all blocks; divide by the tile size for the cost per
//! query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdvec::backend::{Backend, BLOCK_LANES, TILE_QUERIES};
use hdvec::{ClassMemory, Hypervector, ItemMemory};
use prng::{SplitMix64, WordRng};
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

fn bench_class_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("class_scan_2048");
    let words = 10_000usize.div_ceil(64);
    let blocks_len = 2048 / BLOCK_LANES;
    let mut rng = SplitMix64::new(0x5CA7);
    let blocks: Vec<Vec<u64>> = (0..blocks_len)
        .map(|_| (0..words * BLOCK_LANES).map(|_| rng.next_u64()).collect())
        .collect();
    let queries: Vec<Vec<u64>> = (0..TILE_QUERIES)
        .map(|_| (0..words).map(|_| rng.next_u64()).collect())
        .collect();
    let refs: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
    for backend in Backend::available() {
        for tile in [1, TILE_QUERIES] {
            group.bench_with_input(
                BenchmarkId::new(format!("hamming_tile_{}", backend.name()), tile),
                &tile,
                |bencher, &tile| {
                    bencher.iter(|| {
                        let mut acc = [[0u64; BLOCK_LANES]; TILE_QUERIES];
                        for block in &blocks {
                            backend.hamming_tile(black_box(&refs[..tile]), block, &mut acc[..tile]);
                        }
                        acc[0][0]
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_similarity, bench_class_scan);
criterion_main!(benches);
