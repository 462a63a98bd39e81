//! Micro-benchmarks for the HDC substrate (paper Section III efficiency
//! claims): bind, bundle, similarity and permutation throughput versus
//! hypervector dimensionality.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdvec::{bundle, Accumulator, Hypervector, ItemMemory, TieBreak};
use prng::Xoshiro256PlusPlus;
use std::hint::black_box;

fn bench_hdc_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hdc_ops");
    for &dim in &[1_024usize, 10_000, 65_536] {
        let memory = ItemMemory::new(dim, 7).expect("valid dimension");
        let a = memory.hypervector(0);
        let b = memory.hypervector(1);
        let sixteen: Vec<Hypervector> = (0..16).map(|i| memory.hypervector(i)).collect();

        group.bench_with_input(BenchmarkId::new("bind", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(&a).bind(black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("cosine", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(&a).cosine(black_box(&b)));
        });
        // The scalar Harley–Seal XOR+popcount, without the dot/cosine
        // arithmetic on top. Not dispatched: decisions and scores run on
        // the class scan (`similarity` bench, `class_scan_2048` group).
        group.bench_with_input(BenchmarkId::new("hamming", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(&a).hamming(black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("permute", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(&a).permute(black_box(13)));
        });
        // A shift near d/2 (crossing many words, odd intra-word offset):
        // the funnel-shift kernel must cost the same as shift 13.
        group.bench_with_input(BenchmarkId::new("permute_half", dim), &dim, |bencher, _| {
            bencher.iter(|| black_box(&a).permute(black_box(dim / 2 + 1)));
        });
        group.bench_with_input(
            BenchmarkId::new("permute_assign", dim),
            &dim,
            |bencher, _| {
                let mut v = a.clone();
                bencher.iter(|| {
                    v.permute_assign(black_box(13));
                    black_box(v.words()[0])
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("with_noise_1pct", dim),
            &dim,
            |bencher, _| {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
                bencher.iter(|| black_box(&a).with_noise(black_box(0.01), &mut rng));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("with_noise_10pct", dim),
            &dim,
            |bencher, _| {
                let mut rng = Xoshiro256PlusPlus::seed_from_u64(12);
                bencher.iter(|| black_box(&a).with_noise(black_box(0.1), &mut rng));
            },
        );
        group.bench_with_input(BenchmarkId::new("bundle16", dim), &dim, |bencher, _| {
            bencher.iter(|| bundle(black_box(&sixteen), TieBreak::default()));
        });
        group.bench_with_input(
            BenchmarkId::new("accumulator_add", dim),
            &dim,
            |bencher, _| {
                let mut acc = Accumulator::new(dim).expect("valid dimension");
                bencher.iter(|| {
                    acc.add(black_box(&a));
                    black_box(acc.added())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("to_components", dim),
            &dim,
            |bencher, _| {
                bencher.iter(|| black_box(&a).to_components());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("from_components", dim),
            &dim,
            |bencher, _| {
                let components = a.to_components();
                bencher.iter(|| Hypervector::from_components(black_box(&components)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("item_memory_generate", dim),
            &dim,
            |bencher, _| {
                let mut index = 0u64;
                bencher.iter(|| {
                    index = index.wrapping_add(1);
                    memory.hypervector(black_box(index))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_hdc_ops);
criterion_main!(benches);
