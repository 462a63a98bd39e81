//! Micro-benchmarks for GraphHD's encoding path (paper Section IV cost):
//! PageRank and full graph encoding versus graph size on the Fig. 4
//! Erdős–Rényi workload (p = 0.05), a DD-sized graph under every encoder
//! kind and under `encode_labeled`, and the fused edge-bundle kernel on
//! every backend the CPU supports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphcore::{generate, pagerank, PageRankConfig};
use graphhd::{EncoderKind, GraphEncoder, GraphHdConfig};
use hdvec::backend::{Backend, TieWords};
use prng::{SplitMix64, WordRng, Xoshiro256PlusPlus};
use std::hint::black_box;

/// DD's mean shape in Table I: ~284 vertices and ~715 edges per graph.
const DD_VERTICES: usize = 284;
const DD_EDGES: usize = 715;

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoding");
    let encoder = GraphEncoder::new(GraphHdConfig::default()).expect("valid config");
    let pr_config = PageRankConfig::default();
    for &n in &[50usize, 200, 800] {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(n as u64);
        let graph = generate::erdos_renyi(n, 0.05, &mut rng).expect("valid p");
        group.bench_with_input(BenchmarkId::new("pagerank10", n), &n, |bencher, _| {
            bencher.iter(|| pagerank(black_box(&graph), &pr_config));
        });
        group.bench_with_input(BenchmarkId::new("encode", n), &n, |bencher, _| {
            bencher.iter(|| encoder.encode(black_box(&graph)));
        });
    }
    // An Erdős–Rényi graph with DD's mean vertex and edge counts.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xDD);
    let pairs = DD_VERTICES * (DD_VERTICES - 1) / 2;
    let dd = generate::erdos_renyi(DD_VERTICES, DD_EDGES as f64 / pairs as f64, &mut rng)
        .expect("valid p");
    group.bench_with_input(
        BenchmarkId::new("encode_dd_sized", dd.edge_count()),
        &dd,
        |bencher, graph| {
            bencher.iter(|| encoder.encode(black_box(graph)));
        },
    );
    // The other kinds share the row table: vertex similarity adds a
    // level row and the permuted rows, edge weighting the vote counts.
    for kind in [
        EncoderKind::vertex_similarity(),
        EncoderKind::edge_weighted(),
    ] {
        let config = GraphHdConfig::builder().with_encoder(kind).build();
        let encoder = GraphEncoder::new(config.expect("valid config")).expect("valid config");
        group.bench_with_input(
            BenchmarkId::new(format!("encode_dd_sized_{}", kind.name()), dd.edge_count()),
            &dd,
            |bencher, graph| {
                bencher.iter(|| encoder.encode(black_box(graph)));
            },
        );
    }
    // Centrality rows with a label row bound in, over 8 label values.
    let labels: Vec<u32> = (0..dd.vertex_count() as u32).map(|v| v % 8).collect();
    group.bench_with_input(
        BenchmarkId::new("encode_labeled_dd_sized", dd.edge_count()),
        &dd,
        |bencher, graph| {
            bencher.iter(|| encoder.encode_labeled(black_box(graph), &labels));
        },
    );
    group.finish();
}

/// `Backend::bundle_edges` at d = 10,000 on random vertex rows: an
/// 11-edge input (a small MUTAG-like graph) and a DD-sized 715-edge one.
fn bench_bundle_edges(c: &mut Criterion) {
    let mut group = c.benchmark_group("bundle_edges");
    let dim = 10_000usize;
    let stride = dim.div_ceil(64);
    let mut rng = SplitMix64::new(0xB0_4D1E);
    for (vertices, edges) in [(9usize, 11usize), (DD_VERTICES, DD_EDGES)] {
        let rows: Vec<u64> = (0..vertices * stride).map(|_| rng.next_u64()).collect();
        let list: Vec<(u32, u32, u32)> = (0..edges)
            .map(|_| {
                let a = rng.next_u64() % vertices as u64;
                let b = rng.next_u64() % vertices as u64;
                (a as u32, b as u32, 1)
            })
            .collect();
        for backend in Backend::available() {
            group.bench_with_input(
                BenchmarkId::new(backend.name(), edges),
                &edges,
                |bencher, _| {
                    let mut out = vec![0u64; stride];
                    bencher.iter(|| {
                        backend.bundle_edges(
                            dim,
                            black_box(&rows),
                            &rows,
                            &list,
                            TieWords::Constant(0),
                            &mut out,
                        );
                        out[0]
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_encoding, bench_bundle_edges);
criterion_main!(benches);
