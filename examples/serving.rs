//! Serving lifecycle, end to end: train → snapshot to disk → reload into
//! a long-lived [`Engine`] → serve queries from multiple threads →
//! report throughput and the engine's own telemetry (typed stats,
//! Prometheus exposition, JSON snapshot).
//!
//! This is the deployment story of the GraphHD paper's "cheap enough to
//! serve online" pitch: the trainer and the server only share a file.
//!
//! Run with: `cargo run --release --example serving`

use datasets::{surrogate, StratifiedKFold};
use engine::Engine;
use graphcore::Graph;
use graphhd::{GraphHdConfig, GraphHdModel};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Trainer process ────────────────────────────────────────────────
    // Full surrogate-MUTAG (188 graphs), 80/20 split, paper-default
    // 10,000-dimensional configuration.
    let dataset = surrogate::by_name("MUTAG", 42).expect("known dataset");
    let folds = StratifiedKFold::new(5, 7)?.split(dataset.labels())?;
    let fold = &folds[0];
    let train_graphs: Vec<&Graph> = fold.train.iter().map(|&i| dataset.graph(i)).collect();
    let train_labels: Vec<u32> = fold.train.iter().map(|&i| dataset.label(i)).collect();

    let config = GraphHdConfig::builder().seed(42).build()?;
    let started = Instant::now();
    let model = GraphHdModel::fit(config, &train_graphs, &train_labels, dataset.num_classes())?;
    println!(
        "trained {} classes at d={} on {} graphs in {:.1} ms",
        model.num_classes(),
        config.dim,
        train_graphs.len(),
        started.elapsed().as_secs_f64() * 1e3,
    );

    // The deployable artifact: a versioned, endian-stable binary file.
    let path = std::env::temp_dir().join(format!("graphhd-serving-{}.ghd", std::process::id()));
    model.save(&path)?;
    println!(
        "snapshot v{}: {} bytes at {}",
        graphhd::SNAPSHOT_VERSION,
        std::fs::metadata(&path)?.len(),
        path.display(),
    );

    // ── Server process ─────────────────────────────────────────────────
    // Reload the artifact into an engine: bounded queue (backpressure),
    // batched dispatch onto the `parallel` pool, SIMD-blocked scoring.
    let served = Engine::builder()
        .queue_capacity(128)
        .max_batch(32)
        .from_snapshot(&path)?;
    std::fs::remove_file(&path)?;

    // Sanity: the served model is bit-identical to the trained one.
    let test_graphs: Vec<&Graph> = fold.test.iter().map(|&i| dataset.graph(i)).collect();
    let served_predictions = served.classify_batch(&test_graphs)?;
    assert_eq!(served_predictions, model.predict_all(&test_graphs));
    let hits = served_predictions
        .iter()
        .zip(fold.test.iter().map(|&i| dataset.label(i)))
        .filter(|(p, l)| **p == *l)
        .count();
    println!(
        "test accuracy over {} held-out graphs: {:.1}%",
        test_graphs.len(),
        100.0 * hits as f64 / test_graphs.len() as f64,
    );

    // ── Concurrent clients ─────────────────────────────────────────────
    // Four submitter threads × 250 queries each through one engine.
    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 250;
    let started = Instant::now();
    std::thread::scope(|scope| -> Result<(), graphhd::Error> {
        let mut handles = Vec::new();
        for client in 0..CLIENTS {
            let engine = served.clone();
            let queries = &test_graphs;
            handles.push(scope.spawn(move || -> Result<usize, graphhd::Error> {
                let mut answered = 0;
                for i in 0..QUERIES_PER_CLIENT {
                    let graph = queries[(client + i) % queries.len()];
                    let _class = engine.classify(graph)?;
                    answered += 1;
                }
                Ok(answered)
            }));
        }
        for handle in handles {
            handle.join().expect("client thread")?;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    let total = (CLIENTS * QUERIES_PER_CLIENT) as f64;
    println!(
        "served {total} queries from {CLIENTS} threads in {elapsed:.2} s \
         ({:.0} queries/s, {:.2} ms mean latency at full load)",
        total / elapsed,
        elapsed * 1e3 * CLIENTS as f64 / total,
    );

    // ── Observability ──────────────────────────────────────────────────
    // The same numbers an operator would scrape in production: the typed
    // stats surface, plus the registry rendered both ways. The rendering
    // is validated here, so CI running this example asserts the
    // exposition stays well-formed.
    let stats = served.stats();
    println!(
        "engine stats: accepted {} completed {} failed {} queue_depth {}",
        stats.accepted, stats.completed, stats.failed, stats.queue_depth,
    );
    if !stats.request_ns.is_empty() {
        println!(
            "request latency: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us \
             over {} requests",
            stats.request_ns.p50() as f64 / 1e3,
            stats.request_ns.p90() as f64 / 1e3,
            stats.request_ns.p99() as f64 / 1e3,
            stats.request_ns.max as f64 / 1e3,
            stats.request_ns.count,
        );
        println!(
            "queue wait: p50 {:.1} us, p99 {:.1} us; batches: mean {:.1} requests",
            stats.queue_wait_ns.p50() as f64 / 1e3,
            stats.queue_wait_ns.p99() as f64 / 1e3,
            stats.batch_size.mean(),
        );
    }

    let exposition = served.registry().render_prometheus();
    telemetry::validate_exposition(&exposition)
        .map_err(|why| format!("malformed Prometheus exposition: {why}"))?;
    println!(
        "prometheus exposition: {} well-formed lines ({} metrics)",
        exposition.lines().count(),
        served.registry().names().len(),
    );
    println!("json snapshot: {}", served.registry().render_json());

    served.shutdown();
    let drained = served.stats();
    assert_eq!(
        drained.queue_depth, 0,
        "drained shutdown leaves no request behind"
    );
    println!("engine drained and shut down");
    Ok(())
}
