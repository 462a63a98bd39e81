//! Engines own no thread: building and serving many engines on one pool
//! leaves the process thread count where it was. Linux only, because the
//! count is read from `/proc/self/status`.
//!
//! This file holds a single test, so no other test of the harness can
//! start or end threads while it measures.

#![cfg(target_os = "linux")]

use engine::Engine;
use graphcore::generate;
use graphhd::{GraphHdConfig, GraphHdModel};
use parallel::Pool;
use std::sync::Arc;

/// The `Threads:` field of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("readable /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: field")
        .trim()
        .parse()
        .expect("a thread count")
}

#[test]
fn serving_many_engines_starts_no_thread() {
    let graphs: Vec<_> = (6..12)
        .flat_map(|n| [generate::complete(n), generate::path(n)])
        .collect();
    let labels: Vec<u32> = (0..graphs.len()).map(|i| (i % 2) as u32).collect();
    let config = GraphHdConfig::builder()
        .dim(512)
        .build()
        .expect("valid dimension");
    let model = GraphHdModel::fit(config, &graphs, &labels, 2).expect("valid inputs");
    let expected = model.predict(&graphs[0]);

    // One pool for every engine, warmed by a first engine so that its
    // worker threads exist before the count is taken.
    let pool = Arc::new(Pool::with_threads(2));
    let engine = |model: &GraphHdModel| {
        Engine::builder()
            .pool(Arc::clone(&pool))
            .from_model(model.clone())
            .expect("valid knobs")
    };
    let warm = engine(&model);
    assert_eq!(warm.classify(&graphs[0]).expect("engine alive"), expected);
    let before = process_threads();

    let engines: Vec<Engine> = (0..64).map(|_| engine(&model)).collect();
    for served in &engines {
        assert_eq!(served.classify(&graphs[0]).expect("engine alive"), expected);
    }
    assert_eq!(
        process_threads(),
        before,
        "64 more engines changed the thread count"
    );
}
