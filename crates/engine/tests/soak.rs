//! Multi-threaded serving soak: N submitter threads hammering one
//! engine must observe exactly the predictions of the serial
//! `predict_all` path, under real backpressure, and a racing shutdown
//! must never strand or corrupt a request.

use engine::{Engine, OverloadPolicy};
use graphcore::Graph;
use graphhd::{Error, GraphHdConfig, GraphHdConfigBuilder, GraphHdModel};
use std::time::{Duration, Instant};

fn workload() -> (Vec<Graph>, Vec<u32>) {
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(41);
    for i in 0..30 {
        let base = graphcore::generate::erdos_renyi(18, 0.18, &mut rng).expect("valid p");
        if i % 2 == 0 {
            graphs.push(base);
            labels.push(0u32);
        } else {
            graphs.push(
                graphcore::generate::with_planted_triangles(&base, 5, &mut rng).expect("n >= 3"),
            );
            labels.push(1u32);
        }
    }
    (graphs, labels)
}

/// A model fitted offline on `graphs` with the configuration `config`
/// describes; each test serves one.
fn fitted(config: GraphHdConfigBuilder, graphs: &[Graph], labels: &[u32]) -> GraphHdModel {
    let config = config.build().expect("valid dimension");
    GraphHdModel::fit(config, graphs, labels, 2).expect("valid inputs")
}

#[test]
fn concurrent_submitters_match_serial_predictions() {
    let (graphs, labels) = workload();
    // A small queue and batch so the soak actually exercises
    // backpressure and multi-batch dispatch, not just the happy path.
    let engine = Engine::builder()
        .queue_capacity(4)
        .max_batch(3)
        .from_model(fitted(
            GraphHdConfig::builder().dim(2048).seed(23),
            &graphs,
            &labels,
        ))
        .expect("valid knobs");
    let expected = engine.model().predict_all(&graphs);

    const SUBMITTERS: usize = 4;
    const REQUESTS_PER_THREAD: usize = 50;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for submitter in 0..SUBMITTERS {
            let engine = engine.clone();
            let graphs = &graphs;
            handles.push(scope.spawn(move || {
                let mut results = Vec::with_capacity(REQUESTS_PER_THREAD);
                for i in 0..REQUESTS_PER_THREAD {
                    // Each thread walks the graphs with its own stride so
                    // interleavings differ between threads.
                    let index = (submitter + i * (submitter + 1)) % graphs.len();
                    let class = engine.classify(&graphs[index]).expect("engine alive");
                    results.push((index, class));
                }
                results
            }));
        }
        for handle in handles {
            for (index, class) in handle.join().expect("submitter thread") {
                assert_eq!(class, expected[index], "graph {index}");
            }
        }
    });
    assert_eq!(engine.pending(), 0);
    engine.shutdown();
}

#[test]
fn scores_served_concurrently_are_bit_identical() {
    let (graphs, labels) = workload();
    let engine = Engine::builder()
        .queue_capacity(3)
        .max_batch(2)
        .from_model(fitted(GraphHdConfig::builder().dim(1024), &graphs, &labels))
        .expect("valid knobs");
    let expected: Vec<Vec<f64>> = graphs.iter().map(|g| engine.model().scores(g)).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for start in 0..3usize {
            let engine = engine.clone();
            let graphs = &graphs;
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for index in (start..graphs.len()).step_by(3) {
                    out.push((index, engine.scores(&graphs[index]).expect("engine alive")));
                }
                out
            }));
        }
        for handle in handles {
            for (index, scores) in handle.join().expect("submitter thread") {
                assert_eq!(scores, expected[index], "graph {index}");
            }
        }
    });
}

#[test]
fn shutdown_racing_submitters_never_corrupts_results() {
    let (graphs, labels) = workload();
    let engine = Engine::builder()
        .queue_capacity(2)
        .max_batch(2)
        .from_model(fitted(GraphHdConfig::builder().dim(512), &graphs, &labels))
        .expect("valid knobs");
    let expected = engine.model().predict_all(&graphs);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for submitter in 0..3usize {
            let engine = engine.clone();
            let graphs = &graphs;
            handles.push(scope.spawn(move || {
                let mut outcomes = Vec::new();
                for i in 0..40usize {
                    let index = (submitter * 7 + i) % graphs.len();
                    outcomes.push((index, engine.classify(&graphs[index])));
                }
                outcomes
            }));
        }
        // Let some traffic through, then slam the door while submitters
        // are mid-flight.
        let first = engine.classify(&graphs[0]).expect("engine alive");
        assert_eq!(first, expected[0]);
        engine.shutdown();

        for handle in handles {
            for (index, outcome) in handle.join().expect("submitter thread") {
                match outcome {
                    // Every accepted request is answered correctly...
                    Ok(class) => assert_eq!(class, expected[index], "graph {index}"),
                    // ...every rejected one fails with the shutdown error.
                    Err(e) => assert_eq!(e, Error::ShutDown, "graph {index}"),
                }
            }
        }
    });
}

/// The overload soak: 8 submitters against a capacity-4 queue, once
/// per policy. Every response must still be a correct prediction or an
/// `Overloaded` refusal, the per-policy counters must reconcile
/// exactly against what the submitters observed, and `Shed` must never
/// block a submitter (asserted as a generous wall-clock bound on a
/// loop that would otherwise spend most of its life parked on
/// backpressure).
#[test]
fn overload_policies_reconcile_under_sustained_pressure() {
    let (graphs, labels) = workload();
    const SUBMITTERS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 25;
    const TOTAL: u64 = (SUBMITTERS * REQUESTS_PER_THREAD) as u64;

    for policy in [
        OverloadPolicy::Block,
        OverloadPolicy::Shed,
        OverloadPolicy::Timeout(Duration::from_millis(2)),
    ] {
        let engine = Engine::builder()
            .queue_capacity(4)
            .max_batch(2)
            .overload_policy(policy)
            .from_model(fitted(GraphHdConfig::builder().dim(512), &graphs, &labels))
            .expect("valid knobs");
        let expected = engine.model().predict_all(&graphs);

        let started = Instant::now();
        let (ok, overloaded) = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for submitter in 0..SUBMITTERS {
                let engine = engine.clone();
                let graphs = &graphs;
                let expected = &expected;
                handles.push(scope.spawn(move || {
                    let (mut ok, mut overloaded) = (0u64, 0u64);
                    for i in 0..REQUESTS_PER_THREAD {
                        let index = (submitter * 5 + i) % graphs.len();
                        match engine.classify(&graphs[index]) {
                            Ok(class) => {
                                assert_eq!(class, expected[index], "graph {index}");
                                ok += 1;
                            }
                            Err(Error::Overloaded) => overloaded += 1,
                            Err(other) => panic!("{policy:?}: unexpected error {other:?}"),
                        }
                    }
                    (ok, overloaded)
                }));
            }
            handles
                .into_iter()
                .map(|handle| handle.join().expect("submitter thread"))
                .fold((0u64, 0u64), |(a, b), (c, d)| (a + c, b + d))
        });

        if policy == OverloadPolicy::Shed {
            // A shedding submit never parks: 200 requests against a
            // capacity-4 queue either enter or bounce immediately, so
            // the whole soak must finish far inside this bound.
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "Shed blocked: soak took {:?}",
                started.elapsed()
            );
        }

        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(
            stats.accepted,
            stats.completed + stats.failed + stats.expired,
            "{policy:?}: accepted != completed + failed + expired: {stats:?}"
        );
        assert_eq!(stats.completed, ok, "{policy:?}: completed counter");
        assert_eq!(stats.shed, overloaded, "{policy:?}: shed counter");
        assert_eq!(
            stats.accepted + stats.shed,
            TOTAL,
            "{policy:?}: an attempt was neither accepted nor shed"
        );
        assert_eq!(stats.queue_depth, 0, "{policy:?}: gauge not drained");
        assert_eq!(stats.failed, 0, "{policy:?}: no faults were armed");
        assert_eq!(stats.expired, 0, "{policy:?}: no deadlines were set");
        if policy == OverloadPolicy::Block {
            assert_eq!(stats.shed, 0, "Block never sheds");
            assert_eq!(stats.completed, TOTAL, "Block completes everything");
        }
    }
}

#[test]
fn snapshot_from_running_engine_reloads_into_identical_engine() {
    let (graphs, labels) = workload();
    let model = fitted(GraphHdConfig::builder().dim(1024).seed(9), &graphs, &labels);
    let engine = Engine::builder().from_model(model).expect("valid knobs");

    let path = std::env::temp_dir().join(format!("graphhd-engine-soak-{}.ghd", std::process::id()));
    engine.model().save(&path).expect("writable temp dir");
    let restored = Engine::builder()
        .from_snapshot(&path)
        .expect("valid snapshot");
    std::fs::remove_file(&path).expect("cleanup");

    assert_eq!(
        restored.classify_batch(&graphs).expect("engine alive"),
        engine.classify_batch(&graphs).expect("engine alive"),
    );
}
