//! Chaos suite: deterministic fault injection at every engine-side
//! fail point (`engine.dispatch`, `pool.region`), asserting the
//! resilience invariants of `docs/RESILIENCE.md`:
//!
//! - **no stranded submitter** — every submit returns, with a real
//!   answer or a classified error;
//! - **the queue-depth gauge drains to zero** once traffic stops;
//! - **counters reconcile** — `accepted == completed + failed +
//!   expired`, with `shed`/`rejected` counting refusals disjointly;
//! - a panic while serving fails only its own batch: the engine keeps
//!   serving, with no terminal state.
//!
//! Faults are seeded: each scenario runs under `GRAPHHD_FAULTS`-style
//! plans for seeds {1..5} (or just the seed of the ambient
//! `GRAPHHD_FAULTS` when CI's chaos matrix sets one). Models are
//! always **fitted before faults are armed** — training runs pool
//! regions, which the `pool.region` fail point cuts.

use engine::{Engine, EngineStats};
use graphcore::Graph;
use graphhd::{Error, GraphHdConfig, GraphHdModel};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes every test in this file. A fault plan armed by one test
/// is process-wide, so without this another test's set-up (a model
/// fit, a fault-free classify) or verification could run under it.
/// Poison-tolerant: one failed test must not fail the rest.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn workload() -> (Vec<Graph>, Vec<u32>) {
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(77);
    for i in 0..16 {
        let base = graphcore::generate::erdos_renyi(14, 0.2, &mut rng).expect("valid p");
        if i % 2 == 0 {
            graphs.push(base);
            labels.push(0u32);
        } else {
            graphs.push(
                graphcore::generate::with_planted_triangles(&base, 4, &mut rng).expect("n >= 3"),
            );
            labels.push(1u32);
        }
    }
    (graphs, labels)
}

/// A model fitted offline on `workload()`; every scenario serves one.
fn fitted(graphs: &[Graph], labels: &[u32]) -> GraphHdModel {
    let config = GraphHdConfig::builder()
        .dim(256)
        .build()
        .expect("valid dimension");
    GraphHdModel::fit(config, graphs, labels, 2).expect("valid inputs")
}

/// The seeds each scenario sweeps: the ambient `GRAPHHD_FAULTS` seed
/// when the CI chaos matrix pins one, otherwise all of {1..5}.
fn seeds() -> Vec<u64> {
    match faultpoint::env_seed() {
        Some(seed) => vec![seed],
        None => (1..=5).collect(),
    }
}

/// The shutdown-time reconciliation contract.
fn assert_reconciled(stats: &EngineStats, context: &str) {
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed + stats.expired,
        "{context}: accepted != completed + failed + expired: {stats:?}"
    );
    assert_eq!(stats.queue_depth, 0, "{context}: gauge not drained");
    assert_eq!(stats.queued, 0, "{context}: queue not drained");
}

/// Drives `threads × per_thread` classify calls and returns every
/// outcome. The join itself is the no-stranded-submitter assertion: a
/// lost request would leave its submitter blocked forever.
fn drive(
    engine: &Engine,
    graphs: &[Graph],
    threads: usize,
    per_thread: usize,
) -> Vec<Result<u32, Error>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|submitter| {
                let engine = engine.clone();
                scope.spawn(move || {
                    (0..per_thread)
                        .map(|i| engine.classify(&graphs[(submitter + i * 3) % graphs.len()]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("submitter never stranded"))
            .collect()
    })
}

#[test]
fn batch_panics_are_contained_and_no_submitter_is_stranded() {
    let _serial = serial();
    let (graphs, labels) = workload();
    for seed in seeds() {
        let engine = Engine::builder()
            .queue_capacity(4)
            .max_batch(4)
            .from_model(fitted(&graphs, &labels))
            .expect("valid knobs");
        let expected: Vec<u32> = graphs.iter().map(|g| engine.model().predict(g)).collect();

        let guard = faultpoint::configure(&format!("seed={seed};engine.dispatch=30%panic"))
            .expect("valid spec");
        let outcomes = drive(&engine, &graphs, 3, 20);
        drop(guard);

        let mut failed = 0u64;
        for outcome in &outcomes {
            match outcome {
                Ok(class) => {
                    assert!(expected.contains(class), "seed {seed}: bogus class");
                }
                Err(Error::TaskFailed) => failed += 1,
                Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
            }
        }
        // Faults are off again: the engine must still serve.
        assert_eq!(
            engine.classify(&graphs[0]).expect("engine recovered"),
            expected[0],
            "seed {seed}"
        );
        engine.shutdown();
        let stats = engine.stats();
        assert_reconciled(&stats, &format!("seed {seed}"));
        assert_eq!(stats.failed, failed, "seed {seed}: failed counter");
    }
}

#[test]
fn injected_dispatch_errors_fail_batches_without_restarting() {
    let _serial = serial();
    let (graphs, labels) = workload();
    for seed in seeds() {
        let engine = Engine::builder()
            .queue_capacity(4)
            .max_batch(4)
            .from_model(fitted(&graphs, &labels))
            .expect("valid knobs");

        let guard = faultpoint::configure(&format!("seed={seed};engine.dispatch=50%error"))
            .expect("valid spec");
        let outcomes = drive(&engine, &graphs, 3, 15);
        drop(guard);

        let failed = outcomes
            .iter()
            .filter(|o| matches!(o, Err(Error::TaskFailed)))
            .count() as u64;
        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o, Ok(_) | Err(Error::TaskFailed))),
            "seed {seed}: unexpected outcome"
        );
        engine.classify(&graphs[0]).expect("engine alive");
        engine.shutdown();
        let stats = engine.stats();
        assert_reconciled(&stats, &format!("seed {seed}"));
        assert_eq!(stats.failed, failed, "seed {seed}");
    }
}

#[test]
fn slow_dispatch_expires_deadlined_requests_exactly() {
    let _serial = serial();
    let (graphs, labels) = workload();
    let engine = Engine::builder()
        .queue_capacity(8)
        .max_batch(2)
        .from_model(fitted(&graphs, &labels))
        .expect("valid knobs");

    // Every batch stalls 25 ms behind a 5 ms deadline: the dispatch-time
    // re-check must expire queue-aged requests without scoring them.
    let guard = faultpoint::configure("seed=1;engine.dispatch=delay(25)").expect("valid spec");
    let outcomes: Vec<Result<u32, Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|submitter: usize| {
                let engine = engine.clone();
                let graphs = &graphs;
                scope.spawn(move || {
                    (0..8)
                        .map(|i: usize| {
                            engine.classify_within(
                                &graphs[(submitter + i) % graphs.len()],
                                Duration::from_millis(5),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("submitter never stranded"))
            .collect()
    });
    drop(guard);

    let expired = outcomes
        .iter()
        .filter(|o| matches!(o, Err(Error::DeadlineExceeded)))
        .count() as u64;
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, Ok(_) | Err(Error::DeadlineExceeded))),
        "unexpected outcome under pure delay injection"
    );
    assert!(
        expired > 0,
        "25 ms stalls against 5 ms deadlines must expire requests"
    );
    engine.shutdown();
    let stats = engine.stats();
    assert_reconciled(&stats, "delay+deadline");
    assert_eq!(
        stats.expired, expired,
        "expired counter matches observed responses"
    );
}

#[test]
fn pool_region_crashes_are_contained_to_their_batch() {
    let _serial = serial();
    let (graphs, labels) = workload();
    for seed in seeds() {
        let engine = Engine::builder()
            .queue_capacity(4)
            .max_batch(4)
            .threads(2)
            .from_model(fitted(&graphs, &labels))
            .expect("valid knobs");

        let guard = faultpoint::configure(&format!("seed={seed};pool.region=25%panic"))
            .expect("valid spec");
        let outcomes = drive(&engine, &graphs, 3, 15);
        drop(guard);

        assert!(
            outcomes
                .iter()
                .all(|o| matches!(o, Ok(_) | Err(Error::TaskFailed))),
            "seed {seed}: unexpected outcome"
        );
        engine.classify(&graphs[0]).expect("engine alive");
        engine.shutdown();
        let stats = engine.stats();
        assert_reconciled(&stats, &format!("seed {seed}"));
    }
}

#[test]
fn mixed_faults_at_every_engine_fail_point_reconcile_across_seeds() {
    let _serial = serial();
    let (graphs, labels) = workload();
    for seed in seeds() {
        let engine = Engine::builder()
            .queue_capacity(4)
            .max_batch(3)
            .threads(2)
            .from_model(fitted(&graphs, &labels))
            .expect("valid knobs");

        let spec = format!(
            "seed={seed};engine.dispatch=10%panic;engine.dispatch=15%error;\
             engine.dispatch=10%delay(3);pool.region=10%panic"
        );
        let guard = faultpoint::configure(&spec).expect("valid spec");
        let outcomes: Vec<Result<u32, Error>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|submitter: usize| {
                    let engine = engine.clone();
                    let graphs = &graphs;
                    scope.spawn(move || {
                        (0..12)
                            .map(|i: usize| {
                                let graph = &graphs[(submitter + i) % graphs.len()];
                                if i.is_multiple_of(3) {
                                    engine.classify_within(graph, Duration::from_millis(50))
                                } else {
                                    engine.classify(graph)
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("submitter never stranded"))
                .collect()
        });
        drop(guard);

        for outcome in &outcomes {
            assert!(
                matches!(
                    outcome,
                    Ok(_) | Err(Error::TaskFailed) | Err(Error::DeadlineExceeded)
                ),
                "seed {seed}: unexpected outcome {outcome:?}"
            );
        }
        engine.shutdown();
        assert_reconciled(&engine.stats(), &format!("seed {seed}"));
    }
}
