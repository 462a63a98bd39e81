//! End-to-end determinism under concurrency: the pooled cross-validation
//! evaluator must reproduce the serial report for GraphHD on a surrogate
//! MUTAG — same accuracies, same fold count, same order.

use datasets::harness::{evaluate_cv, evaluate_cv_parallel, CvProtocol};
use datasets::surrogate;
use graphhd::{GraphHdClassifier, GraphHdConfig};
use parallel::Pool;
use std::sync::Arc;

#[test]
fn parallel_cv_reproduces_the_serial_report_for_graphhd_on_surrogate_mutag() {
    let dataset = surrogate::generate_surrogate_sized(
        surrogate::spec_by_name("MUTAG").expect("known dataset"),
        17,
        48,
    );
    let protocol = CvProtocol {
        folds: 4,
        repetitions: 2,
        seed: 5,
    };
    let config = GraphHdConfig::builder()
        .dim(2048)
        .build()
        .expect("valid dimension");

    let serial = evaluate_cv(&mut GraphHdClassifier::new(config), &dataset, &protocol)
        .expect("dataset splits under the protocol");
    assert_eq!(serial.folds.len(), protocol.folds * protocol.repetitions);

    for threads in [1usize, 3, 8] {
        // Pin fold-level AND batch-level (encoder) parallelism to the same
        // pool, exercising nested regions from worker threads.
        let pool = Arc::new(Pool::with_threads(threads));
        let classifier = GraphHdClassifier::new(config).with_pool(Arc::clone(&pool));
        let parallel = evaluate_cv_parallel(&classifier, &dataset, &protocol, &pool)
            .expect("dataset splits under the protocol");

        assert_eq!(parallel.method, serial.method);
        assert_eq!(parallel.dataset, serial.dataset);
        assert_eq!(
            parallel.folds.len(),
            serial.folds.len(),
            "threads {threads}"
        );
        for (index, (p, s)) in parallel.folds.iter().zip(&serial.folds).enumerate() {
            assert_eq!(
                p.accuracy, s.accuracy,
                "fold {index} accuracy diverged at {threads} threads"
            );
            assert_eq!(p.test_size, s.test_size, "fold {index} size");
        }
        assert_eq!(parallel.accuracy().mean, serial.accuracy().mean);
    }
}

#[test]
fn retraining_classifier_is_also_reproduced_in_parallel() {
    // Retraining makes fit order-sensitive *within* a fold; it is a
    // serial loop over the fold's encodings, and the parallel folds must
    // reproduce that sequence exactly.
    let dataset = surrogate::generate_surrogate_sized(
        surrogate::spec_by_name("MUTAG").expect("known dataset"),
        23,
        36,
    );
    let protocol = CvProtocol {
        folds: 3,
        repetitions: 1,
        seed: 2,
    };
    let config = GraphHdConfig::builder()
        .dim(1024)
        .build()
        .expect("valid dimension");
    let serial = evaluate_cv(
        &mut GraphHdClassifier::new(config).with_retraining(4),
        &dataset,
        &protocol,
    )
    .expect("splittable");
    let pool = Arc::new(Pool::with_threads(4));
    let classifier = GraphHdClassifier::new(config)
        .with_retraining(4)
        .with_pool(Arc::clone(&pool));
    let parallel =
        evaluate_cv_parallel(&classifier, &dataset, &protocol, &pool).expect("splittable");
    let serial_acc: Vec<f64> = serial.folds.iter().map(|f| f.accuracy).collect();
    let parallel_acc: Vec<f64> = parallel.folds.iter().map(|f| f.accuracy).collect();
    assert_eq!(parallel_acc, serial_acc);
}
