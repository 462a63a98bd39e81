//! `train_dd`: the paper's training-time claim. GraphHD trains with
//! three retraining epochs on a DD-shaped surrogate corpus (~284
//! vertices, ~716 edges per graph), then classifies the held-out fold
//! with `predict_batch`. Encoding on the pool does nearly all the work;
//! `engine` and `netserve` are idle (the traced run probes them).

use super::common::{self, CallStats};
use super::Outcome;
use crate::cli::Args;
use crate::metrics::median;
use crate::trace::{SpanId, Tracer};
use datasets::{surrogate, StratifiedKFold};
use graphcore::Graph;
use graphhd::{GraphEncoder, GraphHdConfig, GraphHdModel};
use std::time::{Duration, Instant};

/// Corpus size in multiples of DD's 1,178 graphs.
const CORPUS_SCALE: usize = 2;
const EPOCHS: usize = 3;
const SETUP_REPS: usize = 3;

/// Held-out accuracy by seed, as (seed, correct, held-out graphs). A
/// seed listed here must reproduce its count exactly: generation,
/// encoding, bundling and retraining are deterministic at every thread
/// count and SIMD backend.
const PINNED_ACCURACY: &[(u64, usize, usize)] = &[
    (1, 437, 472),
    (2, 431, 472),
    (3, 427, 472),
    (4, 436, 472),
    (5, 448, 472),
    (6, 435, 472),
    (7, 428, 472),
    (8, 452, 472),
    (9, 446, 472),
    (10, 426, 472),
    (11, 436, 472),
    (12, 433, 472),
    (13, 440, 472),
    (14, 438, 472),
    (15, 438, 472),
    (16, 441, 472),
];

struct Setup {
    train: Vec<Graph>,
    train_labels: Vec<u32>,
    test: Vec<Graph>,
    test_labels: Vec<u32>,
    encoder: GraphEncoder,
    oracle: Vec<u32>,
}

fn split(graphs: &[Graph], labels: &[u32], indices: &[usize]) -> (Vec<Graph>, Vec<u32>) {
    indices
        .iter()
        .map(|&i| (graphs[i].clone(), labels[i]))
        .unzip()
}

fn setup(seed: u64, tracer: &Tracer, cause: Option<SpanId>) -> Setup {
    let spec = surrogate::spec_by_name("DD").expect("Table I lists DD");
    let dataset = tracer.span(cause, "datasets", "generate_surrogate_sized", |_| {
        surrogate::generate_surrogate_sized(spec, seed, CORPUS_SCALE * spec.num_graphs)
    });
    let folds = StratifiedKFold::new(5, seed)
        .expect("five folds")
        .split(dataset.labels())
        .expect("balanced classes split");
    let (train, train_labels) = split(dataset.graphs(), dataset.labels(), &folds[0].train);
    let (test, test_labels) = split(dataset.graphs(), dataset.labels(), &folds[0].test);
    let config = GraphHdConfig::builder()
        .seed(seed)
        .build()
        .expect("paper defaults are valid");
    let encoder = GraphEncoder::new(config).expect("paper defaults are valid");
    let (model, _) = common::train(tracer, cause, &encoder, &train, &train_labels, 2, EPOCHS);
    let oracle = common::oracle(tracer, cause, &model, &test);
    Setup {
        train,
        train_labels,
        test,
        test_labels,
        encoder,
        oracle,
    }
}

/// One measured stretch: train, classify the held-out fold with one
/// `predict_batch` call, repeat.
struct Measured {
    fit_s: Vec<f64>,
    predict_us: Vec<f64>,
    /// Retraining updates of the last fit.
    updates: usize,
    failed: u64,
    model: GraphHdModel,
}

impl Measured {
    fn train_gps(&self, setup: &Setup) -> f64 {
        setup.train.len() as f64 / median(&self.fit_s).unwrap_or(f64::NAN)
    }

    fn classify(&self, setup: &Setup) -> CallStats {
        let graphs = setup.test.len() as f64;
        let wall =
            graphs * self.predict_us.len() as f64 * 1e6 / self.predict_us.iter().sum::<f64>();
        CallStats::new(self.predict_us.clone(), 1, graphs, wall)
    }
}

fn measure(setup: &Setup, tracer: &Tracer, cause: Option<SpanId>, duration: Duration) -> Measured {
    let deadline = Instant::now() + duration;
    let mut fit_s = Vec::new();
    let mut predict_us = Vec::new();
    let mut failed = 0;
    loop {
        let (model, fit) = common::train(
            tracer,
            cause,
            &setup.encoder,
            &setup.train,
            &setup.train_labels,
            2,
            EPOCHS,
        );
        fit_s.push(fit.seconds);
        let started = Instant::now();
        let labels = tracer.span(cause, "graphhd", "GraphHdModel::predict_batch", |_| {
            model.predict_batch(&setup.test)
        });
        predict_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        failed += u64::from(labels != setup.oracle);
        if Instant::now() >= deadline {
            return Measured {
                fit_s,
                predict_us,
                updates: fit.updates,
                failed,
                model,
            };
        }
    }
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let root = tracer.open(None, "bench", "train_dd");
    let (setup, setup_times) =
        common::repeat_setup(SETUP_REPS, || setup(args.seed, tracer, root.id()));
    common::set_setup(&mut out.report, &setup_times);

    let correct = common::hits(&setup.oracle, &setup.test_labels);
    let held_out = setup.test.len();
    out.report
        .set("accuracy", correct as f64 / held_out as f64, held_out);
    if let Some(&(_, pinned, n)) = PINNED_ACCURACY.iter().find(|(s, _, _)| *s == args.seed) {
        if (pinned, n) != (correct, held_out) {
            out.problems.push(format!(
                "seed {}: {correct}/{held_out} held-out graphs correct, pinned {pinned}/{n}",
                args.seed
            ));
        }
    }

    let measured = if tracer.enabled() {
        let untraced = measure(
            &setup,
            &Tracer::new(false),
            None,
            Duration::from_secs_f64(args.seconds / 2.0),
        );
        out.count(untraced.fit_s.len() as u64, untraced.failed);
        let pool = common::PoolWindow::start();
        let traced = measure(
            &setup,
            tracer,
            root.id(),
            Duration::from_secs_f64(args.seconds / 2.0),
        );
        pool.finish(&mut out.report);
        common::set_overhead(
            &mut out.report,
            untraced.train_gps(&setup),
            traced.train_gps(&setup),
        );
        let r = &mut out.report;
        common::set_training_layers(r, tracer, "generate_surrogate_sized", traced.updates);
        let work_us = common::layer_sample(tracer, root.id(), &traced.model, &setup.test, r);
        let stack = common::Stack::start(traced.model.clone());
        let probe = common::socket_probe(
            tracer,
            root.id(),
            &stack,
            &setup.test,
            &setup.oracle,
            Some(work_us),
            r,
        );
        stack.stop();
        let codec = common::codec_sample(tracer, root.id(), &setup.test, &setup.oracle, r);
        out.count(probe.0 + codec.0, probe.1 + codec.1);
        traced
    } else {
        measure(&setup, tracer, None, Duration::from_secs_f64(args.seconds))
    };
    out.count(measured.fit_s.len() as u64, measured.failed);
    let n = measured.fit_s.len();
    out.report.set("train_gps", measured.train_gps(&setup), n);
    out.notes
        .push(measured.classify(&setup).set(&mut out.report));
    root.close(tracer);
    out
}
