//! `serve_manyclass`: in-process `Engine::classify_batch` of 32 small
//! graphs (7 to 9 vertices) against a 2,048-class model, from two
//! submitter threads. Scanning the class memory (`hdvec::ClassMemory`,
//! 2,048 × 10,000 bits per query) is most of each graph's time;
//! `netserve` is bypassed (the traced run probes it).
//!
//! Each class is a random template graph; its training graphs and its
//! query are copies with the vertex ids shuffled. They encode alike up
//! to PageRank ties, so accuracy is set by how often two templates
//! collide, which keeps it steady across seeds.

use super::common::{self, CallStats, Phase, Stack};
use super::Outcome;
use crate::cli::Args;
use crate::metrics::median;
use crate::trace::{SpanId, Tracer};
use datasets::GraphDataset;
use graphcore::{generate, Graph};
use graphhd::{GraphEncoder, GraphHdConfig};
use prng::{mix_seed, WordRng, Xoshiro256PlusPlus};
use std::time::Duration;

const CLASSES: usize = 2048;
const TRAIN_PER_CLASS: usize = 4;
const EPOCHS: usize = 0;
const SETUP_REPS: usize = 5;
const SUBMITTERS: usize = 2;
const BATCH: usize = 32;
const WARM_UP: Duration = Duration::from_millis(500);

/// The training corpus and one query per class, from `seed`.
pub fn generate_corpus(seed: u64, classes: usize) -> (GraphDataset, GraphDataset) {
    let mut train = (Vec::new(), Vec::new());
    let mut queries = (Vec::new(), Vec::new());
    for class in 0..classes {
        let stream = mix_seed(seed, class as u64);
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(stream);
        let n = 7 + rng.usize_below(3);
        let template = generate::erdos_renyi(n, 0.4, &mut rng).expect("valid probability");
        for copy in 0..=TRAIN_PER_CLASS {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix_seed(stream, copy as u64 + 1));
            let (graphs, labels) = if copy < TRAIN_PER_CLASS {
                &mut train
            } else {
                &mut queries
            };
            graphs.push(generate::shuffle_vertex_ids(&template, &mut rng));
            labels.push(class as u32);
        }
    }
    let dataset = |name: &str, (graphs, labels): (Vec<Graph>, Vec<u32>)| {
        GraphDataset::new(name, graphs, labels, classes).expect("labels are in range")
    };
    (
        dataset("templates-train", train),
        dataset("templates-query", queries),
    )
}

struct Setup {
    queries: Vec<Graph>,
    truth: Vec<u32>,
    oracle: Vec<u32>,
    stack: Stack,
    updates: usize,
}

fn setup(seed: u64, tracer: &Tracer, cause: Option<SpanId>, train_gps: &mut Vec<f64>) -> Setup {
    let (train, queries) = tracer.span(cause, "datasets", "generate_templates", |_| {
        generate_corpus(seed, CLASSES)
    });
    let config = GraphHdConfig::builder()
        .seed(seed)
        .build()
        .expect("paper defaults are valid");
    let encoder = GraphEncoder::new(config).expect("paper defaults are valid");
    let (model, fit) = common::train(
        tracer,
        cause,
        &encoder,
        train.graphs(),
        train.labels(),
        CLASSES,
        EPOCHS,
    );
    train_gps.push(train.len() as f64 / fit.seconds);
    let oracle = common::oracle(tracer, cause, &model, queries.graphs());
    Setup {
        queries: queries.graphs().to_vec(),
        truth: queries.labels().to_vec(),
        oracle,
        stack: Stack::start(model),
        updates: fit.updates,
    }
}

/// `SUBMITTERS` threads each classify batches of `BATCH` consecutive
/// queries through the engine for `duration`.
fn measure(setup: &Setup, tracer: &Tracer, cause: Option<SpanId>, duration: Duration) -> Phase {
    let engine = &setup.stack.engine;
    let (queries, oracle) = (&setup.queries, &setup.oracle);
    common::closed_loop(
        SUBMITTERS,
        duration,
        |s| s * queries.len() / SUBMITTERS,
        |first| {
            let indices: Vec<usize> = (*first..*first + BATCH)
                .map(|i| i % queries.len())
                .collect();
            let batch: Vec<&Graph> = indices.iter().map(|&i| &queries[i]).collect();
            let answer = tracer.span(cause, "engine", "Engine::classify_batch", |_| {
                engine.classify_batch(&batch)
            });
            *first = (*first + BATCH) % queries.len();
            answer.is_ok_and(|labels| labels.iter().zip(&indices).all(|(&l, &i)| l == oracle[i]))
        },
    )
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let root = tracer.open(None, "bench", "serve_manyclass");
    let mut train_gps = Vec::new();
    let (setup, setup_times) = common::repeat_setup(SETUP_REPS, || {
        setup(args.seed, tracer, root.id(), &mut train_gps)
    });
    common::set_setup(&mut out.report, &setup_times);
    out.report.set(
        "train_gps",
        median(&train_gps).unwrap_or(f64::NAN),
        train_gps.len(),
    );
    let queries = setup.queries.len();
    out.report.set(
        "accuracy",
        common::hits(&setup.oracle, &setup.truth) as f64 / queries as f64,
        queries,
    );

    let warm = measure(&setup, &Tracer::new(false), None, WARM_UP);
    out.count(warm.attempted(), warm.failed);
    let measured = if tracer.enabled() {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let untraced = measure(&setup, &Tracer::new(false), None, half);
        out.count(untraced.attempted(), untraced.failed);
        let pool = common::PoolWindow::start();
        let engine_before = setup.stack.engine.stats();
        let traced = measure(&setup, tracer, root.id(), half);
        let engine_after = setup.stack.engine.stats();
        pool.finish(&mut out.report);
        let work_us = common::layer_sample(
            tracer,
            root.id(),
            setup.stack.engine.model(),
            &setup.queries,
            &mut out.report,
        );
        common::set_engine(&mut out.report, &engine_before, &engine_after, work_us);
        common::set_overhead(
            &mut out.report,
            CallStats::of_phase(&untraced, SUBMITTERS, BATCH as f64).rate(),
            CallStats::of_phase(&traced, SUBMITTERS, BATCH as f64).rate(),
        );
        let r = &mut out.report;
        common::set_training_layers(r, tracer, "generate_templates", setup.updates);
        let probe = common::socket_probe(
            tracer,
            root.id(),
            &setup.stack,
            &setup.queries,
            &setup.oracle,
            None,
            r,
        );
        let codec = common::codec_sample(tracer, root.id(), &setup.queries, &setup.oracle, r);
        out.count(probe.0 + codec.0, probe.1 + codec.1);
        traced
    } else {
        measure(&setup, tracer, None, Duration::from_secs_f64(args.seconds))
    };
    out.count(measured.attempted(), measured.failed);
    let calls = CallStats::of_phase(&measured, SUBMITTERS, BATCH as f64);
    out.notes.push(calls.set(&mut out.report));
    setup.stack.stop();
    root.close(tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_seeded_and_balanced() {
        let (train, queries) = generate_corpus(7, 16);
        assert_eq!(train.len(), 16 * TRAIN_PER_CLASS);
        assert_eq!(queries.len(), 16);
        assert!(train.class_counts().iter().all(|&c| c == TRAIN_PER_CLASS));
        let (again, _) = generate_corpus(7, 16);
        assert_eq!(train.graphs(), again.graphs());
        let (other, _) = generate_corpus(8, 16);
        assert_ne!(train.graphs(), other.graphs());
        for graph in queries.graphs() {
            assert!((7..=9).contains(&graph.vertex_count()));
        }
    }
}
