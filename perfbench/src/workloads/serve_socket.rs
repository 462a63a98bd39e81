//! `serve_socket`: MUTAG-sized molecules sent one graph per classify
//! frame over loopback `netserve`, two persistent connections, `Block`
//! overload policy, a 2-class model. A request's own work is small
//! (tens of microseconds to encode), so the wire, the connection
//! threads and the engine's queue hand-off dominate; class-memory
//! scoring and training are not on the request path.

use super::common::{self, CallStats, Phase, Stack, MODEL};
use super::Outcome;
use crate::cli::Args;
use crate::metrics::median;
use crate::trace::{SpanId, Tracer};
use datasets::{surrogate, StratifiedKFold};
use graphcore::Graph;
use graphhd::{GraphEncoder, GraphHdConfig};
use netserve::Client;
use std::time::Duration;

/// Corpus size in multiples of MUTAG's 188 graphs; one fold in five is
/// held out as the queries.
const CORPUS_SCALE: usize = 10;
const EPOCHS: usize = 3;
const SETUP_REPS: usize = 7;
const CONNECTIONS: usize = 2;
const WARM_UP: Duration = Duration::from_millis(500);

struct Setup {
    queries: Vec<Graph>,
    truth: Vec<u32>,
    oracle: Vec<u32>,
    stack: Stack,
    updates: usize,
}

fn setup(seed: u64, tracer: &Tracer, cause: Option<SpanId>, train_gps: &mut Vec<f64>) -> Setup {
    let spec = surrogate::spec_by_name("MUTAG").expect("Table I lists MUTAG");
    let dataset = tracer.span(cause, "datasets", "generate_surrogate_sized", |_| {
        surrogate::generate_surrogate_sized(spec, seed, CORPUS_SCALE * spec.num_graphs)
    });
    let folds = StratifiedKFold::new(5, seed)
        .expect("five folds")
        .split(dataset.labels())
        .expect("balanced classes split");
    let pick = |indices: &[usize]| -> (Vec<Graph>, Vec<u32>) {
        indices
            .iter()
            .map(|&i| (dataset.graph(i).clone(), dataset.label(i)))
            .unzip()
    };
    let (train, train_labels) = pick(&folds[0].train);
    let (queries, truth) = pick(&folds[0].test);
    let config = GraphHdConfig::builder()
        .seed(seed)
        .build()
        .expect("paper defaults are valid");
    let encoder = GraphEncoder::new(config).expect("paper defaults are valid");
    let (model, fit) = common::train(tracer, cause, &encoder, &train, &train_labels, 2, EPOCHS);
    train_gps.push(train.len() as f64 / fit.seconds);
    let oracle = common::oracle(tracer, cause, &model, &queries);
    Setup {
        queries,
        truth,
        oracle,
        stack: Stack::start(model),
        updates: fit.updates,
    }
}

/// `CONNECTIONS` client threads, each on its own persistent connection,
/// classify the queries round-robin for `duration`.
fn measure(setup: &Setup, tracer: &Tracer, cause: Option<SpanId>, duration: Duration) -> Phase {
    let addr = setup.stack.server.local_addr();
    let (queries, oracle) = (&setup.queries, &setup.oracle);
    common::closed_loop(
        CONNECTIONS,
        duration,
        |c| {
            let client = Client::connect(addr).expect("loopback connect");
            (client, c * queries.len() / CONNECTIONS)
        },
        |(client, index)| {
            let answer = tracer.span(cause, "netserve", "Client::classify", |_| {
                client.classify(MODEL, &queries[*index])
            });
            let right = match answer {
                Ok(label) => label == oracle[*index],
                Err(_) => {
                    *client = Client::connect(addr).expect("loopback reconnect");
                    false
                }
            };
            *index = (*index + 1) % queries.len();
            right
        },
    )
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let root = tracer.open(None, "bench", "serve_socket");
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
        let net = common::NetWindow::start(&setup.stack);
        let traced = measure(&setup, tracer, root.id(), half);
        pool.finish(&mut out.report);
        let work_us = common::layer_sample(
            tracer,
            root.id(),
            setup.stack.engine.model(),
            &setup.queries,
            &mut out.report,
        );
        net.finish(
            &setup.stack,
            &traced.latencies_us,
            Some(work_us),
            &mut out.report,
        );
        common::set_overhead(
            &mut out.report,
            CallStats::of_phase(&untraced, CONNECTIONS, 1.0).rate(),
            CallStats::of_phase(&traced, CONNECTIONS, 1.0).rate(),
        );
        let r = &mut out.report;
        common::set_training_layers(r, tracer, "generate_surrogate_sized", setup.updates);
        let codec = common::codec_sample(tracer, root.id(), &setup.queries, &setup.oracle, r);
        out.count(codec.0, codec.1);
        traced
    } else {
        measure(&setup, tracer, None, Duration::from_secs_f64(args.seconds))
    };
    out.count(measured.attempted(), measured.failed);
    let calls = CallStats::of_phase(&measured, CONNECTIONS, 1.0);
    out.notes.push(calls.set(&mut out.report));
    setup.stack.stop();
    root.close(tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs follow the seed, and on a second seed the served labels
    /// still match the oracle.
    #[test]
    fn inputs_follow_the_seed_and_served_labels_match_the_oracle() {
        let tracer = Tracer::new(false);
        let mut train_gps = Vec::new();
        let first = setup(7, &tracer, None, &mut train_gps);
        let again = setup(7, &tracer, None, &mut train_gps);
        let second = setup(8, &tracer, None, &mut train_gps);
        assert_eq!(first.queries, again.queries);
        assert_eq!(first.oracle, again.oracle);
        assert_ne!(first.queries, second.queries);
        for run in [&first, &second] {
            let mut client = Client::connect(run.stack.server.local_addr()).expect("loopback");
            for (graph, &label) in run.queries.iter().zip(&run.oracle).take(32) {
                assert_eq!(client.classify(MODEL, graph).expect("served"), label);
            }
            let right = common::hits(&run.oracle, &run.truth) as f64 / run.truth.len() as f64;
            assert!(right > 0.6, "accuracy {right} is near chance");
        }
        for run in [first, again, second] {
            run.stack.stop();
        }
    }
}
