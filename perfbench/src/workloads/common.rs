//! Pieces the workloads share: timed set-up, training with per-phase
//! spans, the correctness oracle, the serving stack, the layer samples
//! of the traced run, and readings of the program's own stats.

use crate::metrics::{median, sorted_quantile, Report};
use crate::trace::{self, SpanId, Tracer};
use engine::{Engine, EngineStats, OverloadPolicy};
use graphcore::Graph;
use graphhd::{GraphEncoder, GraphHdModel};
use netserve::wire::{self, Request, Response};
use netserve::{Client, ModelRegistry, Server, ServerBuilder};
use parallel::{Pool, PoolStats};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Name the serving workloads host their model under.
pub const MODEL: &str = "m";

/// Most queries the traced run's per-graph samples take.
const SAMPLE_CAP: usize = 2048;

/// Runs `setup` `reps` times and keeps the last result; returns it with
/// each repetition's wall time. Earlier results are dropped before the
/// next repetition starts, so peak memory is one set-up's.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// Durations in seconds of every recorded span called `name`.
pub fn span_seconds(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}

/// One fit's wall time and the perceptron updates its retraining made
/// (one per mistake; traced runs only, as the untraced entry point does
/// not return them).
#[derive(Debug, Clone, Copy)]
pub struct Fit {
    pub seconds: f64,
    pub updates: usize,
}

/// Trains with `epochs` retraining epochs. Untraced, this is the
/// public `GraphHdModel::fit_with_retraining`; traced, the same
/// sequence is made call by call (encode all, bundle, retrain) so each
/// phase gets its own span (see [`set_training_layers`]).
pub fn train(
    tracer: &Tracer,
    cause: Option<SpanId>,
    encoder: &GraphEncoder,
    graphs: &[Graph],
    labels: &[u32],
    num_classes: usize,
    epochs: usize,
) -> (GraphHdModel, Fit) {
    let started = Instant::now();
    if !tracer.enabled() {
        let model =
            GraphHdModel::fit_with_retraining(encoder.clone(), graphs, labels, num_classes, epochs)
                .expect("generated corpora are consistent");
        let fit = Fit {
            seconds: started.elapsed().as_secs_f64(),
            updates: 0,
        };
        return (model, fit);
    }
    tracer.span(cause, "graphhd", "fit_with_retraining", |fit| {
        let encodings = tracer.span(fit, "graphhd", "GraphEncoder::encode_all", |_| {
            encoder.encode_all(graphs)
        });
        let mut model = tracer.span(fit, "graphhd", "GraphHdModel::fit_encoded", |_| {
            GraphHdModel::fit_encoded(encoder.clone(), &encodings, labels, num_classes)
        });
        let report = tracer.span(fit, "graphhd", "GraphHdModel::retrain", |_| {
            model.retrain(&encodings, labels, epochs)
        });
        let fit = Fit {
            seconds: started.elapsed().as_secs_f64(),
            updates: report.epoch_errors.iter().sum(),
        };
        (model, fit)
    })
}

/// Traced runs only: sets `datasets.generate_s`, `graphhd.bundle_s` and
/// `graphhd.retrain_s` as medians of the durations of the spans named
/// `generate` (the workload's corpus generation), `fit_encoded` and
/// `retrain` (every traced fit of the run), and
/// `graphhd.retrain_updates`.
pub fn set_training_layers(report: &mut Report, tracer: &Tracer, generate: &str, updates: usize) {
    for (metric, span) in [
        ("datasets.generate_s", generate),
        ("graphhd.bundle_s", "GraphHdModel::fit_encoded"),
        ("graphhd.retrain_s", "GraphHdModel::retrain"),
    ] {
        let durations = span_seconds(tracer, span);
        report.set(
            metric,
            median(&durations).unwrap_or(f64::NAN),
            durations.len(),
        );
    }
    report.set("graphhd.retrain_updates", updates as f64, 0);
}

/// The correctness oracle: each query's label from a direct
/// `GraphHdModel::predict`, one graph at a time.
pub fn oracle(
    tracer: &Tracer,
    cause: Option<SpanId>,
    model: &GraphHdModel,
    queries: &[Graph],
) -> Vec<u32> {
    tracer.span(cause, "graphhd", "GraphHdModel::predict", |_| {
        queries.iter().map(|g| model.predict(g)).collect()
    })
}

/// Correct labels among `predicted`, against `truth`.
pub fn hits(predicted: &[u32], truth: &[u32]) -> usize {
    predicted.iter().zip(truth).filter(|(p, t)| p == t).count()
}

/// A measured stretch of closed-loop calls.
#[derive(Debug)]
pub struct Phase {
    /// Latency of each call in microseconds.
    pub latencies_us: Vec<f64>,
    /// Calls that failed or answered differently from the oracle.
    pub failed: u64,
    pub elapsed: Duration,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.latencies_us.len() as u64
    }
}

/// Closed-loop load: `threads` callers, each with its own state from
/// `init` (made on its thread), make their next `call` as soon as the
/// previous one answered, for `duration`. `call` returns whether the
/// answer was right.
pub fn closed_loop<S>(
    threads: usize,
    duration: Duration,
    init: impl Fn(usize) -> S + Sync,
    call: impl Fn(&mut S) -> bool + Sync,
) -> Phase {
    let start_line = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..threads)
            .map(|thread| {
                let (init, call, start_line) = (&init, &call, &start_line);
                scope.spawn(move || {
                    let mut state = init(thread);
                    let mut latencies_us = Vec::new();
                    let mut failed = 0u64;
                    start_line.wait();
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        let started = Instant::now();
                        let right = call(&mut state);
                        latencies_us.push(started.elapsed().as_nanos() as f64 / 1e3);
                        failed += u64::from(!right);
                    }
                    (latencies_us, failed)
                })
            })
            .collect();
        start_line.wait();
        let started = Instant::now();
        let mut phase = Phase {
            latencies_us: Vec::new(),
            failed: 0,
            elapsed: Duration::ZERO,
        };
        for caller in callers {
            let (latencies_us, failed) = caller.join().expect("caller thread");
            phase.failed += failed;
            phase.latencies_us.extend(latencies_us);
        }
        phase.elapsed = started.elapsed();
        phase
    })
}

/// Throughput and latency of a closed loop's calls.
///
/// Throughput is the loop's rate at its median call, `callers × graphs
/// per call / median latency`: Little's law with the median in place
/// of the mean. On a shared host the virtual CPUs stall for
/// milliseconds at a time (CPU steal); the stalls land in the slowest
/// calls and swing the mean — and with it the wall-clock rate and every
/// percentile above about the 75th — several-fold from one run to the
/// next, while the median call stays put. The wall-clock rate and the
/// tail are printed beside the metrics, with the host's steal share.
#[derive(Debug)]
pub struct CallStats {
    /// Sorted.
    latencies_us: Vec<f64>,
    graphs_per_call: f64,
    callers: usize,
    /// Graphs classified over the time the calls took, as measured.
    wall_gps: f64,
}

impl CallStats {
    pub fn new(
        mut latencies_us: Vec<f64>,
        callers: usize,
        graphs_per_call: f64,
        wall_gps: f64,
    ) -> Self {
        latencies_us.sort_by(f64::total_cmp);
        Self {
            latencies_us,
            graphs_per_call,
            callers,
            wall_gps,
        }
    }

    pub fn of_phase(phase: &Phase, callers: usize, graphs_per_call: f64) -> Self {
        let graphs = phase.attempted() as f64 * graphs_per_call;
        Self::new(
            phase.latencies_us.clone(),
            callers,
            graphs_per_call,
            graphs / phase.elapsed.as_secs_f64(),
        )
    }

    fn quantile_us(&self, q: f64) -> f64 {
        sorted_quantile(&self.latencies_us, q).unwrap_or(f64::NAN)
    }

    /// Graphs per second at the median call.
    pub fn rate(&self) -> f64 {
        self.callers as f64 * self.graphs_per_call * 1e6 / self.quantile_us(0.5)
    }

    /// Sets `classify_gps` and `latency_p50_us`; returns the report line
    /// with the wall-clock rate and the tail.
    pub fn set(&self, report: &mut Report) -> String {
        let n = self.latencies_us.len();
        report.set("classify_gps", self.rate(), n);
        report.set("latency_p50_us", self.quantile_us(0.5), n);
        format!(
            "calls: n={n}, wall-clock {:.1} graphs/s, latency p90 {:.1} us, p99 {:.1} us, max {:.1} us",
            self.wall_gps,
            self.quantile_us(0.9),
            self.quantile_us(0.99),
            self.quantile_us(1.0),
        )
    }
}

/// Sets `setup_s` (median of the repetitions) and `peak_rss_mb`.
pub fn set_setup(report: &mut Report, setup_times: &[f64]) {
    report.set(
        "setup_s",
        median(setup_times).unwrap_or(f64::NAN),
        setup_times.len(),
    );
    report.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb().unwrap_or(f64::NAN),
        0,
    );
}

/// Scheduling counters of the global pool over an interval.
pub struct PoolWindow {
    before: PoolStats,
    started: Instant,
}

impl PoolWindow {
    pub fn start() -> Self {
        Self {
            before: Pool::global().stats(),
            started: Instant::now(),
        }
    }

    /// Sets `parallel.tasks`, `parallel.steals` and `parallel.busy_frac`
    /// (busy share of the background workers; with none, the share of
    /// wall time a parallel region was running).
    pub fn finish(self, report: &mut Report) {
        let after = Pool::global().stats();
        let wall_ns = self.started.elapsed().as_nanos() as f64;
        let tasks = after.tasks.saturating_sub(self.before.tasks);
        let steals = after.steals.saturating_sub(self.before.steals);
        let busy_frac = if after.workers.is_empty() {
            after.region_ns.since(&self.before.region_ns).sum as f64 / wall_ns
        } else {
            let busy: u64 = after
                .workers
                .iter()
                .zip(&self.before.workers)
                .map(|(a, b)| a.busy_ns.saturating_sub(b.busy_ns))
                .sum();
            busy as f64 / (wall_ns * after.workers.len() as f64)
        };
        report.set("parallel.tasks", tasks as f64, 0);
        report.set("parallel.steals", steals as f64, 0);
        report.set("parallel.busy_frac", busy_frac, 0);
    }
}

fn p50_us(snapshot: &telemetry::HistogramSnapshot) -> f64 {
    snapshot.p50() as f64 / 1e3
}

/// Sets the `engine.*` metrics from two readings of `Engine::stats`.
/// `engine.self_us` is the mean request time minus the mean queue wait
/// minus `work_us`, the mean encode-and-score time of the served graphs
/// as [`layer_sample`] measured it: time in the engine spent neither
/// queued nor on the request's own graph — waiting for the rest of its
/// batch, hand-off, wake-up. Means are used because they add up;
/// histogram percentiles do not.
pub fn set_engine(report: &mut Report, before: &EngineStats, after: &EngineStats, work_us: f64) {
    let queue_wait = after.queue_wait_ns.since(&before.queue_wait_ns);
    let dispatch = after.dispatch_ns.since(&before.dispatch_ns);
    let batch = after.batch_size.since(&before.batch_size);
    let request = after.request_ns.since(&before.request_ns);
    let n = request.count as usize;
    report.set(
        "engine.queue_wait_p50_us",
        p50_us(&queue_wait),
        queue_wait.count as usize,
    );
    report.set(
        "engine.dispatch_p50_us",
        p50_us(&dispatch),
        dispatch.count as usize,
    );
    report.set("engine.batch_mean", batch.mean(), batch.count as usize);
    report.set("engine.request_p50_us", p50_us(&request), n);
    report.set(
        "engine.self_us",
        (request.mean() - queue_wait.mean()) / 1e3 - work_us,
        n,
    );
}

/// A model served by an engine behind a loopback `netserve` server.
pub struct Stack {
    pub engine: Engine,
    pub registry: Arc<ModelRegistry>,
    pub server: Server,
}

impl Stack {
    /// Serves `model` under the `Block` overload policy with the
    /// engine's default queue bounds.
    pub fn start(model: GraphHdModel) -> Self {
        let engine = Engine::builder()
            .overload_policy(OverloadPolicy::Block)
            .from_model(model)
            .expect("default knobs are valid");
        let registry = Arc::new(ModelRegistry::new());
        registry
            .insert(MODEL, engine.clone())
            .expect("fresh registry");
        let server = ServerBuilder::new(Arc::clone(&registry))
            .serve()
            .expect("loopback bind");
        Self {
            engine,
            registry,
            server,
        }
    }

    pub fn net_latency(&self) -> telemetry::HistogramSnapshot {
        self.registry.net_latency(MODEL).expect("hosted model")
    }

    pub fn stop(self) {
        self.server.shutdown();
        self.engine.shutdown();
    }
}

/// Readings taken before a measured stretch of socket traffic, turned
/// into the `netserve.*` metrics (and `engine.*` when asked) after it.
pub struct NetWindow {
    engine: EngineStats,
    net: telemetry::HistogramSnapshot,
    server: netserve::ServerStats,
}

impl NetWindow {
    pub fn start(stack: &Stack) -> Self {
        Self {
            engine: stack.engine.stats(),
            net: stack.net_latency(),
            server: stack.server.stats(),
        }
    }

    /// `client_us` holds the client-side latency of each request in
    /// the window. `netserve.self_us` is the server's mean request time
    /// minus the engine's, and `netserve.client_tax_us` the client's
    /// mean minus the server's (means add up; percentiles do not). With
    /// the served graphs' mean work, also sets the `engine.*` metrics
    /// (see [`set_engine`]).
    pub fn finish(
        self,
        stack: &Stack,
        client_us: &[f64],
        engine_work_us: Option<f64>,
        report: &mut Report,
    ) {
        let engine = stack.engine.stats();
        let net = stack.net_latency().since(&self.net);
        let server = stack.server.stats();
        let engine_mean_us = engine.request_ns.since(&self.engine.request_ns).mean() / 1e3;
        let net_mean_us = net.mean() / 1e3;
        let client_mean_us = client_us.iter().sum::<f64>() / client_us.len() as f64;
        let n = net.count as usize;
        report.set("netserve.request_p50_us", p50_us(&net), n);
        report.set("netserve.self_us", net_mean_us - engine_mean_us, n);
        report.set(
            "netserve.client_tax_us",
            client_mean_us - net_mean_us,
            client_us.len(),
        );
        report.set(
            "netserve.frames_in",
            server.frames_in.saturating_sub(self.server.frames_in) as f64,
            0,
        );
        report.set(
            "netserve.decode_errors",
            server
                .decode_errors
                .saturating_sub(self.server.decode_errors) as f64,
            0,
        );
        if let Some(work_us) = engine_work_us {
            set_engine(report, &self.engine, &engine, work_us);
        }
    }
}

/// Traced runs only: sends each query once as a single-graph classify
/// frame over one connection, for a workload whose own traffic bypasses
/// the socket (and, given `engine_work_us`, the engine queue). Returns
/// (requests sent, wrong or failed answers).
pub fn socket_probe(
    tracer: &Tracer,
    cause: Option<SpanId>,
    stack: &Stack,
    queries: &[Graph],
    oracle: &[u32],
    engine_work_us: Option<f64>,
    report: &mut Report,
) -> (u64, u64) {
    let mut client = Client::connect(stack.server.local_addr()).expect("loopback connect");
    // Warm the connection thread and the engine before the window.
    for graph in queries.iter().take(16) {
        let _ = client.classify(MODEL, graph);
    }
    let window = NetWindow::start(stack);
    let sample = &queries[..queries.len().min(SAMPLE_CAP)];
    let mut latencies = Vec::with_capacity(sample.len());
    let mut failed = 0;
    tracer.span(cause, "bench", "socket_probe", |probe| {
        for (graph, &label) in sample.iter().zip(oracle) {
            let started = Instant::now();
            let answer = tracer.span(probe, "netserve", "Client::classify", |_| {
                client.classify(MODEL, graph)
            });
            latencies.push(started.elapsed().as_nanos() as f64 / 1e3);
            failed += u64::from(answer.ok() != Some(label));
        }
    });
    drop(client);
    window.finish(stack, &latencies, engine_work_us, report);
    (sample.len() as u64, failed)
}

/// Traced runs only: times the per-graph layers on the queries (up to
/// [`SAMPLE_CAP`]), one call at a time — PageRank
/// (`graphcore::pagerank_ranks`), encoding (`GraphEncoder::encode`,
/// whose self time excludes its PageRank) and scoring
/// (`GraphHdModel::scores_encoded`, the `hdvec::ClassMemory` scan) —
/// and sets the scan's computed bytes per query. Returns the mean
/// encode-and-score time per query in microseconds.
pub fn layer_sample(
    tracer: &Tracer,
    cause: Option<SpanId>,
    model: &GraphHdModel,
    graphs: &[Graph],
    report: &mut Report,
) -> f64 {
    let encoder = model.encoder();
    let pagerank_config = encoder.config().pagerank;
    let sample = &graphs[..graphs.len().min(SAMPLE_CAP)];
    let first = tracer.spans().len();
    tracer.span(cause, "bench", "layer_sample", |root| {
        for graph in sample {
            let (encoded, encode) = tracer.span(root, "graphhd", "GraphEncoder::encode", |id| {
                (encoder.encode(graph), id)
            });
            // PageRank runs inside `encode`; time the same call on the
            // same graph, after it, as its replayed child.
            tracer.replay(encode, "graphcore", "pagerank_ranks", || {
                std::hint::black_box(graphcore::pagerank_ranks(graph, &pagerank_config))
            });
            tracer.span(root, "hdvec", "GraphHdModel::scores_encoded", |_| {
                std::hint::black_box(model.scores_encoded(&encoded))
            });
        }
    });
    let spans = tracer.spans();
    let own = trace::self_times(&spans);
    let pick = |name: &str, self_time: bool| -> Vec<f64> {
        spans[first..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let ns = if self_time {
                    own[s.id as usize]
                } else {
                    s.duration_ns()
                };
                ns as f64 / 1e3
            })
            .collect()
    };
    let n = sample.len();
    let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / n as f64;
    let work_us = mean(pick("GraphEncoder::encode", false))
        + mean(pick("GraphHdModel::scores_encoded", false));
    report.set(
        "graphcore.pagerank_us",
        med(pick("pagerank_ranks", false)),
        n,
    );
    report.set(
        "graphhd.encode_us",
        med(pick("GraphEncoder::encode", false)),
        n,
    );
    report.set(
        "graphhd.encode_self_us",
        med(pick("GraphEncoder::encode", true)),
        n,
    );
    report.set(
        "hdvec.score_us",
        med(pick("GraphHdModel::scores_encoded", false)),
        n,
    );
    let dim = encoder.config().dim;
    report.set(
        "hdvec.scan_bytes",
        (model.num_classes() * dim / 8) as f64,
        0,
    );
    work_us
}

/// Traced runs only: replays the wire codec in memory — a classify
/// request frame encoded and decoded, then its answer frame — and sets
/// the median round trip. Returns (round trips, frames that did not
/// survive theirs).
pub fn codec_sample(
    tracer: &Tracer,
    cause: Option<SpanId>,
    queries: &[Graph],
    oracle: &[u32],
    report: &mut Report,
) -> (u64, u64) {
    let sample = queries.len().min(SAMPLE_CAP);
    let mut times = Vec::with_capacity(sample);
    let mut failed = 0;
    for (graph, &label) in queries.iter().zip(oracle).take(sample) {
        let request = Request::Classify {
            model: MODEL.to_string(),
            deadline: None,
            graph: graph.clone(),
        };
        let response = Response::Class(label);
        let started = Instant::now();
        let (request_back, response_back) = tracer.span(cause, "netserve", "wire::codec", |_| {
            let frame = wire::encode_request(&request);
            let request_back = wire::read_request(&mut frame.as_slice());
            let frame = wire::encode_response(&response);
            (request_back, wire::read_response(&mut frame.as_slice()))
        });
        times.push(started.elapsed().as_nanos() as f64 / 1e3);
        if request_back.ok().flatten().as_ref() != Some(&request)
            || response_back.ok().flatten().as_ref() != Some(&response)
        {
            failed += 1;
        }
    }
    report.set(
        "netserve.codec_us",
        median(&times).unwrap_or(f64::NAN),
        sample,
    );
    (sample as u64, failed)
}

/// `trace.overhead_pct`: how much longer one unit of work took with
/// spans on than off, in percent of the untraced time.
pub fn set_overhead(report: &mut Report, untraced_rate: f64, traced_rate: f64) {
    report.set(
        "trace.overhead_pct",
        (untraced_rate / traced_rate - 1.0) * 100.0,
        0,
    );
}
