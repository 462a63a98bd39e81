//! Serving-layer end-to-end benchmark: latency and throughput of the
//! [`engine::Engine`] request path (queue → batched dispatch → pool →
//! blocked SIMD scoring), swept over submitter counts and batch sizes.
//!
//! This measures the *whole* serving stack against the same model served
//! directly (`predict_all` with no queue), so the queue/dispatch overhead
//! is visible rather than assumed. Results feed `BENCH_pr8.json`.
//!
//! Latency numbers come from the engine's own `engine_request_ns`
//! histogram (acceptance to fulfilment, per request, as an interval
//! delta via [`HistogramSnapshot::since`]) — the same code path the
//! production stats surface reads — so the bench and an operator's
//! dashboard can never disagree about what "p99" means. Throughput
//! remains wall-clock (queries / elapsed). With `GRAPHHD_TELEMETRY=off`
//! the histograms are empty and the latency columns degrade to the old
//! derived mean — that mode exists to measure telemetry's own overhead.
//!
//! A second table (`serving_overload.csv`) measures behaviour **past**
//! saturation: double the queue capacity in submitters, all firing as
//! fast as they can, once per [`engine::OverloadPolicy`]. Reported per
//! policy: shed rate, goodput (completed queries/s) and served p99 —
//! the numbers behind the policy guidance in `docs/RESILIENCE.md`.
//!
//! A third table (`serving_socket.csv`) sends the same traffic
//! **through the wire**: the model behind a `netserve` server on
//! loopback TCP, one blocking connection per client thread, per
//! overload policy. Latency is read from both histograms — the
//! engine's `engine_request_ns` (queue to fulfilment) and the
//! server's per-model `net_request_ns` (decode to response written) —
//! so the socket tax is the visible gap between the two. Results feed
//! `BENCH_pr10.json`.
//!
//! Run: `cargo run -p bench --release --bin serving [--quick]`

use datasets::{surrogate, StratifiedKFold};
use engine::{Engine, OverloadPolicy};
use graphcore::Graph;
use graphhd::{Error, GraphHdConfig, GraphHdModel};
use std::time::{Duration, Instant};
use telemetry::HistogramSnapshot;

/// One measured configuration.
struct Measurement {
    submitters: usize,
    batch_size: usize,
    queries: usize,
    seconds: f64,
    /// End-to-end per-request latency over the measured interval,
    /// straight from `engine_request_ns` (empty when timing is off).
    request_ns: HistogramSnapshot,
}

impl Measurement {
    fn throughput(&self) -> f64 {
        self.queries as f64 / self.seconds
    }

    fn mean_latency_us(&self) -> f64 {
        if self.request_ns.is_empty() {
            // Telemetry off: fall back to the derived mean (total wall
            // time divided by queries per submitter).
            self.seconds * 1e6 * self.submitters as f64 / self.queries as f64
        } else {
            self.request_ns.mean() / 1e3
        }
    }

    /// Percentile of the per-request latency in microseconds, when the
    /// histogram recorded the interval.
    fn percentile_us(&self, q: f64) -> Option<f64> {
        (!self.request_ns.is_empty()).then(|| self.request_ns.percentile(q) as f64 / 1e3)
    }

    fn percentile_cell(&self, q: f64) -> String {
        self.percentile_us(q)
            .map_or_else(|| "-".into(), |us| format!("{us:.1}"))
    }
}

fn measure(
    engine: &Engine,
    queries: &[Graph],
    submitters: usize,
    batch_size: usize,
    rounds: usize,
) -> Measurement {
    // Warm-up round so pool threads and caches are hot.
    run_round(engine, queries, submitters, batch_size, rounds / 4 + 1);
    let before = engine.stats();
    let started = Instant::now();
    let total = run_round(engine, queries, submitters, batch_size, rounds);
    let seconds = started.elapsed().as_secs_f64();
    Measurement {
        submitters,
        batch_size,
        queries: total,
        seconds,
        request_ns: engine.stats().request_ns.since(&before.request_ns),
    }
}

fn run_round(
    engine: &Engine,
    queries: &[Graph],
    submitters: usize,
    batch_size: usize,
    rounds: usize,
) -> usize {
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for submitter in 0..submitters {
            let engine = engine.clone();
            handles.push(scope.spawn(move || {
                let mut served = 0usize;
                for round in 0..rounds {
                    if batch_size == 1 {
                        let graph = &queries[(submitter + round) % queries.len()];
                        engine.classify(graph).expect("engine alive");
                        served += 1;
                    } else {
                        let start = (submitter * 13 + round) % queries.len();
                        let batch: Vec<&Graph> = (0..batch_size)
                            .map(|i| &queries[(start + i) % queries.len()])
                            .collect();
                        served += engine.classify_batch(&batch).expect("engine alive").len();
                    }
                }
                served
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .sum()
    })
}

/// One overload cell: `submitters` threads at full tilt against a
/// deliberately small queue, under `policy`. Returns the CSV row.
fn overload_row(
    model: &GraphHdModel,
    queries: &[Graph],
    policy: OverloadPolicy,
    submitters: usize,
    rounds: usize,
) -> Vec<String> {
    let engine = Engine::builder()
        .queue_capacity(submitters / 2)
        .max_batch(4)
        .overload_policy(policy)
        .from_model(model.clone())
        .expect("valid knobs");

    let started = Instant::now();
    let (completed, shed) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for submitter in 0..submitters {
            let engine = engine.clone();
            handles.push(scope.spawn(move || {
                let (mut completed, mut shed) = (0u64, 0u64);
                for round in 0..rounds {
                    match engine.classify(&queries[(submitter + round) % queries.len()]) {
                        Ok(_) => completed += 1,
                        Err(Error::Overloaded) => shed += 1,
                        Err(other) => panic!("overload bench: unexpected error {other:?}"),
                    }
                }
                (completed, shed)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .fold((0u64, 0u64), |(a, b), (c, d)| (a + c, b + d))
    });
    let seconds = started.elapsed().as_secs_f64();
    let stats = engine.stats();
    engine.shutdown();

    let offered = (submitters * rounds) as u64;
    let shed_rate = shed as f64 / offered as f64;
    let goodput = completed as f64 / seconds;
    let p99 = if stats.request_ns.is_empty() {
        "-".into()
    } else {
        format!("{:.1}", stats.request_ns.percentile(0.99) as f64 / 1e3)
    };
    eprintln!(
        "overload {policy:?}: offered {offered}, completed {completed}, \
         shed {shed} ({:.1}%), goodput {goodput:.0} queries/s, p99 {p99} us",
        shed_rate * 100.0,
    );
    vec![
        format!("{policy:?}"),
        offered.to_string(),
        completed.to_string(),
        shed.to_string(),
        format!("{shed_rate:.4}"),
        format!("{goodput:.0}"),
        p99,
    ]
}

/// One through-the-socket cell: the model behind a loopback `netserve`
/// server under `policy`, `connections` client threads each sending
/// `rounds` classify frames on a persistent connection. Returns the
/// CSV row.
fn socket_row(
    model: &GraphHdModel,
    queries: &[Graph],
    policy: OverloadPolicy,
    connections: usize,
    rounds: usize,
) -> Vec<String> {
    let engine = Engine::builder()
        .queue_capacity(connections / 2)
        .max_batch(4)
        .overload_policy(policy)
        .from_model(model.clone())
        .expect("valid knobs");
    let registry = std::sync::Arc::new(netserve::ModelRegistry::new());
    registry
        .insert("m", engine.clone())
        .expect("fresh registry");
    let server = netserve::ServerBuilder::new(std::sync::Arc::clone(&registry))
        .max_connections(connections + 1)
        .serve()
        .expect("loopback bind");
    let addr = server.local_addr();

    let drive = |rounds: usize| -> (u64, u64) {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for connection in 0..connections {
                handles.push(scope.spawn(move || {
                    let mut client = netserve::Client::connect(addr).expect("loopback connect");
                    let (mut completed, mut shed) = (0u64, 0u64);
                    for round in 0..rounds {
                        let graph = &queries[(connection + round) % queries.len()];
                        match client.classify("m", graph) {
                            Ok(_) => completed += 1,
                            Err(netserve::NetError::Remote {
                                code: netserve::ErrorCode::Overloaded,
                                ..
                            }) => shed += 1,
                            Err(other) => panic!("socket bench: unexpected error {other:?}"),
                        }
                    }
                    (completed, shed)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .fold((0u64, 0u64), |(a, b), (c, d)| (a + c, b + d))
        })
    };

    // Warm-up: connection setup, pool threads, branch predictors.
    drive(rounds / 4 + 1);
    let engine_before = engine.stats().request_ns;
    let net_before = registry.net_latency("m").expect("hosted model");
    let started = Instant::now();
    let (completed, shed) = drive(rounds);
    let seconds = started.elapsed().as_secs_f64();
    let engine_ns = engine.stats().request_ns.since(&engine_before);
    let net_ns = registry
        .net_latency("m")
        .expect("hosted model")
        .since(&net_before);
    server.shutdown();
    engine.shutdown();

    let offered = (connections * rounds) as u64;
    let qps = completed as f64 / seconds;
    let pct = |snap: &telemetry::HistogramSnapshot, q: f64| -> String {
        if snap.is_empty() {
            "-".into()
        } else {
            format!("{:.1}", snap.percentile(q) as f64 / 1e3)
        }
    };
    eprintln!(
        "socket {policy:?}: {connections} conns, offered {offered}, completed {completed}, \
         shed {shed}, {qps:.0} queries/s, net p50/p99 {}/{} us, engine p50/p99 {}/{} us",
        pct(&net_ns, 0.50),
        pct(&net_ns, 0.99),
        pct(&engine_ns, 0.50),
        pct(&engine_ns, 0.99),
    );
    vec![
        format!("{policy:?}"),
        connections.to_string(),
        offered.to_string(),
        completed.to_string(),
        shed.to_string(),
        format!("{qps:.0}"),
        pct(&net_ns, 0.50),
        pct(&net_ns, 0.90),
        pct(&net_ns, 0.99),
        pct(&engine_ns, 0.50),
        pct(&engine_ns, 0.90),
        pct(&engine_ns, 0.99),
    ]
}

fn main() {
    let options = bench::Options::parse(std::env::args());
    let quick = matches!(options.effort, bench::Effort::Quick);

    // Full surrogate-MUTAG, paper-default dimension; the engine serves a
    // snapshot-restored model, i.e. the exact production path.
    let dataset = surrogate::by_name("MUTAG", options.seed).expect("known dataset");
    let folds = StratifiedKFold::new(5, options.seed)
        .expect("at least two folds")
        .split(dataset.labels())
        .expect("splittable");
    let train_graphs: Vec<&Graph> = folds[0].train.iter().map(|&i| dataset.graph(i)).collect();
    let train_labels: Vec<u32> = folds[0].train.iter().map(|&i| dataset.label(i)).collect();
    let queries: Vec<Graph> = folds[0]
        .test
        .iter()
        .map(|&i| dataset.graph(i).clone())
        .collect();

    let config = GraphHdConfig::builder()
        .seed(options.seed)
        .build()
        .expect("valid config");
    let model = GraphHdModel::fit(config, &train_graphs, &train_labels, dataset.num_classes())
        .expect("consistent dataset");

    let path =
        std::env::temp_dir().join(format!("graphhd-serving-bench-{}.ghd", std::process::id()));
    model.save(&path).expect("writable temp dir");
    let engine = Engine::builder()
        .from_snapshot(&path)
        .expect("valid snapshot");
    std::fs::remove_file(&path).expect("cleanup");

    // Baseline: the same queries with no queue in the way.
    let direct_rounds = if quick { 200 } else { 2000 };
    let started = Instant::now();
    for _ in 0..direct_rounds {
        let _ = model.predict_all(&queries);
    }
    let direct = started.elapsed().as_secs_f64();
    let direct_per_query = direct * 1e6 / (direct_rounds * queries.len()) as f64;
    eprintln!("direct predict_all: {direct_per_query:.1} us/query (no queue)");

    let rounds = |batch: usize| -> usize {
        let base = if quick { 2_000 } else { 20_000 };
        (base / batch).max(8)
    };
    let mut rows = Vec::new();
    for submitters in [1usize, 4] {
        for batch_size in [1usize, 32, 256] {
            let m = measure(
                &engine,
                &queries,
                submitters,
                batch_size,
                rounds(batch_size),
            );
            eprintln!(
                "submitters {submitters} batch {batch_size:>3}: \
                 {:>9.0} queries/s, {:>8.1} us mean, p50 {} p90 {} p99 {} us",
                m.throughput(),
                m.mean_latency_us(),
                m.percentile_cell(0.50),
                m.percentile_cell(0.90),
                m.percentile_cell(0.99),
            );
            rows.push(vec![
                m.submitters.to_string(),
                m.batch_size.to_string(),
                m.queries.to_string(),
                format!("{:.0}", m.throughput()),
                format!("{:.1}", m.mean_latency_us()),
                m.percentile_cell(0.50),
                m.percentile_cell(0.90),
                m.percentile_cell(0.99),
                m.percentile_cell(1.0),
            ]);
        }
    }
    rows.push(vec![
        "direct".into(),
        "-".into(),
        (direct_rounds * queries.len()).to_string(),
        format!("{:.0}", 1e6 / direct_per_query),
        format!("{direct_per_query:.1}"),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // The live stats surface the bench numbers were read from — printed
    // so a bench run doubles as a smoke test of the production snapshot.
    eprintln!(
        "\nengine stats snapshot:\n{}",
        engine.registry().render_json()
    );
    engine.shutdown();

    bench::emit_results(
        &options,
        "serving",
        &[
            "submitters",
            "batch_size",
            "queries",
            "throughput_qps",
            "mean_latency_us",
            "p50_us",
            "p90_us",
            "p99_us",
            "max_us",
        ],
        &rows,
    );

    // Past-saturation behaviour: 2x the queue capacity in submitters,
    // each policy on a fresh engine serving the same model.
    let overload_submitters = 16usize;
    let overload_rounds = if quick { 500 } else { 6_000 };
    let overload_rows: Vec<Vec<String>> = [
        OverloadPolicy::Block,
        OverloadPolicy::Shed,
        OverloadPolicy::Timeout(Duration::from_micros(500)),
    ]
    .into_iter()
    .map(|policy| {
        overload_row(
            &model,
            &queries,
            policy,
            overload_submitters,
            overload_rounds,
        )
    })
    .collect();
    bench::emit_results(
        &options,
        "serving_overload",
        &[
            "policy",
            "offered",
            "completed",
            "shed",
            "shed_rate",
            "goodput_qps",
            "p99_us",
        ],
        &overload_rows,
    );

    // Through the wire: the same model behind a loopback `netserve`
    // server, one persistent connection per client thread, per policy.
    let socket_connections = 8usize;
    let socket_rounds = if quick { 300 } else { 4_000 };
    let socket_rows: Vec<Vec<String>> = [
        OverloadPolicy::Block,
        OverloadPolicy::Shed,
        OverloadPolicy::Timeout(Duration::from_micros(500)),
    ]
    .into_iter()
    .map(|policy| socket_row(&model, &queries, policy, socket_connections, socket_rounds))
    .collect();
    bench::emit_results(
        &options,
        "serving_socket",
        &[
            "policy",
            "connections",
            "offered",
            "completed",
            "shed",
            "qps",
            "net_p50_us",
            "net_p90_us",
            "net_p99_us",
            "engine_p50_us",
            "engine_p90_us",
            "engine_p99_us",
        ],
        &socket_rows,
    );
}
