//! Chaos suite for the network tier: deterministic fault injection at
//! `net.accept`, `net.read` and `net.write`, asserting the serving
//! invariants:
//!
//! - the **server survives** every injected fault — dropped accepts,
//!   killed reads/writes, and injected panics inside connection
//!   threads — and keeps serving once the plan is lifted;
//! - clients see only **clean failures** (closed connections or typed
//!   error frames), never a malformed frame;
//! - **no connection slot leaks**, whatever path a connection dies on.
//!
//! Plans are seeded like the engine chaos suite: each scenario sweeps
//! seeds {1..5}, or just the ambient `GRAPHHD_FAULTS` seed when CI's
//! chaos matrix pins one.

use graphcore::{generate, Graph};
use netserve::{Client, ModelRegistry, NetError, ServerBuilder};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serializes every test in this file. A fault plan armed by one test
/// is process-wide, so without this another test's set-up (an engine
/// fit, a server start) or verification could run under it.
/// Poison-tolerant: one failed test must not fail the rest.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fit_engine(seed: u64) -> engine::Engine {
    let mut rng = prng::Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for i in 0..8 {
        let base = generate::erdos_renyi(10, 0.3, &mut rng).expect("valid p");
        labels.push(u32::from(i % 2 == 0));
        graphs.push(if i % 2 == 0 {
            base
        } else {
            generate::with_planted_triangles(&base, 3, &mut rng).expect("n >= 3")
        });
    }
    let config = graphhd::GraphHdConfig::builder()
        .dim(256)
        .seed(seed)
        .build()
        .expect("valid dimension");
    let model = graphhd::GraphHdModel::fit(config, &graphs, &labels, 2).expect("fit");
    engine::Engine::builder()
        .threads(1)
        .from_model(model)
        .expect("engine")
}

fn seeds() -> Vec<u64> {
    match faultpoint::env_seed() {
        Some(seed) => vec![seed],
        None => (1..=5).collect(),
    }
}

fn assert_slots_drain(server: &netserve::Server, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections_active > 0 {
        assert!(
            Instant::now() < deadline,
            "{context}: connection slots leaked: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drives traffic with per-request reconnects while a fault plan is
/// armed: a request may fail cleanly (any `NetError`) and is retried
/// on a fresh connection; what it must never do is observe a
/// malformed frame (`NetError::Wire` other than io) or hang.
fn drive_traffic(addr: std::net::SocketAddr, graph: &Graph, requests: usize, context: &str) {
    let mut client: Option<Client> = None;
    for request in 0..requests {
        let mut served = false;
        for _attempt in 0..50 {
            let connection = match client.take() {
                Some(connection) => connection,
                None => match Client::connect(addr) {
                    Ok(connection) => connection,
                    // The accept fault dropped us on the floor (or the
                    // refused backlog raced); try again.
                    Err(NetError::Io { .. }) => continue,
                    Err(other) => {
                        panic!("{context}: connect failed uncleanly: {other:?}")
                    }
                },
            };
            let mut connection = connection;
            match connection.classify("m", graph) {
                Ok(class) => {
                    assert!(class < 2, "{context}: bogus class");
                    client = Some(connection);
                    served = true;
                    break;
                }
                // Clean failure shapes under injected faults: the
                // connection died (io/disconnect) or the server
                // answered a typed error. Anything else — a torn
                // frame — is a protocol violation.
                Err(NetError::Io { .. } | NetError::Disconnected) => {}
                Err(NetError::Wire(wire_error)) => {
                    use netserve::WireError;
                    assert!(
                        matches!(wire_error, WireError::Io { .. }),
                        "{context}: server wrote a torn frame: {wire_error:?}"
                    );
                }
                Err(NetError::Remote { .. }) => {
                    client = Some(connection);
                }
                Err(other) => panic!("{context}: unclean failure: {other:?}"),
            }
        }
        assert!(
            served,
            "{context}: request {request} never succeeded in 50 attempts"
        );
    }
}

fn run_scenario(point_spec: &str) {
    for seed in seeds() {
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("m", fit_engine(seed + 20)).expect("insert");
        let server = ServerBuilder::new(Arc::clone(&registry))
            .serve()
            .expect("serve");
        let addr = server.local_addr();
        let graph = generate::complete(7);
        let context = format!("seed={seed};{point_spec}");

        {
            let _guard = faultpoint::configure(&format!("seed={seed};{point_spec}"))
                .expect("valid fault spec");
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let graph = graph.clone();
                    let context = context.clone();
                    std::thread::spawn(move || drive_traffic(addr, &graph, 25, &context))
                })
                .collect();
            for worker in workers {
                worker.join().expect("traffic thread must not panic");
            }
        }

        // Plan lifted: the server must still serve a fresh connection,
        // and every slot a faulted connection held must be free again.
        let mut client = Client::connect(addr).expect("connect after faults");
        assert!(
            client.classify("m", &graph).expect("serve after faults") < 2,
            "{context}: bogus class after faults"
        );
        drop(client);
        assert_slots_drain(&server, &context);
        server.shutdown();
    }
}

/// Accepted connections dropped on the floor before handshake.
#[test]
fn survives_accept_faults() {
    let _serial = serial();
    run_scenario("net.accept=30%error");
}

/// Reads killed mid-stream: connections die, requests retry, nothing
/// leaks.
#[test]
fn survives_read_faults() {
    let _serial = serial();
    run_scenario("net.read=30%error");
}

/// Writes killed after the engine answered: the client sees a closed
/// connection, never a torn frame.
#[test]
fn survives_write_faults() {
    let _serial = serial();
    run_scenario("net.write=30%error");
}

/// Panics injected inside connection threads: the drop guard frees
/// the slot, the catch contains the unwind, the acceptor keeps going.
#[test]
fn survives_injected_panics() {
    let _serial = serial();
    run_scenario("net.read=20%panic");
}

/// Everything at once, the way the CI chaos matrix runs it.
#[test]
fn survives_combined_net_faults() {
    let _serial = serial();
    run_scenario("net.accept=15%error;net.read=15%error;net.write=15%error");
}
