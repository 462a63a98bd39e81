//! Protocol robustness: a live server fed malformed, truncated,
//! oversized and random frames must answer a typed error frame or
//! close the connection cleanly — it must never panic, never write a
//! malformed frame of its own, and never leak a connection slot.
//! Mirrors the exhaustive-truncation style of `tests/snapshot_crash.rs`
//! at the wire layer.

use graphcore::{generate, Graph};
use netserve::wire::{self, ErrorCode, Request, Response};
use netserve::{Client, ModelRegistry, NetError, ServerBuilder, WireError};
use proptest::prelude::*;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn serve_one() -> (netserve::Server, Graph) {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", fit_engine(7)).expect("insert");
    let server = ServerBuilder::new(registry).serve().expect("serve");
    (server, generate::complete(6))
}

/// Polls until every connection slot is free (the server saw all our
/// closes) — the "never leaks a slot" assertion.
fn assert_slots_drain(server: &netserve::Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections_active > 0 {
        assert!(
            Instant::now() < deadline,
            "connection slots leaked: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sends raw bytes, half-closes, and drains whatever the server
/// answers. Returns the decoded response frames (may be empty for a
/// silent close); panics if the server ever writes a malformed frame.
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // The server may close mid-write on garbage input; a broken pipe
    // here is a valid outcome, not a test failure.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut responses = Vec::new();
    let mut reader = BufReader::new(stream);
    loop {
        match wire::read_response(&mut reader) {
            Ok(Some(response)) => responses.push(response),
            Ok(None) => return responses,
            Err(e) => panic!("server wrote a malformed frame: {e}"),
        }
    }
}

fn classify_frame(graph: &Graph) -> Vec<u8> {
    wire::encode_request(&Request::Classify {
        model: "m".to_string(),
        deadline: None,
        graph: graph.clone(),
    })
}

fn assert_error_or_silent(responses: &[Response], context: &str) {
    match responses {
        [] => {}
        [Response::Error { code, .. }] => {
            assert_eq!(*code, ErrorCode::BadFrame, "{context}: wrong code");
        }
        other => panic!("{context}: expected error frame or close, got {other:?}"),
    }
}

/// Every possible truncation of a valid request frame gets a typed
/// `BadFrame` answer or a clean close, and the server keeps serving.
#[test]
fn exhaustive_truncation_answers_typed_error_or_close() {
    let (server, graph) = serve_one();
    let frame = classify_frame(&graph);
    for cut in 0..frame.len() {
        let responses = send_raw(server.local_addr(), &frame[..cut]);
        if cut == 0 {
            assert!(
                responses.is_empty(),
                "empty connection answered {responses:?}"
            );
        } else {
            assert_error_or_silent(&responses, &format!("cut at {cut}"));
        }
    }
    // The server survived all of it: a full valid exchange still works
    // and no slot was leaked.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client.classify("m", &graph).expect("classify") < 2);
    drop(client);
    assert_slots_drain(&server);
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, frame.len() as u64 + 1);
    assert!(
        stats.decode_errors >= 1,
        "truncations not counted: {stats:?}"
    );
    server.shutdown();
}

/// Headers lying about enormous payloads, names or batch counts are
/// refused before any allocation, with a typed error.
#[test]
fn oversized_declarations_are_refused() {
    let (server, graph) = serve_one();
    let addr = server.local_addr();

    let mut oversized_payload = classify_frame(&graph);
    oversized_payload[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_error_or_silent(&send_raw(addr, &oversized_payload), "oversized payload");

    let mut oversized_name = classify_frame(&graph);
    oversized_name[6..8].copy_from_slice(&u16::MAX.to_le_bytes());
    assert_error_or_silent(&send_raw(addr, &oversized_name), "oversized name");

    let oversized_batch = wire::encode_request(&Request::ClassifyBatch {
        model: "m".to_string(),
        deadline: None,
        graphs: vec![graph.clone()],
    });
    // Patch the in-payload batch count to one over the cap: payload
    // starts after the 20-byte header and the 1-byte name.
    let mut patched = oversized_batch;
    patched[21..25].copy_from_slice(&(wire::MAX_BATCH_GRAPHS as u32 + 1).to_le_bytes());
    assert_error_or_silent(&send_raw(addr, &patched), "oversized batch");

    let mut bad_version = classify_frame(&graph);
    bad_version[4] = 9;
    assert_error_or_silent(&send_raw(addr, &bad_version), "future version");

    let mut bad_type = classify_frame(&graph);
    bad_type[5] = 0x44;
    assert_error_or_silent(&send_raw(addr, &bad_type), "unknown type");

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.classify("m", &graph).expect("still serving") < 2);
    drop(client);
    assert_slots_drain(&server);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup: the server answers only well-formed frames
    /// (or closes silently) and never panics or wedges.
    #[test]
    fn junk_bytes_never_break_the_server(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let (server, graph) = junk_server();
        let responses = send_raw(server.local_addr(), &bytes);
        // Whatever came back was well-formed (send_raw panics on a
        // malformed frame); random bytes essentially never spell the
        // magic, so expect the error-or-close shape.
        if !bytes.starts_with(b"GHWP") {
            assert_error_or_silent(&responses, "junk");
        }
        let mut client = Client::connect(server.local_addr()).expect("connect");
        prop_assert!(client.classify("m", &graph).expect("still serving") < 2);
    }
}

/// One shared server for the proptest cases (spinning up an engine per
/// case would dominate the runtime).
fn junk_server() -> (&'static netserve::Server, Graph) {
    use std::sync::OnceLock;
    static SERVER: OnceLock<netserve::Server> = OnceLock::new();
    let server = SERVER.get_or_init(|| {
        let (server, _) = serve_one();
        server
    });
    (server, generate::complete(6))
}

/// Semantic errors (unknown model) answer a typed frame and keep the
/// connection open for the next request.
#[test]
fn unknown_model_keeps_connection_open() {
    let (server, graph) = serve_one();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.classify("nope", &graph) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    assert!(client.classify("m", &graph).expect("same connection") < 2);
    server.shutdown();
}

/// Connections beyond the slot limit get one typed `ConnectionLimit`
/// frame; slots freed by closing connections become available again.
#[test]
fn connection_limit_refuses_with_typed_frame() {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", fit_engine(8)).expect("insert");
    let server = ServerBuilder::new(registry)
        .max_connections(1)
        .serve()
        .expect("serve");
    let graph = generate::complete(6);

    let mut first = Client::connect(server.local_addr()).expect("connect");
    assert!(first.classify("m", &graph).expect("first holds the slot") < 2);

    let mut second = Client::connect(server.local_addr()).expect("tcp connect still works");
    match second.classify("m", &graph) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ConnectionLimit),
        other => panic!("expected ConnectionLimit, got {other:?}"),
    }

    drop(first);
    drop(second);
    assert_slots_drain(&server);
    let mut third = Client::connect(server.local_addr()).expect("connect");
    assert!(third.classify("m", &graph).expect("slot was released") < 2);
    assert_eq!(server.stats().connections_refused, 1);
    server.shutdown();
}

/// Several frames in one write are all answered, in order: the server
/// decodes pipelined frames out of one buffer without losing any.
#[test]
fn pipelined_frames_in_one_write_are_answered_in_order() {
    let (server, graph) = serve_one();
    let other = generate::path(5);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let expected = [
        client.classify("m", &graph).expect("classify"),
        client.classify("m", &other).expect("classify"),
    ];
    drop(client);

    let mut bytes = classify_frame(&graph);
    bytes.extend(classify_frame(&other));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&bytes).expect("one write");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(&stream);
    for class in expected {
        match wire::read_response(&mut reader) {
            Ok(Some(Response::Class(answer))) => assert_eq!(answer, class),
            other => panic!("expected a class answer, got {other:?}"),
        }
    }
    drop(reader);
    drop(stream);
    assert_slots_drain(&server);
    server.shutdown();
}

/// A frame written in two segments, with a pause longer than the
/// server's read poll tick between them, is still answered.
#[test]
fn frame_split_across_a_pause_is_answered() {
    let (server, graph) = serve_one();
    let frame = classify_frame(&graph);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let (head, tail) = frame.split_at(frame.len() / 2);
    stream.write_all(head).expect("first segment");
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(tail).expect("second segment");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match wire::read_response(&mut BufReader::new(&stream)) {
        Ok(Some(Response::Class(class))) => assert!(class < 2),
        other => panic!("expected a class answer, got {other:?}"),
    }
    drop(stream);
    assert_slots_drain(&server);
    server.shutdown();
}

/// A peer that stops mid-frame does not hold up a drain: shutdown cuts
/// the frame read short, and the slot is freed within a second.
#[test]
fn peer_stalled_mid_frame_does_not_hold_up_shutdown() {
    let (server, graph) = serve_one();
    let frame = classify_frame(&graph);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream);
    // One full exchange first, so the connection thread is serving.
    reader.get_mut().write_all(&frame).expect("full frame");
    assert!(matches!(
        wire::read_response(&mut reader),
        Ok(Some(Response::Class(_)))
    ));
    reader
        .get_mut()
        .write_all(&frame[..frame.len() / 2])
        .expect("half a frame");
    let started = Instant::now();
    std::thread::scope(|scope| {
        let drain = scope.spawn(|| server.shutdown());
        // The cut-short frame is answered with an error frame or a
        // close (a reset, if the drain won the race to the first read);
        // either way the peer then hangs up.
        match wire::read_response(&mut reader) {
            Ok(answer) => assert_error_or_silent(&Vec::from_iter(answer), "stalled frame"),
            Err(WireError::Io { .. }) => {}
            Err(e) => panic!("server wrote a malformed frame: {e}"),
        }
        drop(reader);
        drain.join().expect("shutdown returns");
    });
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(server.stats().connections_active, 0);
}

/// Silent peers refused at the limit do not stall the acceptor: each is
/// refused at once, and a client that connects once the slot frees is
/// served.
#[test]
fn silent_refused_peers_do_not_stall_the_acceptor() {
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("m", fit_engine(9)).expect("insert");
    let server = ServerBuilder::new(registry)
        .max_connections(1)
        .serve()
        .expect("serve");
    let graph = generate::complete(6);
    let mut first = Client::connect(server.local_addr()).expect("connect");
    assert!(first.classify("m", &graph).expect("first holds the slot") < 2);

    let started = Instant::now();
    let silent: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(server.local_addr()).expect("tcp connect"))
        .collect();
    while server.stats().connections_refused < 3 {
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "refusals stalled: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(first);
    assert_slots_drain(&server);
    let mut next = Client::connect(server.local_addr()).expect("connect");
    assert!(next.classify("m", &graph).expect("freed slot serves") < 2);
    assert_eq!(server.stats().connections_refused, 3);
    drop(silent);
    server.shutdown();
}
