//! The thread-per-connection TCP server.
//!
//! One acceptor thread owns the `TcpListener`; each accepted
//! connection gets its own thread, a connection **slot** (bounded by
//! [`ServerBuilder::max_connections`]) and a frame loop that decodes
//! requests, routes them by model name through the shared
//! [`ModelRegistry`], and answers on the same stream. Slots are
//! released by a drop guard, so neither a handler panic (including an
//! injected one — `net.read`/`net.write` fault points live in the
//! frame loop) nor a poisoned stream can leak one.
//!
//! Each connection reads through one `BufReader` for its whole
//! lifetime, over a reader that retries the poll-tick read timeouts:
//! an idle connection waits with no deadline, a started frame has 10 s,
//! and the lingering close after `BAD_FRAME` drains for up to 2 s.
//! Refused connections linger on short-lived threads of their own (at
//! most `max_connections` at once), so silent peers cannot stall the
//! acceptor.
//!
//! [`Server::shutdown`] is a graceful drain: the accept loop stops,
//! connection threads notice the flag at their next poll tick (idle or
//! stalled mid-frame alike), finish the request in flight, and the
//! call returns once every slot is free.

use crate::error::NetError;
use crate::metrics::ServerMetrics;
use crate::registry::ModelRegistry;
use crate::wire::{self, ErrorCode, Request, Response};
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, BufRead, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often blocked reads wake to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a connection waits for the rest of a frame once its first
/// byte has arrived, before giving up on the peer.
const FRAME_PATIENCE: Duration = Duration::from_secs(10);

/// Builds a [`Server`]: listen address, connection limit, and the
/// model fleet it serves.
#[derive(Debug)]
pub struct ServerBuilder {
    registry: Arc<ModelRegistry>,
    addr: String,
    max_connections: usize,
}

impl ServerBuilder {
    /// A builder serving `registry`, listening on an OS-assigned
    /// loopback port (`127.0.0.1:0`) with a 64-connection limit.
    #[must_use]
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        Self {
            registry,
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
        }
    }

    /// Sets the listen address (e.g. `"0.0.0.0:7878"`).
    #[must_use]
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the connection-slot limit; connections beyond it are
    /// answered with one [`ErrorCode::ConnectionLimit`] frame and
    /// closed. A limit of 0 is treated as 1.
    #[must_use]
    pub fn max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections.max(1);
        self
    }

    /// Applies the environment overrides `GRAPHHD_NET_ADDR` (listen
    /// address) and `GRAPHHD_NET_MAX_CONNS` (connection limit); unset
    /// or unparsable values leave the builder unchanged. Documented in
    /// `docs/ENV.md`.
    #[must_use]
    pub fn from_env(mut self) -> Self {
        if let Ok(addr) = std::env::var("GRAPHHD_NET_ADDR") {
            if !addr.is_empty() {
                self.addr = addr;
            }
        }
        if let Ok(max) = std::env::var("GRAPHHD_NET_MAX_CONNS") {
            if let Ok(max) = max.parse::<usize>() {
                self.max_connections = max.max(1);
            }
        }
        self
    }

    /// Binds the listener and starts the acceptor thread.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the address cannot be bound.
    pub fn serve(self) -> Result<Server, NetError> {
        let listener = TcpListener::bind(&self.addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            registry: self.registry,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            slots: Mutex::new(0),
            drained: Condvar::new(),
            max_connections: self.max_connections,
            lingering: Arc::new(AtomicUsize::new(0)),
        });
        let acceptor_inner = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("netserve-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &acceptor_inner))
            .map_err(NetError::from)?;
        Ok(Server {
            inner,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }
}

/// Shared state between the acceptor, the connection threads and the
/// owning [`Server`] handle.
#[derive(Debug)]
struct Inner {
    registry: Arc<ModelRegistry>,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// Occupied connection slots; paired with `drained` so shutdown
    /// can wait for the count to reach zero.
    slots: Mutex<usize>,
    drained: Condvar,
    max_connections: usize,
    /// Refused connections lingering on their own threads.
    lingering: Arc<AtomicUsize>,
}

/// A running server: accepting connections from the moment
/// [`ServerBuilder::serve`] returns until [`Server::shutdown`] (or
/// drop) drains it.
#[derive(Debug)]
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// A point-in-time reading of the server's connection and frame
/// counters (the same numbers the scrape exposes as `net_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Connections accepted into a slot.
    pub connections_accepted: u64,
    /// Connections refused at the limit or dropped by `net.accept`.
    pub connections_refused: u64,
    /// Connections currently holding a slot.
    pub connections_active: i64,
    /// Request frames successfully decoded.
    pub frames_in: u64,
    /// Response frames successfully written.
    pub frames_out: u64,
    /// Request frames that failed to decode or died mid-read.
    pub decode_errors: u64,
}

impl Server {
    /// The bound listen address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The model fleet this server routes to.
    #[must_use]
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.inner.registry
    }

    /// Current connection and frame counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let m = &self.inner.metrics;
        ServerStats {
            connections_accepted: m.connections_accepted.get(),
            connections_refused: m.connections_refused.get(),
            connections_active: m.connections_active.get(),
            frames_in: m.frames_in.get(),
            frames_out: m.frames_out.get(),
            decode_errors: m.decode_errors.get(),
        }
    }

    /// The full scrape: the server's own `net_*` registry followed by
    /// the fleet's merged per-model exposition — the same text a
    /// [`Request::Stats`] frame returns over the wire. Passes
    /// `telemetry::validate_exposition`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = self.inner.metrics.registry.render_prometheus();
        out.push_str(&self.inner.registry.render_prometheus());
        out
    }

    /// Graceful drain: stops accepting, lets in-flight requests
    /// finish, and returns once every connection slot is free.
    /// Idempotent; dropping the server does the same.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept with a
        // throwaway connection; it re-checks the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self
            .acceptor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
        let mut slots = self
            .inner
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *slots > 0 {
            let (next, _timeout) = self
                .inner
                .drained
                .wait_timeout(slots, POLL_INTERVAL)
                .unwrap_or_else(PoisonError::into_inner);
            slots = next;
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Releases a connection slot (and wakes a draining shutdown) no
/// matter how the connection thread ends.
struct SlotGuard {
    inner: Arc<Inner>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        {
            let mut slots = self
                .inner
                .slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *slots = slots.saturating_sub(1);
        }
        self.inner.metrics.connections_active.dec();
        self.inner.drained.notify_all();
    }
}

/// One refusal lingering on its own thread, counted in
/// `Inner::lingering` until dropped.
struct Lingering(Arc<AtomicUsize>);

impl Drop for Lingering {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The one reader under a connection's `BufReader`: rides out the
/// [`POLL_INTERVAL`] read timeouts until `give_up_at` passes (never,
/// when `None`) or, if it watches `shutdown`, the server drains.
struct Patient<'a> {
    stream: &'a TcpStream,
    shutdown: Option<&'a AtomicBool>,
    give_up_at: Option<Instant>,
}

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {
                    let draining = self.shutdown.is_some_and(|s| s.load(Ordering::SeqCst));
                    if draining || self.give_up_at.is_some_and(|t| Instant::now() >= t) {
                        return Err(io::Error::new(TimedOut, "read timed out"));
                    }
                }
                other => return other,
            }
        }
    }
}

/// A buffered [`Patient`] over `stream`, with no deadline yet.
fn patient<'a>(stream: &'a TcpStream, shutdown: Option<&'a AtomicBool>) -> BufReader<Patient<'a>> {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    BufReader::new(Patient {
        stream,
        shutdown,
        give_up_at: None,
    })
}

/// Closes a connection without clobbering data in flight: half-closes
/// the write side (flushing the final frame to the peer) and drains
/// whatever the peer already sent, for up to 2 s, shutdown or not.
/// Dropping a socket with unread received bytes sends an RST, which
/// can destroy the typed error frame before the client reads it — this
/// is the "closes cleanly" half of the protocol contract.
fn linger_close(reader: &mut BufReader<Patient<'_>>) {
    let patient = reader.get_mut();
    let _ = patient.stream.shutdown(Shutdown::Write);
    patient.shutdown = None;
    patient.give_up_at = Some(Instant::now() + Duration::from_secs(2));
    let _ = io::copy(reader, &mut io::sink());
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Transient accept failure (e.g. the peer vanished between
            // SYN and accept); keep serving.
            continue;
        };
        // Contain injected `net.accept` panics to this iteration: the
        // acceptor must outlive any single bad accept.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle_accept(stream, inner);
        }));
        if result.is_err() {
            inner.metrics.connections_refused.inc();
        }
    }
}

fn handle_accept(stream: TcpStream, inner: &Arc<Inner>) {
    if faultpoint::inject("net.accept") {
        // An injected accept fault drops the connection on the floor —
        // the client sees a close, the server keeps serving.
        inner.metrics.connections_refused.inc();
        return;
    }
    let acquired = {
        let mut slots = inner.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if *slots >= inner.max_connections {
            false
        } else {
            *slots += 1;
            true
        }
    };
    if !acquired {
        inner.metrics.connections_refused.inc();
        // Best-effort typed refusal so the client can tell "limit"
        // from a network failure; then close.
        let _ = wire::write_response(
            &mut &stream,
            &Response::Error {
                code: ErrorCode::ConnectionLimit,
                message: format!("all {} connection slots are busy", inner.max_connections),
            },
        );
        linger_refusal(stream, inner);
        return;
    }
    inner.metrics.connections_accepted.inc();
    inner.metrics.connections_active.inc();
    let conn_inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name("netserve-conn".to_string())
        .spawn(move || {
            // The guard lives outside the catch so an injected panic
            // inside the frame loop still frees the slot.
            let guard = SlotGuard {
                inner: Arc::clone(&conn_inner),
            };
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                connection_loop(&stream, &conn_inner);
            }));
            drop(guard);
        });
    if spawned.is_err() {
        // Thread spawn failed (resource exhaustion): release the slot.
        drop(SlotGuard {
            inner: Arc::clone(inner),
        });
        inner.metrics.connections_refused.inc();
    }
}

/// Lingers a refused connection on its own thread, or closes it at
/// once when `max_connections` refusals already linger.
fn linger_refusal(stream: TcpStream, inner: &Inner) {
    let lingering = Lingering(Arc::clone(&inner.lingering));
    if lingering.0.fetch_add(1, Ordering::SeqCst) >= inner.max_connections {
        return;
    }
    // A failed spawn drops the closure, and with it the count.
    let _ = std::thread::Builder::new()
        .name("netserve-linger".to_string())
        .spawn(move || {
            let _lingering = lingering;
            linger_close(&mut patient(&stream, None));
        });
}

fn connection_loop(stream: &TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let mut reader = patient(stream, Some(&inner.shutdown));
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Idle: wait for the next frame's first byte with no deadline.
        reader.get_mut().give_up_at = None;
        match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(_) => {}
        }
        if faultpoint::inject("net.read") {
            // An injected read fault kills this connection, not the
            // server: the slot frees via the guard, the client sees a
            // close.
            return;
        }
        // A frame has started: a peer stalled mid-frame is given up on.
        reader.get_mut().give_up_at = Some(Instant::now() + FRAME_PATIENCE);
        match wire::read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(request)) => {
                inner.metrics.frames_in.inc();
                if !respond(stream, inner, &request) {
                    return;
                }
            }
            Err(error) => {
                inner.metrics.decode_errors.inc();
                // The stream framing can no longer be trusted:
                // best-effort typed error, then a lingering close so
                // the error frame survives the peer's unread bytes.
                let _ = write_frame(
                    stream,
                    inner,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: error.to_string(),
                    },
                );
                linger_close(&mut reader);
                return;
            }
        }
    }
}

/// Writes one response frame, honouring the `net.write` fault point.
/// Returns `false` when the connection should close.
fn write_frame(stream: &TcpStream, inner: &Inner, response: &Response) -> bool {
    if faultpoint::inject("net.write") {
        return false;
    }
    match wire::write_response(&mut &*stream, response) {
        Ok(()) => {
            inner.metrics.frames_out.inc();
            true
        }
        Err(_) => false,
    }
}

/// Maps an engine failure to its wire error code.
fn engine_error_code(error: &graphhd::Error) -> ErrorCode {
    match error {
        graphhd::Error::ShutDown => ErrorCode::ShutDown,
        graphhd::Error::Overloaded => ErrorCode::Overloaded,
        graphhd::Error::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        graphhd::Error::TaskFailed => ErrorCode::TaskFailed,
        _ => ErrorCode::Internal,
    }
}

/// Handles one decoded request and writes the response. Returns
/// `false` when the connection should close.
fn respond(stream: &TcpStream, inner: &Arc<Inner>, request: &Request) -> bool {
    let response = match request {
        Request::Classify {
            model,
            deadline,
            graph,
        } => {
            return serve_model(stream, inner, model, |engine| match deadline {
                Some(budget) => engine.classify_within(graph, *budget).map(Response::Class),
                None => engine.classify(graph).map(Response::Class),
            });
        }
        Request::Scores {
            model,
            deadline,
            graph,
        } => {
            return serve_model(stream, inner, model, |engine| match deadline {
                Some(budget) => engine.scores_within(graph, *budget).map(Response::Scores),
                None => engine.scores(graph).map(Response::Scores),
            });
        }
        Request::ClassifyBatch {
            model,
            deadline,
            graphs,
        } => {
            return serve_model(stream, inner, model, |engine| match deadline {
                Some(budget) => engine
                    .classify_batch_within(graphs, *budget)
                    .map(Response::Classes),
                None => engine.classify_batch(graphs).map(Response::Classes),
            });
        }
        Request::ModelInfo { model } => match inner.registry.info(model) {
            Some(info) => Response::Info(info),
            None => unknown_model(model),
        },
        Request::Stats => {
            let mut text = inner.metrics.registry.render_prometheus();
            text.push_str(&inner.registry.render_prometheus());
            Response::Stats(text)
        }
    };
    write_frame(stream, inner, &response)
}

fn unknown_model(model: &str) -> Response {
    Response::Error {
        code: ErrorCode::UnknownModel,
        message: format!("no model named `{model}` is hosted"),
    }
}

/// Routes a request to its model slot, times the handling into the
/// per-model `net_request_ns` histogram, and writes the response.
fn serve_model(
    stream: &TcpStream,
    inner: &Arc<Inner>,
    model: &str,
    handle: impl FnOnce(&engine::Engine) -> Result<Response, graphhd::Error>,
) -> bool {
    let Some(slot) = inner.registry.slot(model) else {
        return write_frame(stream, inner, &unknown_model(model));
    };
    let start = Instant::now();
    let response = handle(&slot.served.load().engine).unwrap_or_else(|e| Response::Error {
        code: engine_error_code(&e),
        message: e.to_string(),
    });
    let keep_open = write_frame(stream, inner, &response);
    slot.net_request_ns.record_duration(start.elapsed());
    keep_open
}
