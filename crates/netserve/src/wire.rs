//! The length-prefixed binary wire protocol (version 1).
//!
//! Every message on a connection is one **frame**: a fixed 20-byte
//! header followed by the model name and the payload, all integers
//! little-endian. The full grammar, the versioning rules and the error
//! code table live in `docs/PROTOCOL.md`; this module is the single
//! encoder/decoder both the server and the [`Client`](crate::Client)
//! use, so the two sides cannot drift apart.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "GHWP"
//! 4       1     protocol version (1)
//! 5       1     frame type
//! 6       2     model name length   (u16, <= 255)
//! 8       8     deadline budget, µs (u64, 0 = none; requests only)
//! 16      4     payload length      (u32, <= 16 MiB)
//! 20      -     model name bytes (UTF-8), then payload bytes
//! ```
//!
//! Decoding is **strictly bounded**: the header is validated before a
//! single payload byte is allocated (magic, version, known frame type,
//! name and payload caps), payloads are read with exact-length reads,
//! and every embedded count re-checks against the bytes that actually
//! arrived — the same discipline as the snapshot loader, so a malformed
//! or adversarial frame is answered with a typed error, never with an
//! oversized allocation or a panic.

use graphcore::Graph;
use std::io::{BufRead, Read, Write};
use std::time::Duration;

/// First four bytes of every frame ("GraphHD Wire Protocol").
pub const MAGIC: [u8; 4] = *b"GHWP";

/// The protocol version this build speaks. A frame declaring a
/// different version is rejected with
/// [`WireError::UnsupportedVersion`]; see `docs/PROTOCOL.md` for the
/// compatibility rules.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;

/// Longest accepted model name, in bytes.
pub const MAX_NAME_LEN: usize = 255;

/// Largest accepted frame payload (16 MiB). A header declaring more is
/// rejected before any payload allocation.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Most graphs accepted in one batched-submit frame.
pub const MAX_BATCH_GRAPHS: usize = 4096;

/// Frame type tags. Requests use the low range, responses the high
/// range; an unknown tag is a decode error on either side.
mod tag {
    pub const CLASSIFY: u8 = 0x01;
    pub const SCORES: u8 = 0x02;
    pub const CLASSIFY_BATCH: u8 = 0x03;
    pub const MODEL_INFO: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const R_CLASS: u8 = 0x81;
    pub const R_SCORES: u8 = 0x82;
    pub const R_CLASSES: u8 = 0x83;
    pub const R_INFO: u8 = 0x84;
    pub const R_STATS: u8 = 0x85;
    pub const R_ERROR: u8 = 0xFF;
}

/// Typed error codes carried by an error response frame (`0xFF`). The
/// numeric values are part of the wire contract (`docs/PROTOCOL.md`)
/// and must never be reused for a different meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The frame could not be decoded (bad magic/version/type, bounds
    /// exceeded, malformed payload). The server closes the connection
    /// after sending this — the stream framing can no longer be trusted.
    BadFrame,
    /// The frame named a model the registry does not host.
    UnknownModel,
    /// The serving engine for the model has shut down.
    ShutDown,
    /// The request was shed by the engine's overload policy.
    Overloaded,
    /// The request's deadline passed before it was served.
    DeadlineExceeded,
    /// The request's batch failed (it panicked while being served).
    TaskFailed,
    /// Reserved: once sent by engines that could be terminally poisoned.
    /// Still decoded so older servers stay readable; never sent.
    Poisoned,
    /// The server refused the connection: the connection limit was
    /// reached. Sent once on accept, then the connection is closed.
    ConnectionLimit,
    /// The server is draining for shutdown.
    Draining,
    /// An internal invariant did not hold on the server.
    Internal,
}

impl ErrorCode {
    /// The on-wire numeric value.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadFrame => 1,
            ErrorCode::UnknownModel => 2,
            ErrorCode::ShutDown => 3,
            ErrorCode::Overloaded => 4,
            ErrorCode::DeadlineExceeded => 5,
            ErrorCode::TaskFailed => 6,
            ErrorCode::Poisoned => 7,
            ErrorCode::ConnectionLimit => 8,
            ErrorCode::Draining => 9,
            ErrorCode::Internal => 10,
        }
    }

    /// Decodes an on-wire value; unknown values map to
    /// [`ErrorCode::Internal`] so a newer server's codes degrade
    /// gracefully instead of failing the decode.
    #[must_use]
    pub fn from_u16(value: u16) -> Self {
        match value {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnknownModel,
            3 => ErrorCode::ShutDown,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::TaskFailed,
            7 => ErrorCode::Poisoned,
            8 => ErrorCode::ConnectionLimit,
            9 => ErrorCode::Draining,
            _ => ErrorCode::Internal,
        }
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            ErrorCode::BadFrame => "bad frame",
            ErrorCode::UnknownModel => "unknown model",
            ErrorCode::ShutDown => "engine shut down",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::TaskFailed => "task failed",
            ErrorCode::Poisoned => "engine poisoned",
            ErrorCode::ConnectionLimit => "connection limit reached",
            ErrorCode::Draining => "server draining",
            ErrorCode::Internal => "internal server error",
        };
        f.write_str(name)
    }
}

/// Ways a frame can fail to decode. The server answers a request-side
/// decode failure with one [`ErrorCode::BadFrame`] frame and closes the
/// connection; the client surfaces it as
/// [`NetError::Wire`](crate::NetError::Wire).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The stream did not start a frame with the protocol magic.
    BadMagic,
    /// The frame declares a protocol version this build cannot speak.
    UnsupportedVersion {
        /// The version found in the header.
        found: u8,
    },
    /// The frame type tag is not one this side understands.
    UnknownType {
        /// The tag found in the header.
        found: u8,
    },
    /// A declared length exceeds its bound (name, payload, graph or
    /// batch counts). Rejected before allocation.
    Oversized {
        /// Which field exceeded its bound.
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The maximum this build accepts.
        max: u64,
    },
    /// A payload field failed validation (truncated counts, non-UTF-8
    /// name, out-of-range edge endpoints, trailing bytes).
    Malformed {
        /// Which field was invalid.
        what: &'static str,
    },
    /// An I/O failure while reading or writing the frame.
    Io {
        /// The [`std::io::ErrorKind`] of the underlying failure.
        kind: std::io::ErrorKind,
        /// The underlying error, rendered.
        message: String,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "frame does not start with the GHWP magic"),
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            WireError::UnknownType { found } => write!(f, "unknown frame type 0x{found:02x}"),
            WireError::Oversized {
                what,
                declared,
                max,
            } => write!(f, "{what} declares {declared}, maximum is {max}"),
            WireError::Malformed { what } => write!(f, "malformed frame: {what}"),
            WireError::Io { kind, message } => write!(f, "frame i/o failed ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

/// A decoded request frame, as the server sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one graph against the named model.
    Classify {
        /// Target model name.
        model: String,
        /// Optional latency budget from the frame header.
        deadline: Option<Duration>,
        /// The graph to classify.
        graph: Graph,
    },
    /// Full per-class score vector for one graph.
    Scores {
        /// Target model name.
        model: String,
        /// Optional latency budget from the frame header.
        deadline: Option<Duration>,
        /// The graph to score.
        graph: Graph,
    },
    /// Classify a batch of graphs in one frame.
    ClassifyBatch {
        /// Target model name.
        model: String,
        /// Optional latency budget covering the whole batch.
        deadline: Option<Duration>,
        /// The graphs to classify, answered in order.
        graphs: Vec<Graph>,
    },
    /// Metadata of the named model (dimension, classes, version).
    ModelInfo {
        /// Target model name.
        model: String,
    },
    /// Scrape the fleet-wide Prometheus exposition (empty model name).
    Stats,
}

/// Model metadata carried by an info response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelInfo {
    /// Hypervector dimensionality of the served model.
    pub dim: u64,
    /// Number of classes the model scores against.
    pub num_classes: u32,
    /// Served snapshot version (0 when the model was not loaded from a
    /// versioned directory).
    pub version: u64,
}

/// A decoded response frame, as the client sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The winning class id.
    Class(u32),
    /// The per-class cosine score vector.
    Scores(Vec<f64>),
    /// Per-graph class ids for a batched submit, in request order.
    Classes(Vec<u32>),
    /// Model metadata.
    Info(ModelInfo),
    /// The merged Prometheus text exposition.
    Stats(String),
    /// A typed failure.
    Error {
        /// The typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Reads exactly `buf.len()` bytes; a stream that ends first is
/// [`WireError::Malformed`] with `what`.
fn read_exact(reader: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), WireError> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Malformed { what }
        } else {
            e.into()
        }
    })
}

/// A raw frame: validated header fields plus the undecoded body.
#[derive(Debug)]
struct RawFrame {
    kind: u8,
    name: String,
    deadline_us: u64,
    payload: Vec<u8>,
}

/// Reads one raw frame with full header validation and bounded
/// allocation. `Ok(None)` is a clean EOF before any header byte.
fn read_raw(reader: &mut impl BufRead) -> Result<Option<RawFrame>, WireError> {
    if reader.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut header = [0u8; HEADER_LEN];
    read_exact(reader, &mut header, "stream ended inside a frame header")?;
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion { found: header[4] });
    }
    let kind = header[5];
    let name_len = u16::from_le_bytes([header[6], header[7]]) as usize;
    if name_len > MAX_NAME_LEN {
        return Err(WireError::Oversized {
            what: "model name length",
            declared: name_len as u64,
            max: MAX_NAME_LEN as u64,
        });
    }
    let deadline_us = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    let payload_len = u32::from_le_bytes([header[16], header[17], header[18], header[19]]) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            what: "payload length",
            declared: payload_len as u64,
            max: MAX_PAYLOAD as u64,
        });
    }
    let mut name_bytes = vec![0u8; name_len];
    read_exact(reader, &mut name_bytes, "stream ended inside a frame body")?;
    let name = String::from_utf8(name_bytes).map_err(|_| WireError::Malformed {
        what: "model name is not UTF-8",
    })?;
    let mut payload = vec![0u8; payload_len];
    read_exact(reader, &mut payload, "stream ended inside a frame body")?;
    Ok(Some(RawFrame {
        kind,
        name,
        deadline_us,
        payload,
    }))
}

/// Bounded cursor over a frame payload: every read checks the
/// remaining bytes, and [`Cursor::finish`] rejects trailing garbage.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Malformed { what })?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at != self.bytes.len() {
            return Err(WireError::Malformed {
                what: "payload continues past the declared content",
            });
        }
        Ok(())
    }
}

/// Decodes one graph: `u32 n`, `u32 m`, then `m` little-endian
/// `(u32, u32)` edges validated against `n` by the graph constructor.
fn read_graph(cursor: &mut Cursor<'_>) -> Result<Graph, WireError> {
    let n = cursor.u32("graph vertex count")? as usize;
    let m = cursor.u32("graph edge count")? as usize;
    // Eight bytes per edge: the declared count must fit in the payload
    // that actually arrived, so a lying header cannot drive allocation.
    let bytes = m.checked_mul(8).ok_or(WireError::Malformed {
        what: "graph edge count overflows",
    })?;
    let edges = cursor.take(bytes, "graph edge list")?;
    let pairs = edges.chunks_exact(8).map(|c| {
        (
            u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
        )
    });
    Graph::from_edges(n, pairs).map_err(|_| WireError::Malformed {
        what: "graph edge endpoint out of range",
    })
}

fn write_graph(out: &mut Vec<u8>, graph: &Graph) {
    out.extend_from_slice(&(graph.vertex_count() as u32).to_le_bytes());
    out.extend_from_slice(&(graph.edge_count() as u32).to_le_bytes());
    for (u, v) in graph.edges() {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn deadline_from(deadline_us: u64) -> Option<Duration> {
    (deadline_us > 0).then(|| Duration::from_micros(deadline_us))
}

fn deadline_to(deadline: Option<Duration>) -> u64 {
    // Zero means "no deadline" on the wire, so a zero budget is bumped
    // to the smallest representable one rather than silently removed.
    deadline.map_or(0, |d| {
        u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1)
    })
}

/// Reads one request frame. `Ok(None)` is a clean close between
/// frames.
///
/// # Errors
///
/// Returns [`WireError`] for I/O failures and malformed, oversized or
/// unknown frames; the caller answers with
/// [`ErrorCode::BadFrame`] and closes.
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, WireError> {
    let Some(raw) = read_raw(reader)? else {
        return Ok(None);
    };
    let deadline = deadline_from(raw.deadline_us);
    let mut cursor = Cursor::new(&raw.payload);
    let request = match raw.kind {
        tag::CLASSIFY => {
            let graph = read_graph(&mut cursor)?;
            Request::Classify {
                model: raw.name,
                deadline,
                graph,
            }
        }
        tag::SCORES => {
            let graph = read_graph(&mut cursor)?;
            Request::Scores {
                model: raw.name,
                deadline,
                graph,
            }
        }
        tag::CLASSIFY_BATCH => {
            let count = cursor.u32("batch graph count")? as usize;
            if count > MAX_BATCH_GRAPHS {
                return Err(WireError::Oversized {
                    what: "batch graph count",
                    declared: count as u64,
                    max: MAX_BATCH_GRAPHS as u64,
                });
            }
            let mut graphs = Vec::with_capacity(count.min(raw.payload.len() / 8 + 1));
            for _ in 0..count {
                graphs.push(read_graph(&mut cursor)?);
            }
            Request::ClassifyBatch {
                model: raw.name,
                deadline,
                graphs,
            }
        }
        tag::MODEL_INFO => Request::ModelInfo { model: raw.name },
        tag::STATS => Request::Stats,
        found => return Err(WireError::UnknownType { found }),
    };
    cursor.finish()?;
    Ok(Some(request))
}

/// Reads one response frame. `Ok(None)` is a clean close between
/// frames (the server went away).
///
/// # Errors
///
/// Returns [`WireError`] for I/O failures and malformed, oversized or
/// unknown frames.
pub fn read_response(reader: &mut impl BufRead) -> Result<Option<Response>, WireError> {
    let Some(raw) = read_raw(reader)? else {
        return Ok(None);
    };
    let mut cursor = Cursor::new(&raw.payload);
    let response = match raw.kind {
        tag::R_CLASS => Response::Class(cursor.u32("class id")?),
        tag::R_SCORES => {
            let count = cursor.u32("score count")? as usize;
            let bytes = count.checked_mul(8).ok_or(WireError::Malformed {
                what: "score count overflows",
            })?;
            let raw_scores = cursor.take(bytes, "score vector")?;
            Response::Scores(
                raw_scores
                    .chunks_exact(8)
                    .map(|c| {
                        f64::from_bits(u64::from_le_bytes([
                            c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                        ]))
                    })
                    .collect(),
            )
        }
        tag::R_CLASSES => {
            let count = cursor.u32("class count")? as usize;
            let bytes = count.checked_mul(4).ok_or(WireError::Malformed {
                what: "class count overflows",
            })?;
            let raw_classes = cursor.take(bytes, "class list")?;
            Response::Classes(
                raw_classes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            )
        }
        tag::R_INFO => {
            let dim = cursor.u64("model dimension")?;
            let num_classes = cursor.u32("model class count")?;
            let version = cursor.u64("model version")?;
            Response::Info(ModelInfo {
                dim,
                num_classes,
                version,
            })
        }
        tag::R_STATS => {
            let len = cursor.u32("stats text length")? as usize;
            let text = cursor.take(len, "stats text")?;
            Response::Stats(
                String::from_utf8(text.to_vec()).map_err(|_| WireError::Malformed {
                    what: "stats text is not UTF-8",
                })?,
            )
        }
        tag::R_ERROR => {
            let code =
                ErrorCode::from_u16(u16::try_from(cursor.u32("error code")?).unwrap_or(u16::MAX));
            let len = cursor.u32("error message length")? as usize;
            let text = cursor.take(len, "error message")?;
            Response::Error {
                code,
                message: String::from_utf8_lossy(text).into_owned(),
            }
        }
        found => return Err(WireError::UnknownType { found }),
    };
    cursor.finish()?;
    Ok(Some(response))
}

/// Assembles one frame into a buffer: header, name, payload.
fn frame_bytes(kind: u8, name: &str, deadline_us: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + name.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(&deadline_us.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a request frame into bytes (exposed for the protocol tests;
/// the [`Client`](crate::Client) uses [`write_request`]).
#[must_use]
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    let (kind, name, deadline) = match request {
        Request::Classify {
            model,
            deadline,
            graph,
        } => {
            write_graph(&mut payload, graph);
            (tag::CLASSIFY, model.as_str(), *deadline)
        }
        Request::Scores {
            model,
            deadline,
            graph,
        } => {
            write_graph(&mut payload, graph);
            (tag::SCORES, model.as_str(), *deadline)
        }
        Request::ClassifyBatch {
            model,
            deadline,
            graphs,
        } => {
            payload.extend_from_slice(&(graphs.len() as u32).to_le_bytes());
            for graph in graphs {
                write_graph(&mut payload, graph);
            }
            (tag::CLASSIFY_BATCH, model.as_str(), *deadline)
        }
        Request::ModelInfo { model } => (tag::MODEL_INFO, model.as_str(), None),
        Request::Stats => (tag::STATS, "", None),
    };
    frame_bytes(kind, name, deadline_to(deadline), &payload)
}

/// Encodes a response frame into bytes.
#[must_use]
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut payload = Vec::new();
    let kind = match response {
        Response::Class(class) => {
            payload.extend_from_slice(&class.to_le_bytes());
            tag::R_CLASS
        }
        Response::Scores(scores) => {
            payload.extend_from_slice(&(scores.len() as u32).to_le_bytes());
            for score in scores {
                payload.extend_from_slice(&score.to_bits().to_le_bytes());
            }
            tag::R_SCORES
        }
        Response::Classes(classes) => {
            payload.extend_from_slice(&(classes.len() as u32).to_le_bytes());
            for class in classes {
                payload.extend_from_slice(&class.to_le_bytes());
            }
            tag::R_CLASSES
        }
        Response::Info(info) => {
            payload.extend_from_slice(&info.dim.to_le_bytes());
            payload.extend_from_slice(&info.num_classes.to_le_bytes());
            payload.extend_from_slice(&info.version.to_le_bytes());
            tag::R_INFO
        }
        Response::Stats(text) => {
            payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
            payload.extend_from_slice(text.as_bytes());
            tag::R_STATS
        }
        Response::Error { code, message } => {
            payload.extend_from_slice(&u32::from(code.as_u16()).to_le_bytes());
            payload.extend_from_slice(&(message.len() as u32).to_le_bytes());
            payload.extend_from_slice(message.as_bytes());
            tag::R_ERROR
        }
    };
    frame_bytes(kind, "", 0, &payload)
}

/// Writes one request frame as a single `write_all`.
///
/// # Errors
///
/// Returns [`WireError::Io`] if the write fails.
pub fn write_request(writer: &mut impl Write, request: &Request) -> Result<(), WireError> {
    writer.write_all(&encode_request(request))?;
    Ok(())
}

/// Writes one response frame as a single `write_all`.
///
/// # Errors
///
/// Returns [`WireError::Io`] if the write fails.
pub fn write_response(writer: &mut impl Write, response: &Response) -> Result<(), WireError> {
    writer.write_all(&encode_response(response))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::generate;

    fn roundtrip_request(request: Request) {
        let bytes = encode_request(&request);
        let decoded = read_request(&mut bytes.as_slice())
            .expect("decodes")
            .expect("one frame");
        assert_eq!(decoded, request);
    }

    fn roundtrip_response(response: Response) {
        let bytes = encode_response(&response);
        let decoded = read_response(&mut bytes.as_slice())
            .expect("decodes")
            .expect("one frame");
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_round_trip() {
        let graph = generate::complete(5);
        roundtrip_request(Request::Classify {
            model: "mutag".into(),
            deadline: None,
            graph: graph.clone(),
        });
        roundtrip_request(Request::Scores {
            model: "m".into(),
            deadline: Some(Duration::from_micros(1500)),
            graph: generate::path(7),
        });
        roundtrip_request(Request::ClassifyBatch {
            model: "fleet-0".into(),
            deadline: Some(Duration::from_millis(20)),
            graphs: vec![graph, generate::path(3), generate::complete(2)],
        });
        roundtrip_request(Request::ModelInfo {
            model: "info".into(),
        });
        roundtrip_request(Request::Stats);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Class(3));
        roundtrip_response(Response::Scores(vec![0.25, -1.0, f64::MAX, 0.0]));
        roundtrip_response(Response::Classes(vec![0, 1, 2, 1]));
        roundtrip_response(Response::Info(ModelInfo {
            dim: 10_000,
            num_classes: 2,
            version: 7,
        }));
        roundtrip_response(Response::Stats("# TYPE x counter\nx 1\n".into()));
        roundtrip_response(Response::Error {
            code: ErrorCode::UnknownModel,
            message: "no model `x`".into(),
        });
    }

    #[test]
    fn zero_deadline_survives_the_wire() {
        // Duration::ZERO means "already expired", which must not decode
        // back as "no deadline".
        let bytes = encode_request(&Request::Classify {
            model: "m".into(),
            deadline: Some(Duration::ZERO),
            graph: generate::path(2),
        });
        match read_request(&mut bytes.as_slice()).expect("decodes") {
            Some(Request::Classify { deadline, .. }) => {
                assert_eq!(deadline, Some(Duration::from_micros(1)));
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        assert_eq!(read_request(&mut [].as_slice()).expect("clean eof"), None);
        let bytes = encode_request(&Request::Stats);
        for cut in 1..bytes.len() {
            let err = read_request(&mut &bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(err, WireError::Malformed { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn header_bounds_are_enforced_before_allocation() {
        let mut bytes = encode_request(&Request::Stats);
        bytes[0] = b'X';
        assert_eq!(
            read_request(&mut bytes.as_slice()).unwrap_err(),
            WireError::BadMagic
        );

        let mut bytes = encode_request(&Request::Stats);
        bytes[4] = 9;
        assert_eq!(
            read_request(&mut bytes.as_slice()).unwrap_err(),
            WireError::UnsupportedVersion { found: 9 }
        );

        let mut bytes = encode_request(&Request::Stats);
        bytes[5] = 0x60;
        assert_eq!(
            read_request(&mut bytes.as_slice()).unwrap_err(),
            WireError::UnknownType { found: 0x60 }
        );

        // A header lying about an enormous payload is rejected without
        // the body ever being read (or allocated).
        let mut bytes = encode_request(&Request::Stats);
        bytes[16..20].copy_from_slice(&(u32::MAX).to_le_bytes());
        match read_request(&mut bytes.as_slice()).unwrap_err() {
            WireError::Oversized { what, .. } => assert_eq!(what, "payload length"),
            other => panic!("unexpected: {other:?}"),
        }

        let mut bytes = encode_request(&Request::Stats);
        bytes[6..8].copy_from_slice(&(u16::MAX).to_le_bytes());
        match read_request(&mut bytes.as_slice()).unwrap_err() {
            WireError::Oversized { what, .. } => assert_eq!(what, "model name length"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn payload_trailing_bytes_are_rejected() {
        let graph = generate::path(4);
        let mut bytes = encode_request(&Request::Classify {
            model: "m".into(),
            deadline: None,
            graph,
        });
        // Declare one more payload byte and append it: decodes the
        // graph, then trips the trailing-content check.
        let len = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
        bytes[16..20].copy_from_slice(&(len + 1).to_le_bytes());
        bytes.push(0xAA);
        assert_eq!(
            read_request(&mut bytes.as_slice()).unwrap_err(),
            WireError::Malformed {
                what: "payload continues past the declared content"
            }
        );
    }

    #[test]
    fn graph_with_out_of_range_edge_is_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&9u32.to_le_bytes());
        let bytes = frame_bytes(tag::CLASSIFY, "m", 0, &payload);
        assert_eq!(
            read_request(&mut bytes.as_slice()).unwrap_err(),
            WireError::Malformed {
                what: "graph edge endpoint out of range"
            }
        );
    }

    #[test]
    fn batch_count_is_bounded() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(MAX_BATCH_GRAPHS as u32 + 1).to_le_bytes());
        let bytes = frame_bytes(tag::CLASSIFY_BATCH, "m", 0, &payload);
        match read_request(&mut bytes.as_slice()).unwrap_err() {
            WireError::Oversized { what, .. } => assert_eq!(what, "batch graph count"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn error_codes_round_trip_and_degrade() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::UnknownModel,
            ErrorCode::ShutDown,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::TaskFailed,
            ErrorCode::Poisoned,
            ErrorCode::ConnectionLimit,
            ErrorCode::Draining,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
        }
        assert_eq!(ErrorCode::from_u16(40_000), ErrorCode::Internal);
    }
}
