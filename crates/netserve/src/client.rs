//! A small blocking client for the wire protocol: one connection, one
//! in-flight request at a time (the protocol answers frames in order,
//! so callers wanting pipelining open more connections — they are
//! cheap on both sides). Responses are read through one buffer per
//! connection, so a small response costs one `recv`.

use crate::error::NetError;
use crate::wire::{self, ModelInfo, Request, Response};
use graphcore::Graph;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking connection to a [`Server`](crate::Server).
#[derive(Debug)]
pub struct Client {
    /// Reads responses; requests are written through `get_mut()`.
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// One request/response exchange. A typed error frame becomes
    /// [`NetError::Remote`]; a close where a response was due becomes
    /// [`NetError::Disconnected`].
    fn exchange(&mut self, request: &Request) -> Result<Response, NetError> {
        wire::write_request(self.reader.get_mut(), request)?;
        match wire::read_response(&mut self.reader)? {
            None => Err(NetError::Disconnected),
            Some(Response::Error { code, message }) => Err(NetError::Remote { code, message }),
            Some(response) => Ok(response),
        }
    }

    /// Classifies `graph` against the named model.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for typed server errors (unknown model,
    /// overload, deadline, …), [`NetError::Io`]/[`NetError::Wire`] for
    /// transport failures.
    pub fn classify(&mut self, model: &str, graph: &Graph) -> Result<u32, NetError> {
        self.classify_opt(model, graph, None)
    }

    /// [`classify`](Self::classify) with a latency budget carried in
    /// the frame header; the server enforces it with the engine's
    /// deadline machinery.
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify); an exceeded budget is
    /// [`NetError::Remote`] with
    /// [`ErrorCode::DeadlineExceeded`](crate::ErrorCode::DeadlineExceeded).
    pub fn classify_within(
        &mut self,
        model: &str,
        graph: &Graph,
        budget: Duration,
    ) -> Result<u32, NetError> {
        self.classify_opt(model, graph, Some(budget))
    }

    fn classify_opt(
        &mut self,
        model: &str,
        graph: &Graph,
        deadline: Option<Duration>,
    ) -> Result<u32, NetError> {
        match self.exchange(&Request::Classify {
            model: model.to_string(),
            deadline,
            graph: graph.clone(),
        })? {
            Response::Class(class) => Ok(class),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Per-class cosine scores for `graph` against the named model.
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify).
    pub fn scores(&mut self, model: &str, graph: &Graph) -> Result<Vec<f64>, NetError> {
        self.scores_opt(model, graph, None)
    }

    /// [`scores`](Self::scores) with a latency budget.
    ///
    /// # Errors
    ///
    /// As [`classify_within`](Self::classify_within).
    pub fn scores_within(
        &mut self,
        model: &str,
        graph: &Graph,
        budget: Duration,
    ) -> Result<Vec<f64>, NetError> {
        self.scores_opt(model, graph, Some(budget))
    }

    fn scores_opt(
        &mut self,
        model: &str,
        graph: &Graph,
        deadline: Option<Duration>,
    ) -> Result<Vec<f64>, NetError> {
        match self.exchange(&Request::Scores {
            model: model.to_string(),
            deadline,
            graph: graph.clone(),
        })? {
            Response::Scores(scores) => Ok(scores),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Classifies a batch in one frame, answered in order. At most
    /// [`wire::MAX_BATCH_GRAPHS`] graphs; an optional budget covers
    /// the whole batch.
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify); the server answers the first
    /// engine failure for the whole batch.
    pub fn classify_batch(
        &mut self,
        model: &str,
        graphs: &[Graph],
        budget: Option<Duration>,
    ) -> Result<Vec<u32>, NetError> {
        match self.exchange(&Request::ClassifyBatch {
            model: model.to_string(),
            deadline: budget,
            graphs: graphs.to_vec(),
        })? {
            Response::Classes(classes) => Ok(classes),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Metadata of the named model: dimensionality, class count, and
    /// the snapshot version currently being served (watch this change
    /// across a hot-swap).
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify).
    pub fn model_info(&mut self, model: &str) -> Result<ModelInfo, NetError> {
        match self.exchange(&Request::ModelInfo {
            model: model.to_string(),
        })? {
            Response::Info(info) => Ok(info),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// The server's merged Prometheus exposition: its `net_*` counters
    /// plus every hosted engine's registry labeled `model="name"`.
    ///
    /// # Errors
    ///
    /// As [`classify`](Self::classify).
    pub fn stats(&mut self) -> Result<String, NetError> {
        match self.exchange(&Request::Stats)? {
            Response::Stats(text) => Ok(text),
            _ => Err(NetError::UnexpectedResponse),
        }
    }
}
