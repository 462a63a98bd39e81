//! Network serving tier for the GraphHD engine: a length-prefixed
//! binary wire protocol over std TCP, a thread-per-connection server,
//! a multi-model fleet registry, and zero-downtime hot-swap.
//!
//! This crate turns the process-local [`engine::Engine`] queue into a
//! server: many named models hosted in one process
//! ([`ModelRegistry`]), routed per-request by the model name carried
//! in each frame header, each behind an `ArcSwap`-style handle
//! ([`Swap`]) so a newly trained snapshot version (written with
//! `GraphHdModel::save_version`) replaces a serving model with zero
//! downtime — in-flight requests finish on the engine they started
//! on. Like the rest of the workspace it has **no dependencies
//! outside std** and no `unsafe`.
//!
//! The moving parts:
//!
//! - [`wire`]: the versioned frame protocol (grammar and error codes
//!   in `docs/PROTOCOL.md`), with strict bounded-read decoding that
//!   rejects oversized or malformed frames before allocating.
//! - [`Server`] / [`ServerBuilder`]: thread-per-connection TCP server
//!   with a connection-slot limit, graceful drain on shutdown, and
//!   `net.accept` / `net.read` / `net.write` fault points for chaos
//!   coverage (`docs/RESILIENCE.md`).
//! - [`ModelRegistry`]: the fleet — insert engines directly or from
//!   versioned snapshot directories, hot-swap with
//!   [`ModelRegistry::reload`], poll with
//!   [`ModelRegistry::spawn_watcher`], and scrape one merged
//!   Prometheus exposition with `model="name"` labels.
//! - [`Client`]: a small blocking client (connect, classify, scores,
//!   batched submit, model info, stats) speaking the same protocol.
//!
//! Per-request deadlines ride in the frame header and map onto the
//! engine's `_within` deadline machinery, so the `Block`/`Shed`/
//! `Timeout` overload policies configured per engine apply unchanged
//! to network traffic. Serving metrics (`net_*`) are registered in the
//! engines' telemetry registries and catalogued in `docs/TELEMETRY.md`.
//!
//! # Example
//!
//! ```
//! use graphcore::generate;
//! use std::sync::Arc;
//!
//! // Train a tiny model and host it.
//! let graphs = vec![generate::complete(6), generate::path(6)];
//! let config = graphhd::GraphHdConfig::builder().dim(512).build().expect("valid dimension");
//! let model = graphhd::GraphHdModel::fit(config, &graphs, &[0, 1], 2).expect("fit");
//! let engine = engine::Engine::builder()
//!     .threads(1)
//!     .from_model(model)
//!     .expect("engine");
//! let registry = Arc::new(netserve::ModelRegistry::new());
//! registry.insert("demo", engine).expect("insert");
//!
//! // Serve it and talk to it over loopback TCP.
//! let server = netserve::ServerBuilder::new(Arc::clone(&registry))
//!     .serve()
//!     .expect("serve");
//! let mut client = netserve::Client::connect(server.local_addr()).expect("connect");
//! let class = client.classify("demo", &generate::complete(6)).expect("classify");
//! assert!(class < 2);
//! server.shutdown();
//! ```

pub mod wire;

mod client;
mod error;
mod metrics;
mod registry;
mod server;

pub use client::Client;
pub use error::NetError;
pub use registry::{ModelRegistry, Swap, WatcherGuard};
pub use server::{Server, ServerBuilder, ServerStats};
pub use wire::{ErrorCode, ModelInfo, WireError};
