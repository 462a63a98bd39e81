//! # GraphHD reproduction suite
//!
//! An end-to-end, from-scratch Rust reproduction of *GraphHD: Efficient
//! graph classification using hyperdimensional computing* (Nunes, Heddes,
//! Givargis, Nicolau, Veidenbaum — DATE 2022), including every substrate
//! the paper's evaluation depends on.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! - [`parallel`] — the persistent thread pool every hot path
//!   (batch encoding, Gram matrices, training, prediction, CV) runs on;
//! - [`prng`] — deterministic randomness (SplitMix64, xoshiro256++);
//! - [`hdvec`] — bit-packed bipolar hypervectors and the HDC operations;
//! - [`graphcore`] — CSR graphs, random generators, PageRank, TUDataset
//!   I/O;
//! - [`datasets`] — benchmark surrogates, cross-validation, metrics and
//!   the shared classifier harness;
//! - [`wlkernels`] — 1-WL and WL-OA graph kernels;
//! - [`kernelsvm`] — SMO-trained C-SVMs on precomputed kernels;
//! - [`tinynn`] — tape autograd and the GIN-ε / GIN-ε-JK networks;
//! - [`graphhd`] — the paper's contribution plus its future-work
//!   extensions, the unified error surface and model snapshots;
//! - [`baselines`] — the four baselines under the shared harness;
//! - [`engine`] — the serving front door: a long-lived, queue-backed
//!   [`Engine`](engine::Engine) answering classify/score requests;
//! - [`telemetry`] — zero-dependency observability: lock-free counters
//!   and gauges, log-linear histograms, span timers and a
//!   Prometheus/JSON registry, threaded through the engine, the pool
//!   and the model crate;
//! - [`netserve`] — the network serving tier: a length-prefixed binary
//!   wire protocol over std TCP, a thread-per-connection server, a
//!   multi-model fleet registry with zero-downtime hot-swap, and a
//!   small blocking client.
//!
//! See `README.md` for a tour of the workspace, build/test/bench
//! instructions and the crate dependency map.
//!
//! # Examples
//!
//! ```
//! use graphhd_suite::graphhd::{GraphHdConfig, GraphHdModel};
//! use graphhd_suite::graphcore::generate;
//!
//! let graphs = vec![generate::complete(8), generate::path(8)];
//! let model = GraphHdModel::fit(GraphHdConfig::default(), &graphs, &[0, 1], 2)?;
//! assert_eq!(model.predict(&generate::complete(10)), 0);
//! # Ok::<(), graphhd_suite::graphhd::Error>(())
//! ```

pub use baselines;
pub use datasets;
pub use engine;
pub use graphcore;
pub use graphhd;
pub use hdvec;
pub use kernelsvm;
pub use netserve;
pub use parallel;
pub use prng;
pub use telemetry;
pub use tinynn;
pub use wlkernels;
