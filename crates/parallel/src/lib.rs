//! **parallel** — the suite's persistent thread-pool runtime.
//!
//! GraphHD's pipeline is embarrassingly parallel: encodings of different
//! graphs are independent, Gram-matrix cells are independent, and
//! cross-validation folds own their classifiers. Before this crate, the
//! two places that exploited that (the batch encoder and the WL Gram
//! matrix) each hand-rolled `std::thread::scope` with static round-robin
//! dealing, which load-imbalances badly on skewed graph sizes. This crate
//! replaces both with one shared substrate:
//!
//! - [`Pool`] — a persistent pool of workers behind one lock and one
//!   condvar. A region is cut into up to four chunks per thread; the
//!   submitter claims its own region's chunks first, idle threads claim
//!   the next chunk of the oldest open region, so a slow chunk never
//!   holds back the rest. [`Pool::with_threads`] pins an exact
//!   parallelism degree for deterministic benchmarking;
//!   [`Pool::global`] is the process-wide default, sized by the
//!   `GRAPHHD_THREADS` environment variable or the machine.
//! - [`Pool::par_map`] / [`Pool::par_chunks_mut`] — data-parallel
//!   operations on top of the chunked [`Pool::par_for_ranges`] primitive,
//!   whose results are **bit-identical to the serial evaluation at every
//!   thread count** (see each method's contract). Determinism is
//!   structural: results are keyed by input index and re-assembled in
//!   input order.
//! - [`PoolHandle`] — how the graph encoder selects between the global
//!   pool and an explicitly owned one.
//! - [`Pool::stats`] — lock-free scheduling telemetry (chunks executed,
//!   steals, region timings, per-worker utilization), registrable into
//!   a [`telemetry::Registry`] via [`Pool::register_metrics`]. A steal
//!   is a chunk run by a thread other than its region's submitter.
//!
//! The crate depends only on the workspace's zero-dep `telemetry` and
//! `faultpoint` crates and has exactly one `unsafe` block: the
//! lifetime erasure that lets persistent workers run borrowed region
//! closures (see `Pool::run_region` internals). Its soundness rests on
//! the submitting call blocking until every chunk has completed.
//!
//! # Examples
//!
//! ```
//! use parallel::Pool;
//!
//! let pool = Pool::with_threads(4);
//! let data: Vec<u64> = (0..1000).collect();
//! let squares = pool.par_map(&data, |&x| x * x);
//! assert_eq!(squares, data.iter().map(|&x| x * x).collect::<Vec<_>>());
//! ```

// Unsafe code is allowed only in vetted leaf modules, and even
// there every unsafe operation inside an `unsafe fn` must sit in
// an explicit `unsafe {}` block with its own `// SAFETY:` record.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod model;
mod ops;
mod pool;

pub use pool::{default_threads, Pool, PoolHandle, PoolStats, WorkerStats, THREADS_ENV};
