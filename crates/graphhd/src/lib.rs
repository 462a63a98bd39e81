//! **GraphHD** — graph classification with hyperdimensional computing.
//!
//! This crate is the primary contribution of the reproduced paper (Nunes,
//! Heddes, Givargis, Nicolau, Veidenbaum: *GraphHD: Efficient graph
//! classification using hyperdimensional computing*, DATE 2022). The
//! pipeline, following Section IV:
//!
//! 1. **Vertex encoding** — vertices are ranked by PageRank centrality;
//!    vertices with the same centrality rank (across different graphs!)
//!    share a random basis hypervector, giving a topology-derived symbol
//!    correspondence between graphs.
//! 2. **Edge encoding** — each edge binds its endpoint hypervectors:
//!    `Enc_e((u, v)) = Enc_v(u) × Enc_v(v)`.
//! 3. **Graph encoding** — all edge hypervectors of a graph are bundled
//!    (majority vote) into the graph hypervector.
//! 4. **Training** (Algorithm 1) — the hypervectors of each class are
//!    bundled into a class vector.
//! 5. **Inference** — a query graph is encoded with the same function and
//!    assigned the class of the most cosine-similar class vector.
//!
//! Beyond the baseline, the crate implements the paper's future-work
//! directions (Section VII): [`retrain`](model::GraphHdModel::retrain)ing,
//! [`prototypes`] (multiple class-vectors per class), and
//! [`GraphEncoder::encode_labeled`] (vertex-label-aware encoding), plus
//! [`noise`] utilities backing the robustness claims of Sections I–II.
//! The encoding recipe is selected by [`EncoderKind`] on the config
//! builder: the paper's centrality recipe, or the VS-Graph-style
//! vertex-similarity and CiliaGraph-style edge-weighted variants.
//! [`GraphEncoder`] matches on the kind and runs every variant through
//! one edge-bundling loop; the kinds differ only in the vertex
//! hypervector, the orientation of the edge bind, and the edge's vote
//! weight.
//!
//! # Examples
//!
//! ```
//! use graphhd::{GraphHdConfig, GraphHdModel};
//! use graphcore::generate;
//!
//! // Tell dense graphs from sparse ones.
//! let graphs: Vec<_> = (5..15)
//!     .flat_map(|n| [generate::complete(n), generate::path(n)])
//!     .collect();
//! let labels: Vec<u32> = (0..graphs.len()).map(|i| (i % 2) as u32).collect();
//!
//! let model = GraphHdModel::fit(GraphHdConfig::default(), &graphs, &labels, 2)?;
//! let dense = generate::complete(9);
//! assert_eq!(model.predict(&dense), 0);
//! # Ok::<(), graphhd::Error>(())
//! ```
//!
//! # Serving & model artifacts
//!
//! A trained [`GraphHdModel`] is a deployable artifact:
//! [`save`](GraphHdModel::save) writes a versioned, endian-stable binary
//! snapshot (format documented on [`GraphHdModel::load`]) that any
//! process — on any machine — reloads into a bit-identical model. The
//! `engine` crate builds the long-lived serving front door on top.
//! All construction goes through the one fallible surface of
//! [`Error`], via [`GraphHdConfig::builder`].

mod classifier;
mod config;
mod encoder;
mod error;
pub mod metrics;
mod model;
pub mod noise;
pub mod prototypes;
mod snapshot;
pub mod strategy;

pub use classifier::{validate_fit_inputs, GraphClassifier, GraphHdClassifier};
pub use config::{CentralityKind, GraphHdConfig, GraphHdConfigBuilder};
pub use encoder::GraphEncoder;
pub use error::{Error, SnapshotError};
pub use model::{GraphHdModel, RetrainReport};
pub use snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use strategy::EncoderKind;
