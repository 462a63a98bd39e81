//! Vertex-label-aware encoding (future-work direction 2 of Section VII).
//!
//! The baseline GraphHD deliberately ignores vertex labels to stay
//! uniform across datasets. Where labels exist, this extension binds each
//! vertex's *rank* hypervector with a *label* hypervector drawn from an
//! independent item memory:
//!
//! ```text
//! Enc_v(v) = H_rank(rank(v)) × H_label(label(v))
//! ```
//!
//! so two vertices must agree on both topology role *and* label to share
//! an encoding.

use crate::encoder::EdgeRecipe;
use crate::{Error, GraphEncoder, GraphHdConfig};
use graphcore::Graph;
use hdvec::{Hypervector, ItemMemory};
use prng::mix_seed;

/// Encoder combining centrality ranks with vertex labels.
///
/// # Examples
///
/// ```
/// use graphhd::labeled::LabeledGraphEncoder;
/// use graphhd::GraphHdConfig;
/// use graphcore::generate;
///
/// let encoder = LabeledGraphEncoder::new(GraphHdConfig::default())?;
/// let graph = generate::cycle(6);
/// let uniform = vec![0u32; 6];
/// let alternating: Vec<u32> = (0..6).map(|v| v % 2).collect();
/// let a = encoder.encode(&graph, &uniform)?;
/// let b = encoder.encode(&graph, &alternating)?;
/// // Same topology, different labels: encodings diverge.
/// assert!(a.cosine(&b) < 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LabeledGraphEncoder {
    inner: GraphEncoder,
    label_memory: ItemMemory,
}

/// Error produced when the label vector does not match the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelCountError {
    /// Vertices in the graph.
    pub vertices: usize,
    /// Labels supplied.
    pub labels: usize,
}

impl core::fmt::Display for LabelCountError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "graph has {} vertices but {} labels were supplied",
            self.vertices, self.labels
        )
    }
}

impl std::error::Error for LabelCountError {}

impl LabeledGraphEncoder {
    /// Creates a label-aware encoder; the label memory uses an
    /// independent stream derived from the base seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDimension`] if `config.dim == 0`.
    pub fn new(config: GraphHdConfig) -> Result<Self, Error> {
        Ok(Self {
            label_memory: ItemMemory::new(config.dim, mix_seed(config.seed, 0x1A_BE1))
                .map_err(Error::from)?,
            inner: GraphEncoder::new(config)?,
        })
    }

    /// The underlying structural encoder.
    #[must_use]
    pub fn structural(&self) -> &GraphEncoder {
        &self.inner
    }

    /// Encodes a graph with per-vertex labels.
    ///
    /// # Errors
    ///
    /// Returns [`LabelCountError`] if `labels.len()` differs from the
    /// vertex count.
    pub fn encode(&self, graph: &Graph, labels: &[u32]) -> Result<Hypervector, LabelCountError> {
        if labels.len() != graph.vertex_count() {
            return Err(LabelCountError {
                vertices: graph.vertex_count(),
                labels: labels.len(),
            });
        }
        let mut encoding = self.inner.blank_encoding();
        let ranks = self.inner.vertex_ranks(graph);
        let vertex = |v: usize| {
            let mut hv = self.inner.rank_hypervector(ranks[v]);
            hv.bind_assign(&self.label_memory.hypervector(u64::from(labels[v])));
            hv
        };
        self.inner.bundle_edges(
            graph,
            EdgeRecipe {
                vertex: &vertex,
                orient_by: None,
                weight_cap: None,
            },
            &mut encoding,
        );
        Ok(encoding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::generate;

    fn encoder() -> LabeledGraphEncoder {
        LabeledGraphEncoder::new(
            GraphHdConfig::builder()
                .dim(4096)
                .build()
                .expect("valid dimension"),
        )
        .expect("valid dimension")
    }

    #[test]
    fn validates_label_count() {
        let e = encoder();
        let g = generate::path(4);
        assert_eq!(
            e.encode(&g, &[0, 1]).unwrap_err(),
            LabelCountError {
                vertices: 4,
                labels: 2
            }
        );
    }

    #[test]
    fn deterministic_and_label_sensitive() {
        let e = encoder();
        let g = generate::cycle(8);
        let l1 = vec![0u32; 8];
        let l2: Vec<u32> = (0..8u32).map(|v| v % 2).collect();
        assert_eq!(e.encode(&g, &l1).unwrap(), e.encode(&g, &l1).unwrap());
        let a = e.encode(&g, &l1).unwrap();
        let b = e.encode(&g, &l2).unwrap();
        assert!(a.cosine(&b) < 0.9, "cosine {}", a.cosine(&b));
    }

    #[test]
    fn uniform_labels_cancel_under_binding() {
        // A known property of multiplicative binding: the edge encoding
        // (r_u × l_u) × (r_v × l_v) reduces to r_u × r_v whenever
        // l_u = l_v, because binding is self-inverse. Hence *uniform*
        // labelings — any label value — collapse to the structural
        // encoding; only label *variation along edges* is visible.
        let e = encoder();
        let g = generate::cycle(6);
        let structural = e.structural().encode(&g);
        let all_zero = e.encode(&g, &[0u32; 6]).unwrap();
        let all_one = e.encode(&g, &[1u32; 6]).unwrap();
        assert_eq!(all_zero, structural);
        assert_eq!(all_one, structural);
    }

    #[test]
    fn separates_label_patterns_in_a_model_setting() {
        // Same topology (cycle), classes differ only in label pattern.
        let e = encoder();
        let g = generate::cycle(10);
        let uniform = vec![0u32; 10];
        let alternating: Vec<u32> = (0..10u32).map(|v| v % 2).collect();
        let enc_uniform = e.encode(&g, &uniform).unwrap();
        let enc_alternating = e.encode(&g, &alternating).unwrap();
        // A nearest-class-vector rule built from one example per class
        // classifies both patterns correctly.
        let query_u = e.encode(&g, &uniform).unwrap();
        assert!(query_u.cosine(&enc_uniform) > query_u.cosine(&enc_alternating));
    }
}
