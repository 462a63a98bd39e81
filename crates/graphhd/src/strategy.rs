//! The encoder kinds: which variant of the GraphHD recipe a config
//! selects.
//!
//! GraphHD fixes one encoding recipe — PageRank-ranked vertex
//! identifiers, edges bind their endpoints, edge hypervectors bundle into
//! the graph hypervector. The follow-up literature varies one input of
//! that recipe while keeping the bind/permute/bundle substrate: VS-Graph
//! changes the vertex hypervector (similarity rank bound with a
//! similarity level), and CiliaGraph weights each edge's vote in the
//! bundle. [`EncoderKind`] is the closed selection among those variants;
//! [`GraphEncoder`](crate::GraphEncoder) matches on it inside its one
//! edge-bundling loop, and snapshots record it as a tag plus one
//! parameter.

use crate::Error;

/// Which encoding strategy a [`GraphHdConfig`](crate::GraphHdConfig)
/// selects.
///
/// Strategy-specific parameters ride inline so the config stays `Copy`
/// and a snapshot header can record the full encoder identity in two
/// fields (a tag and one parameter).
///
/// # Examples
///
/// ```
/// use graphhd::{EncoderKind, GraphHdConfig};
///
/// // The default is the paper's centrality encoder.
/// assert_eq!(GraphHdConfig::default().encoder, EncoderKind::Centrality);
///
/// // Alternative strategies are selected through the builder, which
/// // validates their parameters.
/// let config = GraphHdConfig::builder()
///     .with_encoder(EncoderKind::VertexSimilarity { levels: 8 })
///     .build()?;
/// assert_eq!(config.encoder.name(), "vertex-similarity");
/// assert!(GraphHdConfig::builder()
///     .with_encoder(EncoderKind::VertexSimilarity { levels: 1 })
///     .build()
///     .is_err());
/// # Ok::<(), graphhd::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncoderKind {
    /// The paper's GraphHD recipe: centrality-ranked vertex identifiers,
    /// unweighted edge bundling. Bit-identical to the pre-strategy
    /// encoder.
    #[default]
    Centrality,
    /// VS-Graph-style encoding: vertices are ranked by neighborhood
    /// similarity ([`graphcore::similarity`]) instead of centrality, and
    /// each vertex identifier is bound with a quantized level
    /// hypervector of its similarity score, so structurally similar
    /// vertices share correlated encodings.
    VertexSimilarity {
        /// Quantization depth of the similarity axis (≥ 2, and at most
        /// `dim / 2 + 1`: past that, consecutive levels are identical).
        levels: u32,
    },
    /// CiliaGraph-style encoding: centrality-ranked identifiers, but
    /// each edge is bundled with an integer weight — one plus its
    /// triangle support (common-neighbor count), capped — so edges
    /// inside clustered regions dominate the majority vote.
    EdgeWeighted {
        /// Upper bound on an edge's bundling weight (≥ 1). A cap of 1
        /// degenerates to unweighted bundling.
        weight_cap: u32,
    },
}

/// Default quantization depth for [`EncoderKind::VertexSimilarity`].
pub const DEFAULT_SIMILARITY_LEVELS: u32 = 16;

/// Default weight cap for [`EncoderKind::EdgeWeighted`].
pub const DEFAULT_WEIGHT_CAP: u32 = 4;

impl EncoderKind {
    /// The vertex-similarity strategy with the default quantization
    /// depth ([`DEFAULT_SIMILARITY_LEVELS`]).
    #[must_use]
    pub fn vertex_similarity() -> Self {
        EncoderKind::VertexSimilarity {
            levels: DEFAULT_SIMILARITY_LEVELS,
        }
    }

    /// The edge-weighted strategy with the default weight cap
    /// ([`DEFAULT_WEIGHT_CAP`]).
    #[must_use]
    pub fn edge_weighted() -> Self {
        EncoderKind::EdgeWeighted {
            weight_cap: DEFAULT_WEIGHT_CAP,
        }
    }

    /// Human-readable strategy name for experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EncoderKind::Centrality => "centrality",
            EncoderKind::VertexSimilarity { .. } => "vertex-similarity",
            EncoderKind::EdgeWeighted { .. } => "edge-weighted",
        }
    }

    /// Validates the strategy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidEncoderConfig`] if the vertex-similarity
    /// depth is below 2 or the edge-weight cap is 0.
    pub fn validate(&self) -> Result<(), Error> {
        match self {
            EncoderKind::Centrality => Ok(()),
            EncoderKind::VertexSimilarity { levels } if *levels < 2 => {
                Err(Error::InvalidEncoderConfig {
                    what: "vertex-similarity levels must be at least 2",
                })
            }
            EncoderKind::VertexSimilarity { .. } => Ok(()),
            EncoderKind::EdgeWeighted { weight_cap } if *weight_cap == 0 => {
                Err(Error::InvalidEncoderConfig {
                    what: "edge weight cap must be positive",
                })
            }
            EncoderKind::EdgeWeighted { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> [EncoderKind; 3] {
        [
            EncoderKind::Centrality,
            EncoderKind::vertex_similarity(),
            EncoderKind::edge_weighted(),
        ]
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let names: Vec<_> = all_kinds().iter().map(|k| k.name()).collect();
        assert_eq!(names, ["centrality", "vertex-similarity", "edge-weighted"]);
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        assert_eq!(
            EncoderKind::VertexSimilarity { levels: 1 }
                .validate()
                .unwrap_err(),
            Error::InvalidEncoderConfig {
                what: "vertex-similarity levels must be at least 2"
            }
        );
        assert_eq!(
            EncoderKind::EdgeWeighted { weight_cap: 0 }
                .validate()
                .unwrap_err(),
            Error::InvalidEncoderConfig {
                what: "edge weight cap must be positive"
            }
        );
        for kind in all_kinds() {
            assert!(kind.validate().is_ok(), "{kind:?}");
        }
    }
}
