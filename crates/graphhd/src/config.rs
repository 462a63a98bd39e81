//! GraphHD configuration and its fluent builder.

use crate::{EncoderKind, Error};
use graphcore::PageRankConfig;
use hdvec::TieBreak;

/// Which centrality metric supplies the vertex identifiers (ranks).
///
/// The paper proposes PageRank (Section IV-C); the alternatives exist for
/// the suite's ablation experiment A1, which quantifies how much the
/// choice matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CentralityKind {
    /// PageRank centrality — the paper's choice.
    #[default]
    PageRank,
    /// Degree centrality — a cheaper structural identifier.
    Degree,
    /// Raw vertex ids — *no* topological correspondence between graphs;
    /// the "naive random hypervector per vertex" strawman the paper argues
    /// against in Section IV-C.
    VertexId,
}

impl CentralityKind {
    /// Human-readable name for experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CentralityKind::PageRank => "pagerank",
            CentralityKind::Degree => "degree",
            CentralityKind::VertexId => "vertex-id",
        }
    }
}

/// Configuration of the GraphHD pipeline. The defaults reproduce the
/// paper's experimental setup (Section V): 10,000-dimensional bipolar
/// hypervectors and 10 PageRank iterations.
///
/// Non-default configurations are built through the validating fluent
/// [`builder`](Self::builder); the struct fields stay public for
/// inspection and for struct-update syntax in existing code.
///
/// # Examples
///
/// ```
/// use graphhd::GraphHdConfig;
///
/// let config = GraphHdConfig::default();
/// assert_eq!(config.dim, 10_000);
/// assert_eq!(config.pagerank.iterations, 10);
///
/// let ablation = GraphHdConfig::builder().dim(4096).seed(7).build()?;
/// assert_eq!(ablation.dim, 4096);
/// # Ok::<(), graphhd::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphHdConfig {
    /// Hypervector dimensionality d (paper: 10,000).
    pub dim: usize,
    /// PageRank parameters (paper: 10 iterations, standard damping).
    pub pagerank: PageRankConfig,
    /// The centrality metric used for vertex identifiers.
    pub centrality: CentralityKind,
    /// The encoder kind (paper default: [`EncoderKind::Centrality`];
    /// see [`crate::strategy`] for the alternatives).
    pub encoder: EncoderKind,
    /// Tie-break policy for bundling majorities.
    pub tie_break: TieBreak,
    /// Seed for the basis item memory (and derived randomness).
    pub seed: u64,
}

impl Default for GraphHdConfig {
    fn default() -> Self {
        Self {
            dim: hdvec::DEFAULT_DIM,
            pagerank: PageRankConfig::default(),
            centrality: CentralityKind::PageRank,
            encoder: EncoderKind::Centrality,
            tie_break: TieBreak::default(),
            seed: 0x6_12A,
        }
    }
}

/// Upper bound, in bytes, on the vertex-similarity level table: `levels`
/// packed hypervectors of `⌈dim/64⌉` words each, all built when the
/// encoder is. The depth rule alone lets a forged snapshot header ask for
/// ~`dim² / 16` bytes (64 GiB at `dim = 2^20`); at the paper's
/// d = 10,000 that rule already caps the table at 6.3 MB, far below this.
pub(crate) const MAX_LEVEL_TABLE_BYTES: usize = 64 << 20;

impl GraphHdConfig {
    /// Starts a fluent, validating builder from the paper defaults — the
    /// one construction surface shared by ablation binaries, tests and
    /// the models the serving engine is handed.
    pub fn builder() -> GraphHdConfigBuilder {
        GraphHdConfigBuilder {
            config: Self::default(),
        }
    }

    /// The checks behind [`GraphHdConfigBuilder::build`], also applied
    /// by [`GraphEncoder::new`](crate::GraphEncoder::new) because the
    /// fields are public.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        if self.dim == 0 {
            return Err(Error::ZeroDimension);
        }
        self.encoder.validate()?;
        // Level i flips i·(dim/2)/(levels−1) positions, so past
        // dim/2 + 1 levels consecutive levels are identical — and the
        // level memory, which holds every level, only grows.
        if let EncoderKind::VertexSimilarity { levels } = self.encoder {
            if levels as usize - 1 > self.dim / 2 {
                return Err(Error::InvalidEncoderConfig {
                    what: "vertex-similarity levels must not exceed dim / 2 + 1",
                });
            }
            let table_bytes = (levels as usize).saturating_mul(self.dim.div_ceil(64) * 8);
            if table_bytes > MAX_LEVEL_TABLE_BYTES {
                return Err(Error::InvalidEncoderConfig {
                    what: "vertex-similarity level table must not exceed 64 MiB",
                });
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`GraphHdConfig`], created by
/// [`GraphHdConfig::builder`]. Every setter returns `self`;
/// [`build`](Self::build) validates and produces the configuration.
///
/// # Examples
///
/// ```
/// use graphhd::{CentralityKind, GraphHdConfig};
///
/// let config = GraphHdConfig::builder()
///     .dim(2048)
///     .centrality(CentralityKind::Degree)
///     .seed(99)
///     .build()?;
/// assert_eq!(config.dim, 2048);
/// assert_eq!(config.centrality, CentralityKind::Degree);
///
/// // Invalid configurations are rejected at build time, not deep inside
/// // a later constructor.
/// assert!(GraphHdConfig::builder().dim(0).build().is_err());
/// # Ok::<(), graphhd::Error>(())
/// ```
#[derive(Debug, Clone, Copy)]
#[must_use = "a builder does nothing until `build()` is called"]
pub struct GraphHdConfigBuilder {
    config: GraphHdConfig,
}

impl GraphHdConfigBuilder {
    /// Sets the hypervector dimensionality d (paper: 10,000).
    pub fn dim(mut self, dim: usize) -> Self {
        self.config.dim = dim;
        self
    }

    /// Sets the PageRank parameters (paper: 10 iterations, damping 0.85).
    pub fn pagerank(mut self, pagerank: PageRankConfig) -> Self {
        self.config.pagerank = pagerank;
        self
    }

    /// Sets the centrality metric supplying vertex identifiers.
    pub fn centrality(mut self, centrality: CentralityKind) -> Self {
        self.config.centrality = centrality;
        self
    }

    /// Selects the encoding strategy (see [`crate::strategy`] for the
    /// available kinds). Strategy parameters are validated by
    /// [`build`](Self::build).
    pub fn with_encoder(mut self, encoder: EncoderKind) -> Self {
        self.config.encoder = encoder;
        self
    }

    /// Sets the tie-break policy for bundling majorities.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.config.tie_break = tie_break;
        self
    }

    /// Sets the seed of the basis item memory (and derived randomness).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDimension`] if the dimension is zero and
    /// [`Error::InvalidEncoderConfig`] if the selected encoder strategy
    /// has degenerate parameters, including more vertex-similarity
    /// levels than `dim / 2 + 1` or a level table above 64 MiB.
    pub fn build(self) -> Result<GraphHdConfig, Error> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_v() {
        let c = GraphHdConfig::default();
        assert_eq!(c.dim, 10_000);
        assert_eq!(c.pagerank.iterations, 10);
        assert!((c.pagerank.damping - 0.85).abs() < 1e-12);
        assert_eq!(c.centrality, CentralityKind::PageRank);
    }

    #[test]
    fn builder_overrides_single_fields() {
        let config = GraphHdConfig::builder().dim(512).build().expect("valid");
        assert_eq!(config.dim, 512);
        assert_eq!(config.seed, GraphHdConfig::default().seed);
        assert_eq!(
            GraphHdConfig::builder()
                .centrality(CentralityKind::Degree)
                .build()
                .expect("valid")
                .centrality,
            CentralityKind::Degree
        );
        assert_eq!(
            GraphHdConfig::builder()
                .seed(9)
                .build()
                .expect("valid")
                .seed,
            9
        );
    }

    #[test]
    fn builder_rejects_zero_dimension() {
        assert_eq!(
            GraphHdConfig::builder().dim(0).build().unwrap_err(),
            Error::ZeroDimension
        );
    }

    #[test]
    fn builder_sets_pagerank_and_tie_break() {
        let config = GraphHdConfig::builder()
            .pagerank(PageRankConfig {
                damping: 0.9,
                iterations: 25,
            })
            .tie_break(TieBreak::Positive)
            .build()
            .expect("valid");
        assert_eq!(config.pagerank.iterations, 25);
        assert_eq!(config.tie_break, TieBreak::Positive);
    }

    #[test]
    fn builder_selects_and_validates_encoder_strategies() {
        let config = GraphHdConfig::builder()
            .with_encoder(EncoderKind::VertexSimilarity { levels: 8 })
            .build()
            .expect("valid");
        assert_eq!(config.encoder, EncoderKind::VertexSimilarity { levels: 8 });
        // Default configs keep the paper's recipe.
        assert_eq!(GraphHdConfig::default().encoder, EncoderKind::Centrality);
        // Degenerate strategy parameters are rejected at build time.
        assert!(matches!(
            GraphHdConfig::builder()
                .with_encoder(EncoderKind::VertexSimilarity { levels: 0 })
                .build()
                .unwrap_err(),
            Error::InvalidEncoderConfig { .. }
        ));
        assert!(matches!(
            GraphHdConfig::builder()
                .with_encoder(EncoderKind::EdgeWeighted { weight_cap: 0 })
                .build()
                .unwrap_err(),
            Error::InvalidEncoderConfig { .. }
        ));
        // dim 64 flips at most 32 positions: 33 distinct levels.
        let with_levels = |levels| {
            GraphHdConfig::builder()
                .dim(64)
                .with_encoder(EncoderKind::VertexSimilarity { levels })
                .build()
        };
        assert!(with_levels(33).is_ok());
        for levels in [34, u32::MAX] {
            assert_eq!(
                with_levels(levels).unwrap_err(),
                Error::InvalidEncoderConfig {
                    what: "vertex-similarity levels must not exceed dim / 2 + 1"
                }
            );
        }
        // At dim 2^20 the depth rule allows 2^19 + 1 levels, a 64 GiB
        // table; the byte bound refuses it while shallow tables build.
        let wide = |levels| {
            GraphHdConfig::builder()
                .dim(1 << 20)
                .with_encoder(EncoderKind::VertexSimilarity { levels })
                .build()
        };
        assert!(wide(16).is_ok());
        assert_eq!(
            wide((1 << 19) + 1).unwrap_err(),
            Error::InvalidEncoderConfig {
                what: "vertex-similarity level table must not exceed 64 MiB"
            }
        );
    }

    #[test]
    fn centrality_names_are_distinct() {
        let names = [
            CentralityKind::PageRank.name(),
            CentralityKind::Degree.name(),
            CentralityKind::VertexId.name(),
        ];
        assert_eq!(
            names.len(),
            names.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }
}
