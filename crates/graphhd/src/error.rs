//! The unified fallible surface of the crate.
//!
//! Every constructor and training entry point in `graphhd` (and the
//! serving [`Engine`](https://docs.rs/engine) built on top of it) reports
//! failures through one [`Error`] enum, so callers match on a single type
//! instead of juggling `hdvec`, training, snapshot and queue errors at
//! every crate boundary.

use hdvec::HdvError;

/// Errors produced by the GraphHD construction, training, snapshot and
/// serving surfaces.
///
/// The enum is `#[non_exhaustive]`: downstream matches need a wildcard
/// arm, which lets later PRs add failure modes without a breaking change.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The training set was empty.
    EmptyTrainingSet,
    /// Graph and label counts differ.
    LengthMismatch {
        /// Number of graphs supplied.
        graphs: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A label was `>= num_classes`.
    LabelOutOfRange {
        /// Index of the offending sample.
        index: usize,
        /// The label value.
        label: u32,
        /// Declared class count.
        num_classes: usize,
    },
    /// A labeled encoding got a label count other than the graph's
    /// vertex count.
    LabelCountMismatch {
        /// Vertices in the graph.
        vertices: usize,
        /// Labels supplied.
        labels: usize,
    },
    /// `num_classes` was zero.
    ZeroClasses,
    /// The configured hypervector dimension was zero.
    ZeroDimension,
    /// A multi-prototype model was configured with `max_prototypes == 0`.
    ZeroPrototypes,
    /// An encoder strategy was configured with invalid parameters (e.g.
    /// a vertex-similarity quantization depth below 2).
    InvalidEncoderConfig {
        /// Which parameter was invalid.
        what: &'static str,
    },
    /// A serving queue was configured with zero capacity.
    ZeroQueueCapacity,
    /// A serving engine was configured with a zero batch limit.
    ZeroBatch,
    /// A hypervector-substrate failure that has no dedicated variant.
    /// (`HdvError::ZeroDimension` maps to [`Error::ZeroDimension`]
    /// instead, so dimension checks surface uniformly.)
    Hdv(HdvError),
    /// A model snapshot could not be decoded.
    Snapshot(SnapshotError),
    /// An I/O failure while reading or writing a snapshot.
    Io {
        /// The [`std::io::ErrorKind`] of the underlying failure.
        kind: std::io::ErrorKind,
        /// The underlying error, rendered.
        message: String,
    },
    /// A dataset-layer failure (fold splitting, dataset construction)
    /// routed through the unified surface via `From` impls defined next
    /// to the source types.
    Data {
        /// Which dataset operation failed (e.g. `"stratified k-fold"`).
        context: &'static str,
        /// The underlying error, rendered.
        message: String,
    },
    /// A request was submitted to an engine that has shut down.
    ShutDown,
    /// A serving request was dropped because its batch panicked.
    TaskFailed,
    /// A serving request's deadline passed before it was served —
    /// either already expired at admission, or aged out while queued
    /// (re-checked at dispatch so stale work never reaches the pool).
    DeadlineExceeded,
    /// A serving request was refused at admission because the queue was
    /// full under a shed or bounded-wait overload policy.
    Overloaded,
    /// An internal invariant did not hold. Seeing this variant is a bug
    /// in this crate, not a caller mistake; it exists so invariant
    /// violations surface as request failures instead of process aborts.
    Internal {
        /// Which invariant was violated.
        what: &'static str,
    },
}

/// Ways a model snapshot can fail to decode (see
/// [`GraphHdModel::load`](crate::GraphHdModel::load) for the format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The file does not start with the GraphHD snapshot magic.
    BadMagic,
    /// The snapshot declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The stream ended before the declared payload was complete.
    Truncated,
    /// The stream continued past the declared payload.
    TrailingBytes,
    /// A header or payload field failed validation.
    Corrupt {
        /// Which field was invalid.
        what: &'static str,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a GraphHD snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot format version {found}")
            }
            SnapshotError::Truncated => write!(f, "snapshot ends before the declared payload"),
            SnapshotError::TrailingBytes => {
                write!(f, "snapshot continues past the declared payload")
            }
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::EmptyTrainingSet => write!(f, "cannot train on zero graphs"),
            Error::LengthMismatch { graphs, labels } => {
                write!(f, "{graphs} graphs but {labels} labels")
            }
            Error::LabelOutOfRange {
                index,
                label,
                num_classes,
            } => write!(
                f,
                "label {label} at index {index} out of range for {num_classes} classes"
            ),
            Error::LabelCountMismatch { vertices, labels } => {
                write!(f, "graph has {vertices} vertices but {labels} labels")
            }
            Error::ZeroClasses => write!(f, "need at least one class"),
            Error::ZeroDimension => write!(f, "hypervector dimension must be positive"),
            Error::ZeroPrototypes => write!(f, "need at least one prototype per class"),
            Error::InvalidEncoderConfig { what } => {
                write!(f, "invalid encoder configuration: {what}")
            }
            Error::ZeroQueueCapacity => write!(f, "request queue capacity must be positive"),
            Error::ZeroBatch => write!(f, "dispatch batch limit must be positive"),
            Error::Hdv(e) => write!(f, "hypervector error: {e}"),
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Error::Io { kind, message } => write!(f, "i/o error ({kind:?}): {message}"),
            Error::Data { context, message } => write!(f, "{context} failed: {message}"),
            Error::ShutDown => write!(f, "engine has shut down"),
            Error::TaskFailed => write!(f, "request batch failed"),
            Error::DeadlineExceeded => write!(f, "request deadline exceeded before service"),
            Error::Overloaded => write!(f, "request shed: queue full under overload policy"),
            Error::Internal { what } => {
                write!(f, "internal invariant violated (library bug): {what}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Hdv(e) => Some(e),
            Error::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HdvError> for Error {
    /// `ZeroDimension` keeps its dedicated variant (the most common
    /// configuration mistake); everything else is wrapped.
    fn from(e: HdvError) -> Self {
        match e {
            HdvError::ZeroDimension => Error::ZeroDimension,
            other => Error::Hdv(other),
        }
    }
}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Self {
        Error::Snapshot(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            Error::EmptyTrainingSet.to_string(),
            Error::LengthMismatch {
                graphs: 1,
                labels: 2,
            }
            .to_string(),
            Error::ZeroClasses.to_string(),
            Error::LabelCountMismatch {
                vertices: 4,
                labels: 2,
            }
            .to_string(),
            Error::ZeroDimension.to_string(),
            Error::ZeroPrototypes.to_string(),
            Error::ZeroQueueCapacity.to_string(),
            Error::InvalidEncoderConfig {
                what: "edge weight cap must be positive",
            }
            .to_string(),
            Error::ShutDown.to_string(),
            Error::Snapshot(SnapshotError::BadMagic).to_string(),
            Error::Data {
                context: "stratified k-fold",
                message: "too few folds".into(),
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            // Suite convention: no leading capitals, no trailing period
            // (counts like "1 graphs ..." may lead with a digit).
            assert!(!m.chars().next().unwrap().is_uppercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn hdv_zero_dimension_maps_to_the_dedicated_variant() {
        assert_eq!(Error::from(HdvError::ZeroDimension), Error::ZeroDimension);
        assert_eq!(
            Error::from(HdvError::EmptyBundle),
            Error::Hdv(HdvError::EmptyBundle)
        );
    }

    #[test]
    fn io_errors_preserve_kind() {
        let e = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "missing"));
        assert!(matches!(
            e,
            Error::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }
        ));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<Error>();
        assert_error::<SnapshotError>();
        // Sources chain to the wrapped substrate errors.
        let e = Error::Hdv(HdvError::EmptyBundle);
        assert!(std::error::Error::source(&e).is_some());
    }
}
