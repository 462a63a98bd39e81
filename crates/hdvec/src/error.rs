//! Error types for hypervector construction and bundling.

/// Errors produced by fallible `hdvec` operations.
///
/// Binary operations between hypervectors of mismatched dimensions are
/// programming errors and panic instead (documented on each method); this
/// enum covers failures of *construction* and of dataset-driven bundling,
/// where the inputs may legitimately be empty or inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HdvError {
    /// A hypervector or accumulator was requested with dimension zero.
    ZeroDimension,
    /// Two collections of hypervectors disagreed on dimensionality.
    DimensionMismatch {
        /// Dimension of the first operand.
        left: usize,
        /// Dimension of the offending operand.
        right: usize,
    },
    /// A component value other than +1/−1 was supplied.
    InvalidComponent {
        /// Index of the offending component.
        index: usize,
        /// The value found there.
        value: i8,
    },
    /// A bundle of zero hypervectors was requested.
    EmptyBundle,
    /// A level memory was requested with fewer than two levels.
    TooFewLevels {
        /// The level count supplied.
        levels: usize,
    },
    /// Packed words did not number `dim.div_ceil(64)`.
    WordCount {
        /// Words a hypervector of the requested dimension has.
        expected: usize,
        /// Words supplied.
        found: usize,
    },
    /// Packed words set a bit beyond the dimension in the last word.
    TailBits,
}

impl core::fmt::Display for HdvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HdvError::ZeroDimension => write!(f, "hypervector dimension must be positive"),
            HdvError::DimensionMismatch { left, right } => {
                write!(f, "hypervector dimensions differ: {left} vs {right}")
            }
            HdvError::InvalidComponent { index, value } => {
                write!(f, "component {index} has value {value}, expected +1 or -1")
            }
            HdvError::EmptyBundle => write!(f, "cannot bundle zero hypervectors"),
            HdvError::TooFewLevels { levels } => {
                write!(f, "level memory needs at least 2 levels, got {levels}")
            }
            HdvError::WordCount { expected, found } => {
                write!(f, "expected {expected} packed words, got {found}")
            }
            HdvError::TailBits => write!(f, "packed words set bits beyond the dimension"),
        }
    }
}

impl std::error::Error for HdvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            HdvError::ZeroDimension.to_string(),
            HdvError::DimensionMismatch { left: 3, right: 5 }.to_string(),
            HdvError::InvalidComponent { index: 2, value: 0 }.to_string(),
            HdvError::EmptyBundle.to_string(),
            HdvError::TooFewLevels { levels: 1 }.to_string(),
            HdvError::WordCount {
                expected: 2,
                found: 1,
            }
            .to_string(),
            HdvError::TailBits.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<HdvError>();
    }
}
