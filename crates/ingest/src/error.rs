//! Error type for the ingestion layer.

use std::fmt;

/// Anything that can go wrong between a raw sample and an assembled vector.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// A configuration field is out of range.
    InvalidConfig {
        /// Which field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// An assembly fallback vector of the wrong length was supplied.
    FallbackLength {
        /// Expected length (the link count).
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// The bounded queue was closed before the call.
    QueueClosed,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::InvalidConfig { field, reason } => {
                write!(f, "invalid ingest config {field}: {reason}")
            }
            IngestError::FallbackLength { expected, actual } => {
                write!(f, "assembly fallback has length {actual}, need {expected} (one per link)")
            }
            IngestError::QueueClosed => write!(f, "ingest queue is closed"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Result alias for the ingestion layer.
pub type Result<T> = std::result::Result<T, IngestError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_explains_each_kind() {
        let e = IngestError::FallbackLength { expected: 8, actual: 3 };
        assert_eq!(e.to_string(), "assembly fallback has length 3, need 8 (one per link)");
        let e = IngestError::InvalidConfig { field: "window_s", reason: "negative".into() };
        assert_eq!(e.to_string(), "invalid ingest config window_s: negative");
        assert_eq!(IngestError::QueueClosed.to_string(), "ingest queue is closed");
    }
}
