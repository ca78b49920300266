//! Error type shared across the planning crate.

use std::fmt;

/// Everything that can go wrong while building a measurement plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A configuration field is out of range.
    InvalidConfig {
        /// Which field was rejected.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// An input slice disagrees with the declared problem size.
    DimensionMismatch {
        /// Which input was rejected.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A confidence score was NaN or infinite.
    NonFiniteConfidence {
        /// Reference slot holding the bad score.
        slot: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidConfig { field, reason } => {
                write!(f, "invalid plan config `{field}`: {reason}")
            }
            PlanError::DimensionMismatch { what, expected, actual } => {
                write!(f, "{what}: expected length {expected}, got {actual}")
            }
            PlanError::NonFiniteConfidence { slot } => {
                write!(f, "confidence for reference slot {slot} is not finite")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PlanError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field_and_the_lengths() {
        let e = PlanError::InvalidConfig { field: "budget", reason: "must be positive".into() };
        assert_eq!(e.to_string(), "invalid plan config `budget`: must be positive");
        let e = PlanError::DimensionMismatch { what: "confidence", expected: 6, actual: 5 };
        assert_eq!(e.to_string(), "confidence: expected length 6, got 5");
        let e = PlanError::NonFiniteConfidence { slot: 2 };
        assert_eq!(e.to_string(), "confidence for reference slot 2 is not finite");
    }
}
