//! Error types for the ranking data model.

use std::fmt;

/// Errors raised while building candidate databases or manipulating rankings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingError {
    /// An attribute with the same name was registered twice.
    DuplicateAttribute(String),
    /// An attribute was declared with fewer than two values.
    DegenerateAttribute(String),
    /// Two values of the same attribute share a name.
    DuplicateValue {
        /// Attribute whose domain contains the duplicate.
        attribute: String,
        /// The duplicated value name.
        value: String,
    },
    /// A candidate referenced an attribute id that does not exist in the schema.
    UnknownAttribute(usize),
    /// A candidate referenced a value index outside the attribute's domain.
    UnknownValue {
        /// Attribute whose domain was indexed out of bounds.
        attribute: String,
        /// The offending value index.
        value_index: usize,
    },
    /// A candidate did not supply a value for every protected attribute.
    MissingAttributeValue {
        /// Candidate name as supplied to the builder.
        candidate: String,
        /// Attribute that was left unassigned.
        attribute: String,
    },
    /// Two candidates share the same name.
    DuplicateCandidate(String),
    /// The database was built with no candidates.
    EmptyDatabase,
    /// The database was built with no protected attributes.
    EmptySchema,
    /// A ranking was constructed that is not a permutation of `0..n`.
    InvalidPermutation {
        /// Expected number of candidates.
        expected: usize,
        /// Description of the violation.
        detail: String,
    },
    /// Two rankings (or a ranking and a database) disagree on the number of candidates.
    LengthMismatch {
        /// Length of the left-hand operand.
        left: usize,
        /// Length of the right-hand operand.
        right: usize,
    },
    /// A ranking profile was constructed with no base rankings.
    EmptyProfile,
    /// A candidate id was out of range for the database or ranking.
    CandidateOutOfRange {
        /// The offending candidate id.
        id: u32,
        /// Number of candidates in the container.
        len: usize,
    },
    /// The total ranking weight of a profile would overflow the `u32` support
    /// cells of the precedence matrix.
    SupportOverflow {
        /// Total weight (sum of ranking weights, or the ranking count for
        /// unweighted profiles) that exceeded the cell capacity.
        total_weight: u64,
    },
    /// The attribute domains define more intersectional groups than
    /// [`crate::attribute::MAX_INTERSECTION_GROUPS`].
    TooManyGroups {
        /// Product of the domain sizes (`None` when it overflows `usize`).
        groups: Option<usize>,
    },
    /// A ranking was retracted from a precedence matrix that does not contain
    /// it with at least the requested weight (a support cell or the total
    /// ranking count would underflow).
    RetractUnderflow {
        /// Weight that was being retracted.
        weight: u32,
    },
    /// An edit retracted more copies of a ranking than the profile holds.
    RetractShortfall {
        /// Index of the failing op in the edit.
        op: usize,
        /// Copies the op asked to retract.
        weight: u32,
        /// Copies the profile held when the op ran.
        held: u64,
    },
    /// A weighted Kendall distance sum outgrew `u64`.
    DistanceOverflow,
}

impl fmt::Display for RankingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankingError::DuplicateAttribute(name) => {
                write!(f, "protected attribute `{name}` registered twice")
            }
            RankingError::DegenerateAttribute(name) => write!(
                f,
                "protected attribute `{name}` must have at least two values"
            ),
            RankingError::DuplicateValue { attribute, value } => write!(
                f,
                "attribute `{attribute}` declares value `{value}` more than once"
            ),
            RankingError::UnknownAttribute(id) => {
                write!(f, "attribute id {id} does not exist in the schema")
            }
            RankingError::UnknownValue {
                attribute,
                value_index,
            } => write!(
                f,
                "value index {value_index} is outside the domain of attribute `{attribute}`"
            ),
            RankingError::MissingAttributeValue {
                candidate,
                attribute,
            } => write!(
                f,
                "candidate `{candidate}` has no value for protected attribute `{attribute}`"
            ),
            RankingError::DuplicateCandidate(name) => {
                write!(f, "candidate `{name}` registered twice")
            }
            RankingError::EmptyDatabase => write!(f, "candidate database contains no candidates"),
            RankingError::EmptySchema => {
                write!(f, "candidate database declares no protected attributes")
            }
            RankingError::InvalidPermutation { expected, detail } => write!(
                f,
                "ranking is not a permutation of {expected} candidates: {detail}"
            ),
            RankingError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            RankingError::EmptyProfile => write!(f, "ranking profile contains no base rankings"),
            RankingError::CandidateOutOfRange { id, len } => {
                write!(f, "candidate id {id} out of range for {len} candidates")
            }
            RankingError::SupportOverflow { total_weight } => write!(
                f,
                "total ranking weight {total_weight} exceeds the u32 support-cell capacity \
                 ({}) of the precedence matrix",
                u32::MAX
            ),
            RankingError::TooManyGroups { groups } => {
                let groups = groups.map_or(format!("more than {}", usize::MAX), |g| g.to_string());
                write!(
                    f,
                    "the protected attributes define {groups} intersectional groups; \
                     a schema supports at most {}",
                    crate::attribute::MAX_INTERSECTION_GROUPS
                )
            }
            RankingError::RetractUnderflow { weight } => write!(
                f,
                "cannot retract a ranking with weight {weight}: the precedence matrix does \
                 not contain it with that weight"
            ),
            RankingError::RetractShortfall { op, weight, held } => write!(
                f,
                "op {op} retracts {weight} cop(ies) of a ranking the profile holds only {held} of"
            ),
            RankingError::DistanceOverflow => {
                write!(f, "the weighted Kendall distance sum overflows u64")
            }
        }
    }
}

impl std::error::Error for RankingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = RankingError::DuplicateAttribute("Gender".into());
        assert!(err.to_string().contains("Gender"));

        let err = RankingError::UnknownValue {
            attribute: "Race".into(),
            value_index: 9,
        };
        assert!(err.to_string().contains("Race"));
        assert!(err.to_string().contains('9'));

        let err = RankingError::LengthMismatch { left: 3, right: 5 };
        assert!(err.to_string().contains("3 vs 5"));

        let err = RankingError::SupportOverflow {
            total_weight: 5_000_000_000,
        };
        assert!(err.to_string().contains("5000000000"));
        assert!(err.to_string().contains("u32"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RankingError>();
    }
}
