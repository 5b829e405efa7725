//! Error types for the strategy algebra.

use std::error::Error as StdError;
use std::fmt;

use crate::MsId;

/// Error produced when constructing a [`Strategy`](crate::Strategy) from
/// parts that violate its invariants.
///
/// A strategy is a composition of *distinct* equivalent microservices: every
/// leaf must be unique, and every composite node must have at least two
/// operands.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A sequential or parallel combination was given fewer than two operands.
    TooFewOperands {
        /// Number of operands that were supplied.
        got: usize,
    },
    /// The same microservice appears more than once in the expression.
    DuplicateMicroservice(MsId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooFewOperands { got } => {
                write!(f, "combination requires at least 2 operands, got {got}")
            }
            BuildError::DuplicateMicroservice(id) => {
                write!(
                    f,
                    "microservice {id} appears more than once in the strategy"
                )
            }
        }
    }
}

impl StdError for BuildError {}

/// Error produced when parsing a strategy expression fails.
///
/// Reported positions are zero-based byte offsets into the input string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// An unexpected character was encountered.
    UnexpectedChar {
        /// Byte offset of the offending character.
        at: usize,
        /// The character found.
        found: char,
    },
    /// The input ended before the expression was complete.
    UnexpectedEnd,
    /// A closing parenthesis had no matching opening parenthesis, or vice
    /// versa.
    UnbalancedParenthesis {
        /// Byte offset of the offending parenthesis (or end of input).
        at: usize,
    },
    /// An identifier did not resolve to a known microservice.
    UnknownMicroservice {
        /// Byte offset where the identifier starts.
        at: usize,
        /// The identifier text.
        name: String,
    },
    /// Extra input remained after a complete expression.
    TrailingInput {
        /// Byte offset where the trailing input starts.
        at: usize,
    },
    /// Parentheses were nested deeper than the parser's recursion limit.
    ///
    /// The recursive-descent parser bounds its depth so adversarial input
    /// (`((((…`) cannot overflow the stack.
    TooDeep {
        /// Byte offset of the parenthesis that exceeded the limit.
        at: usize,
        /// The maximum permitted nesting depth.
        limit: usize,
    },
    /// The parsed expression violates a structural invariant.
    Invalid(BuildError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar { at, found } => {
                write!(f, "unexpected character {found:?} at offset {at}")
            }
            ParseError::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseError::UnbalancedParenthesis { at } => {
                write!(f, "unbalanced parenthesis at offset {at}")
            }
            ParseError::UnknownMicroservice { at, name } => {
                write!(f, "unknown microservice {name:?} at offset {at}")
            }
            ParseError::TrailingInput { at } => {
                write!(f, "trailing input at offset {at}")
            }
            ParseError::TooDeep { at, limit } => {
                write!(
                    f,
                    "parentheses nested deeper than {limit} levels at offset {at}"
                )
            }
            ParseError::Invalid(err) => write!(f, "invalid strategy: {err}"),
        }
    }
}

impl StdError for ParseError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ParseError::Invalid(err) => Some(err),
            _ => None,
        }
    }
}

impl From<BuildError> for ParseError {
    fn from(err: BuildError) -> Self {
        ParseError::Invalid(err)
    }
}

/// Error produced when a QoS value is out of its legal domain.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QosError {
    /// Reliability must be a probability in `[0, 1]`.
    ReliabilityOutOfRange(f64),
    /// Latency must be finite and non-negative.
    InvalidLatency(f64),
    /// Cost must be finite and non-negative.
    InvalidCost(f64),
    /// The utility penalty factor `k` must be greater than 1 (Equation 1 of
    /// the paper requires `k > 1`).
    InvalidPenalty(f64),
    /// A QoS requirement used for normalization must be finite and positive.
    InvalidRequirement(f64),
    /// A textual QoS value (e.g. a `"cost,latency,reliability"` requirement
    /// triple) could not be parsed.
    Parse(String),
}

impl fmt::Display for QosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosError::ReliabilityOutOfRange(v) => {
                write!(f, "reliability must be within [0, 1], got {v}")
            }
            QosError::InvalidLatency(v) => {
                write!(f, "latency must be finite and non-negative, got {v}")
            }
            QosError::InvalidCost(v) => {
                write!(f, "cost must be finite and non-negative, got {v}")
            }
            QosError::InvalidPenalty(v) => {
                write!(f, "utility penalty k must be greater than 1, got {v}")
            }
            QosError::InvalidRequirement(v) => {
                write!(f, "QoS requirement must be finite and positive, got {v}")
            }
            QosError::Parse(reason) => write!(f, "{reason}"),
        }
    }
}

impl StdError for QosError {}

/// Error produced when estimating the QoS of a strategy against an
/// environment that does not provide all referenced microservices.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EstimateError {
    /// The environment has no QoS entry for the given microservice.
    MissingMicroservice(MsId),
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::MissingMicroservice(id) => {
                write!(f, "environment provides no QoS for microservice {id}")
            }
        }
    }
}

impl StdError for EstimateError {}

/// Error produced by strategy generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GenerateError {
    /// Generation needs at least one microservice to work with.
    NoMicroservices,
    /// A microservice referenced by the generator is missing from the
    /// environment.
    Estimate(EstimateError),
    /// The QoS requirements are degenerate (zero, negative, or non-finite
    /// attributes): Equation 1 divides by each requirement, so such inputs
    /// would produce NaN/∞ utilities that poison the ranking.
    InvalidRequirements(QosError),
    /// The id list names the same microservice more than once; a strategy
    /// uses each microservice at most once.
    DuplicateMicroservice(MsId),
    /// An exhaustive search, an enumeration or a sample was asked for over
    /// more than [`MAX_COUNT_M`](crate::enumerate::MAX_COUNT_M)
    /// microservices.
    TooManyMicroservices {
        /// Length of the id list.
        got: usize,
        /// The most accepted
        /// ([`MAX_COUNT_M`](crate::enumerate::MAX_COUNT_M)).
        max: usize,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::NoMicroservices => {
                write!(f, "cannot generate a strategy for zero microservices")
            }
            GenerateError::Estimate(err) => write!(f, "estimation failed: {err}"),
            GenerateError::InvalidRequirements(err) => {
                write!(f, "invalid QoS requirements: {err}")
            }
            GenerateError::DuplicateMicroservice(id) => {
                write!(f, "microservice {id} is listed more than once")
            }
            GenerateError::TooManyMicroservices { got, max } => write!(
                f,
                "an exhaustive search, enumeration or sample covers at most {max} \
                 microservices, got {got}"
            ),
        }
    }
}

impl StdError for GenerateError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            GenerateError::Estimate(err) => Some(err),
            GenerateError::InvalidRequirements(err) => Some(err),
            GenerateError::NoMicroservices
            | GenerateError::DuplicateMicroservice(_)
            | GenerateError::TooManyMicroservices { .. } => None,
        }
    }
}

impl From<EstimateError> for GenerateError {
    fn from(err: EstimateError) -> Self {
        GenerateError::Estimate(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_error_display() {
        let err = BuildError::TooFewOperands { got: 1 };
        assert_eq!(
            err.to_string(),
            "combination requires at least 2 operands, got 1"
        );
        let err = BuildError::DuplicateMicroservice(MsId(0));
        assert!(err.to_string().contains('a'));
    }

    #[test]
    fn parse_error_display_and_source() {
        let err = ParseError::UnexpectedChar { at: 3, found: '+' };
        assert!(err.to_string().contains("offset 3"));
        let err = ParseError::Invalid(BuildError::TooFewOperands { got: 0 });
        assert!(StdError::source(&err).is_some());
        assert!(StdError::source(&ParseError::UnexpectedEnd).is_none());
    }

    #[test]
    fn qos_error_display() {
        assert!(QosError::ReliabilityOutOfRange(1.5)
            .to_string()
            .contains("1.5"));
        assert!(QosError::InvalidPenalty(0.5)
            .to_string()
            .contains("greater than 1"));
    }

    #[test]
    fn generate_error_from_estimate() {
        let err: GenerateError = EstimateError::MissingMicroservice(MsId(7)).into();
        assert!(matches!(err, GenerateError::Estimate(_)));
        assert!(StdError::source(&err).is_some());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuildError>();
        assert_send_sync::<ParseError>();
        assert_send_sync::<QosError>();
        assert_send_sync::<EstimateError>();
        assert_send_sync::<GenerateError>();
    }
}
