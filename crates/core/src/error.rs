//! Error type for the ChARLES engine.

use charles_cluster::ClusterError;
use charles_numerics::NumericsError;
use charles_relation::RelationError;
use std::fmt;

/// A malformed [`crate::Query`], rejected before any search work starts.
///
/// Each variant names one specific way a query can be unanswerable, so
/// callers (interactive UIs, the serving layer) can map the failure to a
/// precise client-facing message instead of pattern-matching on generic
/// engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The target attribute does not exist in the schema.
    UnknownTarget {
        /// The requested attribute name.
        name: String,
    },
    /// The target attribute exists but is not numeric.
    NonNumericTarget {
        /// The requested attribute name.
        name: String,
        /// The attribute's actual data type, rendered.
        dtype: String,
    },
    /// The transformation-attribute shortlist resolved to nothing — no
    /// linear model can be fitted.
    EmptyTransformShortlist,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownTarget { name } => {
                write!(f, "unknown target attribute {name:?}")
            }
            QueryError::NonNumericTarget { name, dtype } => {
                write!(
                    f,
                    "target attribute {name:?} must be numeric, found {dtype}"
                )
            }
            QueryError::EmptyTransformShortlist => write!(
                f,
                "empty transformation-attribute shortlist; the target's previous \
                 value alone is always available — pass it explicitly"
            ),
        }
    }
}

/// Errors produced while recovering change summaries.
#[derive(Debug, Clone, PartialEq)]
pub enum CharlesError {
    /// An error bubbled up from the relational substrate.
    Relation(RelationError),
    /// An error bubbled up from the numeric substrate.
    Numerics(NumericsError),
    /// An error bubbled up from the clustering substrate.
    Cluster(ClusterError),
    /// The requested target attribute is unusable (missing/non-numeric).
    BadTargetAttribute(String),
    /// Engine configuration is inconsistent.
    BadConfig(String),
    /// No candidate summaries could be generated (e.g. no usable
    /// transformation attributes).
    NoCandidates(String),
    /// A query was malformed (see [`QueryError`] for the specific reason).
    Query(QueryError),
    /// The named dataset is not registered with the
    /// [`crate::SessionManager`] asked to serve it.
    UnknownDataset(String),
}

impl fmt::Display for CharlesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharlesError::Relation(e) => write!(f, "relation error: {e}"),
            CharlesError::Numerics(e) => write!(f, "numerics error: {e}"),
            CharlesError::Cluster(e) => write!(f, "cluster error: {e}"),
            CharlesError::BadTargetAttribute(msg) => {
                write!(f, "bad target attribute: {msg}")
            }
            CharlesError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            CharlesError::NoCandidates(msg) => {
                write!(f, "no candidate summaries: {msg}")
            }
            CharlesError::Query(e) => write!(f, "bad query: {e}"),
            CharlesError::UnknownDataset(name) => {
                write!(f, "unknown dataset: {name:?} is not registered")
            }
        }
    }
}

impl std::error::Error for CharlesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharlesError::Relation(e) => Some(e),
            CharlesError::Numerics(e) => Some(e),
            CharlesError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for CharlesError {
    fn from(e: RelationError) -> Self {
        CharlesError::Relation(e)
    }
}

impl From<NumericsError> for CharlesError {
    fn from(e: NumericsError) -> Self {
        CharlesError::Numerics(e)
    }
}

impl From<ClusterError> for CharlesError {
    fn from(e: ClusterError) -> Self {
        CharlesError::Cluster(e)
    }
}

impl From<QueryError> for CharlesError {
    fn from(e: QueryError) -> Self {
        CharlesError::Query(e)
    }
}

/// Convenience result alias for the core crate.
pub type Result<T> = std::result::Result<T, CharlesError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_source() {
        let e: CharlesError = RelationError::UnknownAttribute("x".into()).into();
        assert!(matches!(e, CharlesError::Relation(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: CharlesError = NumericsError::InsufficientData { needed: 2, got: 0 }.into();
        assert!(e.to_string().contains("numerics"));
        let e = CharlesError::BadConfig("alpha out of range".into());
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn query_error_variants_render_their_cause() {
        let e: CharlesError = QueryError::UnknownTarget { name: "pay".into() }.into();
        assert!(e.to_string().contains("unknown target"), "{e}");
        assert!(e.to_string().contains("pay"), "{e}");
        let e: CharlesError = QueryError::NonNumericTarget {
            name: "edu".into(),
            dtype: "utf8".into(),
        }
        .into();
        assert!(e.to_string().contains("must be numeric"), "{e}");
        let e: CharlesError = QueryError::EmptyTransformShortlist.into();
        assert!(e.to_string().contains("empty transformation"), "{e}");
        assert!(std::error::Error::source(&e).is_none());
        let e = CharlesError::UnknownDataset("county".into());
        assert!(e.to_string().contains("not registered"), "{e}");
    }
}
