//! Error types for the relation engine.

use std::fmt;

/// Errors produced by the relational table engine.
#[derive(Debug, Clone, PartialEq)]
pub enum RelationError {
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// A column index was out of bounds.
    ColumnIndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Number of columns available.
        width: usize,
    },
    /// A row index was out of bounds.
    RowIndexOutOfBounds {
        /// Offending index.
        index: usize,
        /// Number of rows available.
        height: usize,
    },
    /// A value of one type was used where another type was expected.
    TypeMismatch {
        /// The type the operation required.
        expected: String,
        /// The type actually supplied.
        found: String,
    },
    /// Two schemas that must be identical differ.
    SchemaMismatch(String),
    /// Columns of a table have inconsistent lengths.
    LengthMismatch {
        /// Length required for consistency.
        expected: usize,
        /// Length actually found.
        found: usize,
    },
    /// A key column contains duplicate values.
    DuplicateKey(String),
    /// A key present in one snapshot is missing from the other.
    KeyNotFound(String),
    /// CSV input could not be parsed.
    CsvParse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An I/O error occurred (message only: io::Error is not Clone).
    Io(String),
    /// An expression could not be evaluated.
    Eval(String),
    /// Generic invalid-argument error.
    InvalidArgument(String),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownAttribute(name) => {
                write!(f, "unknown attribute: {name:?}")
            }
            RelationError::ColumnIndexOutOfBounds { index, width } => {
                write!(f, "column index {index} out of bounds for width {width}")
            }
            RelationError::RowIndexOutOfBounds { index, height } => {
                write!(f, "row index {index} out of bounds for height {height}")
            }
            RelationError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelationError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            RelationError::LengthMismatch { expected, found } => {
                write!(f, "length mismatch: expected {expected}, found {found}")
            }
            RelationError::DuplicateKey(key) => write!(f, "duplicate key value: {key}"),
            RelationError::KeyNotFound(key) => write!(f, "key not found: {key}"),
            RelationError::CsvParse { line, message } => {
                write!(f, "CSV parse error at line {line}: {message}")
            }
            RelationError::Io(msg) => write!(f, "I/O error: {msg}"),
            RelationError::Eval(msg) => write!(f, "expression evaluation error: {msg}"),
            RelationError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for RelationError {}

impl From<std::io::Error> for RelationError {
    fn from(err: std::io::Error) -> Self {
        RelationError::Io(err.to_string())
    }
}

/// Convenience result alias for the relation crate.
pub type Result<T> = std::result::Result<T, RelationError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_attribute() {
        let err = RelationError::UnknownAttribute("bonus".to_string());
        assert_eq!(err.to_string(), "unknown attribute: \"bonus\"");
    }

    #[test]
    fn display_type_mismatch() {
        let err = RelationError::TypeMismatch {
            expected: "Float64".to_string(),
            found: "Utf8".to_string(),
        };
        assert!(err.to_string().contains("expected Float64"));
        assert!(err.to_string().contains("found Utf8"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: RelationError = io.into();
        assert!(matches!(err, RelationError::Io(_)));
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&RelationError::InvalidArgument("k".into()));
    }
}
