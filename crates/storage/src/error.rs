//! Error type shared by the storage layer.

use crate::value::DataType;
use std::fmt;

/// Errors produced by the storage layer (tables, columns, expressions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A schema contained two columns with the same name.
    DuplicateColumn(String),
    /// A referenced column does not exist in the schema.
    UnknownColumn {
        /// The column name that failed to resolve.
        column: String,
        /// The columns that are actually available.
        available: Vec<String>,
    },
    /// A value's type did not match the column or expression type.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it received.
        found: DataType,
        /// Where the mismatch occurred (column name, operator, ...).
        context: String,
    },
    /// A row had the wrong number of values for the table schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// The offending row index.
        row: usize,
        /// The number of rows in the table.
        len: usize,
    },
    /// A table name was not found in the catalog.
    UnknownTable(String),
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// An expression could not be evaluated (division by zero, bad operand
    /// types discovered at runtime, ...).
    Eval(String),
    /// An operating-system I/O failure in the persistence layer. Carries
    /// the rendered message (not the `std::io::Error` itself) so the error
    /// type stays `Clone + PartialEq`.
    Io(String),
    /// A persisted snapshot failed structural validation: bad magic bytes,
    /// unsupported format version, truncated data, or a checksum mismatch.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateColumn(name) => write!(f, "duplicate column name: {name}"),
            StorageError::UnknownColumn { column, available } => {
                write!(f, "unknown column '{column}' (available: {})", available.join(", "))
            }
            StorageError::TypeMismatch { expected, found, context } => {
                write!(f, "type mismatch in {context}: expected {expected}, found {found}")
            }
            StorageError::ArityMismatch { expected, found } => {
                write!(f, "row has {found} values but schema has {expected} columns")
            }
            StorageError::RowOutOfBounds { row, len } => {
                write!(f, "row index {row} out of bounds for table with {len} rows")
            }
            StorageError::UnknownTable(name) => write!(f, "unknown table: {name}"),
            StorageError::TableExists(name) => write!(f, "table already exists: {name}"),
            StorageError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            StorageError::Io(msg) => write!(f, "io error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl StorageError {
    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// The persistence retry loop uses this to separate *transient* faults
    /// (interrupted writes, flaky devices — generic [`StorageError::Io`])
    /// from *permanent* ones that retrying cannot fix: a full disk
    /// (ENOSPC stays full on the retry timescale), structural corruption,
    /// and every logical error (schema, arity, unknown table, ...).
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(msg) => {
                let lower = msg.to_ascii_lowercase();
                !(lower.contains("no space left") || lower.contains("enospc"))
            }
            _ => false,
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let e = StorageError::UnknownColumn {
            column: "x".into(),
            available: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("unknown column 'x'"));
        assert!(e.to_string().contains("a, b"));

        let e = StorageError::TypeMismatch {
            expected: "numeric".into(),
            found: DataType::Str,
            context: "avg(temp)".into(),
        };
        assert!(e.to_string().contains("avg(temp)"));
        assert!(e.to_string().contains("str"));

        assert!(StorageError::ArityMismatch { expected: 3, found: 2 }
            .to_string()
            .contains("2 values"));
        assert!(StorageError::RowOutOfBounds { row: 9, len: 3 }.to_string().contains("9"));
        assert!(StorageError::UnknownTable("t".into()).to_string().contains("t"));
        assert!(StorageError::TableExists("t".into()).to_string().contains("exists"));
        assert!(StorageError::Eval("bad".into()).to_string().contains("bad"));
        assert!(StorageError::DuplicateColumn("c".into()).to_string().contains("c"));
        assert!(StorageError::Io("disk full".into()).to_string().contains("disk full"));
        assert!(StorageError::Corrupt("bad magic".into()).to_string().contains("bad magic"));
    }

    #[test]
    fn transient_classification_separates_io_from_permanent_faults() {
        assert!(StorageError::Io("writing /tmp/x: interrupted".into()).is_transient());
        assert!(StorageError::Io("device flaked".into()).is_transient());
        // A full disk stays full on the retry timescale.
        assert!(!StorageError::Io("No space left on device (os error 28)".into()).is_transient());
        assert!(!StorageError::Io("injected ENOSPC".into()).is_transient());
        // Corruption and logical errors never heal by retrying.
        assert!(!StorageError::Corrupt("checksum mismatch".into()).is_transient());
        assert!(!StorageError::UnknownTable("t".into()).is_transient());
        assert!(!StorageError::Eval("div by zero".into()).is_transient());
    }
}
