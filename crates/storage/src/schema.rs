//! Table schemas: ordered collections of named, typed fields.

use crate::error::StorageError;
use crate::value::DataType;
use std::fmt;

/// A single column definition inside a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name. Names are compared case-insensitively by the query
    /// engine but stored with the case given at creation.
    pub name: String,
    /// Logical data type of the column.
    pub dtype: DataType,
    /// Whether the column admits NULL values.
    pub nullable: bool,
}

impl Field {
    /// Creates a non-nullable field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field { name: name.into(), dtype, nullable: false }
    }

    /// Creates a nullable field.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        Field { name: name.into(), dtype, nullable: true }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}{}", self.name, self.dtype, if self.nullable { " NULL" } else { "" })
    }
}

/// An ordered list of [`Field`]s describing a table or a query result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from a list of fields.
    ///
    /// Returns an error if two fields share a (case-insensitive) name.
    pub fn new(fields: Vec<Field>) -> Result<Self, StorageError> {
        for (i, f) in fields.iter().enumerate() {
            for other in &fields[i + 1..] {
                if f.name.eq_ignore_ascii_case(&other.name) {
                    return Err(StorageError::DuplicateColumn(f.name.clone()));
                }
            }
        }
        Ok(Schema { fields })
    }

    /// Convenience constructor used pervasively in tests and generators:
    /// builds a schema from `(name, type)` pairs, panicking on duplicates.
    pub fn of(fields: &[(&str, DataType)]) -> Self {
        Schema::new(fields.iter().map(|(n, t)| Field::new(*n, *t)).collect())
            .expect("duplicate column name in Schema::of")
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Looks up a field index by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Looks up a field by case-insensitive name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Returns the field at `idx`.
    pub fn field_at(&self, idx: usize) -> Option<&Field> {
        self.fields.get(idx)
    }

    /// Resolves a column name to its index, producing a descriptive error
    /// when the column does not exist.
    pub fn resolve(&self, name: &str) -> Result<usize, StorageError> {
        self.index_of(name).ok_or_else(|| StorageError::UnknownColumn {
            column: name.to_string(),
            available: self.fields.iter().map(|f| f.name.clone()).collect(),
        })
    }

    /// Returns the names of all columns in declaration order.
    pub fn names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.fields.iter().map(|fl| fl.to_string()).collect();
        write!(f, "({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(&[("id", DataType::Int), ("temp", DataType::Float), ("name", DataType::Str)])
    }

    #[test]
    fn index_lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("TEMP"), Some(1));
        assert_eq!(s.index_of("Id"), Some(0));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err =
            Schema::new(vec![Field::new("a", DataType::Int), Field::new("A", DataType::Float)])
                .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateColumn(_)));
    }

    #[test]
    fn resolve_reports_available_columns() {
        let s = sample();
        match s.resolve("nope") {
            Err(StorageError::UnknownColumn { column, available }) => {
                assert_eq!(column, "nope");
                assert_eq!(available.len(), 3);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn display_formats() {
        let s = Schema::of(&[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "(a int)");
        assert_eq!(Field::nullable("b", DataType::Str).to_string(), "b str NULL");
    }

    #[test]
    fn empty_schema() {
        let s = Schema::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
