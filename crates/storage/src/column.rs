//! Typed columnar storage.
//!
//! A [`Column`] stores one attribute of a table in a dense, typed vector
//! with a parallel validity mask for NULLs. Keeping columns typed (rather
//! than `Vec<Value>`) keeps aggregate scans cache friendly, which matters
//! for the provenance-overhead experiments where the same table is scanned
//! many times.

use crate::error::StorageError;
use crate::value::{DataType, Value};

/// Typed backing storage of a column.
///
/// Crate-visible so the vectorized condition kernels in
/// [`crate::predicate`] can scan the typed vectors directly instead of
/// dispatching on the variant per row.
#[derive(Debug, Clone)]
pub(crate) enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Timestamp(Vec<i64>),
}

/// A single column of a table: a typed vector plus a validity mask.
#[derive(Debug, Clone)]
pub struct Column {
    dtype: DataType,
    data: ColumnData,
    /// `validity[i]` is false when row `i` is NULL in this column.
    validity: Vec<bool>,
}

impl Column {
    /// Creates an empty column of the given type.
    ///
    /// `DataType::Null` columns are not supported; use a nullable column of
    /// a concrete type instead.
    pub fn new(dtype: DataType) -> Result<Self, StorageError> {
        let data = match dtype {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Timestamp => ColumnData::Timestamp(Vec::new()),
            DataType::Null => {
                return Err(StorageError::TypeMismatch {
                    expected: "a concrete column type".into(),
                    found: DataType::Null,
                    context: "Column::new".into(),
                })
            }
        };
        Ok(Column { dtype, data, validity: Vec::new() })
    }

    /// Creates an empty column with pre-reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Result<Self, StorageError> {
        let mut c = Column::new(dtype)?;
        match &mut c.data {
            ColumnData::Bool(v) => v.reserve(cap),
            ColumnData::Int(v) => v.reserve(cap),
            ColumnData::Float(v) => v.reserve(cap),
            ColumnData::Str(v) => v.reserve(cap),
            ColumnData::Timestamp(v) => v.reserve(cap),
        }
        c.validity.reserve(cap);
        Ok(c)
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Number of entries (including NULLs).
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when the column has no entries.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// Appends a value, coercing integers to floats (and vice versa when
    /// lossless) so that generators can be sloppy about `3` vs `3.0`.
    pub fn push(&mut self, value: Value) -> Result<(), StorageError> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        let mismatch = |found: DataType, dtype: DataType| StorageError::TypeMismatch {
            expected: dtype.name().to_string(),
            found,
            context: "Column::push".into(),
        };
        match (&mut self.data, &value) {
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(*b),
            (ColumnData::Int(v), Value::Int(i)) => v.push(*i),
            (ColumnData::Int(v), Value::Float(f)) if f.fract() == 0.0 => v.push(*f as i64),
            (ColumnData::Float(v), Value::Float(f)) => v.push(*f),
            (ColumnData::Float(v), Value::Int(i)) => v.push(*i as f64),
            (ColumnData::Str(v), Value::Str(s)) => v.push(s.clone()),
            (ColumnData::Timestamp(v), Value::Timestamp(t)) => v.push(*t),
            (ColumnData::Timestamp(v), Value::Int(i)) => v.push(*i),
            (_, other) => return Err(mismatch(other.data_type(), self.dtype)),
        }
        self.validity.push(true);
        Ok(())
    }

    /// Appends a NULL entry.
    pub fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(String::new()),
            ColumnData::Timestamp(v) => v.push(0),
        }
        self.validity.push(false);
    }

    /// Returns the value at `row`, or `None` when out of bounds.
    pub fn get(&self, row: usize) -> Option<Value> {
        if row >= self.validity.len() {
            return None;
        }
        if !self.validity[row] {
            return Some(Value::Null);
        }
        Some(match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
            ColumnData::Timestamp(v) => Value::Timestamp(v[row]),
        })
    }

    /// Returns the value at `row` as an `f64` when the column is numeric and
    /// the entry is non-NULL. This is the hot path used by aggregates.
    #[inline]
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        if row >= self.validity.len() || !self.validity[row] {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[row] as f64),
            ColumnData::Float(v) => Some(v[row]),
            ColumnData::Timestamp(v) => Some(v[row] as f64),
            ColumnData::Bool(v) => Some(if v[row] { 1.0 } else { 0.0 }),
            ColumnData::Str(_) => None,
        }
    }

    /// Returns the string at `row` without cloning when the column is a
    /// string column and the entry is non-NULL.
    #[inline]
    pub fn get_str(&self, row: usize) -> Option<&str> {
        if row >= self.validity.len() || !self.validity[row] {
            return None;
        }
        match &self.data {
            ColumnData::Str(v) => Some(v[row].as_str()),
            _ => None,
        }
    }

    /// True when the entry at `row` is NULL (out-of-bounds counts as NULL).
    pub fn is_null(&self, row: usize) -> bool {
        self.validity.get(row).map(|v| !v).unwrap_or(true)
    }

    /// Number of non-NULL entries.
    pub fn non_null_count(&self) -> usize {
        self.validity.iter().filter(|v| **v).count()
    }

    /// Iterates over all values (including NULLs) in row order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("in bounds"))
    }

    /// The typed backing vector (for the columnar kernels).
    pub(crate) fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity mask (`false` = NULL), aligned with the data vector.
    pub(crate) fn validity(&self) -> &[bool] {
        &self.validity
    }

    /// The typed backing vector and the validity mask, for the persistence
    /// layer to decode rows onto. Whoever extends one extends the other by
    /// as many entries; the decoder checks it did before it returns.
    pub(crate) fn parts_mut(&mut self) -> (&mut ColumnData, &mut Vec<bool>) {
        (&mut self.data, &mut self.validity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = Column::new(DataType::Int).unwrap();
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(-7)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Some(Value::Int(1)));
        assert_eq!(c.get(1), Some(Value::Null));
        assert_eq!(c.get(2), Some(Value::Int(-7)));
        assert_eq!(c.get(3), None);
        assert_eq!(c.non_null_count(), 2);
        assert!(c.is_null(1));
        assert!(!c.is_null(0));
        assert!(c.is_null(99));
    }

    #[test]
    fn numeric_coercion_on_push() {
        let mut f = Column::new(DataType::Float).unwrap();
        f.push(Value::Int(3)).unwrap();
        assert_eq!(f.get(0), Some(Value::Float(3.0)));

        let mut i = Column::new(DataType::Int).unwrap();
        i.push(Value::Float(4.0)).unwrap();
        assert_eq!(i.get(0), Some(Value::Int(4)));
        assert!(i.push(Value::Float(4.5)).is_err());

        let mut t = Column::new(DataType::Timestamp).unwrap();
        t.push(Value::Int(100)).unwrap();
        assert_eq!(t.get(0), Some(Value::Timestamp(100)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Str).unwrap();
        assert!(c.push(Value::Int(1)).is_err());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn null_column_type_rejected() {
        assert!(Column::new(DataType::Null).is_err());
    }

    #[test]
    fn get_f64_and_get_str_fast_paths() {
        let mut c = Column::new(DataType::Float).unwrap();
        c.push(Value::Float(2.5)).unwrap();
        c.push_null();
        assert_eq!(c.get_f64(0), Some(2.5));
        assert_eq!(c.get_f64(1), None);
        assert_eq!(c.get_str(0), None);

        let mut s = Column::new(DataType::Str).unwrap();
        s.push(Value::str("hi")).unwrap();
        assert_eq!(s.get_str(0), Some("hi"));
        assert_eq!(s.get_f64(0), None);

        let mut b = Column::new(DataType::Bool).unwrap();
        b.push(Value::Bool(true)).unwrap();
        assert_eq!(b.get_f64(0), Some(1.0));
    }

    #[test]
    fn iter_visits_all_rows() {
        let mut c = Column::with_capacity(DataType::Int, 4).unwrap();
        for i in 0..4 {
            c.push(Value::Int(i)).unwrap();
        }
        let collected: Vec<Value> = c.iter().collect();
        assert_eq!(collected, vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}
