//! Feature extraction from relational rows.
//!
//! The Predicate Enumerator and Dataset Enumerator (paper §2.2.2) learn
//! models over the *input tuples* of an aggregate query: decision trees
//! that separate candidate error tuples from the rest, subgroup discovery
//! over the same attributes, k-means over numeric attributes. This module
//! converts table rows into the columnar feature matrix those learners
//! consume, while remembering enough about each feature (its column name,
//! its categorical dictionary) to translate learned splits *back* into
//! human-readable [`Condition`]s — the predicates DBWipes shows the user.
//!
//! One explain extracts F once: a [`FeatureSpace`] memoises the matrix of
//! the rows it was built over, and that matrix sorts each numeric feature
//! at most once, so the Dataset Enumerator's subgroup search and every
//! decision tree of the Predicate Enumerator share one extraction and one
//! sort.

use dbwipes_storage::{Condition, DataType, RowId, Table, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The kind of a learned feature.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureKind {
    /// A numeric attribute (int, float, timestamp).
    Numeric,
    /// A boolean attribute: learned as the numbers 0 and 1, written back
    /// as an equality (`flag <= 0.5` is not an expression over a BOOLEAN).
    Boolean,
    /// A categorical attribute with a dictionary of observed values.
    Categorical {
        /// Distinct values observed when the space was built; category
        /// index `i` corresponds to `values[i]`.
        values: Vec<Value>,
    },
}

/// One feature: the table column it came from plus its kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureDef {
    /// Source column name.
    pub column: String,
    /// Numeric or categorical.
    pub kind: FeatureKind,
}

/// A single cell of a feature vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureValue {
    /// Numeric value.
    Num(f64),
    /// Categorical value (index into the feature's dictionary).
    Cat(usize),
    /// NULL or out-of-dictionary value.
    Missing,
}

impl FeatureValue {
    /// The numeric value, if any.
    pub fn as_num(self) -> Option<f64> {
        match self {
            FeatureValue::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The category index, if any.
    pub fn as_cat(self) -> Option<usize> {
        match self {
            FeatureValue::Cat(c) => Some(c),
            _ => None,
        }
    }

    /// True when the value is missing.
    pub fn is_missing(self) -> bool {
        matches!(self, FeatureValue::Missing)
    }
}

/// The feature space: an ordered list of features over a table.
///
/// A space also remembers which rows of which table data it was built over
/// (F, in the explain pipeline) and lazily memoises their feature matrix,
/// so every [`FeatureSpace::extract`] of exactly those rows shares one
/// extraction. Clones share the memo; equality ignores it.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    features: Vec<FeatureDef>,
    built_over: Arc<BuiltOver>,
}

/// The rows a space was built over and, once asked for, their matrix.
/// `(Table::id, Table::version)` pins bit-identical table data, so the
/// key can never serve a matrix of different data.
#[derive(Debug)]
struct BuiltOver {
    table_id: u64,
    table_version: u64,
    rows: Vec<RowId>,
    matrix: OnceLock<Arc<Dataset>>,
}

impl PartialEq for FeatureSpace {
    fn eq(&self, other: &Self) -> bool {
        self.features == other.features
    }
}

/// The default cap on the number of distinct values a string column may
/// have before it is dropped from the feature space (very high-cardinality
/// text columns such as free-form memos are handled by the substring
/// conditions the predicate enumerator generates separately).
pub const DEFAULT_MAX_CATEGORIES: usize = 64;

impl FeatureSpace {
    /// Builds a feature space from the given columns of a table, using the
    /// provided rows to populate categorical dictionaries.
    ///
    /// String columns with more than `max_categories` distinct values among
    /// `rows` are skipped. Unknown column names are skipped silently so
    /// callers can pass "all columns except the aggregate argument" without
    /// fuss.
    pub fn build(
        table: &Table,
        columns: &[String],
        rows: &[RowId],
        max_categories: usize,
    ) -> FeatureSpace {
        let mut features = Vec::new();
        for name in columns {
            let Some(idx) = table.schema().index_of(name) else { continue };
            let field = table.schema().field_at(idx).expect("index resolved");
            match field.dtype {
                DataType::Int | DataType::Float | DataType::Timestamp => {
                    features.push(FeatureDef {
                        column: field.name.clone(),
                        kind: FeatureKind::Numeric,
                    });
                }
                DataType::Bool => {
                    features.push(FeatureDef {
                        column: field.name.clone(),
                        kind: FeatureKind::Boolean,
                    });
                }
                DataType::Str => {
                    let column = table.column(idx).expect("index resolved");
                    let mut distinct: HashSet<&str> = HashSet::new();
                    for &rid in rows {
                        if let Some(text) = column.get_str(rid.index()) {
                            distinct.insert(text);
                            if distinct.len() > max_categories {
                                break;
                            }
                        }
                    }
                    if !distinct.is_empty() && distinct.len() <= max_categories {
                        let mut values: Vec<Value> = distinct.into_iter().map(Value::str).collect();
                        values.sort();
                        features.push(FeatureDef {
                            column: field.name.clone(),
                            kind: FeatureKind::Categorical { values },
                        });
                    }
                }
                DataType::Null => {}
            }
        }
        let built_over = BuiltOver {
            table_id: table.id(),
            table_version: table.version(),
            rows: rows.to_vec(),
            matrix: OnceLock::new(),
        };
        FeatureSpace { features, built_over: Arc::new(built_over) }
    }

    /// Builds a feature space over every column except those named in
    /// `exclude`, with the default category cap.
    pub fn build_excluding(table: &Table, exclude: &[String], rows: &[RowId]) -> FeatureSpace {
        let columns: Vec<String> = table
            .schema()
            .names()
            .into_iter()
            .filter(|n| !exclude.iter().any(|e| e.eq_ignore_ascii_case(n)))
            .collect();
        FeatureSpace::build(table, &columns, rows, DEFAULT_MAX_CATEGORIES)
    }

    /// The feature definitions, in order.
    pub fn features(&self) -> &[FeatureDef] {
        &self.features
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the space has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Index of a feature by column name.
    pub fn index_of(&self, column: &str) -> Option<usize> {
        self.features.iter().position(|f| f.column.eq_ignore_ascii_case(column))
    }

    /// Extracts a dataset (feature matrix) for the given rows.
    ///
    /// Asked for exactly the rows the space was built over, on the table
    /// data it was built over, every call (from any thread, through any
    /// clone of the space) returns the same shared matrix, extracted on the
    /// first; any other row list or table data is extracted afresh and
    /// leaves the memo alone.
    pub fn extract(&self, table: &Table, rows: &[RowId]) -> Arc<Dataset> {
        let built = &*self.built_over;
        if table.id() == built.table_id
            && table.version() == built.table_version
            && rows == built.rows
        {
            Arc::clone(built.matrix.get_or_init(|| Arc::new(self.extract_columns(table, rows))))
        } else {
            Arc::new(self.extract_columns(table, rows))
        }
    }

    /// One pass over each feature's table column.
    fn extract_columns(&self, table: &Table, rows: &[RowId]) -> Dataset {
        assert!(u32::try_from(rows.len()).is_ok(), "a feature matrix indexes instances with u32");
        let columns = self
            .features
            .iter()
            .map(|f| {
                let column = table.column_by_name(&f.column);
                match &f.kind {
                    FeatureKind::Numeric | FeatureKind::Boolean => {
                        let cells = rows.iter().map(|r| column.and_then(|c| c.get_f64(r.index())));
                        FeatureColumn::Numeric(NumericColumn::from_cells(cells))
                    }
                    FeatureKind::Categorical { values } => {
                        let codes: HashMap<&str, u32> = values
                            .iter()
                            .enumerate()
                            .filter_map(|(code, v)| Some((v.as_str()?, code as u32)))
                            .collect();
                        FeatureColumn::Categorical {
                            codes: rows
                                .iter()
                                .map(|r| {
                                    column
                                        .and_then(|c| c.get_str(r.index()))
                                        .and_then(|text| codes.get(text).copied())
                                        .unwrap_or(MISSING_CODE)
                                })
                                .collect(),
                            cardinality: values.len(),
                        }
                    }
                }
            })
            .collect();
        Dataset { columns, len: rows.len() }
    }

    /// Translates a categorical equality/inequality test into a
    /// [`Condition`].
    pub fn categorical_condition(
        &self,
        feature: usize,
        category: usize,
        equal: bool,
    ) -> Option<Condition> {
        let def = self.features.get(feature)?;
        let FeatureKind::Categorical { values } = &def.kind else { return None };
        let value = values.get(category)?.clone();
        Some(if equal {
            Condition::equals(def.column.clone(), value)
        } else {
            Condition::not_equals(def.column.clone(), value)
        })
    }
}

/// The code of a NULL or out-of-dictionary categorical cell.
pub(crate) const MISSING_CODE: u32 = u32::MAX;

/// One feature of a [`Dataset`], stored column-wise.
#[derive(Debug, Clone)]
pub(crate) enum FeatureColumn {
    /// `f64` values plus presence.
    Numeric(NumericColumn),
    /// Dictionary codes ([`MISSING_CODE`] for a missing cell), all below
    /// `cardinality`.
    Categorical { codes: Vec<u32>, cardinality: usize },
}

/// Folds `instances`' cells of a categorical feature into one accumulator
/// per category, categories in first-seen order, missing cells skipped.
pub(crate) fn fold_categories<T>(
    codes: &[u32],
    cardinality: usize,
    instances: impl IntoIterator<Item = usize>,
    init: impl Fn() -> T,
    mut fold: impl FnMut(&mut T, usize),
) -> Vec<(usize, T)> {
    let mut slot_of = vec![usize::MAX; cardinality];
    let mut seen: Vec<(usize, T)> = Vec::new();
    for i in instances {
        let code = codes[i] as usize;
        let Some(slot) = slot_of.get_mut(code) else { continue };
        if *slot == usize::MAX {
            *slot = seen.len();
            seen.push((code, init()));
        }
        fold(&mut seen[*slot].1, i);
    }
    seen
}

/// A numeric feature: values, presence and — once a learner asks — the
/// sort permutation every tree node and threshold test derives from.
#[derive(Debug, Clone)]
pub(crate) struct NumericColumn {
    values: Vec<f64>,
    present: Vec<bool>,
    sorted: OnceLock<Vec<u32>>,
}

impl NumericColumn {
    fn from_cells(cells: impl Iterator<Item = Option<f64>>) -> NumericColumn {
        let (values, present) = cells.map(|cell| (cell.unwrap_or(0.0), cell.is_some())).unzip();
        NumericColumn { values, present, sorted: OnceLock::new() }
    }

    /// The value of instance `i`, `None` when missing.
    pub(crate) fn get(&self, i: usize) -> Option<f64> {
        self.present[i].then(|| self.values[i])
    }

    /// The value of instance `i`, which must be present (e.g. an entry of
    /// [`NumericColumn::sorted`]).
    pub(crate) fn value(&self, i: u32) -> f64 {
        self.values[i as usize]
    }

    /// The instances whose value is present, stably sorted by
    /// `f64::total_cmp` (ties in ascending instance order) — what gathering
    /// any ascending subset of instances and stable-sorting it yields,
    /// restricted to that subset. Sorted on first use, then shared.
    pub(crate) fn sorted(&self) -> &[u32] {
        self.sorted.get_or_init(|| {
            let mut order: Vec<u32> =
                (0..self.values.len() as u32).filter(|&i| self.present[i as usize]).collect();
            order.sort_by(|&a, &b| self.value(a).total_cmp(&self.value(b)));
            order
        })
    }
}

/// Why [`Dataset::from_rows`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromRowsError {
    /// Row `row` does not have as many cells as the first row.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
    },
    /// Feature `feature` holds both `Num` and `Cat` cells.
    MixedFeature {
        /// Index of the offending feature.
        feature: usize,
    },
}

impl fmt::Display for FromRowsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromRowsError::RaggedRow { row } => {
                write!(f, "row {row} is not as long as the first row")
            }
            FromRowsError::MixedFeature { feature } => {
                write!(f, "feature {feature} mixes numeric and categorical cells")
            }
        }
    }
}

impl std::error::Error for FromRowsError {}

/// A columnar feature matrix extracted from a table: per feature either
/// `f64` values with presence or `u32` category codes, one entry per
/// instance.
#[derive(Debug, Clone)]
pub struct Dataset {
    columns: Vec<FeatureColumn>,
    len: usize,
}

impl Dataset {
    /// Builds a matrix from row-major feature vectors. A feature is numeric
    /// unless it holds a `Cat` cell (an all-`Missing` feature is numeric);
    /// one holding both `Num` and `Cat` cells is rejected, as is a row whose
    /// length differs from the first row's.
    pub fn from_rows(rows: &[Vec<FeatureValue>]) -> Result<Dataset, FromRowsError> {
        assert!(u32::try_from(rows.len()).is_ok(), "a feature matrix indexes instances with u32");
        let width = rows.first().map_or(0, Vec::len);
        if let Some(row) = rows.iter().position(|r| r.len() != width) {
            return Err(FromRowsError::RaggedRow { row });
        }
        let columns = (0..width)
            .map(|feature| {
                let cells = || rows.iter().map(|r| r[feature]);
                let categorical = cells().any(|c| matches!(c, FeatureValue::Cat(_)));
                if categorical && cells().any(|c| matches!(c, FeatureValue::Num(_))) {
                    return Err(FromRowsError::MixedFeature { feature });
                }
                Ok(if categorical {
                    let codes: Vec<u32> = cells()
                        .map(|c| c.as_cat().map_or(MISSING_CODE, |code| code as u32))
                        .collect();
                    let cardinality =
                        cells().filter_map(FeatureValue::as_cat).max().map_or(0, |m| m + 1);
                    FeatureColumn::Categorical { codes, cardinality }
                } else {
                    FeatureColumn::Numeric(NumericColumn::from_cells(
                        cells().map(FeatureValue::as_num),
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Dataset { columns, len: rows.len() })
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the dataset has no instances.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.columns.len()
    }

    /// The cell of instance `instance` at feature `feature` (`Missing` for
    /// a feature the matrix does not have).
    ///
    /// Panics when `instance` is out of bounds.
    pub fn value(&self, instance: usize, feature: usize) -> FeatureValue {
        match self.columns.get(feature) {
            Some(FeatureColumn::Numeric(column)) => {
                column.get(instance).map_or(FeatureValue::Missing, FeatureValue::Num)
            }
            Some(FeatureColumn::Categorical { codes, .. }) => match codes[instance] {
                MISSING_CODE => FeatureValue::Missing,
                code => FeatureValue::Cat(code as usize),
            },
            None => FeatureValue::Missing,
        }
    }

    /// The feature vector of one instance.
    pub fn instance(&self, instance: usize) -> Vec<FeatureValue> {
        (0..self.columns.len()).map(|feature| self.value(instance, feature)).collect()
    }

    /// The features, column-wise.
    pub(crate) fn columns(&self) -> &[FeatureColumn] {
        &self.columns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbwipes_storage::Schema;

    fn table() -> Table {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
            ("room", DataType::Str),
            ("memo", DataType::Str),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        t.push_rows(vec![
            vec![Value::Int(1), Value::Float(20.0), Value::str("lab"), Value::str("a")],
            vec![Value::Int(2), Value::Float(21.0), Value::str("lab"), Value::str("b")],
            vec![Value::Int(3), Value::Float(120.0), Value::str("kitchen"), Value::str("c")],
            vec![Value::Int(3), Value::Null, Value::str("office"), Value::str("d")],
        ])
        .unwrap();
        t
    }

    fn all_rows(t: &Table) -> Vec<RowId> {
        t.row_ids().collect()
    }

    #[test]
    fn builds_numeric_and_categorical_features() {
        let t = table();
        let rows = all_rows(&t);
        let space =
            FeatureSpace::build(&t, &["sensorid".into(), "temp".into(), "room".into()], &rows, 16);
        assert_eq!(space.len(), 3);
        assert!(!space.is_empty());
        assert_eq!(space.features()[0].kind, FeatureKind::Numeric);
        match &space.features()[2].kind {
            FeatureKind::Categorical { values } => {
                assert_eq!(values.len(), 3);
                assert!(values.contains(&Value::str("lab")));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(space.index_of("TEMP"), Some(1));
        assert_eq!(space.index_of("nope"), None);
    }

    #[test]
    fn high_cardinality_and_unknown_columns_are_skipped() {
        let t = table();
        let rows = all_rows(&t);
        // memo has 4 distinct values; cap of 2 drops it.
        let space = FeatureSpace::build(&t, &["memo".into(), "ghost".into()], &rows, 2);
        assert!(space.is_empty());
        let space = FeatureSpace::build_excluding(&t, &["temp".into()], &rows);
        assert!(space.index_of("temp").is_none());
        assert!(space.index_of("memo").is_some());
    }

    #[test]
    fn extraction_handles_nulls_and_unknown_categories() {
        let t = table();
        let rows = all_rows(&t);
        let space = FeatureSpace::build(&t, &["temp".into(), "room".into()], &rows[..3], 16);
        let ds = space.extract(&t, &rows);
        assert_eq!(ds.len(), 4);
        assert!(!ds.is_empty());
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.value(0, 0), FeatureValue::Num(20.0));
        // Row 3 has NULL temp -> Missing, and "office" was not in the
        // dictionary rows -> Missing.
        assert!(ds.value(3, 0).is_missing());
        assert!(ds.value(3, 1).is_missing());
        assert_eq!(ds.value(2, 1).as_cat(), Some(0)); // "kitchen" sorts first
        assert_eq!(ds.value(0, 0).as_num(), Some(20.0));
        assert_eq!(ds.value(0, 1).as_num(), None);
        assert!(ds.value(0, 9).is_missing());
    }

    #[test]
    fn numeric_features_sort_stably_and_skip_missing_cells() {
        let cell = FeatureValue::Num;
        let rows: Vec<Vec<FeatureValue>> =
            [cell(2.0), cell(-0.0), FeatureValue::Missing, cell(0.0), cell(2.0), cell(-1.0)]
                .into_iter()
                .map(|c| vec![c])
                .collect();
        let ds = Dataset::from_rows(&rows).unwrap();
        let FeatureColumn::Numeric(column) = &ds.columns()[0] else { panic!("numeric") };
        // -0.0 sorts before 0.0 under total_cmp; the two 2.0s keep instance order.
        assert_eq!(column.sorted(), &[5, 1, 3, 0, 4]);
        assert_eq!(column.get(2), None);
    }

    #[test]
    fn from_rows_rejects_mixed_features_and_ragged_rows() {
        let mixed = [vec![FeatureValue::Num(1.0)], vec![FeatureValue::Cat(0)]];
        assert_eq!(
            Dataset::from_rows(&mixed).unwrap_err(),
            FromRowsError::MixedFeature { feature: 0 }
        );
        let ragged = [vec![FeatureValue::Num(1.0)], vec![]];
        let err = Dataset::from_rows(&ragged).unwrap_err();
        assert_eq!(err, FromRowsError::RaggedRow { row: 1 });
        assert!(err.to_string().contains("row 1"));
        // Missing cells fit either kind; an all-missing feature is numeric.
        let ok = [
            vec![FeatureValue::Missing, FeatureValue::Cat(2)],
            vec![FeatureValue::Missing, FeatureValue::Missing],
        ];
        let ds = Dataset::from_rows(&ok).unwrap();
        assert_eq!(ds.instance(0), ok[0]);
        assert_eq!(ds.instance(1), ok[1]);
    }

    fn instances(ds: &Dataset) -> Vec<Vec<FeatureValue>> {
        (0..ds.len()).map(|i| ds.instance(i)).collect()
    }

    #[test]
    fn the_matrix_of_the_built_over_rows_is_extracted_once() {
        let t = table();
        let rows = all_rows(&t);
        let space = FeatureSpace::build_excluding(&t, &[], &rows);
        let f = space.extract(&t, &rows);
        assert!(Arc::ptr_eq(&f, &space.extract(&t, &rows)));
        assert!(Arc::ptr_eq(&f, &space.clone().extract(&t.clone(), &rows.clone())));
        // Another row list (D′, say) is extracted afresh and evicts nothing.
        let d = space.extract(&t, &rows[..2]);
        assert_eq!(instances(&d), instances(&f)[..2]);
        assert!(!Arc::ptr_eq(&d, &space.extract(&t, &rows[..2])));
        let reordered: Vec<RowId> = rows.iter().rev().copied().collect();
        assert_eq!(instances(&space.extract(&t, &reordered))[0], instances(&f)[3]);
        assert!(Arc::ptr_eq(&f, &space.extract(&t, &rows)));
    }

    #[test]
    fn changed_table_data_never_gets_the_memoised_matrix() {
        let mut t = table();
        let rows = all_rows(&t);
        let space = FeatureSpace::build_excluding(&t, &[], &rows);
        let f = space.extract(&t, &rows);
        let before = instances(&f);

        // An append moves the version, whether or not the new row is asked
        // for.
        let appended = t
            .push_row(vec![Value::Int(9), Value::Float(1.0), Value::str("lab"), Value::str("e")])
            .unwrap();
        let old_rows = space.extract(&t, &rows);
        assert!(!Arc::ptr_eq(&f, &old_rows));
        assert_eq!(instances(&old_rows), before);
        let mut grown = rows.clone();
        grown.push(appended);
        assert_eq!(space.extract(&t, &grown).len(), 5);

        // A different table of the same name and shape has its own identity.
        let other = table();
        assert_eq!(other.name(), t.name());
        let theirs = space.extract(&other, &rows);
        assert!(!Arc::ptr_eq(&f, &theirs));
        assert_eq!(instances(&theirs), before);
        assert_eq!(instances(&f), before, "the memoised matrix itself never changes");
    }

    #[test]
    fn concurrent_extractions_share_one_matrix() {
        let t = table();
        let rows = all_rows(&t);
        let space = FeatureSpace::build_excluding(&t, &[], &rows);
        // The other thread works through clones, which share the memo.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let other = std::thread::spawn({
            let (barrier, space, t, rows) =
                (barrier.clone(), space.clone(), t.clone(), rows.clone());
            move || {
                barrier.wait();
                space.extract(&t, &rows)
            }
        });
        barrier.wait();
        let a = space.extract(&t, &rows);
        let b = other.join().expect("the extracting thread panicked");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            instances(&a),
            instances(&FeatureSpace::build_excluding(&t, &[], &rows).extract(&t, &rows))
        );
    }

    #[test]
    fn conditions_round_trip_feature_indices() {
        let t = table();
        let rows = all_rows(&t);
        let space = FeatureSpace::build(&t, &["temp".into(), "room".into()], &rows, 16);
        let c = space.categorical_condition(1, 0, true).unwrap();
        assert_eq!(c.to_string(), "room = 'kitchen'");
        let c = space.categorical_condition(1, 1, false).unwrap();
        assert_eq!(c.to_string(), "room <> 'lab'");
        assert!(space.categorical_condition(0, 0, true).is_none());
        assert!(space.categorical_condition(1, 99, true).is_none());
    }
}
