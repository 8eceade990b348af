//! In-memory columnar tables with stable row identifiers and soft deletes.
//!
//! DBWipes' "clean as you query" loop removes tuples matching a predicate
//! from subsequent queries. Tables therefore support *soft deletion*: a
//! deleted row keeps its [`RowId`] (so provenance references stay valid)
//! but is skipped by scans until it is restored.

use crate::column::Column;
use crate::error::StorageError;
use crate::predicate::{lock_recover, ConditionBitmapCache, CONDITION_BITMAP_BUDGET_BYTES};
use crate::rowset::RowSet;
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Process-global counter behind table identities and data versions.
///
/// Every draw is unique for the lifetime of the process, so two tables (or
/// two diverged clones of one table) can never share an `(id, version)`
/// pair — the property the server's statement-fingerprint cache keys rely
/// on.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Advances the process-global stamp counter past `stamp`, so stamps drawn
/// in this process can never collide with identities or versions restored
/// from a durable snapshot written by an earlier process.
pub(crate) fn advance_stamp_floor(stamp: u64) {
    NEXT_STAMP.fetch_max(stamp.saturating_add(1), Ordering::Relaxed);
}

/// A table's two-part data version: a `structural` stamp re-drawn by
/// mutations that can change or hide existing rows (soft delete, restore),
/// and an `appended` stamp re-drawn by row appends.
///
/// Both stamps come from the same process-global counter as [`Table::id`],
/// so every `(id, version())` pair still pins bit-identical data: each
/// mutation draws a globally unique stamp into one of the two components,
/// and [`TableEpoch::version`] is the most recent stamp drawn. The split
/// lets append-aware consumers distinguish "rows were added after yours"
/// (absorbable) from "rows you indexed changed" (rebuild required).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableEpoch {
    /// Stamp of the last structure-changing mutation (creation, soft
    /// delete, restore). Caches keyed on existing rows survive only while
    /// this is unchanged.
    pub structural: u64,
    /// Stamp of the last append (`push_row` / `push_rows`). A batch append
    /// draws one stamp for the whole batch.
    pub appended: u64,
}

impl TableEpoch {
    /// The single-stamp view of the epoch: the most recent mutation stamp.
    /// Two tables with equal id and equal `version()` hold identical data —
    /// the same invariant the old scalar version carried.
    pub fn version(&self) -> u64 {
        self.structural.max(self.appended)
    }

    /// True when `self` is reachable from `older` by appends alone: the
    /// structural stamp is unchanged and the appended stamp is at or past
    /// `older`'s. This is the precondition every `absorb_append` checks.
    pub fn is_append_descendant_of(&self, older: TableEpoch) -> bool {
        self.structural == older.structural && self.appended >= older.appended
    }
}

/// A stable identifier of a row within one table.
///
/// Row ids are assigned densely in insertion order and never reused; they
/// are the currency of the provenance layer (lineage maps output groups to
/// sets of `RowId`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub usize);

impl RowId {
    /// The row id as a `usize` index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<usize> for RowId {
    fn from(v: usize) -> Self {
        RowId(v)
    }
}

/// An in-memory columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    deleted: Vec<bool>,
    /// Identity stamp: unique per `Table::new` call, preserved by `clone()`
    /// (a clone is a snapshot of the *same* logical table).
    id: u64,
    /// Two-part data version: every mutation re-stamps one component (see
    /// [`TableEpoch`]), so any two tables with equal `(id, version())` hold
    /// identical data.
    epoch: TableEpoch,
    /// The condition bitmaps of this snapshot, built on first use (see
    /// [`Table::condition_bitmaps`]). A clone shares the slot — equal
    /// `(id, version)` is identical data — and whatever writes `epoch`
    /// calls [`Table::reset_bitmaps`], which leaves the clones theirs.
    bitmaps: BitmapSlot,
}

type BitmapSlot = Arc<Mutex<Option<Arc<ConditionBitmapCache>>>>;

impl Table {
    /// Creates an empty table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Result<Self, StorageError> {
        let columns =
            schema.fields().iter().map(|f| Column::new(f.dtype)).collect::<Result<Vec<_>, _>>()?;
        let id = next_stamp();
        let epoch = TableEpoch { structural: id, appended: id };
        let bitmaps = BitmapSlot::default();
        Ok(Table { name: name.into(), schema, columns, deleted: Vec::new(), id, epoch, bitmaps })
    }

    /// Reassembles a table from decoded snapshot parts, preserving the
    /// persisted identity and version stamps so cache fingerprints keyed on
    /// `(id, version)` survive a process restart. Advances the global stamp
    /// floor past both stamps so freshly created tables can never collide
    /// with restored ones.
    pub(crate) fn restore(
        name: String,
        schema: Schema,
        columns: Vec<Column>,
        deleted: Vec<bool>,
        id: u64,
        epoch: TableEpoch,
    ) -> Result<Self, StorageError> {
        if columns.len() != schema.len() {
            return Err(StorageError::Corrupt(format!(
                "snapshot has {} column segments but the schema declares {} columns",
                columns.len(),
                schema.len()
            )));
        }
        for (col, field) in columns.iter().zip(schema.fields()) {
            if col.dtype() != field.dtype {
                return Err(StorageError::Corrupt(format!(
                    "column '{}' segment is {} but the schema declares {}",
                    field.name,
                    col.dtype().name(),
                    field.dtype.name()
                )));
            }
            if col.len() != deleted.len() {
                return Err(StorageError::Corrupt(format!(
                    "column '{}' has {} rows but the table has {}",
                    field.name,
                    col.len(),
                    deleted.len()
                )));
            }
        }
        advance_stamp_floor(id.max(epoch.version()));
        Ok(Table { name, schema, columns, deleted, id, epoch, bitmaps: BitmapSlot::default() })
    }

    /// Replays one append segment: `decode` appends the segment's `rows`
    /// rows to each column in schema order, and `appended` is the stamp
    /// the append drew, restored verbatim so `(id, version)` keys minted
    /// before a restart still match. On an error the table is left
    /// half-extended and must be dropped, as a failed load does.
    pub(crate) fn replay_append(
        &mut self,
        rows: usize,
        appended: u64,
        mut decode: impl FnMut(&mut Column) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let total =
            self.deleted.len().checked_add(rows).ok_or_else(|| {
                StorageError::Corrupt(format!("append segment declares {rows} rows"))
            })?;
        for col in &mut self.columns {
            decode(col)?;
            if col.len() != total {
                return Err(StorageError::Corrupt(format!(
                    "append segment leaves a column of '{}' at {} rows, expected {total}",
                    self.name,
                    col.len()
                )));
            }
        }
        self.deleted.resize(total, false);
        self.epoch.appended = appended;
        self.reset_bitmaps();
        advance_stamp_floor(appended);
        Ok(())
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's process-unique identity. Clones share the identity of
    /// the table they were cloned from; independently created tables never
    /// collide, even across re-registrations under the same name.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The table's data version — the scalar view of [`Table::epoch`].
    /// Every mutation (insert, soft delete, restore) re-stamps one epoch
    /// component from a process-global counter, so diverged clones of one
    /// table also get distinct versions. Two tables with equal
    /// [`Table::id`] and equal version are guaranteed to hold identical
    /// data — the invariant behind cross-brush cache reuse.
    pub fn version(&self) -> u64 {
        self.epoch.version()
    }

    /// The table's two-part data version. Append-aware consumers compare
    /// epochs with [`TableEpoch::is_append_descendant_of`] instead of the
    /// scalar [`Table::version`] so appends do not invalidate them
    /// wholesale; artifacts pinned to an exact row universe compare by `==`.
    pub fn epoch(&self) -> TableEpoch {
        self.epoch
    }

    /// Re-stamps the structural epoch component; called by mutations that
    /// change or hide existing rows (soft delete, restore).
    fn touch_structural(&mut self) {
        self.epoch.structural = next_stamp();
        self.reset_bitmaps();
    }

    /// Re-stamps the appended epoch component; called by appends. One call
    /// covers a whole batch.
    fn touch_appended(&mut self) {
        self.epoch.appended = next_stamp();
        self.reset_bitmaps();
    }

    /// Starts this table, now a new snapshot, with no bitmaps. Snapshots
    /// that share the slot (clones taken before the mutation) keep it; a
    /// table nobody shares with clears its own, so building one row by row
    /// allocates no slot per row.
    fn reset_bitmaps(&mut self) {
        match Arc::get_mut(&mut self.bitmaps) {
            Some(slot) => *slot.get_mut().unwrap_or_else(|poison| poison.into_inner()) = None,
            None => self.bitmaps = BitmapSlot::default(),
        }
    }

    /// The condition-bitmap cache of this snapshot, shared by every
    /// ranking over it and over its unmodified clones: a condition scanned
    /// for one explain is a bitmap hit for the next. Memory is bounded
    /// here and only here — a cache found holding more than
    /// [`CONDITION_BITMAP_BUDGET_BYTES`] is replaced by an empty one, and
    /// rankings already running keep the `Arc` they hold — so a ranking
    /// never loses a bitmap it warmed, and a snapshot retains at most the
    /// budget plus what the rankings that acquired it last added.
    pub fn condition_bitmaps(&self) -> Arc<ConditionBitmapCache> {
        let mut slot = lock_recover(&self.bitmaps);
        match &*slot {
            Some(cache) if cache.retained().1 <= CONDITION_BITMAP_BUDGET_BYTES => Arc::clone(cache),
            _ => Arc::clone(slot.insert(Arc::new(ConditionBitmapCache::new(self)))),
        }
    }

    /// `(bitmaps, bytes)` this snapshot retains right now (see
    /// [`ConditionBitmapCache::retained`]). Reads only: unlike
    /// [`Table::condition_bitmaps`] it neither creates nor replaces a cache.
    pub fn retained_condition_bitmaps(&self) -> (usize, usize) {
        lock_recover(&self.bitmaps).as_ref().map_or((0, 0), |cache| cache.retained())
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of rows ever inserted (including soft-deleted rows).
    pub fn num_rows(&self) -> usize {
        self.deleted.len()
    }

    /// Number of rows currently visible (not soft-deleted).
    pub fn visible_rows(&self) -> usize {
        self.deleted.iter().filter(|d| !**d).count()
    }

    /// True when no rows have ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty()
    }

    /// Bytes of row data this snapshot reaches: the values and validity
    /// mask of every chunk of every column, and the soft-deletion mask.
    /// Sealed chunks are counted in full although other snapshots of the
    /// table share them, so the gauges of two snapshots do not add up; the
    /// condition bitmaps have a gauge of their own
    /// ([`Table::retained_condition_bitmaps`]).
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(Column::approx_bytes).sum::<usize>() + self.deleted.len()
    }

    /// Appends a row given as one value per schema column.
    ///
    /// Returns the new row's [`RowId`].
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<RowId, StorageError> {
        self.validate_row(&values)?;
        self.apply_row(values);
        let id = RowId(self.deleted.len() - 1);
        self.touch_appended();
        Ok(id)
    }

    /// Appends many rows, all-or-nothing: the entire batch is validated
    /// against the schema before any column is mutated, so a bad row k
    /// leaves neither rows `0..k` applied nor the version stamp advanced.
    /// The whole batch lands under a single appended-epoch stamp.
    pub fn push_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<Vec<RowId>, StorageError> {
        for row in &rows {
            self.validate_row(row)?;
        }
        let first = self.deleted.len();
        let ids = (first..first + rows.len()).map(RowId).collect();
        for row in rows {
            self.apply_row(row);
        }
        self.touch_appended();
        Ok(ids)
    }

    /// Validates one row against the schema (arity and per-column type)
    /// without mutating anything. Public so a caller holding a shared
    /// snapshot can refuse a payload before a copy-on-write
    /// [`Table::push_rows`] would clone the table.
    pub fn validate_row(&self, values: &[Value]) -> Result<(), StorageError> {
        if values.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: values.len(),
            });
        }
        self.columns.iter().zip(values).try_for_each(|(col, value)| col.accepts(value))
    }

    /// Appends one pre-validated row to every column. Does not re-stamp the
    /// epoch; callers do, once per logical append.
    fn apply_row(&mut self, values: Vec<Value>) {
        for (col, value) in self.columns.iter_mut().zip(values) {
            col.push(value).expect("validated by validate_row");
        }
        self.deleted.push(false);
    }

    /// Returns the value at (`row`, `col`) or an error when out of bounds.
    pub fn value(&self, row: RowId, col: usize) -> Result<Value, StorageError> {
        let column = self.columns.get(col).ok_or_else(|| StorageError::UnknownColumn {
            column: format!("<index {col}>"),
            available: self.schema.names(),
        })?;
        column.get(row.0).ok_or(StorageError::RowOutOfBounds { row: row.0, len: self.num_rows() })
    }

    /// Returns the value in the named column of `row`.
    pub fn value_by_name(&self, row: RowId, column: &str) -> Result<Value, StorageError> {
        let idx = self.schema.resolve(column)?;
        self.value(row, idx)
    }

    /// Returns a whole row as a vector of values (in schema order).
    pub fn row(&self, row: RowId) -> Result<Vec<Value>, StorageError> {
        if row.0 >= self.num_rows() {
            return Err(StorageError::RowOutOfBounds { row: row.0, len: self.num_rows() });
        }
        Ok(self.columns.iter().map(|c| c.get(row.0).expect("in bounds")).collect())
    }

    /// Returns the column at index `idx`.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Returns the column with the given name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).and_then(|i| self.columns.get(i))
    }

    /// True when `row` is currently soft-deleted.
    pub fn is_deleted(&self, row: RowId) -> bool {
        self.deleted.get(row.0).copied().unwrap_or(true)
    }

    /// Soft-deletes a single row. Deleting an already-deleted row is a no-op.
    pub fn delete_row(&mut self, row: RowId) -> Result<(), StorageError> {
        match self.deleted.get_mut(row.0) {
            Some(d) => {
                *d = true;
                self.touch_structural();
                Ok(())
            }
            None => Err(StorageError::RowOutOfBounds { row: row.0, len: self.num_rows() }),
        }
    }

    /// Soft-deletes every row in `rows`, returning how many rows changed
    /// from visible to deleted.
    pub fn delete_rows(&mut self, rows: &[RowId]) -> Result<usize, StorageError> {
        let mut changed = 0;
        for &r in rows {
            if r.0 >= self.num_rows() {
                return Err(StorageError::RowOutOfBounds { row: r.0, len: self.num_rows() });
            }
            if !self.deleted[r.0] {
                self.deleted[r.0] = true;
                changed += 1;
            }
        }
        if changed > 0 {
            self.touch_structural();
        }
        Ok(changed)
    }

    /// Restores a soft-deleted row.
    pub fn restore_row(&mut self, row: RowId) -> Result<(), StorageError> {
        match self.deleted.get_mut(row.0) {
            Some(d) => {
                *d = false;
                self.touch_structural();
                Ok(())
            }
            None => Err(StorageError::RowOutOfBounds { row: row.0, len: self.num_rows() }),
        }
    }

    /// Restores all soft-deleted rows.
    pub fn restore_all(&mut self) {
        for d in &mut self.deleted {
            *d = false;
        }
        self.touch_structural();
    }

    /// Iterates over the ids of all visible (non-deleted) rows.
    pub fn visible_row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.deleted.iter().enumerate().filter(|(_, d)| !**d).map(|(i, _)| RowId(i))
    }

    /// Iterates over the ids of all rows ever inserted, deleted or not.
    pub fn all_row_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.num_rows()).map(RowId)
    }

    /// The raw soft-deletion mask, one flag per physical row (for the
    /// persistence layer's snapshot codec).
    pub(crate) fn deleted_slice(&self) -> &[bool] {
        &self.deleted
    }

    /// The visible (non-soft-deleted) rows as a [`RowSet`] bitmap over the
    /// table's physical rows — the mask the vectorized predicate kernels
    /// intersect their full-column results with.
    pub fn visible_row_set(&self) -> RowSet {
        let mut set = RowSet::full(self.deleted.len());
        for (i, &d) in self.deleted.iter().enumerate() {
            if d {
                set.remove(i);
            }
        }
        set
    }

    /// Materialises a new table containing copies of the given rows
    /// (in the order given), preserving this table's schema. The new table's
    /// row ids are renumbered from zero; the returned mapping gives, for each
    /// new row, the original [`RowId`] it came from.
    pub fn materialize(
        &self,
        rows: &[RowId],
        name: impl Into<String>,
    ) -> Result<(Table, Vec<RowId>), StorageError> {
        let mut out = Table::new(name, self.schema.clone())?;
        let mut mapping = Vec::with_capacity(rows.len());
        for &r in rows {
            let values = self.row(r)?;
            out.push_row(values)?;
            mapping.push(r);
        }
        Ok((out, mapping))
    }

    /// Renders the first `limit` visible rows as an ASCII table, mainly for
    /// examples and debugging output.
    pub fn preview(&self, limit: usize) -> String {
        let mut s = String::new();
        s.push_str(&self.schema.names().join(" | "));
        s.push('\n');
        for (count, rid) in self.visible_row_ids().enumerate() {
            if count >= limit {
                s.push_str("...\n");
                break;
            }
            let row = self.row(rid).expect("visible row exists");
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            s.push_str(&cells.join(" | "));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Condition;
    use crate::value::DataType;

    fn sensor_table() -> Table {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
            ("room", DataType::Str),
        ]);
        let mut t = Table::new("sensors", schema).unwrap();
        t.push_rows(vec![
            vec![Value::Int(1), Value::Float(20.0), Value::str("lab")],
            vec![Value::Int(2), Value::Float(21.5), Value::str("lab")],
            vec![Value::Int(3), Value::Float(120.0), Value::str("kitchen")],
        ])
        .unwrap();
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = sensor_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.visible_rows(), 3);
        assert_eq!(t.value(RowId(2), 1).unwrap(), Value::Float(120.0));
        assert_eq!(t.value_by_name(RowId(0), "room").unwrap(), Value::str("lab"));
        assert_eq!(
            t.row(RowId(1)).unwrap(),
            vec![Value::Int(2), Value::Float(21.5), Value::str("lab")]
        );
    }

    #[test]
    fn arity_mismatch_rejected_without_corruption() {
        let mut t = sensor_table();
        let err = t.push_row(vec![Value::Int(9)]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { expected: 3, found: 1 }));
        // Type error in the middle of a row must not partially apply.
        let err = t.push_row(vec![Value::Int(9), Value::str("oops"), Value::str("x")]).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(t.num_rows(), 3);
        for c in 0..3 {
            assert_eq!(t.column(c).unwrap().len(), 3);
        }
    }

    #[test]
    fn soft_delete_and_restore() {
        let mut t = sensor_table();
        t.delete_row(RowId(1)).unwrap();
        assert!(t.is_deleted(RowId(1)));
        assert_eq!(t.visible_rows(), 2);
        let visible: Vec<RowId> = t.visible_row_ids().collect();
        assert_eq!(visible, vec![RowId(0), RowId(2)]);
        // Row data survives deletion (provenance may still reference it).
        assert_eq!(t.value(RowId(1), 0).unwrap(), Value::Int(2));

        t.restore_row(RowId(1)).unwrap();
        assert_eq!(t.visible_rows(), 3);

        let changed = t.delete_rows(&[RowId(0), RowId(0), RowId(2)]).unwrap();
        assert_eq!(changed, 2);
        t.restore_all();
        assert_eq!(t.visible_rows(), 3);
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut t = sensor_table();
        assert!(t.value(RowId(10), 0).is_err());
        assert!(t.row(RowId(10)).is_err());
        assert!(t.delete_row(RowId(10)).is_err());
        assert!(t.restore_row(RowId(10)).is_err());
        assert!(t.delete_rows(&[RowId(10)]).is_err());
        assert!(t.is_deleted(RowId(10)));
        assert!(t.value_by_name(RowId(0), "missing").is_err());
    }

    #[test]
    fn materialize_subset() {
        let t = sensor_table();
        let (sub, mapping) = t.materialize(&[RowId(2), RowId(0)], "subset").unwrap();
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.value(RowId(0), 1).unwrap(), Value::Float(120.0));
        assert_eq!(mapping, vec![RowId(2), RowId(0)]);
        assert_eq!(sub.name(), "subset");
    }

    #[test]
    fn preview_renders_header_and_rows() {
        let t = sensor_table();
        let p = t.preview(2);
        assert!(p.starts_with("sensorid | temp | room"));
        assert!(p.contains("..."));
        let full = t.preview(10);
        assert!(!full.contains("..."));
        assert!(full.contains("kitchen"));
    }

    #[test]
    fn identity_survives_clone_but_versions_diverge() {
        let a = sensor_table();
        let other = sensor_table();
        assert_ne!(a.id(), other.id(), "independent tables get distinct identities");

        let mut b = a.clone();
        assert_eq!(a.id(), b.id(), "a clone snapshots the same logical table");
        assert_eq!(a.version(), b.version(), "an unmodified clone holds identical data");

        let mut a = a;
        a.delete_row(RowId(0)).unwrap();
        b.delete_row(RowId(1)).unwrap();
        // Diverged clones must not share a version even though both mutated
        // "once" — versions are drawn from a global counter, not incremented.
        assert_ne!(a.version(), b.version());
    }

    #[test]
    fn every_mutation_bumps_the_version() {
        let mut t = sensor_table();
        let mut last = t.version();
        let mut expect_bump = |t: &Table, what: &str| {
            assert_ne!(t.version(), last, "{what} must re-stamp the version");
            last = t.version();
        };
        t.push_row(vec![Value::Int(4), Value::Float(19.0), Value::str("hall")]).unwrap();
        expect_bump(&t, "push_row");
        t.delete_row(RowId(0)).unwrap();
        expect_bump(&t, "delete_row");
        t.restore_row(RowId(0)).unwrap();
        expect_bump(&t, "restore_row");
        t.delete_rows(&[RowId(1), RowId(2)]).unwrap();
        expect_bump(&t, "delete_rows");
        t.restore_all();
        expect_bump(&t, "restore_all");
        // Read-only accessors and failed mutations leave the version alone.
        let v = t.version();
        let _ = t.row(RowId(0));
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert!(t.delete_row(RowId(99)).is_err());
        assert_eq!(t.version(), v);
        // A no-op delete_rows (all already visible/deleted as-is) does not bump.
        assert_eq!(t.delete_rows(&[]).unwrap(), 0);
        assert_eq!(t.version(), v);
    }

    #[test]
    fn appends_and_structural_mutations_stamp_different_epoch_components() {
        let mut t = sensor_table();
        let e0 = t.epoch();
        t.push_row(vec![Value::Int(4), Value::Float(19.0), Value::str("hall")]).unwrap();
        let e1 = t.epoch();
        assert_eq!(e1.structural, e0.structural, "an append leaves the structural stamp alone");
        assert!(e1.appended > e0.appended, "an append re-stamps the appended component");
        assert!(e1.is_append_descendant_of(e0));
        assert!(!e0.is_append_descendant_of(e1));
        assert_ne!(e0, e1);
        assert_eq!(t.version(), e1.appended, "version() is the most recent stamp");

        t.delete_row(RowId(0)).unwrap();
        let e2 = t.epoch();
        assert!(e2.structural > e1.structural, "a delete re-stamps the structural component");
        assert_eq!(e2.appended, e1.appended);
        assert!(!e2.is_append_descendant_of(e1), "a structural change breaks append lineage");
        assert!(e2.is_append_descendant_of(e2));
        assert_eq!(t.version(), e2.structural);
    }

    #[test]
    fn push_rows_batch_is_all_or_nothing() {
        let mut t = sensor_table();
        let e = t.epoch();
        // Row 1 of the batch is bad: nothing may be applied, no stamp drawn.
        let err = t
            .push_rows(vec![
                vec![Value::Int(4), Value::Float(19.0), Value::str("hall")],
                vec![Value::Int(5), Value::str("oops"), Value::str("hall")],
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(t.num_rows(), 3, "no row of a failing batch is applied");
        assert_eq!(t.epoch(), e, "a failing batch leaves the epoch alone");
        for c in 0..3 {
            assert_eq!(t.column(c).unwrap().len(), 3);
        }

        // A good batch lands under one appended stamp.
        let ids = t
            .push_rows(vec![
                vec![Value::Int(4), Value::Float(19.0), Value::str("hall")],
                vec![Value::Int(5), Value::Float(18.5), Value::str("hall")],
            ])
            .unwrap();
        assert_eq!(ids, vec![RowId(3), RowId(4)]);
        assert_eq!(t.epoch().structural, e.structural);
        assert!(t.epoch().appended > e.appended);
    }

    #[test]
    fn a_snapshot_and_its_clones_share_bitmaps_and_every_mutation_starts_cold() {
        let hot = Condition::above("temp", 100.0);
        let mut t = sensor_table();
        assert_eq!(t.retained_condition_bitmaps(), (0, 0), "reading the gauge builds nothing");
        // A clone shares the slot whichever side asks first.
        let early_clone = t.clone();
        let cache = t.condition_bitmaps();
        assert!(Arc::ptr_eq(&cache, &t.condition_bitmaps()), "one cache per snapshot");
        assert!(Arc::ptr_eq(&cache, &early_clone.condition_bitmaps()));
        assert!(Arc::ptr_eq(&cache, &t.clone().condition_bitmaps()));
        cache.condition(&t, &hot).unwrap();
        assert_eq!(early_clone.retained_condition_bitmaps(), (1, 16));
        early_clone.condition_bitmaps().condition(&early_clone, &hot).unwrap();
        assert_eq!(cache.stats(), (1, 1), "the clone's lookup hit the bitmap the original scanned");

        // Everything that writes `epoch` leaves the mutated table an empty
        // cache and the snapshots it was cloned from theirs.
        let row = || vec![Value::Int(4), Value::Float(19.0), Value::str("hall")];
        type Mutation = fn(&mut Table, Vec<Value>);
        let mutations: [(&str, Mutation); 7] = [
            ("push_row", |t, row| assert!(t.push_row(row).is_ok())),
            ("push_rows", |t, row| assert!(t.push_rows(vec![row]).is_ok())),
            ("delete_row", |t, _| t.delete_row(RowId(0)).unwrap()),
            ("delete_rows", |t, _| {
                let visible = t.visible_row_ids().next().unwrap();
                assert_eq!(t.delete_rows(&[visible]).unwrap(), 1);
            }),
            ("restore_row", |t, _| t.restore_row(RowId(0)).unwrap()),
            ("restore_all", |t, _| t.restore_all()),
            ("replay_append", |t, row| {
                let mut values = row.into_iter();
                t.replay_append(1, next_stamp(), |col| col.push(values.next().unwrap())).unwrap()
            }),
        ];
        for (what, mutate) in mutations {
            // Alone the slot is cleared in place; shared, the clone keeps it.
            for shared in [false, true] {
                let clone = shared.then(|| t.clone());
                let warm = t.condition_bitmaps();
                warm.condition(&t, &hot).unwrap();
                mutate(&mut t, row());
                assert_eq!(t.retained_condition_bitmaps(), (0, 0), "{what} must start cold");
                assert!(!warm.covers(&t) && !Arc::ptr_eq(&warm, &t.condition_bitmaps()));
                if let Some(clone) = clone {
                    assert!(Arc::ptr_eq(&warm, &clone.condition_bitmaps()), "{what}: clone");
                    assert_eq!(clone.retained_condition_bitmaps().0, 1);
                }
            }
        }
    }

    #[test]
    fn the_bitmap_budget_is_enforced_at_acquisition_and_never_mid_ranking() {
        // 256k rows: 64 KiB per bitmap, so the budget is 512 of them.
        const ROWS: usize = 1 << 18;
        const PER_RANKING: usize = 64;
        let per_bitmap = 2 * ROWS / 8;
        let mut t = Table::new("wide", Schema::of(&[("v", DataType::Int)])).unwrap();
        t.push_rows((0..ROWS as i64).map(|v| vec![Value::Int(v)]).collect()).unwrap();
        let condition = |k: usize| Condition::at_most("v", (k * 7) as f64);

        let mut conditions = 0;
        let mut swapped = false;
        let mut previous: Option<Arc<ConditionBitmapCache>> = None;
        while !swapped {
            // One "ranking": acquire once, then look up conditions nobody
            // asked for before.
            let cache = t.condition_bitmaps();
            if let Some(old) = previous.filter(|old| !Arc::ptr_eq(old, &cache)) {
                swapped = true;
                assert!(
                    old.retained().1 > CONDITION_BITMAP_BUDGET_BYTES,
                    "swapped only over budget"
                );
                assert_eq!(cache.retained(), (0, 0), "the replacement starts empty");
                // A ranking still holding the old cache keeps every bitmap.
                let (hits, misses) = old.stats();
                let kept = old.condition(&t, &condition(conditions - 1)).unwrap();
                assert_eq!(old.stats(), (hits + 1, misses));
                assert_eq!(kept.trues.count_ones(), (conditions - 1) * 7 + 1);
            }
            for _ in 0..PER_RANKING {
                let tri = cache.condition(&t, &condition(conditions)).unwrap();
                // What a cold cache answers: rows 0..=7k.
                assert_eq!(tri.trues.count_ones(), conditions * 7 + 1);
                assert_eq!(tri.unknowns.count_ones(), 0);
                conditions += 1;
                let (_, bytes) = t.retained_condition_bitmaps();
                assert!(bytes <= CONDITION_BITMAP_BUDGET_BYTES + PER_RANKING * per_bitmap);
            }
            assert_eq!(cache.stats().0, 0, "no lookup of this ranking was lost and re-asked");
            previous = Some(cache);
        }
        assert_eq!(t.retained_condition_bitmaps(), (PER_RANKING, PER_RANKING * per_bitmap));
    }

    #[test]
    fn row_id_display_and_conversion() {
        let r: RowId = 7usize.into();
        assert_eq!(r.index(), 7);
        assert_eq!(r.to_string(), "#7");
    }
}
