//! In-memory columnar tables with stable row identifiers.
//!
//! A table only grows. DBWipes' "clean as you query" loop never touches
//! the data: clicking a predicate rewrites the *query* to exclude the rows
//! it matches, so every [`RowId`] a provenance answer names stays valid
//! and every snapshot's rows are a prefix of every later snapshot's.

use crate::column::Column;
use crate::error::StorageError;
use crate::predicate::{lock_recover, ConditionBitmapCache, CONDITION_BITMAP_BUDGET_BYTES};
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Process-global counter behind table identities: every draw is unique
/// for the lifetime of the process, so two independently created tables,
/// or two clones of one table that appended different rows, never share
/// an [`Table::id`].
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Advances the process-global identity counter past `id`, so tables
/// created later in this process never take an identity restored from a
/// data directory. Called with checksum-verified ids only: a table file's
/// header and the manifest.
pub(crate) fn advance_stamp_floor(id: u64) {
    NEXT_STAMP.fetch_max(id.saturating_add(1), Ordering::Relaxed);
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

/// An in-memory columnar table. Rows are only ever appended: a row, once
/// pushed, keeps its [`RowId`] and its values for the table's lifetime.
///
/// A table's data is named by its [`Table::id`] and its row count
/// ([`Table::version`]). A clone is a snapshot of the same logical table
/// and keeps the id; clones that go on appending share one lineage, and
/// the first to append past a row count owns it under the id — any other
/// clone that appends from below that count takes a fresh id first, and
/// remembers where it forked ([`Table::extends`]). So two tables with
/// equal `(id, version)` hold identical rows, which every cache keyed by
/// that pair relies on.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    /// Rows pushed so far (every column holds this many).
    rows: usize,
    /// Identity: unique per `Table::new` call, preserved by `clone()` and
    /// replaced by an append that would diverge from a clone.
    id: u64,
    /// The condition bitmaps of this snapshot, built on first use (see
    /// [`Table::condition_bitmaps`]). A clone shares the slot — equal
    /// `(id, version)` is identical data — and every append calls
    /// [`Table::reset_bitmaps`], which leaves the clones theirs.
    bitmaps: BitmapSlot,
    /// What every table of this id shares (see [`Table::begin_append`]).
    lineage: Arc<Lineage>,
}

type BitmapSlot = Arc<Mutex<Option<Arc<ConditionBitmapCache>>>>;

/// What the clones of one table id share: the most rows any of them has
/// reached, and where the id forked off another one.
#[derive(Debug, Default)]
struct Lineage {
    reached: AtomicUsize,
    /// The id a clone held before it diverged and took this one, and the
    /// rows it had then: every table of this id starts with those rows of
    /// that id.
    forked_from: Option<(u64, usize, Arc<Lineage>)>,
}

impl Table {
    /// Creates an empty table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Result<Self, StorageError> {
        Table::with_id(name.into(), schema, next_stamp())
    }

    /// An empty table with the persisted identity `id` (a table file's
    /// header), so cache fingerprints keyed on `(id, version)` survive a
    /// process restart once [`Table::replay_append`] has restored the rows.
    /// Advances the global identity floor past `id` so freshly created
    /// tables never collide.
    pub(crate) fn with_id(name: String, schema: Schema, id: u64) -> Result<Self, StorageError> {
        let columns =
            schema.fields().iter().map(|f| Column::new(f.dtype)).collect::<Result<Vec<_>, _>>()?;
        advance_stamp_floor(id);
        let (bitmaps, lineage) = Default::default();
        Ok(Table { name, schema, columns, rows: 0, id, bitmaps, lineage })
    }

    /// Replays one data record: `decode` appends the record's `rows`
    /// rows to each column in schema order. On an error the table is left
    /// half-extended and must be dropped, as a failed load does.
    pub(crate) fn replay_append(
        &mut self,
        rows: usize,
        mut decode: impl FnMut(&mut Column) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let total = self
            .rows
            .checked_add(rows)
            .ok_or_else(|| StorageError::Corrupt(format!("data record declares {rows} rows")))?;
        self.begin_append(rows);
        for col in &mut self.columns {
            decode(col)?;
            if col.len() != total {
                return Err(StorageError::Corrupt(format!(
                    "data record leaves a column of '{}' at {} rows, expected {total}",
                    self.name,
                    col.len()
                )));
            }
        }
        self.rows = total;
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

    /// The table's data version: its row count. A table only grows, so a
    /// later version of a snapshot holds that snapshot's rows and then the
    /// appended ones, and two tables with equal [`Table::id`] and equal
    /// version hold identical data — the invariant behind cross-brush
    /// cache reuse (a clone that diverges takes a new id, see [`Table`]).
    pub fn version(&self) -> u64 {
        self.rows as u64
    }

    /// Starts an append of `added` rows: claims rows `rows..rows + added`
    /// under this table's id and starts cold. A clone that already
    /// appended past `rows` owns that range, so this table takes a fresh
    /// id first, with a lineage of its own. An empty append changes
    /// nothing.
    fn begin_append(&mut self, added: usize) {
        if added == 0 {
            return;
        }
        let (start, end) = (self.rows, self.rows + added);
        // The count publishes no data, so `Relaxed` is enough: the one
        // location's modification order lets exactly one clone claim a range.
        let reached = &self.lineage.reached;
        if reached.compare_exchange(start, end, Ordering::Relaxed, Ordering::Relaxed).is_err() {
            let forked_from = Some((self.id, start, Arc::clone(&self.lineage)));
            self.id = next_stamp();
            self.lineage = Arc::new(Lineage { reached: AtomicUsize::new(end), forked_from });
        }
        self.reset_bitmaps();
    }

    /// True when this table holds every row of `older`, in order and then
    /// perhaps more: `older` is a snapshot of this table's id, or of an id
    /// it forked from, with no more rows than this table had under it.
    pub fn extends(&self, older: &Table) -> bool {
        let (mut id, mut rows, mut lineage) = (self.id, self.rows, &self.lineage);
        while id != older.id {
            let Some((parent, at, parent_lineage)) = &lineage.forked_from else { return false };
            (id, rows, lineage) = (*parent, *at, parent_lineage);
        }
        older.rows <= rows
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

    /// Number of rows ever inserted.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True when no rows have ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Bytes of row data this snapshot reaches: the values of every chunk
    /// of every column, and the validity mask of each chunk that holds a
    /// NULL (one byte a row). Sealed chunks are counted in
    /// full although other snapshots of the table share them, so the
    /// gauges of two snapshots do not add up; the condition bitmaps have a
    /// gauge of their own ([`Table::retained_condition_bitmaps`]).
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(Column::approx_bytes).sum::<usize>()
    }

    /// Appends a row given as one value per schema column.
    ///
    /// Returns the new row's [`RowId`].
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<RowId, StorageError> {
        self.validate_row(&values)?;
        self.begin_append(1);
        self.apply_row(values);
        Ok(RowId(self.rows - 1))
    }

    /// Appends many rows, all-or-nothing: the entire batch is validated
    /// against the schema before any column is mutated, so a bad row k
    /// leaves the table as it was: no row applied, the version unmoved.
    pub fn push_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<Vec<RowId>, StorageError> {
        for row in &rows {
            self.validate_row(row)?;
        }
        let first = self.rows;
        let ids = (first..first + rows.len()).map(RowId).collect();
        self.begin_append(rows.len());
        for row in rows {
            self.apply_row(row);
        }
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

    /// Appends one pre-validated row to every column, after
    /// [`Table::begin_append`] has claimed it.
    fn apply_row(&mut self, values: Vec<Value>) {
        for (col, value) in self.columns.iter_mut().zip(values) {
            col.push(value).expect("validated by validate_row");
        }
        self.rows += 1;
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

    /// Iterates over the ids of every row, in insertion order.
    pub fn row_ids(&self) -> impl Iterator<Item = RowId> {
        (0..self.rows).map(RowId)
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

    /// Renders the first `limit` rows as an ASCII table, mainly for
    /// examples and debugging output.
    pub fn preview(&self, limit: usize) -> String {
        let mut s = String::new();
        s.push_str(&self.schema.names().join(" | "));
        s.push('\n');
        for (count, rid) in self.row_ids().enumerate() {
            if count >= limit {
                s.push_str("...\n");
                break;
            }
            let row = self.row(rid).expect("row exists");
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
        assert_eq!(t.row_ids().collect::<Vec<_>>(), vec![RowId(0), RowId(1), RowId(2)]);
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
    fn out_of_bounds_errors() {
        let t = sensor_table();
        assert!(t.value(RowId(10), 0).is_err());
        assert!(t.row(RowId(10)).is_err());
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
    fn identity_survives_clone_and_a_diverging_clone_takes_a_new_one() {
        let a = sensor_table();
        let other = sensor_table();
        assert_ne!(a.id(), other.id(), "independent tables get distinct identities");

        let mut b = a.clone();
        assert_eq!(a.id(), b.id(), "a clone snapshots the same logical table");
        assert_eq!(a.version(), b.version(), "an unmodified clone holds identical data");

        let mut a = a;
        let row = |room| vec![Value::Int(4), Value::Float(19.0), Value::str(room)];
        a.push_row(row("hall")).unwrap();
        let id = a.id();
        b.push_row(row("attic")).unwrap();
        // Both appended one row, so both are at version 4; the second to
        // append took a fresh id instead of sharing `(id, 4)`.
        assert_eq!((a.id(), a.version()), (id, 4), "the first to append keeps the id");
        assert_eq!(b.version(), 4);
        assert_ne!(b.id(), id);
        // A clone of either side follows its own lineage; an empty append
        // changes nothing.
        let mut c = a.clone();
        c.push_rows(Vec::new()).unwrap();
        c.push_row(row("hall")).unwrap();
        assert_eq!((c.id(), c.version()), (id, 5));
        a.push_row(row("porch")).unwrap();
        assert_ne!(a.id(), id);
    }

    /// Clones of one table, each appending rows of its own in any order,
    /// through clones of clones and empty batches: any two snapshots with
    /// equal `(id, version)` hold identical rows, and a snapshot that
    /// [`Table::extends`] another starts with its rows. A xorshift
    /// generator draws the histories, so the check needs no dependency.
    #[test]
    fn snapshots_with_equal_id_and_version_hold_identical_rows() {
        let mut state = 0x5eed_u64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let rows = |t: &Table| t.row_ids().map(|r| t.row(r).unwrap()).collect::<Vec<_>>();
        for _ in 0..200 {
            let mut live = vec![sensor_table()];
            let mut snapshots = live.clone();
            for step in 0..(2 + draw(12)) {
                let at = draw(live.len() as u64) as usize;
                let before = live[at].clone();
                if draw(4) == 0 {
                    live.push(before);
                    continue;
                }
                let batch = (0..draw(3))
                    .map(|k| vec![Value::Int(step as i64), Value::Float(k as f64), Value::str("x")])
                    .collect();
                live[at].push_rows(batch).unwrap();
                assert!(live[at].extends(&before), "an append extends what it appended to");
                snapshots.push(live[at].clone());
            }
            let held: Vec<_> = snapshots.iter().map(|t| (t, rows(t))).collect();
            for (a, a_rows) in &held {
                for (b, b_rows) in &held {
                    if (a.id(), a.version()) == (b.id(), b.version()) {
                        assert_eq!(
                            a_rows,
                            b_rows,
                            "({}, {}) names two tables",
                            a.id(),
                            a.version()
                        );
                    }
                    if b.extends(a) {
                        assert!(
                            b_rows.starts_with(a_rows),
                            "#{} does not extend #{}",
                            b.id(),
                            a.id()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_append_moves_the_version_to_the_row_count() {
        let mut t = sensor_table();
        assert_eq!(t.version(), 3);
        t.push_row(vec![Value::Int(4), Value::Float(19.0), Value::str("hall")]).unwrap();
        assert_eq!(t.version(), 4, "push_row");
        t.push_rows(vec![vec![Value::Int(5), Value::Float(18.0), Value::str("hall")]]).unwrap();
        assert_eq!(t.version(), 5, "push_rows");
        // Read-only accessors and failed appends leave the version alone.
        let _ = t.row(RowId(0));
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert_eq!(t.version(), 5);
    }

    #[test]
    fn push_rows_batch_is_all_or_nothing() {
        let mut t = sensor_table();
        let (id, v) = (t.id(), t.version());
        // Row 1 of the batch is bad: nothing may be applied.
        let err = t
            .push_rows(vec![
                vec![Value::Int(4), Value::Float(19.0), Value::str("hall")],
                vec![Value::Int(5), Value::str("oops"), Value::str("hall")],
            ])
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(t.num_rows(), 3, "no row of a failing batch is applied");
        assert_eq!((t.id(), t.version()), (id, v), "a failing batch leaves the version alone");
        for c in 0..3 {
            assert_eq!(t.column(c).unwrap().len(), 3);
        }

        let ids = t
            .push_rows(vec![
                vec![Value::Int(4), Value::Float(19.0), Value::str("hall")],
                vec![Value::Int(5), Value::Float(18.5), Value::str("hall")],
            ])
            .unwrap();
        assert_eq!(ids, vec![RowId(3), RowId(4)]);
        assert_eq!((t.id(), t.version()), (id, 5));
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

        // Every append leaves the mutated table an empty
        // cache and the snapshots it was cloned from theirs.
        let row = || vec![Value::Int(4), Value::Float(19.0), Value::str("hall")];
        type Mutation = fn(&mut Table, Vec<Value>);
        let mutations: [(&str, Mutation); 3] = [
            ("push_row", |t, row| assert!(t.push_row(row).is_ok())),
            ("push_rows", |t, row| assert!(t.push_rows(vec![row]).is_ok())),
            ("replay_append", |t, row| {
                let mut values = row.into_iter();
                t.replay_append(1, |col| col.push(values.next().unwrap())).unwrap()
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
