//! Incremental re-aggregation: answer "what does the result look like with
//! these rows excluded?" without re-executing the statement.
//!
//! DBWipes' interactivity promise rests on scoring many candidate
//! predicates quickly: the Predicate Ranker asks, for every candidate, how
//! the query result changes when the candidate's matching tuples are
//! excluded, and the Preprocessor asks the same question for every single
//! tuple of F (leave-one-out). Re-executing the full statement per question
//! is O(|D|) each time. Scorpion (Wu & Madden, PVLDB 2013) and the online
//! aggregation literature (Hellerstein et al., SIGMOD 1997) exploit the
//! same observation this module does: the standard SQL aggregates carry
//! *decomposable state*, so a tuple's contribution can be subtracted from a
//! retained [`AggregateState`] instead of recomputed from scratch.
//!
//! [`GroupedAggregateCache`] executes the statement **once**, retaining
//! what only it knows:
//!
//! * the per-group [`AggregateState`] of every aggregate SELECT item,
//! * each group's input rows and a row → (group, position) index over the
//!   filtered input rows.
//!
//! The argument value a state consumed for a row is *not* retained: the
//! cache co-owns the immutable table snapshot it indexed, and reads the
//! value back from it (for removal and for the recompute fallback) —
//! never from the catalog's live table, which may have moved on.
//!
//! [`GroupedAggregateCache::result`], asked an [`ExclusionQuery`] for the
//! brushed groups' keys, then clones only the *touched* groups' states and
//! calls [`AggregateState::remove`] for the excluded tuples' contributions
//! — O(touched) instead of O(|D|).
//!
//! ## Removable vs. non-removable aggregates
//!
//! SUM / COUNT / AVG / STDDEV / VARIANCE are sum-like: their state is a few
//! running moments, and `remove` inverts `add` exactly. MIN and MAX are
//! **not** removable — after deleting the current extremum the new extremum
//! is unknown without a rescan — so `remove` reports failure and the cache
//! falls back to rebuilding that state from the group's rows, re-read
//! from the snapshot (in original scan order, so results are identical to
//! full re-execution). The fallback is per-group, per-aggregate: a query mixing
//! `avg` and `max` pays the rescan only for `max` and only in groups that
//! actually lost rows. Results are therefore always *exact*, never
//! approximated.
//!
//! Groups whose rows are all excluded disappear from the result (matching
//! full re-execution), except for the single implicit group of a query
//! without GROUP BY, which remains and reports its empty-input values
//! (NULLs, `COUNT` = 0).
//!
//! ## Two answers, two contracts
//!
//! A cache co-owns the snapshot it indexed (an `Arc<Table>`): whatever
//! the catalog does afterwards, every answer reads the rows the cache was
//! built from, and a cache lives as long as its owner wants it to.
//!
//! [`GroupedAggregateCache::result`] for [`ExclusionQuery::for_keys`] of a
//! statement without LIMIT is the *scoring* path — the Predicate Ranker's
//! question, thousands of candidates a second, each answer only compared
//! with a threshold, with the empty lineage. It is the one answer that
//! subtracts, and a floating-point subtraction agrees with an execution
//! over the remaining rows to the last few bits, not in them — exactly on
//! the dyadic values most tests use, not on `0.1`.
//!
//! Every other answer re-folds the whole result: the *display* path
//! [`GroupedAggregateCache::cleaned_result`] (the result a session shows
//! after a streamed append, a clicked predicate or an undo) and
//! [`GroupedAggregateCache::result`] without keys or under a LIMIT (where
//! which groups survive depends on every group and on how ties break;
//! filtered down to the keys afterwards). A group that lost
//! rows is aggregated again over the rows it keeps, in scan order, and the
//! groups are put back in the order of their first surviving row before
//! ORDER BY / LIMIT — so the answer equals [`crate::execute`] on the
//! rewritten statement bit for bit, row order and per-group lineage
//! included, at the cost of reading the touched groups' rows once instead
//! of scanning, hashing and grouping the table.

use crate::aggregate::AggregateState;
use crate::ast::{SelectExpr, SelectStatement};
use crate::error::EngineError;
use crate::executor::{
    aggregate_outputs, bind_aggregates, build_groups, output_order, output_schema, project_row,
    scan_filter, validate, ArgReader,
};
use crate::result::{in_order, QueryResult};
use dbwipes_provenance::Lineage;
use dbwipes_storage::{RowId, RowSet, Schema, Table, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Identifies "this statement over this table data" — the key of the
/// server's cross-brush cache registry.
///
/// Two equal fingerprints guarantee a retained [`GroupedAggregateCache`]
/// is reusable: the statement's canonical SQL matches (rendered from the
/// parsed AST, so whitespace and keyword spelling are normalised; `SELECT
/// x` and `select   x` fingerprint identically, while identifier *case*
/// differences conservatively miss) and the table holds bit-identical data
/// ([`Table::id`] pins the logical table across re-registrations,
/// [`Table::version`] pins how far it has grown). The lower-cased table name
/// rides along so a registry can invalidate by name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheFingerprint {
    /// Lower-cased table name (for invalidation by name).
    pub table_name: String,
    /// [`Table::id`] of the table.
    pub table_id: u64,
    /// [`Table::version`] of the table. Equality is exact, so lookups
    /// stay correct by construction; append-tolerant registries
    /// additionally match on [`CacheFingerprint::grew_from`] to find an
    /// older sibling worth absorbing instead of rebuilding.
    pub version: u64,
    /// The statement's canonical SQL rendering.
    pub statement: String,
}

impl CacheFingerprint {
    /// The fingerprint of `stmt` over the current data of `table`.
    pub fn of(table: &Table, stmt: &SelectStatement) -> Self {
        CacheFingerprint {
            table_name: table.name().to_ascii_lowercase(),
            table_id: table.id(),
            version: table.version(),
            statement: stmt.to_sql(),
        }
    }

    /// True when `self` describes the same statement as `older` over a
    /// later version of the same table. A table only grows, so a cache
    /// under `older` serves `self` after
    /// [`GroupedAggregateCache::absorb_append_shared`] (which is
    /// forward-only).
    pub fn grew_from(&self, older: &CacheFingerprint) -> bool {
        self.table_id == older.table_id
            && self.version > older.version
            && self.table_name == older.table_name
            && self.statement == older.statement
    }
}

/// A "what if these rows were deleted?" question for
/// [`GroupedAggregateCache::result`]: the set bits of a [`RowSet`] (none by
/// default; bits of rows the cache did not retain are ignored), optionally
/// restricted to specific GROUP BY keys. Borrowing builder — construct
/// with [`ExclusionQuery::new`], chain [`ExclusionQuery::excluding_set`] /
/// [`ExclusionQuery::for_keys`], then pass to
/// [`GroupedAggregateCache::result`]. Excluding the rows on which a
/// predicate is TRUE or NULL answers what the statement rewritten with
/// `AND NOT (predicate)` would:
///
/// ```
/// use dbwipes_engine::{execute, parse_select, ExclusionQuery, ExecOptions, GroupedAggregateCache};
/// use dbwipes_storage::{Condition, ConjunctivePredicate, DataType, RowSet, Schema, Table, Value};
///
/// let schema =
///     Schema::of(&[("hour", DataType::Int), ("sensor", DataType::Int), ("temp", DataType::Float)]);
/// let mut t = Table::new("readings", schema).unwrap();
/// for i in 0..40i64 {
///     // Sensor 3 reads 120 degrees; the others read 20–23.
///     let temp = if i % 5 == 3 { 120.0 } else { 20.0 + (i % 4) as f64 };
///     t.push_row(vec![Value::Int(i % 4), Value::Int(i % 5), Value::Float(temp)]).unwrap();
/// }
/// let stmt = parse_select("SELECT hour, avg(temp) AS a FROM readings GROUP BY hour").unwrap();
/// let cache = GroupedAggregateCache::build(&t, &stmt).unwrap();
///
/// // `AND NOT (sensor = 3)` keeps the rows where `NOT (sensor = 3)` is TRUE.
/// let p = ConjunctivePredicate::new(vec![Condition::equals("sensor", 3i64)]);
/// let kept = p.to_exclusion_expr().filter(&t).unwrap();
/// let excluded = RowSet::from_rows(t.num_rows(), &kept).complement();
/// let keys = vec![vec![Value::Int(3)]];
/// let cleaned = cache.result(&ExclusionQuery::new().excluding_set(&excluded).for_keys(&keys));
///
/// let rewritten = stmt.with_additional_filter(p.to_exclusion_expr());
/// let executed = execute(&t, &rewritten, ExecOptions::default()).unwrap();
/// let hour3 = executed.group_keys.iter().position(|k| *k == keys[0]).unwrap();
/// assert_eq!(cleaned.group_keys, keys);
/// assert_eq!(cleaned.rows, vec![executed.rows[hour3].clone()]);
/// assert_eq!(cleaned.rows[0][1], Value::Float(23.0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExclusionQuery<'q> {
    excluded: Option<&'q RowSet>,
    keys: Option<&'q [Vec<Value>]>,
}

impl<'q> ExclusionQuery<'q> {
    /// A query excluding nothing, over every group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Excludes the set bits of `set` (replacing any prior set).
    pub fn excluding_set(mut self, set: &'q RowSet) -> Self {
        self.excluded = Some(set);
        self
    }

    /// Restricts the answer to the groups whose GROUP BY key appears in
    /// `keys`, without materialising any other group.
    pub fn for_keys(mut self, keys: &'q [Vec<Value>]) -> Self {
        self.keys = Some(keys);
        self
    }
}

/// One materialised group: its key, its input rows and the per-aggregate
/// retained state.
#[derive(Debug, Clone)]
struct CachedGroup {
    key: Vec<Value>,
    rows: Vec<RowId>,
    /// One state per aggregate SELECT item, in SELECT-list order.
    states: Vec<AggregateState>,
    /// The fully projected output row (aggregate slots included), reused
    /// verbatim for untouched groups.
    template: Vec<Value>,
}

/// A whole result in output order: each remaining group's output row, key
/// and the rows behind it.
struct Refolded<'c> {
    rows: Vec<Vec<Value>>,
    keys: Vec<Vec<Value>>,
    inputs: Vec<Cow<'c, [RowId]>>,
}

/// A one-time execution of a statement, retained in a form that can answer
/// exclusion queries incrementally. Co-owns the immutable snapshot it was
/// built from, so a cache can never be asked about a different table than
/// it indexed and can outlive the request that built it (the server's
/// cross-brush registry). See the module docs for the design.
#[derive(Debug, Clone)]
pub struct GroupedAggregateCache {
    table: Arc<Table>,
    stmt: SelectStatement,
    schema: Schema,
    groups: Vec<CachedGroup>,
    /// Bitmap of the input rows that passed the WHERE clause — the set the
    /// ranker intersects candidate-predicate bitmaps against.
    membership: RowSet,
    /// Dense row → (group index, position within the group's row list)
    /// lookup, valid only where `membership` is set.
    row_slots: Vec<(u32, u32)>,
    /// GROUP BY key → group index (keys are unique per group).
    key_index: HashMap<Vec<Value>, u32>,
    /// SELECT-list indices of the aggregate items (one per state slot).
    agg_item_indices: Vec<usize>,
    /// SELECT-list indices of the non-aggregate items.
    plain_item_indices: Vec<usize>,
}

impl GroupedAggregateCache {
    /// [`GroupedAggregateCache::build_shared`] over a copy of `table`: the
    /// copy shares the sealed column chunks and the condition bitmaps and
    /// duplicates only each column's tail.
    pub fn build(table: &Table, stmt: &SelectStatement) -> Result<Self, EngineError> {
        Self::build_shared(Arc::new(table.clone()), stmt)
    }

    /// Executes `stmt` against `table` once, retaining the grouped
    /// aggregate states, and co-owns the snapshot. Validation errors are
    /// the same ones [`crate::execute`] would report. A build is an absorb
    /// from row 0: validate, filter the whole table through the vectorized
    /// scan, and fold into an empty cache.
    pub fn build_shared(table: Arc<Table>, stmt: &SelectStatement) -> Result<Self, EngineError> {
        validate(&table, stmt)?;
        let filtered = scan_filter(&table, stmt, 0)?;
        let is_aggregate = |i: &usize| matches!(stmt.items[*i].expr, SelectExpr::Aggregate(_));
        let (agg_item_indices, plain_item_indices) =
            (0..stmt.items.len()).partition::<Vec<usize>, _>(is_aggregate);
        let mut cache = GroupedAggregateCache {
            schema: output_schema(&table, stmt)?,
            table: Arc::clone(&table),
            stmt: stmt.clone(),
            groups: Vec::new(),
            membership: RowSet::empty(0),
            row_slots: Vec::new(),
            key_index: HashMap::new(),
            agg_item_indices,
            plain_item_indices,
        };
        cache.fold(table, filtered)?;
        Ok(cache)
    }

    /// Absorbs the rows appended to the table since this cache was built,
    /// without touching any retained state for pre-existing rows, and
    /// co-owns `table` instead of its old snapshot. `table` must extend the
    /// cache's table ([`Table::extends`]): the cached rows plus appended
    /// ones, under the same id or one a diverging clone forked off it.
    /// Appended rows are filtered, grouped and folded into the retained
    /// aggregate states exactly as a fresh
    /// [`GroupedAggregateCache::build_shared`] over the grown table
    /// would — insertion is exact for every aggregate
    /// including MIN/MAX (only *removal* needs their rescan fallback) — so
    /// an absorbed cache is indistinguishable from a rebuilt one: same
    /// groups in the same first-seen order (new groups append after all
    /// old ones), same states, same answers to every exclusion query.
    /// Returns the number of appended rows that passed the statement's
    /// filter.
    pub fn absorb_append_shared(&mut self, table: Arc<Table>) -> Result<usize, EngineError> {
        let old_rows = self.table.num_rows();
        if !table.extends(&self.table) {
            return Err(EngineError::plan(format!(
                "table '{}' does not extend the {old_rows} rows this cache was built over",
                table.name()
            )));
        }
        if table.num_rows() == old_rows {
            return Ok(0);
        }
        // Filter only the appended suffix — the old region is unchanged
        // (a table only grows), so its rows are already retained and
        // re-scanning them would make every absorb O(table). The suffix
        // goes through the build's scan stage and admits exactly the rows
        // a full filter would.
        let appended = scan_filter(&table, &self.stmt, old_rows)?;
        let count = appended.count_ones();
        self.fold(table, appended)?;
        Ok(count)
    }

    /// The one fold behind `build_shared` and `absorb_append_shared`:
    /// groups `filtered` (rows of `table` that passed the statement's
    /// filter, none of them retained yet), accumulates them into the
    /// per-group states, extends `row_slots` / `key_index`, re-projects the
    /// output row of every group that gained rows (the others keep theirs:
    /// states, rows and representative first row unchanged), adds the rows
    /// to `membership`, and adopts `table` as the cache's snapshot.
    fn fold(&mut self, table: Arc<Table>, filtered: RowSet) -> Result<(), EngineError> {
        // The retained indexes must match the row universe even when no
        // row passes the filter: exclusion bitmaps arrive sized to the table.
        self.row_slots.resize(table.num_rows(), (0u32, 0u32));

        let aggregates = bind_aggregates(&table, &self.stmt)?;
        let (keys, group_rows) = build_groups(&table, &self.stmt, &filtered)?;
        // `build_groups` names each key once, so each group is visited once.
        for (key, rows) in keys.into_iter().zip(group_rows) {
            let gi = match self.key_index.get(&key) {
                // The implicit group of a GROUP BY-less statement when no
                // appended row matched: nothing to fold in.
                Some(_) if rows.is_empty() => continue,
                Some(&gi) => gi,
                None => {
                    let gi = u32::try_from(self.groups.len())
                        .map_err(|_| EngineError::plan("group count overflows the group index"))?;
                    self.key_index.insert(key.clone(), gi);
                    self.groups.push(CachedGroup {
                        key,
                        rows: Vec::new(),
                        states: aggregates.iter().map(|(f, _)| AggregateState::new(*f)).collect(),
                        template: Vec::new(),
                    });
                    gi
                }
            };
            let group = &mut self.groups[gi as usize];
            for (state, (_, arg)) in group.states.iter_mut().zip(&aggregates) {
                for &rid in &rows {
                    state.add(arg.value(rid)?);
                }
            }
            // A new group keeps its exact-size list; an old one grows.
            let start = group.rows.len();
            if start == 0 {
                group.rows = rows;
            } else {
                group.rows.extend_from_slice(&rows);
            }
            if u32::try_from(group.rows.len()).is_err() {
                return Err(EngineError::plan("group row list overflows the slot index"));
            }
            for (pos, &rid) in (start as u32..).zip(&group.rows[start..]) {
                self.row_slots[rid.index()] = (gi, pos);
            }
            let agg_outputs: Vec<Value> = group.states.iter().map(|s| s.finish()).collect();
            group.template =
                project_row(&table, &self.stmt, &group.key, &group.rows, &agg_outputs)?;
        }

        self.membership.grow(table.num_rows());
        self.membership.or_assign(&filtered);
        self.table = table;
        Ok(())
    }

    /// The table this cache was built from.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The fingerprint identifying this cache's (statement, table data)
    /// pair — what a registry keys reuse on. Cheap: no hashing of the data
    /// itself, just the statement's SQL rendering plus the table's identity
    /// and version.
    pub fn fingerprint(&self) -> CacheFingerprint {
        CacheFingerprint::of(&self.table, &self.stmt)
    }

    /// The statement this cache answers for.
    pub fn statement(&self) -> &SelectStatement {
        &self.stmt
    }

    /// Number of retained groups (before any exclusion).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of input rows retained (the rows that passed the WHERE
    /// clause).
    pub fn num_rows(&self) -> usize {
        self.membership.count_ones()
    }

    /// Approximate heap bytes the cache owns: the per-group row lists,
    /// states, keys and output rows, the key index, `row_slots` and the
    /// membership bitmap — not the table snapshot it shares. Per retained
    /// row that is 16 bytes (row list + slot) whatever the statement
    /// aggregates; `row_slots` and the bitmap also cover the rows the
    /// filter rejected.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let values = |vs: &[Value]| -> usize {
            let strings = vs.iter().map(|v| if let Value::Str(s) = v { s.len() } else { 0 });
            std::mem::size_of_val(vs) + strings.sum::<usize>()
        };
        let groups: usize = self
            .groups
            .iter()
            .map(|g| {
                size_of::<CachedGroup>()
                    + g.rows.capacity() * size_of::<RowId>()
                    + g.states.capacity() * size_of::<AggregateState>()
                    // Once in the group, once as the key-index entry.
                    + 2 * values(&g.key)
                    + values(&g.template)
            })
            .sum();
        groups
            + self.key_index.capacity() * size_of::<(Vec<Value>, u32)>()
            + self.row_slots.capacity() * size_of::<(u32, u32)>()
            + std::mem::size_of_val(self.membership.word_slice())
    }

    /// True when `row` passed the statement's filter and contributes to some
    /// group.
    pub fn contains(&self, row: RowId) -> bool {
        self.membership.contains_row(row)
    }

    /// Bitmap of the input rows retained by the cache (the rows that passed
    /// the WHERE clause), over the table's physical rows. Candidate
    /// exclusion sets are intersections against this mask.
    pub fn membership(&self) -> &RowSet {
        &self.membership
    }

    /// The result the dashboard displays: what [`crate::execute`] answers
    /// for `shown` — this cache's statement, plus whatever conjuncts
    /// "clean as you query" appended to its WHERE — when `survivors` holds
    /// the rows on which those conjuncts are TRUE (rows the cache did not
    /// retain are ignored; `None` keeps every retained row: the cached
    /// statement itself, which is how a streamed append refreshes a
    /// session and how the last `undo` restores the base result). The
    /// result is indistinguishable from that execution, lineage included:
    ///
    /// * a group that lost no row reuses its cached output row and records
    ///   its row list;
    /// * a group that lost rows is aggregated again from empty states over
    ///   the rows it keeps, in scan order, through the executor's own
    ///   per-group functions — no [`AggregateState::remove`], whose
    ///   floating-point subtraction agrees with an execution only to the
    ///   last few bits — and records exactly those rows; under GROUP BY it
    ///   vanishes when it keeps none;
    /// * groups are put back in first-seen order of the rows they keep
    ///   before ORDER BY / LIMIT, so ties break as they do in a scan.
    pub fn cleaned_result(
        &self,
        shown: &SelectStatement,
        survivors: Option<&RowSet>,
    ) -> QueryResult {
        debug_assert_eq!(
            SelectStatement { where_clause: self.stmt.where_clause.clone(), ..shown.clone() },
            self.stmt,
            "`shown` is the cached statement with a longer WHERE"
        );
        let touched = survivors.map_or_else(HashMap::new, |keep| {
            self.touched_positions_of(self.membership.and_not(keep).iter(), None)
        });
        let Refolded { rows, keys, inputs } = self.refolded(&touched);
        // A group that lost rows moves its kept rows into the lineage; one
        // that lost none copies its cached list.
        let inputs = inputs.into_iter().map(Cow::into_owned).collect();
        QueryResult::new(shown.clone(), self.schema.clone(), rows, keys, Lineage::new(inputs))
    }

    /// The whole result without the `touched` positions (per group, sorted
    /// and deduplicated), in output order: each remaining group's output
    /// row, key and kept rows — a group's cached list borrowed when it
    /// lost none. The one place that answers for every group, for
    /// [`GroupedAggregateCache::cleaned_result`] and the re-folding half of
    /// [`GroupedAggregateCache::result`]; see the former for the contract.
    fn refolded(&self, touched: &HashMap<u32, Vec<u32>>) -> Refolded<'_> {
        let table: &Table = &self.table;
        // Cannot fail: `fold` evaluated the same expressions on these rows.
        const FOLDED: &str = "evaluated on this row when it was folded in";
        let aggregates = bind_aggregates(table, &self.stmt).expect(FOLDED);

        /// One remaining group: its output row and the rows behind it.
        struct Remaining<'c> {
            row: Vec<Value>,
            key: &'c [Value],
            inputs: Cow<'c, [RowId]>,
        }
        let mut remaining: Vec<Remaining<'_>> = Vec::with_capacity(self.groups.len());
        for (gi, group) in self.groups.iter().enumerate() {
            let Some(lost) = touched.get(&(gi as u32)) else {
                let (row, inputs) = (group.template.clone(), Cow::from(&group.rows));
                remaining.push(Remaining { row, key: &group.key, inputs });
                continue;
            };
            let mut lost = lost.iter().peekable();
            let kept: Vec<RowId> = (0u32..)
                .zip(&group.rows)
                .filter(|(pos, _)| lost.next_if_eq(&pos).is_none())
                .map(|(_, &rid)| rid)
                .collect();
            if kept.is_empty() && !self.stmt.group_by.is_empty() {
                continue;
            }
            let outputs = aggregate_outputs(&aggregates, &kept).expect(FOLDED);
            let row = project_row(table, &self.stmt, &group.key, &kept, &outputs).expect(FOLDED);
            remaining.push(Remaining { row, key: &group.key, inputs: Cow::from(kept) });
        }
        if !touched.is_empty() {
            remaining.sort_by_key(|group| group.inputs.first().copied());
        }

        let (mut rows, mut keys, mut inputs) = (Vec::new(), Vec::new(), Vec::new());
        for group in remaining {
            rows.push(group.row);
            keys.push(group.key.to_vec());
            inputs.push(group.inputs);
        }
        let order = output_order(&self.stmt, &rows, &keys).expect("validated at build time");
        Refolded {
            rows: in_order(rows, &order),
            keys: in_order(keys, &order),
            inputs: in_order(inputs, &order),
        }
    }

    /// The single exclusion-query entry point: the result the statement
    /// would produce if the query's excluded rows were deleted from the
    /// table, with the empty lineage. Excluded rows that did not pass the
    /// filter are ignored.
    ///
    /// With [`ExclusionQuery::for_keys`], the result is restricted to the
    /// groups whose GROUP BY key appears in the requested set. That is the
    /// Predicate Ranker's shape of question: a brush selects a handful of
    /// suspicious groups, and every candidate predicate only needs ε
    /// re-evaluated over *those* groups. Without a LIMIT it materialises
    /// (clones, re-aggregates or sorts) no other group: touched groups
    /// subtract the excluded tuples' contributions via
    /// [`AggregateState::remove`] (falling back to an in-order rebuild for
    /// MIN/MAX), untouched groups reuse their cached output row verbatim,
    /// and the answer holds one row per distinct requested key that
    /// (still) exists, in the cache's first-seen group order — ORDER BY is
    /// not applied, since rows are identified by their group key.
    ///
    /// Without keys, or under a LIMIT (which groups survive it depends on
    /// every other group, ties included), the whole result is re-folded as
    /// [`GroupedAggregateCache::cleaned_result`] does and, given keys,
    /// filtered down to them in output order.
    pub fn result(&self, q: &ExclusionQuery<'_>) -> QueryResult {
        if let (Some(keys), None) = (q.keys, self.stmt.limit) {
            return self.subtracted(keys, q.excluded);
        }
        let touched =
            q.excluded.map_or_else(HashMap::new, |set| self.touched_positions_of(set.iter(), None));
        let Refolded { mut rows, mut keys, .. } = self.refolded(&touched);
        if let Some(wanted) = q.keys {
            let wanted: HashSet<&[Value]> = wanted.iter().map(Vec::as_slice).collect();
            (rows, keys) =
                rows.into_iter().zip(keys).filter(|(_, k)| wanted.contains(k.as_slice())).unzip();
        }
        self.finish_result(rows, keys)
    }

    /// The subtracting by-key answer. The requested keys resolve through
    /// the key index — O(|keys|), not a scan over every cached group — in
    /// first-seen group order; unknown keys resolve to nothing, duplicates
    /// collapse. An untouched group answers with its cached output row, a
    /// touched one re-derives every aggregate through
    /// [`GroupedAggregateCache::reaggregate`], and under GROUP BY a group
    /// whose every row is excluded disappears, exactly as under full
    /// re-execution.
    fn subtracted(&self, keys: &[Vec<Value>], excluded: Option<&RowSet>) -> QueryResult {
        let mut wanted: Vec<u32> =
            keys.iter().filter_map(|k| self.key_index.get(k.as_slice()).copied()).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let wanted_set: HashSet<u32> = wanted.iter().copied().collect();
        let touched = excluded.map_or_else(HashMap::new, |set| {
            self.touched_positions_of(set.iter(), Some(&wanted_set))
        });

        let aggregates = bind_aggregates(&self.table, &self.stmt).expect("validated at build time");
        let mut rows = Vec::with_capacity(wanted.len());
        let mut out_keys = Vec::with_capacity(wanted.len());
        for gi in wanted {
            let group = &self.groups[gi as usize];
            let mut row = group.template.clone();
            if let Some(positions) = touched.get(&gi) {
                let emptied = positions.len() == group.rows.len();
                if emptied && !self.stmt.group_by.is_empty() {
                    continue;
                }
                for (slot, &item) in self.agg_item_indices.iter().enumerate() {
                    row[item] =
                        Self::reaggregate(group, slot, positions, &aggregates[slot].1).finish();
                }
                if emptied {
                    // The implicit group of a GROUP BY-less query: scalar
                    // items lose their representative row and become NULL,
                    // matching the executor on an empty input.
                    for &item in &self.plain_item_indices {
                        row[item] = Value::Null;
                    }
                }
            }
            rows.push(row);
            out_keys.push(group.key.clone());
        }
        self.finish_result(rows, out_keys)
    }

    /// Excluded positions per touched group, sorted and deduplicated, from
    /// raw row indices (rows the cache did not retain are ignored).
    /// Restricted to the group indices in `wanted` when given (rows
    /// outside those groups cannot affect the answer, so indexing them is
    /// wasted work).
    fn touched_positions_of(
        &self,
        excluded: impl Iterator<Item = usize>,
        wanted: Option<&HashSet<u32>>,
    ) -> HashMap<u32, Vec<u32>> {
        let mut touched: HashMap<u32, Vec<u32>> = HashMap::new();
        for row in excluded {
            if self.membership.contains(row) {
                let (g, pos) = self.row_slots[row];
                if let Some(wanted) = wanted {
                    if !wanted.contains(&g) {
                        continue;
                    }
                }
                touched.entry(g).or_default().push(pos);
            }
        }
        for positions in touched.values_mut() {
            positions.sort_unstable();
            positions.dedup();
        }
        touched
    }

    /// A scoring answer: the computed rows with the empty lineage.
    fn finish_result(&self, rows: Vec<Vec<Value>>, keys: Vec<Vec<Value>>) -> QueryResult {
        QueryResult::new(self.stmt.clone(), self.schema.clone(), rows, keys, Lineage::default())
    }

    /// One aggregate's state for a touched group: subtract the excluded
    /// contributions when the state supports removal, otherwise rebuild from
    /// the group's rows in original order (the MIN/MAX fallback). Argument
    /// values are read back through `arg`, the aggregate's argument bound
    /// to the cache's own snapshot. `positions` must be sorted and
    /// deduplicated.
    fn reaggregate(
        group: &CachedGroup,
        slot: usize,
        positions: &[u32],
        arg: &ArgReader<'_>,
    ) -> AggregateState {
        let value = |rid: RowId| {
            // Cannot fail: `fold` already evaluated this argument on this
            // row, and rows of a snapshot (and of its append descendants)
            // never change.
            arg.value(rid).expect("argument evaluated on this row when it was folded in")
        };
        let mut state = group.states[slot].clone();
        let removable = positions.iter().all(|&p| state.remove(value(group.rows[p as usize])));
        if removable {
            return state;
        }
        let mut state = AggregateState::new(group.states[slot].func());
        let mut skip = positions.iter().peekable();
        for (pos, &rid) in group.rows.iter().enumerate() {
            if skip.peek().is_some_and(|&&p| p as usize == pos) {
                skip.next();
            } else {
                state.add(value(rid));
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecOptions};
    use crate::parser::parse_select;
    use dbwipes_storage::{DataType, Schema};

    fn readings() -> Table {
        let schema = Schema::of(&[
            ("hour", DataType::Int),
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        t.push_rows(vec![
            vec![Value::Int(0), Value::Int(1), Value::Float(20.0)],
            vec![Value::Int(0), Value::Int(2), Value::Float(22.0)],
            vec![Value::Int(1), Value::Int(1), Value::Float(21.0)],
            vec![Value::Int(1), Value::Int(3), Value::Float(120.0)],
            vec![Value::Int(1), Value::Int(2), Value::Null],
        ])
        .unwrap();
        t
    }

    /// Full execution over a table that never held the excluded rows —
    /// the ground truth an exclusion query must reproduce.
    fn reference(table: &Table, stmt: &SelectStatement, excluded: &[RowId]) -> QueryResult {
        let kept: Vec<RowId> = table.row_ids().filter(|r| !excluded.contains(r)).collect();
        let (t, _) = table.materialize(&kept, table.name()).unwrap();
        execute(&t, stmt, ExecOptions::default()).unwrap()
    }

    /// `rows` as an exclusion bitmap over `table`.
    fn excluding(table: &Table, rows: &[RowId]) -> RowSet {
        RowSet::from_rows(table.num_rows(), rows)
    }

    /// The whole answer, and the by-key one for every group (the
    /// subtracting path when `sql` has no LIMIT), against re-execution.
    fn check(sql: &str, excluded: &[RowId]) {
        let table = readings();
        let stmt = parse_select(sql).unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let set = excluding(&table, excluded);
        let incremental = cache.result(&ExclusionQuery::new().excluding_set(&set));
        let full = reference(&table, &stmt, excluded);
        assert_eq!(incremental.rows, full.rows, "{sql} excluding {excluded:?}");
        assert_eq!(incremental.group_keys, full.group_keys, "{sql}");
        assert_eq!(incremental.schema.names(), full.schema.names(), "{sql}");
        let unlimited = SelectStatement { limit: None, ..stmt };
        let every_key = execute(&table, &unlimited, ExecOptions::default()).unwrap().group_keys;
        check_keys(sql, excluded, &every_key);
    }

    /// The whole result with nothing excluded.
    fn whole(cache: &GroupedAggregateCache) -> QueryResult {
        cache.cleaned_result(cache.statement(), None)
    }

    #[test]
    fn no_exclusion_matches_plain_execution() {
        let table = readings();
        let stmt =
            parse_select("SELECT hour, avg(temp), count(*) FROM readings GROUP BY hour").unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let full = execute(&table, &stmt, ExecOptions::default()).unwrap();
        assert_eq!(whole(&cache).rows, full.rows);
        assert_eq!(cache.result(&ExclusionQuery::new()).rows, full.rows);
        assert_eq!(cache.num_groups(), 2);
        assert_eq!(cache.num_rows(), 5);
        assert!(cache.contains(RowId(0)));
        assert_eq!(cache.statement(), &stmt);
    }

    #[test]
    fn removable_aggregates_subtract_exactly() {
        check(
            "SELECT hour, avg(temp), sum(temp), count(*), count(temp) FROM readings GROUP BY hour",
            &[RowId(3)],
        );
        check("SELECT hour, stddev(temp), variance(temp) FROM readings GROUP BY hour", &[RowId(3)]);
    }

    #[test]
    fn min_max_fall_back_to_rescan() {
        // Removing the maximum forces the fallback.
        check("SELECT hour, min(temp), max(temp) FROM readings GROUP BY hour", &[RowId(3)]);
        // Removing only a NULL contribution succeeds without the fallback.
        check("SELECT hour, min(temp), max(temp) FROM readings GROUP BY hour", &[RowId(4)]);
    }

    #[test]
    fn fully_excluded_groups_disappear() {
        check("SELECT hour, avg(temp) FROM readings GROUP BY hour", &[RowId(0), RowId(1)]);
    }

    #[test]
    fn implicit_group_survives_total_exclusion() {
        check(
            "SELECT avg(temp), count(*), min(temp) FROM readings",
            &[RowId(0), RowId(1), RowId(2), RowId(3), RowId(4)],
        );
    }

    #[test]
    fn where_clause_rows_outside_filter_are_ignored() {
        // Row 3 (sensorid = 3) is filtered out, so excluding it is a no-op.
        check(
            "SELECT hour, avg(temp) FROM readings WHERE sensorid <> 3 GROUP BY hour",
            &[RowId(3)],
        );
    }

    #[test]
    fn order_by_and_limit_are_reapplied_after_exclusion() {
        check(
            "SELECT hour, avg(temp) AS a FROM readings GROUP BY hour ORDER BY a DESC LIMIT 1",
            &[RowId(3)],
        );
    }

    #[test]
    fn duplicate_exclusions_count_once() {
        check("SELECT hour, sum(temp) FROM readings GROUP BY hour", &[RowId(0), RowId(0)]);
    }

    /// Under a LIMIT, which of two tied groups survives depends on which
    /// one a scan meets first — after the exclusion. Excluding row 0 of
    /// `(A,5), (B,5), (A,5)` makes `B` the first group a scan meets, so
    /// `ORDER BY m LIMIT 1` keeps `B`, for the whole answer and by key.
    #[test]
    fn a_limit_keeps_the_tie_a_scan_meets_first_after_the_exclusion() {
        let schema = Schema::of(&[("g", DataType::Str), ("v", DataType::Int)]);
        let mut table = Table::new("t", schema).unwrap();
        for g in ["A", "B", "A"] {
            table.push_row(vec![Value::str(g), Value::Int(5)]).unwrap();
        }
        let stmt =
            parse_select("SELECT g, max(v) AS m FROM t GROUP BY g ORDER BY m LIMIT 1").unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let excluded = excluding(&table, &[RowId(0)]);
        let q = ExclusionQuery::new().excluding_set(&excluded);
        let want = reference(&table, &stmt, &[RowId(0)]);
        assert_eq!(want.group_keys, vec![vec![Value::str("B")]]);
        let whole = cache.result(&q);
        assert_eq!((&whole.rows, &whole.group_keys), (&want.rows, &want.group_keys));
        for key in ["A", "B"] {
            let keys = [vec![Value::str(key)]];
            let by_key = cache.result(&q.for_keys(&keys));
            let (want_keys, want_rows): (Vec<_>, Vec<_>) = want
                .group_keys
                .iter()
                .zip(&want.rows)
                .filter(|(k, _)| **k == keys[0])
                .map(|(k, r)| (k.clone(), r.clone()))
                .unzip();
            assert_eq!((by_key.rows, by_key.group_keys), (want_rows, want_keys), "for_keys({key})");
        }
    }

    /// What a retained row costs does not depend on how many aggregates
    /// the statement computes: the cache keeps no per-row value per
    /// aggregate, only per-group states.
    #[test]
    fn bytes_per_retained_row_do_not_depend_on_the_number_of_aggregates() {
        let table_of = |n: i64| {
            let mut t = readings();
            let row = |i: i64| vec![Value::Int(i % 4), Value::Int(i), Value::Float(i as f64)];
            t.push_rows((0..n).map(row).collect()).unwrap();
            t
        };
        let (small, large) = (table_of(1_000), table_of(5_000));
        let per_added_row = |aggregates: &str| {
            let sql = format!("SELECT hour, {aggregates} FROM readings GROUP BY hour");
            let stmt = parse_select(&sql).unwrap();
            let bytes = |t: &Table| {
                let cache = GroupedAggregateCache::build(t, &stmt).unwrap();
                assert_eq!(cache.num_groups(), 4, "same groups at both sizes");
                cache.approx_bytes()
            };
            bytes(&large) - bytes(&small)
        };
        let one = per_added_row("avg(temp)");
        assert!(one >= 4_000 * 16, "row list + slot per retained row, got {one}");
        assert_eq!(per_added_row("avg(temp), stddev(temp)"), one);
        assert_eq!(
            per_added_row("avg(temp), stddev(temp), min(temp), sum(temp * 2), count(*)"),
            one
        );
    }

    /// The by-key path must agree row-for-row with filtering the
    /// re-executed result down to the requested keys (ignoring row order,
    /// which the by-key path does not promise).
    fn check_keys(sql: &str, excluded: &[RowId], keys: &[Vec<Value>]) {
        let table = readings();
        let stmt = parse_select(sql).unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let set = excluding(&table, excluded);
        let partial = cache.result(&ExclusionQuery::new().excluding_set(&set).for_keys(keys));
        let full = reference(&table, &stmt, excluded);
        let mut expected: Vec<(&Vec<Value>, &Vec<Value>)> =
            full.group_keys.iter().zip(&full.rows).filter(|(k, _)| keys.contains(k)).collect();
        let mut got: Vec<(&Vec<Value>, &Vec<Value>)> =
            partial.group_keys.iter().zip(&partial.rows).collect();
        expected.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
        got.sort_by(|a, b| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
        assert_eq!(got, expected, "{sql} excluding {excluded:?} keys {keys:?}");
    }

    #[test]
    fn excluding_keys_matches_filtered_full_result() {
        let all_keys = vec![vec![Value::Int(0)], vec![Value::Int(1)]];
        let hour1 = vec![vec![Value::Int(1)]];
        for excluded in [&[][..], &[RowId(3)][..], &[RowId(2), RowId(3), RowId(4)][..]] {
            check_keys(
                "SELECT hour, avg(temp), count(*) FROM readings GROUP BY hour",
                excluded,
                &all_keys,
            );
            check_keys(
                "SELECT hour, min(temp), max(temp) FROM readings GROUP BY hour",
                excluded,
                &hour1,
            );
            // Keys that never existed are simply absent from the answer.
            check_keys(
                "SELECT hour, sum(temp) FROM readings GROUP BY hour",
                excluded,
                &[vec![Value::Int(1)], vec![Value::Int(42)]],
            );
        }
        // ORDER BY without LIMIT stays on the subtracting path (order is
        // irrelevant to the by-key contract); LIMIT re-folds every group.
        check_keys(
            "SELECT hour, avg(temp) AS a FROM readings GROUP BY hour ORDER BY a DESC",
            &[RowId(3)],
            &all_keys,
        );
        check_keys(
            "SELECT hour, avg(temp) AS a FROM readings GROUP BY hour ORDER BY a DESC LIMIT 1",
            &[RowId(3)],
            &all_keys,
        );
        // A fully excluded group disappears from the by-key answer too.
        check_keys(
            "SELECT hour, avg(temp) FROM readings GROUP BY hour",
            &[RowId(0), RowId(1)],
            &[vec![Value::Int(0)]],
        );
    }

    /// Bits of rows the cache did not retain — filtered out, or beyond
    /// the snapshot in a set sized to a grown table — change nothing.
    #[test]
    fn excluded_bits_outside_the_retained_rows_are_ignored() {
        let table = readings();
        let all_keys = [vec![Value::Int(0)], vec![Value::Int(1)]];
        for sql in [
            "SELECT hour, avg(temp), count(*) FROM readings WHERE sensorid <> 3 GROUP BY hour",
            "SELECT hour, avg(temp) AS a FROM readings WHERE sensorid <> 3 GROUP BY hour \
             ORDER BY a DESC LIMIT 1",
        ] {
            let stmt = parse_select(sql).unwrap();
            let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
            let n = table.num_rows();
            // Row 3 fails the WHERE clause; rows n.. do not exist.
            let outside = RowSet::from_indices(n + 70, [3, n, n + 69]);
            let q = ExclusionQuery::new().excluding_set(&outside);
            let none = ExclusionQuery::new();
            for (q, none) in [(q, none), (q.for_keys(&all_keys), none.for_keys(&all_keys))] {
                let (got, want) = (cache.result(&q), cache.result(&none));
                assert_eq!((got.rows, got.group_keys), (want.rows, want.group_keys), "{sql}");
            }
        }
    }

    #[test]
    fn membership_bitmap_mirrors_contains() {
        let table = readings();
        let stmt =
            parse_select("SELECT hour, avg(temp) FROM readings WHERE sensorid <> 3 GROUP BY hour")
                .unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let membership = cache.membership();
        assert_eq!(membership.universe(), table.num_rows());
        assert_eq!(membership.count_ones(), cache.num_rows());
        for rid in table.row_ids() {
            assert_eq!(membership.contains_row(rid), cache.contains(rid), "{rid}");
        }
        // Row 3 (sensorid = 3) is filtered out.
        assert!(!membership.contains(3));
        assert!(membership.contains(0));
    }

    #[test]
    fn excluding_keys_touches_only_requested_groups() {
        let table = readings();
        let stmt = parse_select("SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        // Excluded rows live in hour 0, but only hour 1 is requested: the
        // answer is hour 1's untouched template row.
        let excluded = excluding(&table, &[RowId(0), RowId(1)]);
        let keys = [vec![Value::Int(1)]];
        let partial = cache.result(&ExclusionQuery::new().excluding_set(&excluded).for_keys(&keys));
        assert_eq!(partial.len(), 1);
        assert_eq!(partial.group_keys[0], vec![Value::Int(1)]);
        assert_eq!(partial.rows[0], whole(&cache).rows[1]);
        // Empty key set → empty result, regardless of exclusions.
        assert!(cache
            .result(&ExclusionQuery::new().excluding_set(&excluded).for_keys(&[]))
            .is_empty());
    }

    #[test]
    fn build_copies_what_build_shared_shares_and_both_fingerprint_alike() {
        let table = readings();
        let stmt = parse_select("SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let copied = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let arc = Arc::new(table.clone());
        let shared = GroupedAggregateCache::build_shared(Arc::clone(&arc), &stmt).unwrap();
        assert!(std::ptr::eq(shared.table(), &*arc), "build_shared co-owns the snapshot");
        // The copy `build` takes shares the snapshot's condition bitmaps.
        assert!(Arc::ptr_eq(&copied.table().condition_bitmaps(), &table.condition_bitmaps()));
        let excluded = excluding(&table, &[RowId(3)]);
        let q = ExclusionQuery::new().excluding_set(&excluded);
        assert_eq!(shared.result(&q).rows, copied.result(&q).rows);
        assert_eq!(shared.fingerprint(), copied.fingerprint());
        assert_eq!(shared.table().id(), table.id());

        let fp = shared.fingerprint();
        assert_eq!(fp.table_name, "readings");
        assert_eq!(fp.table_id, table.id());
        assert_eq!(fp.version, table.version());
        // Equivalent SQL spellings (whitespace, keyword case) canonicalise
        // to the same fingerprint...
        let respelled =
            parse_select("select  hour,  AVG( temp )\nfrom readings group by hour").unwrap();
        assert_eq!(CacheFingerprint::of(&table, &respelled), fp);
        // ...while appending to the data changes it.
        let mut grown = table.clone();
        grown.push_row(vec![Value::Int(2), Value::Int(0), Value::Float(19.0)]).unwrap();
        let fp2 = CacheFingerprint::of(&grown, &stmt);
        assert_eq!(fp2.table_id, fp.table_id);
        assert_ne!(fp2, fp);
        assert!(fp2.grew_from(&fp) && !fp.grew_from(&fp2) && !fp.grew_from(&fp));
    }

    #[test]
    fn build_rejects_invalid_statements() {
        let table = readings();
        let stmt = parse_select("SELECT sensorid, avg(temp) FROM readings GROUP BY hour").unwrap();
        assert!(GroupedAggregateCache::build(&table, &stmt).is_err());
    }

    /// Appended rows touching an old group, creating a new group, and
    /// (partly) failing the WHERE clause — the absorbed cache must be
    /// indistinguishable from a fresh build over the grown table.
    fn check_absorb(sql: &str, appended: &[(i64, i64, Value)]) {
        let mut table = readings();
        let stmt = parse_select(sql).unwrap();
        let mut cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        table
            .push_rows(
                appended
                    .iter()
                    .map(|(s, h, v)| vec![Value::Int(*s), Value::Int(*h), v.clone()])
                    .collect(),
            )
            .unwrap();
        cache.absorb_append_shared(Arc::new(table.clone())).unwrap();
        let fresh = GroupedAggregateCache::build(&table, &stmt).unwrap();

        assert_eq!(cache.fingerprint(), fresh.fingerprint(), "{sql}");
        assert_eq!(cache.num_groups(), fresh.num_groups(), "{sql}");
        assert_eq!(cache.num_rows(), fresh.num_rows(), "{sql}");
        let full_a = whole(&cache);
        let full_b = whole(&fresh);
        assert_eq!(full_a.rows, full_b.rows, "{sql}");
        assert_eq!(full_a.group_keys, full_b.group_keys, "{sql}");
        // Exclusion queries over old rows, new rows and both agree too.
        let n = table.num_rows();
        for excluded in [vec![RowId(0)], vec![RowId(n - 1)], vec![RowId(1), RowId(n - 2)]] {
            let set = excluding(&table, &excluded);
            let q = ExclusionQuery::new().excluding_set(&set);
            assert_eq!(cache.result(&q).rows, fresh.result(&q).rows, "{sql} {excluded:?}");
        }
    }

    #[test]
    fn absorb_append_is_indistinguishable_from_a_fresh_build() {
        let appended: &[(i64, i64, Value)] = &[
            (1, 0, Value::Float(99.0)),  // old group, new maximum
            (2, 7, Value::Float(-40.0)), // brand-new group
            (3, 1, Value::Float(55.0)),  // filtered out under sensorid <> 3
            (1, 7, Value::Null),         // NULL contribution to the new group
        ];
        check_absorb(
            "SELECT hour, avg(temp), sum(temp), count(*), count(temp) FROM readings \
             GROUP BY hour",
            appended,
        );
        check_absorb("SELECT hour, min(temp), max(temp) FROM readings GROUP BY hour", appended);
        check_absorb("SELECT avg(temp), min(temp), max(temp), count(*) FROM readings", appended);
        check_absorb(
            "SELECT hour, avg(temp) FROM readings WHERE sensorid <> 3 GROUP BY hour",
            appended,
        );
        check_absorb(
            "SELECT hour, avg(temp) AS a FROM readings GROUP BY hour ORDER BY a DESC LIMIT 2",
            appended,
        );
    }

    #[test]
    fn absorb_append_batches_compose() {
        // Absorbing twice (batch by batch) equals absorbing once.
        let mut table = readings();
        let stmt =
            parse_select("SELECT hour, sum(temp), max(temp) FROM readings GROUP BY hour").unwrap();
        let mut cache =
            GroupedAggregateCache::build_shared(Arc::new(table.clone()), &stmt).unwrap();
        table.push_row(vec![Value::Int(1), Value::Int(0), Value::Float(1.5)]).unwrap();
        assert_eq!(cache.absorb_append_shared(Arc::new(table.clone())).unwrap(), 1);
        table.push_row(vec![Value::Int(2), Value::Int(9), Value::Float(-3.0)]).unwrap();
        assert_eq!(cache.absorb_append_shared(Arc::new(table.clone())).unwrap(), 1);
        // Re-absorbing at the same version is a no-op.
        assert_eq!(cache.absorb_append_shared(Arc::new(table.clone())).unwrap(), 0);
        let fresh = GroupedAggregateCache::build(&table, &stmt).unwrap();
        assert_eq!(whole(&cache).rows, whole(&fresh).rows);
        assert_eq!(cache.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn absorb_append_rejects_earlier_versions_and_foreign_tables() {
        let table = readings();
        let stmt = parse_select("SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let mut grown = table.clone();
        grown.push_row(vec![Value::Int(2), Value::Int(0), Value::Float(19.0)]).unwrap();
        let mut cache = GroupedAggregateCache::build(&grown, &stmt).unwrap();
        // An earlier snapshot of the same table: absorbing is forward-only.
        assert!(cache.absorb_append_shared(Arc::new(table)).is_err());
        // A different table entirely (fresh id) is rejected outright.
        let other = readings();
        assert!(cache.absorb_append_shared(Arc::new(other)).is_err());
    }

    /// `cleaned_result` against an execution of the rewritten statement:
    /// values by bit pattern, keys, row order and per-group lineage.
    fn check_cleaned(table: &Table, cache: &GroupedAggregateCache, keep: Option<&str>) {
        let keep = keep.map(|sql| crate::parser::parse_expr(sql).unwrap());
        let shown = match &keep {
            Some(keep) => cache.statement().with_additional_filter(keep.clone()),
            None => cache.statement().clone(),
        };
        let survivors =
            keep.map(|keep| RowSet::from_rows(table.num_rows(), &keep.filter(table).unwrap()));
        let got = cache.cleaned_result(&shown, survivors.as_ref());
        let want = execute(table, &shown, ExecOptions::default()).unwrap();
        let bits = |rows: &[Vec<Value>]| format!("{rows:?}");
        assert_eq!(got.statement, shown);
        assert_eq!(bits(&got.rows), bits(&want.rows), "{shown}");
        assert_eq!(bits(&got.group_keys), bits(&want.group_keys), "{shown}");
        assert_eq!(got.schema, want.schema, "{shown}");
        for s in 0..want.len() {
            assert_eq!(got.inputs_of(s), want.inputs_of(s), "{shown}: group {s}");
        }
    }

    #[test]
    fn cleaned_result_matches_execution_of_the_rewritten_statement() {
        let mut table = readings();
        // Tenths: sums that are not exact in binary.
        table.push_row(vec![Value::Int(0), Value::Int(4), Value::Float(0.1)]).unwrap();
        table.push_row(vec![Value::Int(1), Value::Int(4), Value::Float(0.7)]).unwrap();
        for sql in [
            "SELECT hour, avg(temp) AS a, stddev(temp), count(*) FROM readings GROUP BY hour",
            "SELECT hour, min(temp), max(temp), hour * 2 FROM readings GROUP BY hour ORDER BY 2 DESC",
            "SELECT avg(temp), count(*), min(temp) FROM readings WHERE sensorid <> 2",
            // Every group counts 1 after `sensorid <> 1 …`: LIMIT keeps the
            // tie a scan meets first.
            "SELECT sensorid, count(*) AS n FROM readings GROUP BY sensorid ORDER BY n LIMIT 2",
        ] {
            let stmt = parse_select(sql).unwrap();
            let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
            for keep in [
                None,
                Some("NOT (sensorid = 3)"),
                Some("NOT (temp > 21.5)"), // NULL on row 4: excluded
                Some("NOT (sensorid = 1) AND NOT (hour = 0)"),
                Some("NOT (sensorid >= 0)"), // nothing survives
                Some("NOT (sensorid = 99)"), // everything does
            ] {
                check_cleaned(&table, &cache, keep);
            }
        }
    }

    #[test]
    fn cleaned_result_of_an_absorbed_cache_matches_execution() {
        let mut table = readings();
        let stmt =
            parse_select("SELECT hour, avg(temp) AS a FROM readings GROUP BY hour ORDER BY a DESC")
                .unwrap();
        let mut cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        table.push_row(vec![Value::Int(2), Value::Int(7), Value::Float(80.0)]).unwrap();
        table.push_row(vec![Value::Int(0), Value::Int(3), Value::Float(0.3)]).unwrap();
        cache.absorb_append_shared(Arc::new(table.clone())).unwrap();
        check_cleaned(&table, &cache, None);
        check_cleaned(&table, &cache, Some("NOT (sensorid = 3)"));
        check_cleaned(&table, &cache, Some("NOT (sensorid = 7)"));
    }
}
