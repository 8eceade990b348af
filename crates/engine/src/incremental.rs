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
//! [`GroupedAggregateCache::result`] (driven by an [`ExclusionQuery`])
//! then clones only the *touched* groups' states and calls
//! [`AggregateState::remove`] for the excluded tuples' contributions —
//! O(touched) instead of O(|D|).
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
//! ## Two constructors, two contracts
//!
//! [`GroupedAggregateCache::result`] is the *scoring* path: thousands of
//! candidates a second, each answer only compared with a threshold, with
//! the empty lineage. It subtracts, and a floating-point subtraction
//! agrees with an execution over the remaining rows to the last few bits,
//! not in them — exactly on the dyadic values most tests use, not on `0.1`.
//!
//! [`GroupedAggregateCache::cleaned_result`] is the *display* path: the
//! result a session shows after a streamed append, a clicked predicate or
//! an undo. It never subtracts — a group that lost rows is aggregated
//! again over the rows it keeps, in scan order — so it equals
//! [`crate::execute`] on the rewritten statement bit for bit, row order
//! and per-group lineage included, at the cost of reading the touched
//! groups' rows once instead of scanning, hashing and grouping the table.

use crate::aggregate::AggregateState;
use crate::ast::{AggregateCall, SelectExpr, SelectStatement};
use crate::error::EngineError;
use crate::executor::{
    aggregate_outputs, build_groups, output_order, output_schema, project_row, scan_filter,
    scan_filter_suffix, validate, ArgReader,
};
use crate::result::{in_order, QueryResult};
use dbwipes_provenance::Lineage;
use dbwipes_storage::{RowId, RowSet, Schema, Table, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How a cache holds the table it indexed: borrowed from the caller (the
/// classic single-explain path, where the cache lives within one call
/// stack) or shared ownership of an immutable snapshot (the server's
/// cross-brush registry, whose caches must outlive any single request).
#[derive(Debug, Clone)]
enum TableStore<'t> {
    Borrowed(&'t Table),
    Shared(Arc<Table>),
}

impl std::ops::Deref for TableStore<'_> {
    type Target = Table;

    fn deref(&self) -> &Table {
        match self {
            TableStore::Borrowed(t) => t,
            TableStore::Shared(t) => t,
        }
    }
}

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
    /// [`GroupedAggregateCache::absorb_append`] (which is forward-only).
    pub fn grew_from(&self, older: &CacheFingerprint) -> bool {
        self.table_id == older.table_id
            && self.version > older.version
            && self.table_name == older.table_name
            && self.statement == older.statement
    }
}

/// Which input rows an [`ExclusionQuery`] excludes — either shape the
/// ranker produces, borrowed rather than copied.
#[derive(Debug, Clone, Copy, Default)]
enum Excluded<'q> {
    /// Exclude nothing (the full cached result).
    #[default]
    None,
    /// An explicit row list (duplicates and non-matching rows ignored).
    Rows(&'q [RowId]),
    /// A [`RowSet`] bitmap over the cache's row universe — the vectorized
    /// ranker's shape; set bits are consumed directly.
    Set(&'q RowSet),
}

/// A "what if these rows were deleted?" question for
/// [`GroupedAggregateCache::result`]: an exclusion selector (row list or
/// [`RowSet`] bitmap) optionally restricted to specific GROUP BY keys.
/// Borrowing builder — construct with [`ExclusionQuery::new`], chain
/// `excluding_rows` / `excluding_set` / `for_keys`, then pass to
/// [`GroupedAggregateCache::result`]:
///
/// ```ignore
/// cache.result(&ExclusionQuery::new().excluding_set(&bits).for_keys(&keys))
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExclusionQuery<'q> {
    excluded: Excluded<'q>,
    keys: Option<&'q [Vec<Value>]>,
}

impl<'q> ExclusionQuery<'q> {
    /// A query excluding nothing, over every group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Excludes the given rows (replacing any prior exclusion selector).
    pub fn excluding_rows(mut self, rows: &'q [RowId]) -> Self {
        self.excluded = Excluded::Rows(rows);
        self
    }

    /// Excludes the set bits of `set` (replacing any prior selector).
    pub fn excluding_set(mut self, set: &'q RowSet) -> Self {
        self.excluded = Excluded::Set(set);
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

/// A one-time execution of a statement, retained in a form that can answer
/// exclusion queries incrementally. Holds the table it was built from —
/// either borrowed ([`GroupedAggregateCache::build`]) or as a shared
/// immutable snapshot ([`GroupedAggregateCache::build_shared`], which
/// yields a `'static` cache suitable for long-lived registries) — so a
/// cache can never be asked about a different table than it indexed. See
/// the module docs for the design.
#[derive(Debug, Clone)]
pub struct GroupedAggregateCache<'t> {
    table: TableStore<'t>,
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

impl<'t> GroupedAggregateCache<'t> {
    /// Executes `stmt` against `table` once, retaining the grouped
    /// aggregate states. Validation errors are the same ones
    /// [`crate::execute`] would report.
    pub fn build(table: &'t Table, stmt: &SelectStatement) -> Result<Self, EngineError> {
        Self::build_from(TableStore::Borrowed(table), stmt)
    }

    /// [`GroupedAggregateCache::build`] over a shared table snapshot. The
    /// returned cache co-owns the snapshot, so it has no borrowed lifetime
    /// and can be stored in a registry that outlives the building request
    /// (the server's cross-brush cache reuse).
    pub fn build_shared(
        table: Arc<Table>,
        stmt: &SelectStatement,
    ) -> Result<GroupedAggregateCache<'static>, EngineError> {
        GroupedAggregateCache::build_from(TableStore::Shared(table), stmt)
    }

    /// A build is an absorb from row 0: validate, filter the whole table
    /// through the vectorized scan, and fold into an empty cache.
    fn build_from(store: TableStore<'t>, stmt: &SelectStatement) -> Result<Self, EngineError> {
        validate(&store, stmt)?;
        let filtered = scan_filter(&store, stmt)?;
        let is_aggregate = |i: &usize| matches!(stmt.items[*i].expr, SelectExpr::Aggregate(_));
        let (agg_item_indices, plain_item_indices) =
            (0..stmt.items.len()).partition::<Vec<usize>, _>(is_aggregate);
        let mut cache = GroupedAggregateCache {
            schema: output_schema(&store, stmt)?,
            table: store.clone(),
            stmt: stmt.clone(),
            groups: Vec::new(),
            membership: RowSet::empty(0),
            row_slots: Vec::new(),
            key_index: HashMap::new(),
            agg_item_indices,
            plain_item_indices,
        };
        cache.fold(store, filtered.iter_rows(), filtered.count_ones())?;
        cache.membership = filtered;
        Ok(cache)
    }

    /// Absorbs the rows appended to the table since this cache was built,
    /// without touching any retained state for pre-existing rows. `table`
    /// must be the cache's table at the same or a later version (a table
    /// only grows, so that is the cached rows plus appended ones).
    /// Appended rows are filtered, grouped and
    /// folded into the retained aggregate states exactly as a fresh
    /// [`GroupedAggregateCache::build`] over the grown table would —
    /// insertion is exact for every aggregate including MIN/MAX (only
    /// *removal* needs their rescan fallback) — so an absorbed cache is
    /// indistinguishable from a rebuilt one: same groups in the same
    /// first-seen order (new groups append after all old ones), same
    /// states, same answers to every exclusion query. Returns the number
    /// of appended rows that passed the statement's filter.
    pub fn absorb_append(&mut self, table: &'t Table) -> Result<usize, EngineError> {
        self.absorb_from(TableStore::Borrowed(table))
    }

    /// [`GroupedAggregateCache::absorb_append`] over a shared table
    /// snapshot — the registry's shape: the cache drops its old snapshot
    /// and co-owns the grown one.
    pub fn absorb_append_shared(&mut self, table: Arc<Table>) -> Result<usize, EngineError> {
        self.absorb_from(TableStore::Shared(table))
    }

    fn absorb_from(&mut self, store: TableStore<'t>) -> Result<usize, EngineError> {
        let old_rows = self.table.num_rows();
        let table: &Table = &store;
        if table.id() != self.table.id() {
            return Err(EngineError::plan(format!(
                "cannot absorb appends from table '{}' into a cache built over '{}'",
                table.name(),
                self.table.name()
            )));
        }
        if table.version() < self.table.version() || table.num_rows() < old_rows {
            return Err(EngineError::plan(format!(
                "table '{}' at version {} ({} rows) does not extend the cached version {} ({} rows)",
                table.name(),
                table.version(),
                table.num_rows(),
                self.table.version(),
                old_rows
            )));
        }
        if table.version() == self.table.version() {
            return Ok(0);
        }
        // Filter only the appended suffix — the old region is unchanged
        // (a table only grows), so its rows are already retained and
        // re-scanning them would make every absorb O(table). The suffix
        // scan admits exactly the rows a full vectorized filter would.
        let appended = scan_filter_suffix(table, &self.stmt, old_rows)?;
        self.membership.grow(table.num_rows());
        for rid in &appended {
            self.membership.insert(rid.index());
        }
        self.fold(store, appended.iter().copied(), appended.len())?;
        Ok(appended.len())
    }

    /// The one fold behind `build` and `absorb_append`: groups `filtered`
    /// (`count` rows of `store` that passed the statement's filter, in
    /// scan order, none of them retained yet), accumulates them into the
    /// per-group states, extends `row_slots` / `key_index`, re-projects
    /// the output row of every group that gained rows (the others keep
    /// theirs: states, rows and representative first row unchanged), and
    /// adopts `store` as the cache's snapshot. The caller adds the rows to
    /// `membership`.
    fn fold(
        &mut self,
        store: TableStore<'t>,
        filtered: impl Iterator<Item = RowId>,
        count: usize,
    ) -> Result<(), EngineError> {
        let table: &Table = &store;
        // The retained indexes must match the row universe even when no
        // row passes the filter: exclusion bitmaps arrive sized to the table.
        self.row_slots.resize(table.num_rows(), (0u32, 0u32));

        let agg_calls: Vec<&AggregateCall> = self.stmt.aggregates();
        let args: Vec<ArgReader<'_>> =
            agg_calls.iter().map(|call| ArgReader::bind(table, call)).collect::<Result<_, _>>()?;
        let (keys, group_rows) = build_groups(table, &self.stmt, filtered, count)?;
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
                        states: agg_calls.iter().map(|c| AggregateState::new(c.func)).collect(),
                        template: Vec::new(),
                    });
                    gi
                }
            };
            let group = &mut self.groups[gi as usize];
            for (state, arg) in group.states.iter_mut().zip(&args) {
                for &rid in &rows {
                    state.add(arg.value(rid)?);
                }
            }
            group.rows.reserve(rows.len());
            for &rid in &rows {
                let pos = u32::try_from(group.rows.len())
                    .map_err(|_| EngineError::plan("group row list overflows the slot index"))?;
                group.rows.push(rid);
                self.row_slots[rid.index()] = (gi, pos);
            }
            let agg_outputs: Vec<Value> = group.states.iter().map(|s| s.finish()).collect();
            group.template = project_row(table, &self.stmt, &group.key, &group.rows, &agg_outputs)?;
        }

        self.table = store;
        Ok(())
    }

    /// The table this cache was built from.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The fingerprint identifying this cache's (statement, table data)
    /// pair — what a registry keys reuse on. Cheap: no hashing of the data
    /// itself, just the statement's SQL rendering plus the table's identity
    /// and version stamps.
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

    /// The index of the group whose GROUP BY key is `key` (first-seen
    /// order, not output order).
    pub fn find_group(&self, key: &[Value]) -> Option<usize> {
        self.key_index.get(key).map(|&gi| gi as usize)
    }

    /// The input rows of group `g`, in scan order.
    pub fn group_rows(&self, g: usize) -> &[RowId] {
        &self.groups[g].rows
    }

    /// The retained state of the aggregate at SELECT-list index `item` in
    /// group `g`, or `None` when `item` is not an aggregate item.
    pub fn state(&self, g: usize, item: usize) -> Option<&AggregateState> {
        let slot = self.agg_item_indices.iter().position(|&i| i == item)?;
        Some(&self.groups[g].states[slot])
    }

    /// The result of the statement with no rows excluded (lineage-free).
    pub fn full_result(&self) -> QueryResult {
        self.result(&ExclusionQuery::new())
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
        let table: &Table = &self.table;
        let touched = survivors.map_or_else(HashMap::new, |keep| {
            self.touched_positions_of(self.membership.and_not(keep).iter(), None)
        });
        // Cannot fail: `fold` evaluated the same expressions on these rows.
        const FOLDED: &str = "evaluated on this row when it was folded in";

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
            let outputs = aggregate_outputs(table, &self.stmt, &kept).expect(FOLDED);
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
        // A group that lost rows moves its kept rows into the lineage; one
        // that lost none copies its cached list.
        let inputs = in_order(inputs, &order).into_iter().map(Cow::into_owned).collect();
        QueryResult::new(
            shown.clone(),
            self.schema.clone(),
            in_order(rows, &order),
            in_order(keys, &order),
            Lineage::new(inputs),
        )
    }

    /// The single exclusion-query entry point: the exact result the
    /// statement would produce if the query's excluded rows were deleted
    /// from the table. Touched groups subtract the excluded tuples'
    /// contributions via [`AggregateState::remove`] (falling back to an
    /// in-order rebuild for MIN/MAX), untouched groups reuse their cached
    /// output row verbatim. Excluded rows that did not pass the filter (or
    /// appear multiple times) are ignored.
    ///
    /// With [`ExclusionQuery::for_keys`], the result is restricted to the
    /// groups whose GROUP BY key appears in the requested set — without
    /// materialising (cloning, re-aggregating or sorting) any other group.
    /// That is the Predicate Ranker's shape of question: a brush selects a
    /// handful of suspicious groups, and every candidate predicate only
    /// needs ε re-evaluated over *those* groups. The by-key result
    /// contains one row per distinct requested key that (still) exists
    /// after the exclusion, in the cache's first-seen group order — ORDER
    /// BY is not applied, since rows are identified by their group key. A
    /// statement with LIMIT falls back internally to the full path (which
    /// groups survive the limit depends on every other group) and then
    /// filters, so results remain exact.
    pub fn result(&self, q: &ExclusionQuery<'_>) -> QueryResult {
        match q.keys {
            None => {
                let touched = self.touched_of(q.excluded, None);
                let mut rows: Vec<Vec<Value>> = Vec::with_capacity(self.groups.len());
                let mut keys: Vec<Vec<Value>> = Vec::with_capacity(self.groups.len());
                for (gi, group) in self.groups.iter().enumerate() {
                    let Some(row) = self.cleaned_group_row(group, touched.get(&(gi as u32))) else {
                        continue;
                    };
                    rows.push(row);
                    keys.push(group.key.clone());
                }
                let order =
                    output_order(&self.stmt, &rows, &keys).expect("validated at build time");
                self.finish_result(in_order(rows, &order), in_order(keys, &order))
            }
            Some(keys) => {
                if self.stmt.limit.is_some() {
                    return self.limited_keys_result(q.excluded, keys);
                }
                let (wanted, wanted_set) = self.resolve_wanted(keys);
                let touched = self.touched_of(q.excluded, Some(&wanted_set));
                self.keys_result(&wanted, &touched)
            }
        }
    }

    /// Excluded positions per touched group for whichever selector shape
    /// the query carries — bitmap bits are consumed directly (no
    /// `Vec<RowId>` materialised on the un-LIMITed path).
    fn touched_of(
        &self,
        excluded: Excluded<'_>,
        wanted: Option<&HashSet<u32>>,
    ) -> HashMap<u32, Vec<u32>> {
        match excluded {
            Excluded::None => HashMap::new(),
            Excluded::Rows(rows) => self.touched_positions(rows, wanted),
            Excluded::Set(set) => self.touched_positions_of(set.iter(), wanted),
        }
    }

    /// The LIMIT fallback of the by-key paths: which groups survive the
    /// limit depends on every other group, so compute the full result and
    /// filter it down to the requested keys.
    fn limited_keys_result(&self, excluded: Excluded<'_>, keys: &[Vec<Value>]) -> QueryResult {
        let wanted: HashSet<&[Value]> = keys.iter().map(|k| k.as_slice()).collect();
        let full = self.result(&ExclusionQuery { excluded, keys: None });
        let mut rows = Vec::new();
        let mut out_keys = Vec::new();
        for (row, key) in full.rows.into_iter().zip(full.group_keys) {
            if wanted.contains(key.as_slice()) {
                rows.push(row);
                out_keys.push(key);
            }
        }
        self.finish_result(rows, out_keys)
    }

    /// Resolves the requested keys through the key index — O(|keys|), not
    /// a scan over every cached group — in first-seen group order. Unknown
    /// keys resolve to nothing; duplicates collapse.
    fn resolve_wanted(&self, keys: &[Vec<Value>]) -> (Vec<u32>, HashSet<u32>) {
        let mut wanted: Vec<u32> =
            keys.iter().filter_map(|k| self.key_index.get(k.as_slice()).copied()).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let wanted_set: HashSet<u32> = wanted.iter().copied().collect();
        (wanted, wanted_set)
    }

    /// Materializes the by-key answer for the resolved groups.
    fn keys_result(&self, wanted: &[u32], touched: &HashMap<u32, Vec<u32>>) -> QueryResult {
        let mut rows = Vec::with_capacity(wanted.len());
        let mut out_keys = Vec::with_capacity(wanted.len());
        for &gi in wanted {
            let group = &self.groups[gi as usize];
            let Some(row) = self.cleaned_group_row(group, touched.get(&gi)) else {
                continue;
            };
            rows.push(row);
            out_keys.push(group.key.clone());
        }
        self.finish_result(rows, out_keys)
    }

    /// Excluded positions per touched group, sorted and deduplicated.
    /// Restricted to the group indices in `wanted` when given (rows
    /// outside those groups cannot affect the answer, so indexing them is
    /// wasted work).
    fn touched_positions(
        &self,
        excluded: &[RowId],
        wanted: Option<&HashSet<u32>>,
    ) -> HashMap<u32, Vec<u32>> {
        self.touched_positions_of(excluded.iter().map(|r| r.index()), wanted)
    }

    /// [`GroupedAggregateCache::touched_positions`] over raw row indices.
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

    /// One group's output row after excluding `positions`, or `None` when
    /// the group disappears (every contributing row excluded, under GROUP
    /// BY) — the single place encoding the exclusion semantics for both the
    /// full and the by-key paths.
    fn cleaned_group_row(
        &self,
        group: &CachedGroup,
        positions: Option<&Vec<u32>>,
    ) -> Option<Vec<Value>> {
        let Some(positions) = positions else {
            return Some(group.template.clone());
        };
        let has_group_by = !self.stmt.group_by.is_empty();
        let remaining = group.rows.len() - positions.len();
        if remaining == 0 && has_group_by {
            // Every contributing row is excluded: the group disappears,
            // exactly as under full re-execution.
            return None;
        }
        let mut row = group.template.clone();
        for (slot, &item) in self.agg_item_indices.iter().enumerate() {
            row[item] = self.reaggregate(group, slot, positions).finish();
        }
        if remaining == 0 {
            // The implicit group of a GROUP BY-less query: scalar items
            // lose their representative row and become NULL, matching the
            // executor on an empty input.
            for &item in &self.plain_item_indices {
                row[item] = Value::Null;
            }
        }
        Some(row)
    }

    /// A scoring answer: the computed rows with the empty lineage.
    fn finish_result(&self, rows: Vec<Vec<Value>>, keys: Vec<Vec<Value>>) -> QueryResult {
        QueryResult::new(self.stmt.clone(), self.schema.clone(), rows, keys, Lineage::default())
    }

    /// One aggregate's state for a touched group: subtract the excluded
    /// contributions when the state supports removal, otherwise rebuild from
    /// the group's rows in original order (the MIN/MAX fallback). Argument
    /// values are read back from the cache's own snapshot, the column
    /// looked up once per call. `positions` must be sorted and deduplicated.
    fn reaggregate(&self, group: &CachedGroup, slot: usize, positions: &[u32]) -> AggregateState {
        let call = self.stmt.aggregates()[slot];
        let arg = ArgReader::bind(&self.table, call).expect("validated at build time");
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

    fn check(sql: &str, excluded: &[RowId]) {
        let table = readings();
        let stmt = parse_select(sql).unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let incremental = cache.result(&ExclusionQuery::new().excluding_rows(excluded));
        let full = reference(&table, &stmt, excluded);
        assert_eq!(incremental.rows, full.rows, "{sql} excluding {excluded:?}");
        assert_eq!(incremental.group_keys, full.group_keys, "{sql}");
        assert_eq!(incremental.schema.names(), full.schema.names(), "{sql}");
    }

    #[test]
    fn no_exclusion_matches_plain_execution() {
        let table = readings();
        let stmt =
            parse_select("SELECT hour, avg(temp), count(*) FROM readings GROUP BY hour").unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let full = execute(&table, &stmt, ExecOptions::default()).unwrap();
        assert_eq!(cache.full_result().rows, full.rows);
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

    #[test]
    fn accessors_expose_states_and_rows() {
        let table = readings();
        let stmt = parse_select("SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let g = cache.find_group(&[Value::Int(1)]).unwrap();
        assert_eq!(cache.group_rows(g), &[RowId(2), RowId(3), RowId(4)]);
        assert_eq!(cache.state(g, 1).unwrap().finish(), Value::Float(70.5));
        // Item 0 is the group key, not an aggregate.
        assert!(cache.state(g, 0).is_none());
        assert!(cache.find_group(&[Value::Int(9)]).is_none());
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
    /// full result down to the requested keys (ignoring row order, which
    /// the by-key path does not promise).
    fn check_keys(sql: &str, excluded: &[RowId], keys: &[Vec<Value>]) {
        let table = readings();
        let stmt = parse_select(sql).unwrap();
        let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let partial = cache.result(&ExclusionQuery::new().excluding_rows(excluded).for_keys(keys));
        let full = cache.result(&ExclusionQuery::new().excluding_rows(excluded));
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
        // ORDER BY without LIMIT stays on the fast path (order is irrelevant
        // to the by-key contract); LIMIT falls back to the full path.
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

    #[test]
    fn excluding_keys_set_matches_row_list_path() {
        let table = readings();
        let all_keys = vec![vec![Value::Int(0)], vec![Value::Int(1)]];
        for sql in [
            "SELECT hour, avg(temp), count(*) FROM readings GROUP BY hour",
            "SELECT hour, min(temp), max(temp) FROM readings GROUP BY hour",
            // LIMIT exercises the full-path fallback of the set variant.
            "SELECT hour, avg(temp) AS a FROM readings GROUP BY hour ORDER BY a DESC LIMIT 1",
        ] {
            let stmt = parse_select(sql).unwrap();
            let cache = GroupedAggregateCache::build(&table, &stmt).unwrap();
            for excluded in [&[][..], &[RowId(3)][..], &[RowId(0), RowId(1), RowId(4)][..]] {
                let as_set = RowSet::from_rows(table.num_rows(), excluded.iter());
                let via_set =
                    cache.result(&ExclusionQuery::new().excluding_set(&as_set).for_keys(&all_keys));
                let via_list = cache
                    .result(&ExclusionQuery::new().excluding_rows(excluded).for_keys(&all_keys));
                assert_eq!(via_set.rows, via_list.rows, "{sql} excluding {excluded:?}");
                assert_eq!(via_set.group_keys, via_list.group_keys, "{sql}");
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
        let excluded = [RowId(0), RowId(1)];
        let keys = [vec![Value::Int(1)]];
        let partial =
            cache.result(&ExclusionQuery::new().excluding_rows(&excluded).for_keys(&keys));
        assert_eq!(partial.len(), 1);
        assert_eq!(partial.group_keys[0], vec![Value::Int(1)]);
        assert_eq!(partial.rows[0], cache.full_result().rows[1]);
        // Empty key set → empty result, regardless of exclusions.
        assert!(cache
            .result(&ExclusionQuery::new().excluding_rows(&excluded[..1]).for_keys(&[]))
            .is_empty());
    }

    #[test]
    fn shared_build_matches_borrowed_build_and_fingerprints() {
        let table = readings();
        let stmt = parse_select("SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
        let borrowed = GroupedAggregateCache::build(&table, &stmt).unwrap();
        let arc = std::sync::Arc::new(table.clone());
        // The shared cache has no borrowed lifetime: it can outlive every
        // reference to the table it was built from.
        let shared: GroupedAggregateCache<'static> =
            GroupedAggregateCache::build_shared(arc.clone(), &stmt).unwrap();
        let q = ExclusionQuery::new().excluding_rows(&[RowId(3)]);
        assert_eq!(shared.result(&q).rows, borrowed.result(&q).rows);
        assert_eq!(shared.fingerprint(), borrowed.fingerprint());
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
        // Build over a snapshot of the pre-append data — the shape every
        // real caller has (COW catalogs and Arc snapshots), since a
        // borrowed table cannot be mutated while the cache holds it.
        let snapshot = table.clone();
        let mut cache = GroupedAggregateCache::build(&snapshot, &stmt).unwrap();
        table
            .push_rows(
                appended
                    .iter()
                    .map(|(s, h, v)| vec![Value::Int(*s), Value::Int(*h), v.clone()])
                    .collect(),
            )
            .unwrap();
        cache.absorb_append(&table).unwrap();
        let fresh = GroupedAggregateCache::build(&table, &stmt).unwrap();

        assert_eq!(cache.fingerprint(), fresh.fingerprint(), "{sql}");
        assert_eq!(cache.num_groups(), fresh.num_groups(), "{sql}");
        assert_eq!(cache.num_rows(), fresh.num_rows(), "{sql}");
        let full_a = cache.full_result();
        let full_b = fresh.full_result();
        assert_eq!(full_a.rows, full_b.rows, "{sql}");
        assert_eq!(full_a.group_keys, full_b.group_keys, "{sql}");
        // Exclusion queries over old rows, new rows and both agree too.
        let n = table.num_rows();
        for excluded in [vec![RowId(0)], vec![RowId(n - 1)], vec![RowId(1), RowId(n - 2)]] {
            let q = ExclusionQuery::new().excluding_rows(&excluded);
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
        assert_eq!(cache.full_result().rows, fresh.full_result().rows);
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
        assert!(cache.absorb_append(&table).is_err());
        // A different table entirely (fresh id) is rejected outright.
        let other = readings();
        assert!(cache.absorb_append(&other).is_err());
    }

    /// `cleaned_result` against an execution of the rewritten statement:
    /// values by bit pattern, keys, row order and per-group lineage.
    fn check_cleaned(table: &Table, cache: &GroupedAggregateCache<'_>, keep: Option<&str>) {
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
        let snapshot = table.clone();
        let mut cache = GroupedAggregateCache::build(&snapshot, &stmt).unwrap();
        table.push_row(vec![Value::Int(2), Value::Int(7), Value::Float(80.0)]).unwrap();
        table.push_row(vec![Value::Int(0), Value::Int(3), Value::Float(0.3)]).unwrap();
        cache.absorb_append(&table).unwrap();
        check_cleaned(&table, &cache, None);
        check_cleaned(&table, &cache, Some("NOT (sensorid = 3)"));
        check_cleaned(&table, &cache, Some("NOT (sensorid = 7)"));
    }
}
