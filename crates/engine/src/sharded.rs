//! Shard-parallel aggregate caches: one [`GroupedAggregateCache`] per
//! shard of a [`ShardedTable`], merged through the [`AggregateState`]
//! combinability discipline.
//!
//! The merge contract is the one [`AggregateState::merge`] established in
//! PR 2: every supported aggregate carries *decomposable* partial state
//! (raw sums and counts, min/max extremes, raw moments), so the state of a
//! group over the whole table equals the merge of its per-shard states.
//! A [`ShardedAggregateCache`] builds the per-shard caches concurrently
//! (one scoped thread per shard), then constructs a merged group
//! directory keyed by GROUP BY key. Determinism rules:
//!
//! * merged groups are ordered by the global index of their first
//!   contributing row — reproducing the unsharded cache's first-seen scan
//!   order exactly;
//! * per-group states merge in ascending shard order, starting from the
//!   first shard that holds the group — so results are reproducible
//!   run-to-run regardless of build-thread scheduling, and a single-shard
//!   partition is *bit-identical* to the unsharded path;
//! * exclusion queries re-derive only the touched per-shard states (the
//!   same subtract-or-rescan discipline as
//!   [`GroupedAggregateCache::result`]) and re-merge.
//!
//! With more than one shard, sums accumulate per shard before merging, so
//! float results agree with unsharded execution exactly whenever the
//! partial sums are exact (integers, counts, dyadic fractions — and
//! min/max always); otherwise they may differ in the last bits while
//! remaining deterministic.

use crate::aggregate::AggregateState;
use crate::ast::SelectStatement;
use crate::error::EngineError;
use crate::executor::output_order;
use crate::incremental::GroupedAggregateCache;
use crate::result::QueryResult;
use dbwipes_provenance::{Lineage, OperatorGraph, OperatorKind};
use dbwipes_storage::{RowSet, Schema, ShardedTable, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// One merged group in the directory: where it lives in each shard, its
/// first-seen position, and its cached no-exclusion output row.
#[derive(Debug, Clone)]
struct MergedGroup {
    key: Vec<Value>,
    /// `per_shard[s]` = the group's index in shard `s`'s cache.
    per_shard: Vec<Option<u32>>,
    /// Global index of the group's first contributing row (`usize::MAX`
    /// for the row-less implicit group) — the merged ordering key.
    first_global: usize,
    /// The fully projected output row with merged aggregate values, reused
    /// verbatim for untouched groups.
    template: Vec<Value>,
}

/// A statement executed shard-parallel over a [`ShardedTable`], retained
/// as per-shard [`GroupedAggregateCache`]s plus a merged group directory.
///
/// Answers the same exclusion questions as an unsharded cache, but takes
/// its exclusion sets per shard (in each shard's local [`RowSet`]
/// universe), which is the shape the shard-parallel ranker produces.
///
/// ```
/// use dbwipes_engine::{parse_select, ExclusionQuery, GroupedAggregateCache, ShardedAggregateCache};
/// use dbwipes_storage::{DataType, RowSet, Schema, ShardedTable, Table, Value};
/// use std::sync::Arc;
///
/// let mut t = Table::new(
///     "readings",
///     Schema::of(&[("hour", DataType::Int), ("temp", DataType::Float)]),
/// )
/// .unwrap();
/// for i in 0..100i64 {
///     t.push_row(vec![Value::Int(i % 4), Value::Float((i % 8) as f64)]).unwrap();
/// }
/// let stmt = parse_select("SELECT hour, avg(temp), count(*) FROM readings GROUP BY hour").unwrap();
///
/// let unsharded = GroupedAggregateCache::build(&t, &stmt).unwrap();
/// let sharded = ShardedAggregateCache::build(
///     Arc::new(ShardedTable::hash(&t, "hour", 4).unwrap()),
///     &stmt,
/// )
/// .unwrap();
/// // Excluding nothing, every merged group is identical to single-table
/// // execution.
/// let nothing: Vec<RowSet> =
///     sharded.shard_caches().iter().map(|c| RowSet::empty(c.table().num_rows())).collect();
/// let keys: Vec<Vec<Value>> = (0..4).map(|h| vec![Value::Int(h)]).collect();
/// assert_eq!(
///     sharded.result_excluding_keys_local_sets(&nothing, &keys).rows,
///     unsharded.result(&ExclusionQuery::new().for_keys(&keys)).rows,
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ShardedAggregateCache {
    sharded: Arc<ShardedTable>,
    shards: Vec<GroupedAggregateCache<'static>>,
    stmt: SelectStatement,
    schema: Schema,
    merged: Vec<MergedGroup>,
    key_index: HashMap<Vec<Value>, u32>,
    agg_items: Vec<usize>,
    plain_items: Vec<usize>,
}

impl ShardedAggregateCache {
    /// Executes `stmt` once per shard (concurrently, one scoped thread per
    /// shard) and merges the group directories. Validation errors are the
    /// same ones [`GroupedAggregateCache::build`] reports.
    pub fn build(
        sharded: Arc<ShardedTable>,
        stmt: &SelectStatement,
    ) -> Result<ShardedAggregateCache, EngineError> {
        let shards: Vec<GroupedAggregateCache<'static>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sharded
                .shards()
                .iter()
                .map(|t| {
                    let t = t.clone();
                    scope.spawn(move || GroupedAggregateCache::build_shared(t, stmt))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard build thread panicked"))
                .collect::<Result<Vec<_>, EngineError>>()
        })?;

        let n = shards.len();
        let mut merged: Vec<MergedGroup> = Vec::new();
        let mut key_index: HashMap<Vec<Value>, u32> = HashMap::new();
        for (s, cache) in shards.iter().enumerate() {
            for g in 0..cache.num_groups() {
                let key = cache.group_key(g);
                let first_global = cache
                    .group_rows(g)
                    .first()
                    .map(|&local| sharded.global_of(s, local).index())
                    .unwrap_or(usize::MAX);
                let mi = match key_index.get(key) {
                    Some(&mi) => mi as usize,
                    None => {
                        key_index.insert(key.to_vec(), merged.len() as u32);
                        merged.push(MergedGroup {
                            key: key.to_vec(),
                            per_shard: vec![None; n],
                            first_global: usize::MAX,
                            template: Vec::new(),
                        });
                        merged.len() - 1
                    }
                };
                merged[mi].per_shard[s] = Some(g as u32);
                merged[mi].first_global = merged[mi].first_global.min(first_global);
            }
        }
        // Reproduce the unsharded first-seen order: ascending by first
        // contributing global row. (The implicit group of a GROUP BY-less
        // statement is the only row-less group and also the only group.)
        merged.sort_by_key(|m| m.first_global);
        key_index = merged.iter().enumerate().map(|(i, m)| (m.key.clone(), i as u32)).collect();

        let agg_items = shards[0].agg_items().to_vec();
        let plain_items = shards[0].plain_items().to_vec();

        // Templates: plain items come from the shard holding the group's
        // first global row (matching the unsharded representative row);
        // aggregate slots are merged-and-finished across shards.
        for mg in &mut merged {
            let lead = lead_shard(&shards, &sharded, mg);
            let mut template = shards[lead]
                .group_template(mg.per_shard[lead].expect("lead shard holds the group") as usize)
                .to_vec();
            let states = merge_full_states(&shards, mg);
            for (slot, &item) in agg_items.iter().enumerate() {
                template[item] = states[slot].finish();
            }
            mg.template = template;
        }

        Ok(ShardedAggregateCache {
            schema: shards[0].out_schema().clone(),
            sharded,
            shards,
            stmt: stmt.clone(),
            merged,
            key_index,
            agg_items,
            plain_items,
        })
    }

    /// The partition this cache was built over.
    pub fn sharded(&self) -> &Arc<ShardedTable> {
        &self.sharded
    }

    /// The per-shard caches, in shard order.
    pub fn shard_caches(&self) -> &[GroupedAggregateCache<'static>] {
        &self.shards
    }

    /// The exact full result (ORDER BY / LIMIT applied) after excluding
    /// the given per-shard local row sets — the sharded counterpart of
    /// [`GroupedAggregateCache::result`] with the same exclusion, and the
    /// LIMIT fallback of
    /// [`ShardedAggregateCache::result_excluding_keys_local_sets`].
    fn result_excluding_local_sets(&self, excluded: &[RowSet]) -> QueryResult {
        let start = Instant::now();
        let touched = self.touched_maps(excluded, None);

        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(self.merged.len());
        let mut keys: Vec<Vec<Value>> = Vec::with_capacity(self.merged.len());
        for mg in &self.merged {
            let Some(row) = self.cleaned_merged_row(mg, &touched) else {
                continue;
            };
            rows.push(row);
            keys.push(mg.key.clone());
        }

        let order = output_order(&self.stmt, &rows, &keys).expect("validated at build time");
        let mut final_rows = Vec::with_capacity(order.len());
        let mut final_keys = Vec::with_capacity(order.len());
        for &i in &order {
            final_rows.push(std::mem::take(&mut rows[i]));
            final_keys.push(std::mem::take(&mut keys[i]));
        }
        self.finish_result(final_rows, final_keys, start)
    }

    /// The sharded counterpart of
    /// [`GroupedAggregateCache::result`] restricted by key: the cleaned
    /// rows of exactly the requested groups, in merged first-seen order
    /// (ORDER BY not applied; LIMIT falls back to the full path and
    /// filters). Exclusions are per-shard local row sets.
    ///
    /// Panics when `excluded` does not hold one set per shard in that
    /// shard's universe.
    pub fn result_excluding_keys_local_sets(
        &self,
        excluded: &[RowSet],
        keys: &[Vec<Value>],
    ) -> QueryResult {
        assert_eq!(excluded.len(), self.shards.len(), "one exclusion set per shard required");
        for (set, cache) in excluded.iter().zip(&self.shards) {
            assert_eq!(
                set.universe(),
                cache.table().num_rows(),
                "exclusion RowSet universe does not match its shard"
            );
        }
        if self.stmt.limit.is_some() {
            let full = self.result_excluding_local_sets(excluded);
            let start = Instant::now();
            let wanted: HashSet<&[Value]> = keys.iter().map(|k| k.as_slice()).collect();
            let mut rows = Vec::new();
            let mut out_keys = Vec::new();
            for (row, key) in full.rows.into_iter().zip(full.group_keys) {
                if wanted.contains(key.as_slice()) {
                    rows.push(row);
                    out_keys.push(key);
                }
            }
            return self.finish_result(rows, out_keys, start);
        }
        let start = Instant::now();
        let mut wanted: Vec<u32> =
            keys.iter().filter_map(|k| self.key_index.get(k.as_slice()).copied()).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let touched = self.touched_maps(excluded, Some(&wanted));

        let mut rows = Vec::with_capacity(wanted.len());
        let mut out_keys = Vec::with_capacity(wanted.len());
        for &mi in &wanted {
            let mg = &self.merged[mi as usize];
            let Some(row) = self.cleaned_merged_row(mg, &touched) else {
                continue;
            };
            rows.push(row);
            out_keys.push(mg.key.clone());
        }
        self.finish_result(rows, out_keys, start)
    }

    /// Per-shard touched-position maps for one exclusion query, restricted
    /// to the wanted merged groups when given.
    fn touched_maps(
        &self,
        excluded: &[RowSet],
        wanted: Option<&[u32]>,
    ) -> Vec<HashMap<u32, Vec<u32>>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, cache)| {
                let wanted_s: Option<HashSet<u32>> = wanted.map(|w| {
                    w.iter().filter_map(|&mi| self.merged[mi as usize].per_shard[s]).collect()
                });
                cache.exclusion_positions(&excluded[s], wanted_s.as_ref())
            })
            .collect()
    }

    /// One merged group's output row after the exclusion, or `None` when
    /// the group disappears — the shard-merging analogue of the unsharded
    /// cache's `cleaned_group_row`, with states merged in ascending shard
    /// order before finishing.
    fn cleaned_merged_row(
        &self,
        mg: &MergedGroup,
        touched: &[HashMap<u32, Vec<u32>>],
    ) -> Option<Vec<Value>> {
        let is_touched = mg
            .per_shard
            .iter()
            .enumerate()
            .any(|(s, g)| g.is_some_and(|g| touched[s].contains_key(&g)));
        if !is_touched {
            return Some(mg.template.clone());
        }

        let mut acc: Option<Vec<AggregateState>> = None;
        let mut remaining_total = 0usize;
        for (s, cache) in self.shards.iter().enumerate() {
            let Some(g) = mg.per_shard[s] else { continue };
            let gi = g as usize;
            let (states, remaining) = match touched[s].get(&g) {
                None => (cache.full_states(gi).to_vec(), cache.group_rows(gi).len()),
                Some(positions) => (
                    cache.states_excluding(gi, positions),
                    cache.group_rows(gi).len() - positions.len(),
                ),
            };
            remaining_total += remaining;
            match &mut acc {
                None => acc = Some(states),
                Some(a) => {
                    for (x, y) in a.iter_mut().zip(&states) {
                        x.merge(y);
                    }
                }
            }
        }
        let states = acc.expect("merged group exists in at least one shard");

        let has_group_by = !self.stmt.group_by.is_empty();
        if remaining_total == 0 && has_group_by {
            return None;
        }
        let mut row = mg.template.clone();
        for (slot, &item) in self.agg_items.iter().enumerate() {
            row[item] = states[slot].finish();
        }
        if remaining_total == 0 {
            for &item in &self.plain_items {
                row[item] = Value::Null;
            }
        }
        Some(row)
    }

    /// Wraps computed rows into a lineage-free [`QueryResult`] (mirrors the
    /// unsharded cache).
    fn finish_result(
        &self,
        rows: Vec<Vec<Value>>,
        keys: Vec<Vec<Value>>,
        start: Instant,
    ) -> QueryResult {
        let mut lineage = Lineage::new(self.sharded.shards()[0].name());
        for _ in &rows {
            lineage.add_group();
        }
        let mut graph = OperatorGraph::new();
        graph.push(
            OperatorKind::Aggregate {
                aggregates: self.stmt.aggregates().iter().map(|a| a.to_string()).collect(),
            },
            rows.len(),
        );
        QueryResult {
            statement: self.stmt.clone(),
            schema: self.schema.clone(),
            rows,
            group_keys: keys,
            lineage,
            graph,
            execution_nanos: start.elapsed().as_nanos(),
        }
    }
}

/// The shard holding the merged group's first global row (ties broken by
/// shard index; the row-less implicit group falls back to its first
/// holder).
fn lead_shard(
    shards: &[GroupedAggregateCache<'static>],
    sharded: &ShardedTable,
    mg: &MergedGroup,
) -> usize {
    let mut lead = None;
    let mut best = usize::MAX;
    for (s, g) in mg.per_shard.iter().enumerate() {
        let Some(g) = g else { continue };
        let first = shards[s]
            .group_rows(*g as usize)
            .first()
            .map(|&local| sharded.global_of(s, local).index())
            .unwrap_or(usize::MAX);
        if lead.is_none() || first < best {
            lead = Some(s);
            best = first;
        }
    }
    lead.expect("merged group exists in at least one shard")
}

/// Full per-slot states of one merged group, merged in ascending shard
/// order starting from the first holder.
fn merge_full_states(
    shards: &[GroupedAggregateCache<'static>],
    mg: &MergedGroup,
) -> Vec<AggregateState> {
    let mut acc: Option<Vec<AggregateState>> = None;
    for (s, g) in mg.per_shard.iter().enumerate() {
        let Some(g) = g else { continue };
        let states = shards[s].full_states(*g as usize);
        match &mut acc {
            None => acc = Some(states.to_vec()),
            Some(a) => {
                for (x, y) in a.iter_mut().zip(states) {
                    x.merge(y);
                }
            }
        }
    }
    acc.expect("merged group exists in at least one shard")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::ExclusionQuery;
    use crate::parser::parse_select;
    use dbwipes_storage::{DataType, RowId, Schema, Table};

    /// Dyadic temp values (multiples of 1/32) keep per-shard partial sums
    /// exact, so sharded results are bit-identical to unsharded ones.
    fn readings(rows: i64) -> Table {
        let schema = Schema::of(&[
            ("window", DataType::Int),
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        for i in 0..rows {
            let temp = if i % 17 == 3 {
                Value::Null
            } else {
                Value::Float(16.0 + ((i * 7) % 64) as f64 / 32.0)
            };
            t.push_row(vec![Value::Int(i % 5), Value::Int(i % 11), temp]).unwrap();
        }
        t.delete_row(RowId(12)).unwrap();
        t
    }

    fn assert_same(a: &QueryResult, b: &QueryResult, context: &str) {
        assert_eq!(a.rows, b.rows, "{context}");
        assert_eq!(a.group_keys, b.group_keys, "{context}");
        assert_eq!(a.schema.names(), b.schema.names(), "{context}");
    }

    /// Base-table rows as one local exclusion set per shard.
    fn local_sets(cache: &ShardedAggregateCache, rows: &[RowId]) -> Vec<RowSet> {
        let sharded = cache.sharded();
        let split = sharded.split_rows(rows);
        split
            .iter()
            .zip(sharded.shards())
            .map(|(l, t)| RowSet::from_rows(t.num_rows(), l))
            .collect()
    }

    fn check_statement(sql: &str) {
        let t = readings(200);
        let stmt = parse_select(sql).unwrap();
        let unsharded = GroupedAggregateCache::build(&t, &stmt).unwrap();
        for shards in [1usize, 3, 4, 300] {
            let st = Arc::new(ShardedTable::hash(&t, "sensorid", shards).unwrap());
            let cache = ShardedAggregateCache::build(st, &stmt).unwrap();
            assert_same(
                &cache.result_excluding_local_sets(&local_sets(&cache, &[])),
                &unsharded.full_result(),
                &format!("{sql} full, {shards} shards"),
            );

            // Exclusions across shard boundaries.
            let excluded: Vec<RowId> = (0..200usize).filter(|i| i % 7 == 2).map(RowId).collect();
            let sets = local_sets(&cache, &excluded);
            let keys: Vec<Vec<Value>> = vec![vec![Value::Int(1)], vec![Value::Int(3)]];
            assert_same(
                &cache.result_excluding_keys_local_sets(&sets, &keys),
                &unsharded.result(&ExclusionQuery::new().excluding_rows(&excluded).for_keys(&keys)),
                &format!("{sql} by-key, {shards} shards"),
            );

            // Full exclusion path with ORDER BY / LIMIT re-applied.
            assert_same(
                &cache.result_excluding_local_sets(&sets),
                &unsharded.result(&ExclusionQuery::new().excluding_rows(&excluded)),
                &format!("{sql} full-excluding, {shards} shards"),
            );
        }
    }

    #[test]
    fn merged_results_match_unsharded_for_all_aggregates() {
        check_statement(
            "SELECT window, avg(temp), sum(temp), count(*), count(temp) \
             FROM readings GROUP BY window",
        );
        check_statement("SELECT window, min(temp), max(temp) FROM readings GROUP BY window");
        check_statement(
            "SELECT window, stddev(temp), variance(temp) FROM readings GROUP BY window",
        );
    }

    #[test]
    fn merged_results_match_unsharded_with_where_order_and_limit() {
        check_statement(
            "SELECT window, avg(temp) AS a FROM readings WHERE sensorid <> 3 \
             GROUP BY window ORDER BY a DESC",
        );
        check_statement(
            "SELECT window, avg(temp) AS a FROM readings GROUP BY window ORDER BY a DESC LIMIT 2",
        );
    }

    #[test]
    fn implicit_group_merges_and_survives_total_exclusion() {
        check_statement("SELECT avg(temp), count(*), min(temp) FROM readings");
        // Excluding everything leaves the implicit group with empty-input
        // values, exactly like the unsharded cache.
        let t = readings(40);
        let stmt = parse_select("SELECT avg(temp), count(*), max(temp) FROM readings").unwrap();
        let st = Arc::new(ShardedTable::hash(&t, "sensorid", 4).unwrap());
        let cache = ShardedAggregateCache::build(st, &stmt).unwrap();
        let unsharded = GroupedAggregateCache::build(&t, &stmt).unwrap();
        let all: Vec<RowId> = (0..40usize).map(RowId).collect();
        assert_same(
            &cache.result_excluding_keys_local_sets(&local_sets(&cache, &all), &[vec![]]),
            &unsharded.result(&ExclusionQuery::new().excluding_rows(&all).for_keys(&[vec![]])),
            "implicit group total exclusion",
        );
    }

    #[test]
    fn fully_excluded_groups_disappear_across_shards() {
        let t = readings(100);
        let stmt = parse_select("SELECT window, avg(temp) FROM readings GROUP BY window").unwrap();
        let st = Arc::new(ShardedTable::hash(&t, "sensorid", 4).unwrap());
        let cache = ShardedAggregateCache::build(st, &stmt).unwrap();
        let unsharded = GroupedAggregateCache::build(&t, &stmt).unwrap();
        // Exclude every row of window 2 (they are spread over all shards).
        let excluded: Vec<RowId> = (0..100usize).filter(|i| i % 5 == 2).map(RowId).collect();
        let keys = vec![vec![Value::Int(2)], vec![Value::Int(4)]];
        let got = cache.result_excluding_keys_local_sets(&local_sets(&cache, &excluded), &keys);
        assert_same(
            &got,
            &unsharded.result(&ExclusionQuery::new().excluding_rows(&excluded).for_keys(&keys)),
            "vanished group",
        );
        assert_eq!(got.len(), 1, "window 2 must disappear");
    }

    #[test]
    fn partition_on_the_nullable_measure_merges_identically() {
        let t = readings(150);
        let stmt = parse_select("SELECT window, avg(temp), count(*) FROM readings GROUP BY window")
            .unwrap();
        let unsharded = GroupedAggregateCache::build(&t, &stmt).unwrap();
        let st = Arc::new(ShardedTable::hash(&t, "temp", 5).unwrap());
        let cache = ShardedAggregateCache::build(st, &stmt).unwrap();
        let full = cache.result_excluding_local_sets(&local_sets(&cache, &[]));
        assert_same(&full, &unsharded.full_result(), "temp partition");
        let retained: usize =
            cache.shard_caches().iter().map(GroupedAggregateCache::num_rows).sum();
        assert_eq!(retained, unsharded.num_rows());
        assert_eq!(cache.shard_caches().len(), 5);
    }

    #[test]
    fn build_rejects_invalid_statements() {
        let t = readings(20);
        let stmt =
            parse_select("SELECT sensorid, avg(temp) FROM readings GROUP BY window").unwrap();
        let st = Arc::new(ShardedTable::hash(&t, "sensorid", 2).unwrap());
        assert!(ShardedAggregateCache::build(st, &stmt).is_err());
    }
}
