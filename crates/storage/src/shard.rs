//! Horizontal sharding: a [`Table`] split into disjoint row partitions,
//! each owning its own contiguous [`RowSet`] universe.
//!
//! PR 5 made the parallelism seam of the vectorized predicate path
//! explicit: every kernel, bitmap and popcount is scoped to one table's
//! physical row universe. A [`ShardedTable`] exploits that seam. It
//! hash-partitions a base table's rows on a chosen column into `N` shard
//! tables; each shard is a self-contained [`Table`] (same schema, same
//! name, renumbered rows), so the entire existing machinery —
//! `CompiledCondition` kernels, `ConditionBitmapCache`, the engine's
//! aggregate caches — runs per shard unchanged, over a universe `1/N` the
//! size. A global→(shard, local) row-id mapping bridges the two worlds in
//! both directions.
//!
//! Determinism: shard assignment is a pure function of the row's shard-key
//! value (FNV-1a over the value's bit pattern), locals are assigned in
//! ascending global order, and merges iterate shards in index order — so
//! sharded execution is reproducible run-to-run and, for a single shard,
//! bit-identical to the unsharded path.
//!
//! ## Zone maps and shard pruning
//!
//! Each shard keeps a *zone map* per column: the total-order (`f64::total_cmp`)
//! minimum/maximum of its non-NULL values plus a has-NULL flag. Because the
//! columnar kernels compare with `total_cmp` as well, the zone map is an
//! interval in exactly the order the kernels use (so `-0.0 < +0.0`, and NaN
//! payloads sort above `+∞`), which makes [`ShardedTable::condition_may_match`]
//! sound: when it returns `false`, the condition's kernel on that shard is
//! guaranteed to produce an empty [`TriSet`](crate::predicate::TriSet) —
//! no TRUE rows *and* no UNKNOWN rows — so a caller may skip the column
//! scan entirely. On a hash-sharded table an equality on the shard column
//! additionally pins to exactly one shard, which is what turns sharding
//! into a raw-work reduction even on a single core.

use crate::error::StorageError;
use crate::predicate::Condition;
use crate::rowset::RowSet;
use crate::table::{RowId, Table};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — small, stable, dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-shard, per-column statistics backing
/// [`ShardedTable::condition_may_match`].
#[derive(Debug, Clone)]
struct ColumnZone {
    /// Total-order (`f64::total_cmp`) min/max over the shard's non-NULL
    /// numeric values (`None` for string/all-NULL columns). Computed under
    /// the same total order the kernels compare with, so `-0.0` and NaN
    /// rows are covered exactly.
    range: Option<(f64, f64)>,
    /// True when any row of the shard is NULL in this column — NULL rows
    /// evaluate to UNKNOWN under every kernel, so such a shard is never
    /// prunable for conditions on this column.
    has_null: bool,
}

/// The shard-key value of one row or literal, in the space shard
/// assignment hashes over.
enum Key<'a> {
    /// A numeric-class value via its `f64` widening (`Int`, `Float`,
    /// `Timestamp`, `Bool` as 1.0/0.0).
    Num(f64),
    /// A string value.
    Str(&'a str),
}

/// A [`Table`] partitioned into horizontal shards on a chosen column.
///
/// Construction copies the base table's rows (soft-delete flags included)
/// into per-shard tables that share the base's schema and name, so any
/// statement valid against the base validates against every shard. The
/// base table itself is not retained, and the partition does not follow
/// later mutations of it.
///
/// ```
/// use dbwipes_storage::{Condition, DataType, Schema, ShardedTable, Table, Value};
///
/// let mut t = Table::new("readings", Schema::of(&[("sensorid", DataType::Int)])).unwrap();
/// for i in 0..100i64 {
///     t.push_row(vec![Value::Int(i % 10)]).unwrap();
/// }
/// let sharded = ShardedTable::hash(&t, "sensorid", 4).unwrap();
/// assert_eq!(sharded.num_shards(), 4);
/// assert_eq!(sharded.shards().iter().map(|s| s.num_rows()).sum::<usize>(), 100);
///
/// // An equality on the shard column pins to exactly one shard.
/// let cond = Condition::equals("sensorid", 3);
/// let live: Vec<usize> =
///     (0..4).filter(|&s| sharded.condition_may_match(s, &cond)).collect();
/// assert_eq!(live.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedTable {
    base_rows: usize,
    shard_column: usize,
    shards: Vec<Arc<Table>>,
    /// Global row index → (shard, local row index).
    to_local: Vec<(u32, u32)>,
    /// `to_global[shard][local]` = global row index (ascending in `local`).
    to_global: Vec<Vec<u32>>,
    /// `zones[shard][column]`.
    zones: Vec<Vec<ColumnZone>>,
}

impl ShardedTable {
    /// Partitions `table` into `shards` hash shards on `column` (any
    /// column type). Shard counts are clamped to at least 1; counts larger
    /// than the row count simply leave some shards empty. NULL shard keys
    /// go to shard 0.
    pub fn hash(table: &Table, column: &str, shards: usize) -> Result<ShardedTable, StorageError> {
        let shard_column = table.schema().resolve(column)?;
        let num_shards = shards.max(1);
        let base_rows = table.num_rows();
        if base_rows > u32::MAX as usize {
            return Err(StorageError::Eval(format!(
                "cannot shard a table with {base_rows} rows (> u32::MAX)"
            )));
        }
        let col = table.column(shard_column).expect("resolved");
        let dtype = table.schema().field_at(shard_column).expect("resolved").dtype;

        // Assign every physical row (soft-deleted included: bitmaps cover
        // them too) to its shard, locals ascending with globals.
        let mut shard_rows: Vec<Vec<RowId>> = vec![Vec::new(); num_shards];
        let mut to_local = Vec::with_capacity(base_rows);
        for row in 0..base_rows {
            let key = if dtype == DataType::Str {
                col.get_str(row).map(Key::Str)
            } else {
                col.get_f64(row).map(Key::Num)
            };
            let s = match key {
                None => 0, // NULL shard key
                Some(key) => shard_of_key(num_shards, &key),
            };
            to_local.push((s as u32, shard_rows[s].len() as u32));
            shard_rows[s].push(RowId(row));
        }

        let mut shards = Vec::with_capacity(num_shards);
        let mut to_global = Vec::with_capacity(num_shards);
        let mut zones = Vec::with_capacity(num_shards);
        for rows in &shard_rows {
            let (mut shard, _) = table.materialize(rows, table.name())?;
            // `materialize` copies values only; re-apply soft-delete flags
            // so per-shard visible sets mirror the base exactly.
            for (local, &global) in rows.iter().enumerate() {
                if table.is_deleted(global) {
                    shard.delete_row(RowId(local))?;
                }
            }
            zones.push(column_zones(&shard));
            to_global.push(rows.iter().map(|r| r.index() as u32).collect());
            shards.push(Arc::new(shard));
        }

        Ok(ShardedTable { base_rows, shard_column, shards, to_local, to_global, zones })
    }

    /// Number of shards (≥ 1; possibly more than the base has rows).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard tables, in shard-index order. Each is a full [`Table`]
    /// sharing the base's schema and name.
    pub fn shards(&self) -> &[Arc<Table>] {
        &self.shards
    }

    /// One shard table.
    pub fn shard(&self, s: usize) -> &Arc<Table> {
        &self.shards[s]
    }

    /// Physical row count of the base table (the global universe size).
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Schema index of the column rows were partitioned on.
    pub fn shard_column(&self) -> usize {
        self.shard_column
    }

    /// Maps a base-table row to its `(shard, local row)` address, or
    /// `None` when the row index is outside the base universe.
    pub fn locate(&self, global: RowId) -> Option<(usize, RowId)> {
        let (s, local) = *self.to_local.get(global.index())?;
        Some((s as usize, RowId(local as usize)))
    }

    /// Maps a shard-local row back to its base-table row.
    ///
    /// Panics when `shard` or `local` is out of bounds.
    pub fn global_of(&self, shard: usize, local: RowId) -> RowId {
        RowId(self.to_global[shard][local.index()] as usize)
    }

    /// Splits base-table rows into per-shard local row lists (ascending
    /// within each shard when the input is ascending). Rows outside the
    /// base universe are dropped, mirroring how the ranker filters
    /// out-of-range example rows.
    pub fn split_rows(&self, rows: &[RowId]) -> Vec<Vec<RowId>> {
        let mut out: Vec<Vec<RowId>> = vec![Vec::new(); self.num_shards()];
        for &row in rows {
            if let Some((s, local)) = self.locate(row) {
                out[s].push(local);
            }
        }
        out
    }

    /// Splits a base-universe [`RowSet`] into per-shard local sets.
    ///
    /// Panics when `set`'s universe is not the base row count.
    pub fn split_set(&self, set: &RowSet) -> Vec<RowSet> {
        assert_eq!(
            set.universe(),
            self.base_rows,
            "RowSet universe does not match the sharded base table"
        );
        let mut out: Vec<RowSet> =
            self.shards.iter().map(|t| RowSet::empty(t.num_rows())).collect();
        for row in set.iter() {
            let (s, local) = self.to_local[row];
            out[s as usize].insert(local as usize);
        }
        out
    }

    /// Merges per-shard local sets (one per shard, in shard order) back
    /// into a base-universe [`RowSet`] — the inverse of
    /// [`ShardedTable::split_set`].
    ///
    /// Panics when the slice length or any universe does not match.
    pub fn merge_sets(&self, sets: &[RowSet]) -> RowSet {
        assert_eq!(sets.len(), self.num_shards(), "one local set per shard required");
        let mut out = RowSet::empty(self.base_rows);
        for (s, set) in sets.iter().enumerate() {
            assert_eq!(
                set.universe(),
                self.shards[s].num_rows(),
                "local RowSet universe does not match shard {s}"
            );
            for local in set.iter() {
                out.insert(self.to_global[s][local] as usize);
            }
        }
        out
    }

    /// Zone-map shard pruning: `false` guarantees the condition's columnar
    /// kernel on shard `s` would produce an empty
    /// [`TriSet`](crate::predicate::TriSet) — no TRUE and no UNKNOWN rows —
    /// so scanning that shard can be skipped without changing any result.
    /// `true` is always safe and carries no promise.
    ///
    /// The guarantee only covers conditions the typed compiler can express
    /// (those [`ConditionBitmapCache::condition`](crate::ConditionBitmapCache::condition)
    /// answers for this table's schema); callers on the scalar fallback
    /// path must not consult this.
    pub fn condition_may_match(&self, s: usize, cond: &Condition) -> bool {
        let shard = &self.shards[s];
        if shard.num_rows() == 0 {
            // Every kernel over an empty universe yields empty bitmaps.
            return false;
        }
        let Ok(idx) = shard.schema().resolve(cond.column()) else {
            return true;
        };
        let dtype = shard.schema().field_at(idx).expect("resolved").dtype;
        let zone = &self.zones[s][idx];
        if zone.has_null {
            // NULL rows evaluate to UNKNOWN under every kernel on this
            // column, so the TriSet can never be empty.
            return true;
        }
        match cond {
            Condition::Equals { value, .. } => match literal_key(dtype, value) {
                Some(key) => self.key_may_match(s, idx, zone, &key),
                None => true,
            },
            Condition::NotEquals { value, .. } => {
                // Prunable only when every row of the shard equals the
                // literal exactly (identical bits under the total order).
                let Some(Key::Num(v)) = literal_key(dtype, value) else {
                    return true;
                };
                match zone.range {
                    Some((lo, hi)) => lo.to_bits() != v.to_bits() || hi.to_bits() != v.to_bits(),
                    None => true,
                }
            }
            Condition::Range { low, low_inclusive, high, high_inclusive, .. } => {
                if !dtype.is_numeric() {
                    return true;
                }
                let Some((lo, hi)) = zone.range else {
                    return true;
                };
                // Interval overlap under total_cmp, honouring inclusivity:
                // the shard survives unless it lies entirely below the low
                // bound or entirely above the high bound.
                let below = low.is_some_and(|b| match hi.total_cmp(&b) {
                    Ordering::Less => true,
                    Ordering::Equal => !low_inclusive,
                    Ordering::Greater => false,
                });
                let above = high.is_some_and(|b| match lo.total_cmp(&b) {
                    Ordering::Greater => true,
                    Ordering::Equal => !high_inclusive,
                    Ordering::Less => false,
                });
                !(below || above)
            }
            Condition::InSet { values, .. } => {
                if values.iter().any(Value::is_null) {
                    // The kernel turns every non-matching row UNKNOWN.
                    return true;
                }
                if dtype == DataType::Null {
                    return true;
                }
                if dtype == DataType::Str {
                    // Mirrors compilation: only string members are kept.
                    values
                        .iter()
                        .filter_map(|v| match v {
                            Value::Str(m) => Some(Key::Str(m)),
                            _ => None,
                        })
                        .any(|key| self.key_may_match(s, idx, zone, &key))
                } else {
                    // Mirrors compilation: members coerce through f64.
                    values
                        .iter()
                        .filter_map(Value::as_f64)
                        .any(|m| self.key_may_match(s, idx, zone, &Key::Num(m)))
                }
            }
            Condition::Contains { .. } => true,
        }
    }

    /// Can an equality against `key` match any row of shard `s` in column
    /// `idx`? Combines the zone interval with shard pinning on the shard
    /// column (a key can only live in the shard its value partitions to).
    fn key_may_match(&self, s: usize, idx: usize, zone: &ColumnZone, key: &Key<'_>) -> bool {
        if let Key::Num(v) = key {
            match zone.range {
                Some((lo, hi)) => {
                    if v.total_cmp(&lo) == Ordering::Less || v.total_cmp(&hi) == Ordering::Greater {
                        return false;
                    }
                }
                // Non-empty shard, no NULLs, no numeric values: the
                // numeric kernel cannot produce TRUE or UNKNOWN rows.
                None => return false,
            }
        }
        idx != self.shard_column || shard_of_key(self.num_shards(), key) == s
    }
}

/// The shard a key hashes to.
fn shard_of_key(num_shards: usize, key: &Key<'_>) -> usize {
    let h = match key {
        // Hash the bit pattern: total_cmp-equal values have identical bits
        // (including -0.0 vs +0.0 and NaN payloads), so hashing is exactly
        // consistent with the kernels' equality.
        Key::Num(v) => fnv1a(&v.to_bits().to_le_bytes()),
        Key::Str(s) => fnv1a(s.as_bytes()),
    };
    (h % num_shards as u64) as usize
}

/// The key class of an equality literal against a column of type `dtype`,
/// mirroring `CompiledCondition::compile`: class mismatches (which fail
/// compilation) and NULL literals (which compile to all-UNKNOWN) yield
/// `None`, meaning "never prune".
fn literal_key<'a>(dtype: DataType, value: &'a Value) -> Option<Key<'a>> {
    match (dtype, value) {
        (_, Value::Null) => None,
        (DataType::Str, Value::Str(s)) => Some(Key::Str(s)),
        (DataType::Bool, Value::Bool(b)) => Some(Key::Num(if *b { 1.0 } else { 0.0 })),
        (DataType::Int | DataType::Float | DataType::Timestamp, v) => match v {
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => {
                Some(Key::Num(v.as_f64().expect("numeric literal")))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Builds the zone map of every column of one shard, scanning all physical
/// rows (soft-deleted included — kernels scan them too).
fn column_zones(shard: &Table) -> Vec<ColumnZone> {
    (0..shard.schema().len())
        .map(|c| {
            let col = shard.column(c).expect("in schema");
            let mut zone = ColumnZone { range: None, has_null: false };
            for row in 0..shard.num_rows() {
                if col.is_null(row) {
                    zone.has_null = true;
                    continue;
                }
                let Some(v) = col.get_f64(row) else { continue };
                zone.range = Some(match zone.range {
                    None => (v, v),
                    Some((lo, hi)) => (
                        if v.total_cmp(&lo) == Ordering::Less { v } else { lo },
                        if v.total_cmp(&hi) == Ordering::Greater { v } else { hi },
                    ),
                });
            }
            zone
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::ConditionBitmapCache;
    use crate::schema::Schema;

    fn sensor_table() -> Table {
        let schema = Schema::of(&[
            ("sensorid", DataType::Int),
            ("temp", DataType::Float),
            ("room", DataType::Str),
            ("ok", DataType::Bool),
        ]);
        let mut t = Table::new("readings", schema).unwrap();
        for i in 0..60i64 {
            let temp = if i == 7 { -0.0 } else { 15.0 + (i % 9) as f64 };
            let room = if i % 13 == 0 { Value::Null } else { Value::str(format!("room{}", i % 4)) };
            t.push_row(vec![Value::Int(i % 10), Value::Float(temp), room, Value::Bool(i % 3 == 0)])
                .unwrap();
        }
        t.delete_row(RowId(5)).unwrap();
        t.delete_row(RowId(41)).unwrap();
        t
    }

    fn check_partition(t: &Table, st: &ShardedTable, shards: usize) {
        assert_eq!(st.num_shards(), shards);
        assert_eq!(st.base_rows(), t.num_rows());
        let total: usize = st.shards().iter().map(|s| s.num_rows()).sum();
        assert_eq!(total, t.num_rows());
        // Round-trip every global row and verify values + delete flags.
        for row in t.all_row_ids() {
            let (s, local) = st.locate(row).unwrap();
            assert_eq!(st.global_of(s, local), row);
            assert_eq!(st.shard(s).row(local).unwrap(), t.row(row).unwrap());
            assert_eq!(st.shard(s).is_deleted(local), t.is_deleted(row));
        }
        assert!(st.locate(RowId(t.num_rows())).is_none());
        // Locals ascend with globals within each shard.
        for s in 0..st.num_shards() {
            let globals: Vec<usize> =
                (0..st.shard(s).num_rows()).map(|l| st.global_of(s, RowId(l)).index()).collect();
            assert!(globals.windows(2).all(|w| w[0] < w[1]), "shard {s} locals out of order");
            assert_eq!(st.shard(s).name(), t.name());
        }
    }

    #[test]
    fn hash_partition_round_trips() {
        let t = sensor_table();
        for shards in [1, 2, 4, 7, 100] {
            let st = ShardedTable::hash(&t, "sensorid", shards).unwrap();
            check_partition(&t, &st, shards);
        }
        // Shard count 0 clamps to 1.
        let st = ShardedTable::hash(&t, "sensorid", 0).unwrap();
        check_partition(&t, &st, 1);
        // Case-insensitive column resolution, unknown column errors.
        assert!(ShardedTable::hash(&t, "SensorID", 2).is_ok());
        assert!(ShardedTable::hash(&t, "nope", 2).is_err());
    }

    #[test]
    fn split_and_merge_sets_round_trip() {
        let t = sensor_table();
        let st = ShardedTable::hash(&t, "sensorid", 4).unwrap();
        let set = RowSet::from_indices(t.num_rows(), (0..t.num_rows()).filter(|i| i % 3 != 1));
        let locals = st.split_set(&set);
        assert_eq!(locals.len(), 4);
        assert_eq!(locals.iter().map(RowSet::count_ones).sum::<usize>(), set.count_ones());
        assert_eq!(st.merge_sets(&locals), set);
        // split_rows mirrors split_set and drops out-of-range rows.
        let rows = set.to_row_ids();
        let mut with_junk = rows.clone();
        with_junk.push(RowId(10_000));
        let split = st.split_rows(&with_junk);
        for (s, local_rows) in split.iter().enumerate() {
            assert_eq!(
                RowSet::from_rows(st.shard(s).num_rows(), local_rows.iter()),
                locals[s],
                "shard {s}"
            );
        }
    }

    /// The soundness contract: whenever `condition_may_match` says `false`,
    /// the real kernel on that shard must produce an empty TriSet.
    fn assert_prune_sound(st: &ShardedTable, conds: &[Condition]) {
        for (s, shard) in st.shards().iter().enumerate() {
            let cache = ConditionBitmapCache::new(shard);
            for cond in conds {
                if st.condition_may_match(s, cond) {
                    continue;
                }
                if let Some(tri) = cache.condition(shard, cond) {
                    assert!(
                        tri.trues.is_empty() && tri.unknowns.is_empty(),
                        "unsound prune of {cond:?} on shard {s}: {tri:?}"
                    );
                }
            }
        }
    }

    fn probe_conditions() -> Vec<Condition> {
        vec![
            Condition::equals("sensorid", 3),
            Condition::equals("sensorid", 777),
            Condition::equals("temp", 15.0),
            Condition::equals("temp", -0.0),
            Condition::equals("room", Value::str("room2")),
            Condition::equals("room", Value::str("missing")),
            Condition::equals("ok", true),
            Condition::equals("sensorid", Value::Null),
            // Class mismatches (inexpressible → compile errors → None).
            Condition::equals("sensorid", Value::str("3")),
            Condition::equals("room", 3),
            Condition::equals("ok", 1),
            Condition::not_equals("sensorid", 3),
            Condition::not_equals("room", Value::str("room2")),
            Condition::above("temp", 20.0),
            Condition::at_most("temp", 0.0),
            Condition::between("sensorid", 2.0, 4.0),
            Condition::between("temp", 100.0, 200.0),
            Condition::Range {
                column: "temp".into(),
                low: None,
                low_inclusive: false,
                high: Some(0.0),
                high_inclusive: false,
            },
            Condition::Range {
                column: "temp".into(),
                low: None,
                low_inclusive: false,
                high: None,
                high_inclusive: false,
            },
            Condition::in_set("sensorid", vec![Value::Int(1), Value::Int(999)]),
            Condition::in_set("sensorid", vec![Value::Int(1), Value::Null]),
            Condition::in_set("sensorid", vec![]),
            Condition::in_set("room", vec![Value::str("room1"), Value::Int(7)]),
            Condition::contains("room", "room"),
        ]
    }

    #[test]
    fn pruning_is_sound_on_hash_shards() {
        let t = sensor_table();
        for shards in [1, 2, 4, 9, 100] {
            assert_prune_sound(
                &ShardedTable::hash(&t, "sensorid", shards).unwrap(),
                &probe_conditions(),
            );
            assert_prune_sound(
                &ShardedTable::hash(&t, "room", shards).unwrap(),
                &probe_conditions(),
            );
        }
    }

    #[test]
    fn equality_on_hash_shard_column_pins_to_one_shard() {
        let t = sensor_table();
        let st = ShardedTable::hash(&t, "sensorid", 4).unwrap();
        for k in 0..10i64 {
            let cond = Condition::equals("sensorid", k);
            let live: Vec<usize> = (0..4).filter(|&s| st.condition_may_match(s, &cond)).collect();
            assert_eq!(live.len(), 1, "sensorid = {k} should pin to one shard, got {live:?}");
            // ...and the pinned shard really holds every match.
            let shard = st.shard(live[0]);
            let cache = ConditionBitmapCache::new(shard);
            let tri = cache.condition(shard, &cond).unwrap();
            let expected =
                (0..t.num_rows()).filter(|&r| t.row(RowId(r)).unwrap()[0] == Value::Int(k)).count();
            assert_eq!(tri.trues.count_ones(), expected, "sensorid = {k}");
        }
    }

    /// The −0.0 regression the total-order zone maps exist for: a shard
    /// whose only non-positive temp is −0.0 must NOT be pruned for
    /// `temp < 0.0` exclusive, because under total_cmp −0.0 < +0.0 and the
    /// kernel would match that row.
    #[test]
    fn negative_zero_is_not_pruned_away() {
        let mut t =
            Table::new("z", Schema::of(&[("id", DataType::Int), ("x", DataType::Float)])).unwrap();
        t.push_row(vec![Value::Int(0), Value::Float(-0.0)]).unwrap();
        t.push_row(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Float(2.0)]).unwrap();
        let st = ShardedTable::hash(&t, "id", 2).unwrap();
        let below_zero = Condition::Range {
            column: "x".into(),
            low: None,
            low_inclusive: false,
            high: Some(0.0),
            high_inclusive: false,
        };
        let (s, _) = st.locate(RowId(0)).unwrap();
        assert!(
            st.condition_may_match(s, &below_zero),
            "the shard holding -0.0 must survive `x < 0.0`"
        );
        assert_prune_sound(&st, &[below_zero, Condition::equals("x", -0.0)]);
    }

    /// NaN values participate in the bit-pattern hash and the total-order
    /// zones consistently with the kernels' total_cmp equality.
    #[test]
    fn nan_rows_stay_consistent_with_kernels() {
        let mut t = Table::new("n", Schema::of(&[("x", DataType::Float)])).unwrap();
        for v in [1.0, f64::NAN, 3.0, f64::NAN, 8.0] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        let st = ShardedTable::hash(&t, "x", 3).unwrap();
        let conds = vec![
            Condition::equals("x", f64::NAN),
            Condition::equals("x", 3.0),
            Condition::above("x", 5.0),
            Condition::between("x", 0.0, 4.0),
        ];
        assert_prune_sound(&st, &conds);
        // NaN sorts above +inf under total_cmp, so `x > 5` keeps the
        // NaN-holding shard(s) alive — and the kernel indeed matches NaN.
        let eq_nan = Condition::equals("x", f64::NAN);
        let live: Vec<usize> = (0..3).filter(|&s| st.condition_may_match(s, &eq_nan)).collect();
        assert_eq!(live.len(), 1, "NaN equality pins via bit hashing");
    }

    #[test]
    fn empty_and_all_null_tables_shard_cleanly() {
        let t = Table::new("e", Schema::of(&[("x", DataType::Int)])).unwrap();
        let st = ShardedTable::hash(&t, "x", 3).unwrap();
        assert_eq!(st.base_rows(), 0);
        assert!((0..3).all(|s| !st.condition_may_match(s, &Condition::equals("x", 1))));
        assert_eq!(st.merge_sets(&st.split_set(&RowSet::empty(0))), RowSet::empty(0));

        let mut t = Table::new("nulls", Schema::of(&[("x", DataType::Int)])).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let st = ShardedTable::hash(&t, "x", 2).unwrap();
        // NULL keys collect in shard 0.
        assert_eq!(st.shard(0).num_rows(), 2);
        assert_eq!(st.shard(1).num_rows(), 0);
        // A NULL-holding shard is never pruned (UNKNOWN rows).
        assert!(st.condition_may_match(0, &Condition::equals("x", 5)));
        assert_prune_sound(&st, &probe_conditions());
    }
}
