//! Horizontal sharding: a [`Table`] split into disjoint row partitions,
//! each owning its own contiguous [`RowSet`](crate::RowSet) universe.
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

use crate::error::StorageError;
use crate::table::{RowId, Table};
use crate::value::DataType;
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

/// The shard-key value of one row, in the space shard assignment hashes
/// over.
enum Key<'a> {
    /// A numeric-class value via its `f64` widening (`Int`, `Float`,
    /// `Timestamp`, `Bool` as 1.0/0.0).
    Num(f64),
    /// A string value.
    Str(&'a str),
}

/// A [`Table`] partitioned into horizontal shards on a chosen column.
///
/// Construction copies the base table's rows into per-shard tables that share the base's schema and name, so any
/// statement valid against the base validates against every shard. The
/// base table itself is not retained, and the partition does not follow
/// later mutations of it.
///
/// ```
/// use dbwipes_storage::{DataType, RowId, Schema, ShardedTable, Table, Value};
///
/// let mut t = Table::new("readings", Schema::of(&[("sensorid", DataType::Int)])).unwrap();
/// for i in 0..100i64 {
///     t.push_row(vec![Value::Int(i % 10)]).unwrap();
/// }
/// let sharded = ShardedTable::hash(&t, "sensorid", 4).unwrap();
/// assert_eq!(sharded.shards().len(), 4);
/// assert_eq!(sharded.shards().iter().map(|s| s.num_rows()).sum::<usize>(), 100);
///
/// // Every base row lands in exactly one shard and maps back to itself.
/// let split = sharded.split_rows(&[RowId(3), RowId(13)]);
/// let (s, locals) = split.iter().enumerate().find(|(_, l)| !l.is_empty()).unwrap();
/// assert_eq!(locals.len(), 2, "equal keys share a shard");
/// assert_eq!(sharded.global_of(s, locals[1]), RowId(13));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedTable {
    shards: Vec<Arc<Table>>,
    /// Global row index → (shard, local row index).
    to_local: Vec<(u32, u32)>,
    /// `to_global[shard][local]` = global row index (ascending in `local`).
    to_global: Vec<Vec<u32>>,
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

        // Assign every row to its shard, locals ascending with globals.
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
        for rows in &shard_rows {
            let (shard, _) = table.materialize(rows, table.name())?;
            to_global.push(rows.iter().map(|r| r.index() as u32).collect());
            shards.push(Arc::new(shard));
        }

        Ok(ShardedTable { shards, to_local, to_global })
    }

    /// The shard tables, in shard-index order (≥ 1; possibly more than
    /// the base has rows). Each is a full [`Table`] sharing the base's
    /// schema and name.
    pub fn shards(&self) -> &[Arc<Table>] {
        &self.shards
    }

    /// Maps a base-table row to its `(shard, local row)` address, or
    /// `None` when the row index is outside the base universe.
    fn locate(&self, global: RowId) -> Option<(usize, RowId)> {
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
        let mut out: Vec<Vec<RowId>> = vec![Vec::new(); self.shards.len()];
        for &row in rows {
            if let Some((s, local)) = self.locate(row) {
                out[s].push(local);
            }
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Value;

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
        t
    }

    fn check_partition(t: &Table, st: &ShardedTable, shards: usize) {
        assert_eq!(st.shards().len(), shards);
        let total: usize = st.shards().iter().map(|s| s.num_rows()).sum();
        assert_eq!(total, t.num_rows());
        // Round-trip every global row and verify its values.
        for row in t.row_ids() {
            let (s, local) = st.locate(row).unwrap();
            assert_eq!(st.global_of(s, local), row);
            assert_eq!(st.shards()[s].row(local).unwrap(), t.row(row).unwrap());
        }
        assert!(st.locate(RowId(t.num_rows())).is_none());
        // Locals ascend with globals within each shard.
        for (s, shard) in st.shards().iter().enumerate() {
            let globals: Vec<usize> =
                (0..shard.num_rows()).map(|l| st.global_of(s, RowId(l)).index()).collect();
            assert!(globals.windows(2).all(|w| w[0] < w[1]), "shard {s} locals out of order");
            assert_eq!(shard.name(), t.name());
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
    fn split_rows_routes_through_the_partition_and_drops_out_of_range_rows() {
        let t = sensor_table();
        let st = ShardedTable::hash(&t, "room", 4).unwrap();
        let mut rows: Vec<RowId> = (0..t.num_rows()).filter(|i| i % 3 != 1).map(RowId).collect();
        rows.push(RowId(10_000));
        let split = st.split_rows(&rows);
        assert_eq!(split.len(), 4);
        let mut back = Vec::new();
        for (s, locals) in split.iter().enumerate() {
            back.extend(locals.iter().map(|&l| st.global_of(s, l)));
        }
        back.sort();
        rows.pop();
        assert_eq!(back, rows);
    }

    #[test]
    fn empty_and_all_null_tables_shard_cleanly() {
        let t = Table::new("e", Schema::of(&[("x", DataType::Int)])).unwrap();
        let st = ShardedTable::hash(&t, "x", 3).unwrap();
        assert!(st.shards().iter().all(|s| s.num_rows() == 0));
        assert!(st.split_rows(&[RowId(0)]).iter().all(Vec::is_empty));

        let mut t = Table::new("nulls", Schema::of(&[("x", DataType::Int)])).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let st = ShardedTable::hash(&t, "x", 2).unwrap();
        // NULL keys collect in shard 0.
        assert_eq!(st.shards()[0].num_rows(), 2);
        assert_eq!(st.shards()[1].num_rows(), 0);
    }
}
