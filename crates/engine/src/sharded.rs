//! [`ShardedAggregateCache`]: the name the benchmark's
//! `core.rank_sharded{1,4}_ms` metrics build. Nothing is merged: it is one
//! [`GroupedAggregateCache`] over the whole table.

use crate::ast::SelectStatement;
use crate::error::EngineError;
use crate::incremental::GroupedAggregateCache;
use dbwipes_storage::ShardedTable;
use std::sync::Arc;

/// Exists for the benchmark and ranks unpartitioned: the whole-table
/// [`GroupedAggregateCache`] of a [`ShardedTable`].
///
/// ```
/// use dbwipes_engine::{parse_select, GroupedAggregateCache, ShardedAggregateCache};
/// use dbwipes_storage::{DataType, Schema, ShardedTable, Table, Value};
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
/// let sharded = Arc::new(ShardedTable::hash(&t, "hour", 4).unwrap());
/// let cache = ShardedAggregateCache::build(sharded, &stmt).unwrap();
/// let unsharded = GroupedAggregateCache::build(&t, &stmt).unwrap();
/// let whole = |c: &GroupedAggregateCache| c.cleaned_result(c.statement(), None).rows;
/// assert_eq!(whole(cache.cache()), whole(&unsharded));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedAggregateCache {
    cache: GroupedAggregateCache,
}

impl ShardedAggregateCache {
    /// [`GroupedAggregateCache::build_shared`] over the table `sharded`
    /// holds, with the same validation errors.
    pub fn build(
        sharded: Arc<ShardedTable>,
        stmt: &SelectStatement,
    ) -> Result<ShardedAggregateCache, EngineError> {
        let cache = GroupedAggregateCache::build_shared(Arc::clone(sharded.table()), stmt)?;
        Ok(ShardedAggregateCache { cache })
    }

    /// The whole-table cache.
    pub fn cache(&self) -> &GroupedAggregateCache {
        &self.cache
    }
}
