//! # dbwipes-storage
//!
//! The storage substrate of the DBWipes reproduction: dynamically typed
//! [`Value`]s, [`Schema`]s, columnar [`Table`]s with stable [`RowId`]s and
//! soft deletion, a scalar [`Expr`]ession language with SQL three-valued
//! logic, human-readable [`ConjunctivePredicate`]s (the output format of the
//! Ranked Provenance System), and a table [`Catalog`].
//!
//! The original DBWipes demo (Wu, Madden, Stonebraker, VLDB 2012) ran on top
//! of PostgreSQL; this crate plus `dbwipes-engine` replaces that dependency
//! with an embedded engine that supports exactly the aggregate group-by
//! queries and predicate-based cleaning the demo needs, while exposing the
//! row-level hooks the provenance layer requires.
//!
//! ## RowSets and shards
//!
//! The vectorized predicate path works in [`RowSet`] bitmaps: each
//! condition kernel produces one bitmap over a table's physical rows,
//! conjunctions are word-wise intersections, and match counting is a
//! popcount. A [`ShardedTable`] partitions those universes horizontally —
//! every shard is a full [`Table`] with its own contiguous `RowSet`
//! universe, bridged to the base table by a global↔(shard, local) row-id
//! mapping:
//!
//! ```
//! use dbwipes_storage::{
//!     Condition, ConditionBitmapCache, DataType, RowId, Schema, ShardedTable, Table, Value,
//! };
//!
//! let mut t = Table::new(
//!     "readings",
//!     Schema::of(&[("sensorid", DataType::Int), ("temp", DataType::Float)]),
//! )
//! .unwrap();
//! for i in 0..1000i64 {
//!     t.push_row(vec![Value::Int(i % 10), Value::Float(20.0 + (i % 7) as f64)]).unwrap();
//! }
//!
//! // Unsharded: one kernel scan over the full universe, kept on the
//! // snapshot for whoever asks about it next.
//! let cond = Condition::equals("sensorid", 3);
//! let full = t.condition_bitmaps().condition(&t, &cond).unwrap();
//!
//! // Sharded: one scan per shard, each over its own smaller universe; the
//! // row-id mapping carries every local match back to its base row.
//! let sharded = ShardedTable::hash(&t, "sensorid", 4).unwrap();
//! let mut matches = Vec::new();
//! for (s, shard) in sharded.shards().iter().enumerate() {
//!     let local = ConditionBitmapCache::new(shard).condition(shard, &cond).unwrap();
//!     matches.extend(local.trues.iter().map(|l| sharded.global_of(s, RowId(l))));
//! }
//! matches.sort();
//! assert_eq!(matches, full.trues.to_row_ids());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod catalog;
pub mod column;
pub mod error;
pub mod expr;
pub mod faults;
pub mod persist;
pub mod predicate;
pub mod rowset;
pub mod schema;
pub mod shard;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use column::{Column, CHUNK_ROWS};
pub use error::StorageError;
pub use expr::{col, lit, BinaryOp, Expr, UnaryOp};
pub use faults::{FaultInjectingBackend, FaultKind, FaultPlan};
pub use persist::{
    FsBackend, Manifest, ManifestEntry, PendingWrite, StorageBackend, WriteCounters,
};
pub use predicate::{
    bool_vectorization_stats, CompiledBoolExpr, Condition, ConditionBitmapCache,
    ConjunctivePredicate, TriSet, CONDITION_BITMAP_BUDGET_BYTES,
};
pub use rowset::RowSet;
pub use schema::{Field, Schema};
pub use shard::ShardedTable;
pub use table::{RowId, Table, TableEpoch};
pub use value::{DataType, Value};
