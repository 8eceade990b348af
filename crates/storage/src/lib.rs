//! # dbwipes-storage
//!
//! The storage substrate of the DBWipes reproduction: dynamically typed
//! [`Value`]s, [`Schema`]s, append-only columnar [`Table`]s with stable
//! [`RowId`]s, a scalar [`Expr`]ession language with SQL three-valued
//! logic, human-readable [`ConjunctivePredicate`]s (the output format of the
//! Ranked Provenance System), and a table [`Catalog`].
//!
//! The original DBWipes demo (Wu, Madden, Stonebraker, VLDB 2012) ran on top
//! of PostgreSQL; this crate plus `dbwipes-engine` replaces that dependency
//! with an embedded engine that supports exactly the aggregate group-by
//! queries and predicate-based cleaning the demo needs, while exposing the
//! row-level hooks the provenance layer requires.
//!
//! ## RowSets
//!
//! The vectorized predicate path works in [`RowSet`] bitmaps: each
//! condition kernel produces one bitmap over a table's rows,
//! conjunctions are word-wise intersections, and match counting is a
//! popcount:
//!
//! ```
//! use dbwipes_storage::{Condition, DataType, Schema, Table, Value};
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
//! // One kernel scan per condition over the table's universe, kept on the
//! // snapshot for whoever asks about it next.
//! let bitmaps = t.condition_bitmaps();
//! let sensor = bitmaps.condition(&t, &Condition::equals("sensorid", 3)).unwrap();
//! let hot = bitmaps.condition(&t, &Condition::above("temp", 24.0)).unwrap();
//! assert_eq!(sensor.trues.universe(), t.num_rows());
//! assert_eq!(sensor.trues.count_ones(), 100);
//!
//! // A conjunction is an intersection; its count a popcount.
//! let both = sensor.trues.and(&hot.trues);
//! assert_eq!(both.count_ones(), sensor.trues.intersection_count(&hot.trues));
//! assert!(both.iter().all(|r| r % 10 == 3 && r % 7 > 4));
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
pub use column::{Column, KeyWord, CHUNK_ROWS};
pub use error::StorageError;
pub use expr::{col, lit, BinaryOp, Expr, UnaryOp};
pub use faults::{FaultInjectingBackend, FaultKind, FaultPlan};
pub use persist::{
    FsBackend, Manifest, ManifestEntry, PendingWrite, StorageBackend, WriteCounters,
};
pub use predicate::{
    CompiledBoolExpr, Condition, ConditionBitmapCache, ConjunctivePredicate, TriSet,
    CONDITION_BITMAP_BUDGET_BYTES,
};
pub use rowset::RowSet;
pub use schema::{Field, Schema};
pub use shard::ShardedTable;
pub use table::{RowId, Table};
pub use value::{DataType, Value};
