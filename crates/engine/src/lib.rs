//! # dbwipes-engine
//!
//! An embedded SQL-subset query engine with lineage capture — the substrate
//! that replaces PostgreSQL in this reproduction of DBWipes (Wu, Madden,
//! Stonebraker, VLDB 2012).
//!
//! The engine supports exactly the query shape the paper's problem
//! statement assumes (§2.1): single-block aggregate queries
//! `SELECT keys..., agg(expr)... FROM t [WHERE p] [GROUP BY keys] [ORDER BY ...] [LIMIT n]`
//! with the "common PostgreSQL aggregates" avg, sum, count, min, max,
//! stddev and variance (§2.2.2). Every execution records fine-grained
//! lineage: for each output group, the input [`RowId`]s that produced it,
//! which `dbwipes-core`'s Preprocessor reads as the paper's `F`. The
//! answers an aggregate cache gives the ranker for scoring carry none.
//!
//! [`RowId`]: dbwipes_storage::RowId
//!
//! ## Example
//!
//! ```
//! use dbwipes_engine::{execute_sql};
//! use dbwipes_storage::{Catalog, Schema, Table, DataType, Value};
//!
//! let mut t = Table::new("readings", Schema::of(&[
//!     ("hour", DataType::Int), ("temp", DataType::Float),
//! ])).unwrap();
//! t.push_row(vec![Value::Int(0), Value::Float(20.0)]).unwrap();
//! t.push_row(vec![Value::Int(0), Value::Float(24.0)]).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register(t).unwrap();
//!
//! let result = execute_sql(&catalog, "SELECT hour, avg(temp) FROM readings GROUP BY hour").unwrap();
//! assert_eq!(result.value(0, "avg_temp").unwrap(), Value::Float(22.0));
//! assert_eq!(result.inputs_of(0).len(), 2);
//! ```
//!
//! Every ranking asks one [`GroupedAggregateCache`] over the whole table.
//! [`ShardedAggregateCache`] is a name the benchmark builds; it wraps that
//! same cache and partitions nothing.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod aggregate;
pub mod ast;
pub mod error;
pub mod executor;
pub mod incremental;
pub mod lexer;
pub mod parser;
pub mod result;
pub mod sharded;

pub use aggregate::AggregateState;
pub use ast::{
    AggregateArg, AggregateCall, AggregateFunc, OrderBy, SelectExpr, SelectItem, SelectStatement,
    SortOrder,
};
pub use error::EngineError;
pub use executor::{execute, execute_on_catalog, execute_sql, validate, ExecOptions};
pub use incremental::{CacheFingerprint, ExclusionQuery, GroupedAggregateCache};
pub use parser::{parse_expr, parse_select};
pub use result::QueryResult;
pub use sharded::ShardedAggregateCache;
