//! # dbwipes
//!
//! An open-source Rust reproduction of **DBWipes: Clean as You Query**
//! (Wu, Madden, Stonebraker — VLDB 2012 demo): an end-to-end system that
//! lets an analyst run aggregate SQL queries, select suspicious results,
//! and receive a *ranked list of human-readable predicates* describing the
//! input tuples that caused the anomaly — which can then be clicked to
//! clean the query.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`storage`] — columnar tables, typed values, predicate expressions.
//! * [`provenance`] — fine-grained lineage and the tuple-set answers of the
//!   traditional provenance baselines.
//! * [`engine`] — the SQL-subset aggregate query engine with lineage capture.
//! * [`learn`] — decision trees, CN2-SD subgroup discovery, k-means, naive Bayes.
//! * [`core`] — the Ranked Provenance System (Preprocessor, Dataset
//!   Enumerator, Predicate Enumerator, Predicate Ranker, cleaner, baselines).
//! * [`data`] — synthetic FEC / Intel-sensor / corruption datasets with
//!   ground truth.
//! * [`dashboard`] — the headless interactive session (scatterplots,
//!   brushing, error forms, clickable ranked predicates).
//!
//! The most convenient entry points are re-exported at the top level:
//! [`DbWipes`], [`DashboardSession`], [`ErrorMetric`], and
//! [`ExplanationRequest`]. See `examples/` for runnable walkthroughs of the
//! paper's FEC and Intel-sensor scenarios.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use dbwipes_core as core;
pub use dbwipes_dashboard as dashboard;
pub use dbwipes_data as data;
pub use dbwipes_engine as engine;
pub use dbwipes_learn as learn;
pub use dbwipes_provenance as provenance;
pub use dbwipes_storage as storage;

pub use dbwipes_core::{
    CleaningSession, DbWipes, ErrorMetric, ExplainConfig, Explanation, ExplanationRequest,
    RankedPredicate,
};
pub use dbwipes_dashboard::{Brush, DashboardSession};
pub use dbwipes_engine::{execute_sql, parse_select, QueryResult};
pub use dbwipes_storage::{Catalog, Condition, ConjunctivePredicate, RowId, Table, Value};
