//! # dbwipes-benchmark
//!
//! The repo's benchmark: the paper's Figure-1 loop (query → brush → debug →
//! click-to-clean) driven against the real `dbwipes-server` binary over
//! TCP, on four workloads that stress different layers, with gated
//! end-to-end metrics and a separate traced run that attributes time to
//! each layer. `README.md` explains why each workload exists and which
//! end-to-end metric each per-layer metric is predicted to move.
//!
//! * [`script`] — workloads and their seeded command scripts.
//! * [`check`] — the correctness gates every reply passes through.
//! * [`wire`] — the timed run over TCP, measured from outside.
//! * [`trace`] — the in-process replay, staged explain and layer calls.
//! * [`report`] — metric names, units and derivations.
//! * [`summary`] — medians, percentiles, quartiles.

#![deny(missing_docs)]

pub mod check;
pub mod report;
pub mod script;
pub mod summary;
pub mod trace;
pub mod wire;
