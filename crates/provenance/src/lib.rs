//! # dbwipes-provenance
//!
//! The provenance substrate of the DBWipes reproduction: fine-grained
//! lineage ([`Lineage`]) mapping aggregate output groups to the input rows
//! that produced them, and the tuple-set answer ([`ProvenanceAnswer`]) the
//! traditional provenance baselines the paper argues against (§1, §4)
//! return. Experiment E5 scores those answers against the ground truth
//! with `dbwipes_data::GroundTruth::score_rows`.
//!
//! Lineage is *captured* by `dbwipes-engine` when it executes a statement
//! and *consumed* by `dbwipes-core`'s Preprocessor.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod lineage;
pub mod why;

pub use lineage::Lineage;
pub use why::ProvenanceAnswer;
