//! # dbwipes-learn
//!
//! The machine-learning substrate of the DBWipes reproduction. The paper's
//! backend (§2.2.2) leans on three learning components, all implemented
//! here from scratch over relational feature vectors:
//!
//! * **Decision trees** ([`DecisionTree`]) with gini / gain-ratio splitting
//!   and error-based pruning — the Predicate Enumerator trains several per
//!   candidate dataset and converts their positive leaf paths into the
//!   ranked predicates shown to the user.
//! * **CN2-SD subgroup discovery** ([`discover_subgroups`]) — the Dataset
//!   Enumerator extends the user's example tuples D′ with subgroups of
//!   inputs that strongly influence the error metric.
//! * **K-means** ([`kmeans()`]) and **naive Bayes** ([`NaiveBayes`]) — the
//!   Dataset Enumerator's D′ cleaning step removes example tuples that are
//!   not self-consistent.
//!
//! [`FeatureSpace`] bridges the relational and the learned worlds: it
//! extracts dense feature vectors from table rows and translates learned
//! splits back into human-readable [`Condition`](dbwipes_storage::Condition)s.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod features;
pub mod kmeans;
pub mod metrics;
pub mod naive_bayes;
pub mod subgroup;
pub mod tree;

pub use features::{Dataset, FeatureDef, FeatureKind, FeatureSpace, FeatureValue, FromRowsError};
pub use kmeans::{kmeans, to_points, KMeansResult};
pub use naive_bayes::NaiveBayes;
pub use subgroup::{discover_subgroups, Subgroup, SubgroupConfig};
pub use tree::{DecisionTree, PathTest, Rule, SplitCriterion, SplitTest, TreeConfig, TreeNode};
