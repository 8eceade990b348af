//! # dbwipes-core
//!
//! The Ranked Provenance System at the heart of DBWipes (Wu, Madden,
//! Stonebraker: *A Demonstration of DBWipes: Clean as You Query*, VLDB
//! 2012). Given an aggregate query, a set of suspicious outputs S, an error
//! metric ε and (optionally) example suspicious inputs D′, the system
//! returns a ranked list of human-readable predicates that describe the
//! inputs responsible for the error and, when excluded from the query,
//! minimise ε.
//!
//! The pipeline mirrors the paper's backend architecture (Figure 1, §2.2.2):
//!
//! 1. **Preprocessor** ([`influence`]) — computes F, the inputs of S, and
//!    ranks every tuple by leave-one-out influence on ε.
//! 2. **Dataset Enumerator** ([`enumerator`]) — cleans D′ (k-means / naive
//!    Bayes) and extends it via CN2-SD subgroup discovery into candidate
//!    datasets Dᶜᵢ.
//! 3. **Predicate Enumerator** ([`predicates`]) — trains several decision
//!    trees per candidate (gini / gain ratio) and converts positive leaf
//!    paths (plus mined text-containment conditions) into compact
//!    predicates.
//! 4. **Predicate Ranker** ([`ranker`]) — scores each predicate by ε
//!    improvement, agreement with D′ and complexity.
//!
//! [`DbWipes`] is the facade tying the steps together; [`cleaner`]
//! implements the clean-as-you-query loop (query rewriting; the data is
//! never touched); [`baselines`] implements the traditional-provenance and
//! tuple-ranking baselines the paper argues against.
//!
//! ## Example
//!
//! ```
//! use dbwipes_core::{DbWipes, ErrorMetric, ExplanationRequest};
//! use dbwipes_data::{generate_sensor, SensorConfig};
//!
//! // A small synthetic Intel-Lab-style trace with one failing sensor.
//! let data = generate_sensor(&SensorConfig {
//!     num_readings: 2_700, failing_sensors: vec![15], ..SensorConfig::small()
//! });
//! let mut db = DbWipes::new();
//! db.register(data.table.clone()).unwrap();
//!
//! // Figure 4's query: temperature statistics per 30-minute window.
//! let result = db
//!     .query("SELECT window, avg(temp), stddev(temp) FROM readings GROUP BY window")
//!     .unwrap();
//!
//! // Brush the windows whose temperature spread looks suspicious and ask "why?".
//! let suspicious: Vec<usize> = (0..result.len())
//!     .filter(|&i| result.value_f64(i, "stddev_temp").unwrap().unwrap_or(0.0) > 5.0)
//!     .collect();
//! let request =
//!     ExplanationRequest::new(suspicious, vec![], ErrorMetric::too_high("stddev_temp", 3.0));
//! let explanation = db.explain(&result, &request).unwrap();
//! assert!(!explanation.predicates.is_empty());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod api;
pub mod baselines;
pub mod cleaner;
pub mod enumerator;
pub mod error;
pub mod influence;
pub mod metric;
pub mod predicates;
pub mod ranker;

pub use api::{
    choose_shard_column, explain_with_cache, ComponentTimings, DbWipes, ExplainConfig, Explanation,
    ExplanationRequest,
};
pub use cleaner::CleaningSession;
pub use enumerator::{
    enumerate_candidates, CandidateDataset, CandidateSource, CleaningStrategy, EnumeratorConfig,
};
pub use error::CoreError;
pub use influence::{rank_influence, rank_influence_with_cache, InfluenceReport, TupleInfluence};
pub use metric::{suggest_metrics, Combine, ErrorMetric, MetricKind};
pub use predicates::{enumerate_predicates, PredicateEnumConfig};
pub use ranker::{
    rank_predicates_sharded, rank_predicates_with_cache, RankedPredicate, RankerConfig,
};
