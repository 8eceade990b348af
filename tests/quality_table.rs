//! The paper's quality claims as golden tables over injected ground truth.
//!
//! "Traditional provenance will return the entire input collection, which
//! has very low precision" (§1), while DBWipes returns a short, precise
//! predicate. Each test below renders one experiment's fixed-width table,
//! prints it, compares it byte for byte with `tests/golden/quality_*.txt`
//! and asserts the ordering the paper predicts:
//!
//! * E5 — precision / recall of ranked provenance vs. the traditional
//!   provenance and tuple-ranking baselines (corrupted fixture, 20k rows);
//! * E6 — ablation of the Predicate Ranker's score terms and of the
//!   Predicate Enumerator's splitting strategies (sensor fixture, 54k
//!   readings);
//! * E8 — ablation of the Dataset Enumerator's D′ cleaning and subgroup
//!   extension under a noisy example selection (corrupted fixture, 12k rows).
//!
//! `cargo test --test quality_table -- --nocapture` prints the tables. On a
//! mismatch the failure prints the new table; a change that moves a number
//! on purpose copies it over the golden.

use dbwipes::core::baselines::{
    coarse_grained_provenance, fine_grained_provenance, greedy_responsibility,
    single_attribute_predicates, top_k_influence, SingleAttributeConfig,
};
use dbwipes::core::{
    explain_with_cache, rank_influence, CleaningStrategy, CoreError, ErrorMetric, ExplainConfig,
    Explanation, ExplanationRequest, RankerConfig,
};
use dbwipes::data::{
    generate_corrupted, generate_sensor, CorruptedDataset, CorruptionConfig, PredicateScore,
    SensorConfig, SensorDataset,
};
use dbwipes::engine::{execute, parse_select, ExecOptions, GroupedAggregateCache};
use dbwipes::learn::{SplitCriterion, TreeConfig};
use dbwipes::{QueryResult, RowId, Table};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use std::fmt::Write as _;

/// The Intel-Lab sensor fixture at a given size.
fn sensor_dataset(readings: usize) -> SensorDataset {
    generate_sensor(&SensorConfig { num_readings: readings, ..SensorConfig::default() })
}

/// The corrupted-measurements fixture: two adjacent corrupted devices,
/// corruption across the whole group range so the true cause is purely
/// attribute-based.
fn corrupted_dataset(rows: usize) -> CorruptedDataset {
    generate_corrupted(&CorruptionConfig {
        num_rows: rows,
        num_devices: 20,
        corrupted_devices: vec![7, 8],
        corruption_start_group: 0,
        corruption_shift: 150.0,
        ..CorruptionConfig::default()
    })
}

fn run_query(table: &Table, sql: &str) -> QueryResult {
    let stmt = parse_select(sql).expect("valid experiment query");
    execute(table, &stmt, ExecOptions::default()).expect("experiment query executes")
}

/// The pipeline over a cache of `result`'s statement built from `table`.
fn explain(
    table: &Table,
    result: &QueryResult,
    request: &ExplanationRequest,
) -> Result<Explanation, CoreError> {
    let cache = GroupedAggregateCache::build(table, &result.statement)?;
    explain_with_cache(&cache, result, request)
}

/// The sensor scenario: S is the windows whose temperature spread exceeds
/// 8, D′ the readings above 100°F among their inputs.
fn sensor_explanation(dataset: &SensorDataset, config: ExplainConfig) -> Explanation {
    let result = run_query(&dataset.table, &dataset.window_query());
    let suspicious: Vec<usize> = (0..result.len())
        .filter(|&i| result.value_f64(i, "std_temp").unwrap_or(None).unwrap_or(0.0) > 8.0)
        .collect();
    assert!(!suspicious.is_empty(), "no suspicious windows in the generated sensor data");
    let examples: Vec<RowId> = result
        .inputs_of_rows(&suspicious)
        .into_iter()
        .filter(|&r| {
            dataset
                .table
                .value_by_name(r, "temp")
                .ok()
                .and_then(|v| v.as_f64())
                .is_some_and(|t| t > 100.0)
        })
        .collect();
    let mut request =
        ExplanationRequest::new(suspicious, examples, ErrorMetric::too_high("std_temp", 5.0));
    request.config = config;
    explain(&dataset.table, &result, &request).expect("sensor explanation")
}

/// The groups of the corrupted fixture whose average exceeds 65.
fn suspicious_groups(result: &QueryResult) -> Vec<usize> {
    (0..result.len())
        .filter(|&i| result.value_f64(i, "avg_value").unwrap_or(None).unwrap_or(0.0) > 65.0)
        .collect()
}

/// The corrupted scenario with a caller-chosen D′.
fn corrupted_explanation(
    dataset: &CorruptedDataset,
    examples: Vec<RowId>,
    config: ExplainConfig,
) -> Explanation {
    let result = run_query(&dataset.table, &dataset.group_avg_query());
    let suspicious = suspicious_groups(&result);
    assert!(!suspicious.is_empty(), "no suspicious groups in the corrupted data");
    let mut request =
        ExplanationRequest::new(suspicious, examples, ErrorMetric::too_high("avg_value", 60.0));
    request.config = config;
    explain(&dataset.table, &result, &request).expect("corrupted explanation")
}

/// Appends a fixed-width table with a title, so the output reads like the
/// rows of a paper table.
fn render_table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    writeln!(out, "\n== {title}").unwrap();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, &width)| format!("{c:width$}")).collect();
        padded.join(" | ")
    };
    writeln!(out, "{}", line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())).unwrap();
    writeln!(out, "{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"))
        .unwrap();
    for row in rows {
        writeln!(out, "{}", line(row)).unwrap();
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

fn assert_golden(got: &str, golden: &str, label: &str) {
    print!("{got}");
    assert!(got == golden, "{label}: the table changed; got:\n{got}\nexpected:\n{golden}");
}

#[test]
fn e5_ranked_provenance_is_precise_where_lineage_is_not() {
    let dataset = corrupted_dataset(20_000);
    let result = run_query(&dataset.table, &dataset.group_avg_query());
    let suspicious = suspicious_groups(&result);
    let metric = ErrorMetric::too_high("avg_value", 60.0);
    let truth_size = dataset.truth.error_count();

    let mut rows = Vec::new();
    let mut add = |name: &str, returned: Vec<RowId>, description: String| -> PredicateScore {
        let score = dataset.truth.score_rows(&returned);
        rows.push(vec![
            name.to_string(),
            returned.len().to_string(),
            fmt(score.precision),
            fmt(score.recall),
            fmt(score.f1),
            description,
        ]);
        score
    };

    add(
        "coarse-grained provenance",
        coarse_grained_provenance(&dataset.table).rows().collect(),
        "whole input table".into(),
    );
    let fine = add(
        "fine-grained provenance (Trio-style)",
        fine_grained_provenance(&result, &suspicious).rows().collect(),
        "all inputs of the selected outputs".into(),
    );

    let influence = rank_influence(&dataset.table, &result, &suspicious, &metric).unwrap();
    add(
        "top-k leave-one-out influence",
        top_k_influence(&influence, truth_size).rows().collect(),
        format!("k = |ground truth| = {truth_size}"),
    );
    let responsibility: Vec<RowId> = greedy_responsibility(&influence)
        .into_iter()
        .filter(|(_, r)| *r > 0.0)
        .map(|(row, _)| row)
        .collect();
    add(
        "greedy responsibility (causality-style)",
        responsibility,
        "tuples needed to drive eps to zero".into(),
    );

    let single = single_attribute_predicates(
        &dataset.table,
        &result,
        &suspicious,
        &[],
        &metric,
        &SingleAttributeConfig::default(),
    )
    .unwrap();
    let single = single.first().expect("a single-attribute predicate");
    let single = add(
        "exhaustive single-attribute predicate",
        single.predicate.matching_rows(&dataset.table),
        single.predicate.to_string(),
    );

    let explanation = corrupted_explanation(&dataset, vec![], ExplainConfig::standard());
    let best = explanation.best().unwrap();
    let dbwipes = add(
        "DBWipes ranked predicate (this paper)",
        best.predicate.matching_rows(&dataset.table),
        best.predicate.to_string(),
    );

    let mut out = String::new();
    render_table(
        &mut out,
        "E5: who explains the error? precision/recall vs. injected ground truth (20k rows)",
        &["strategy", "returned_rows", "precision", "recall", "f1", "answer"],
        &rows,
    );
    assert_golden(&out, include_str!("golden/quality_e5.txt"), "E5");

    assert!(
        dbwipes.precision > 4.0 * fine.precision,
        "DBWipes precision {} vs lineage precision {}",
        dbwipes.precision,
        fine.precision
    );
    assert!(dbwipes.recall >= 0.9, "DBWipes recall {}", dbwipes.recall);
    assert!(
        dbwipes.f1 >= single.f1,
        "DBWipes f1 {} vs single-attribute f1 {}",
        dbwipes.f1,
        single.f1
    );
}

#[test]
fn e6_default_ranker_and_tree_set_score_best_against_ground_truth() {
    let dataset = sensor_dataset(54_000);

    // Part 1: ranker weight ablation.
    let weightings: [(&str, RankerConfig); 4] = [
        (
            "error improvement only",
            RankerConfig {
                weight_error: 1.0,
                weight_accuracy: 0.0,
                weight_complexity: 0.0,
                max_results: 10,
            },
        ),
        (
            "+ D' accuracy term",
            RankerConfig {
                weight_error: 1.0,
                weight_accuracy: 0.5,
                weight_complexity: 0.0,
                max_results: 10,
            },
        ),
        ("+ complexity penalty (default)", RankerConfig::default()),
        (
            "accuracy only (no error term)",
            RankerConfig {
                weight_error: 0.0,
                weight_accuracy: 1.0,
                weight_complexity: 0.05,
                max_results: 10,
            },
        ),
    ];
    let mut rows = Vec::new();
    // (gt_f1, terms) of each weighting's top predicate, in table order.
    let mut weighting_scores = Vec::new();
    for (name, ranker) in weightings {
        let mut config = ExplainConfig::standard();
        config.ranker = ranker;
        let explanation = sensor_explanation(&dataset, config);
        let best = explanation.best().unwrap();
        let gt = dataset.truth.score_predicate(&dataset.table, &best.predicate);
        rows.push(vec![
            name.to_string(),
            best.predicate.to_string(),
            best.complexity.to_string(),
            fmt(best.improvement),
            fmt(best.example_f1),
            fmt(gt.f1),
        ]);
        weighting_scores.push((gt.f1, best.complexity));
    }
    let mut out = String::new();
    render_table(
        &mut out,
        "E6a: Predicate Ranker weight ablation (sensor scenario, 54k readings)",
        &["ranking score", "top predicate", "terms", "improvement", "D'_f1", "gt_f1"],
        &rows,
    );

    // Part 2: splitting-strategy ablation (the paper's "m standard splitting
    // and pruning strategies").
    let strategies: [(&str, Vec<TreeConfig>); 4] = [
        (
            "gini only",
            vec![TreeConfig { criterion: SplitCriterion::Gini, ..TreeConfig::default() }],
        ),
        (
            "gain ratio only",
            vec![TreeConfig { criterion: SplitCriterion::GainRatio, ..TreeConfig::default() }],
        ),
        (
            "gini, unpruned depth 8",
            vec![TreeConfig {
                criterion: SplitCriterion::Gini,
                max_depth: 8,
                prune: false,
                ..TreeConfig::default()
            }],
        ),
        ("gini + gain ratio + shallow gini (default)", Vec::new()),
    ];
    let mut rows = Vec::new();
    let mut strategy_f1 = Vec::new();
    for (name, trees) in strategies {
        let mut config = ExplainConfig::standard();
        if !trees.is_empty() {
            config.predicates.tree_configs = trees;
        }
        let explanation = sensor_explanation(&dataset, config);
        let best = explanation.best().unwrap();
        let gt = dataset.truth.score_predicate(&dataset.table, &best.predicate);
        rows.push(vec![
            name.to_string(),
            explanation.predicates.len().to_string(),
            best.predicate.to_string(),
            fmt(best.improvement),
            fmt(gt.f1),
        ]);
        strategy_f1.push(gt.f1);
    }
    render_table(
        &mut out,
        "E6b: Predicate Enumerator splitting-strategy ablation",
        &["tree strategies", "ranked predicates", "top predicate", "improvement", "gt_f1"],
        &rows,
    );
    assert_golden(&out, include_str!("golden/quality_e6.txt"), "E6");

    // Row 2 is "+ complexity penalty (default)".
    let (default_f1, default_terms) = weighting_scores[2];
    for &(f1, terms) in &weighting_scores {
        assert!(default_f1 >= f1, "E6a: default gt_f1 {default_f1} < {f1}");
        assert!(default_terms <= terms, "E6a: default has {default_terms} terms > {terms}");
    }
    let (default_f1, singles) = strategy_f1.split_last().unwrap();
    for &f1 in singles {
        assert!(*default_f1 >= f1, "E6b: default tree set gt_f1 {default_f1} < {f1}");
    }
}

#[test]
fn e8_subgroup_extension_never_scores_below_no_extension() {
    let dataset = corrupted_dataset(12_000);
    let mut rng = StdRng::seed_from_u64(11);
    let error_rows: Vec<RowId> = dataset.truth.error_rows.iter().copied().collect();
    let clean_rows: Vec<RowId> =
        dataset.table.row_ids().filter(|r| !dataset.truth.is_error(*r)).collect();

    // D' with a controlled noise rate: `1 - noise` of the examples are true
    // errors, `noise` are accidental selections of clean rows.
    let make_examples = |rng: &mut StdRng, size: usize, noise: f64| -> Vec<RowId> {
        (0..size)
            .map(|_| {
                if rng.gen_bool(noise) {
                    *clean_rows.choose(rng).expect("clean rows")
                } else {
                    *error_rows.choose(rng).expect("error rows")
                }
            })
            .collect()
    };

    let strategies = [
        ("no cleaning, no extension", CleaningStrategy::None, false),
        ("no cleaning, + subgroups", CleaningStrategy::None, true),
        ("k-means cleaning, + subgroups", CleaningStrategy::KMeans, true),
        ("naive Bayes cleaning, + subgroups", CleaningStrategy::NaiveBayes, true),
    ];
    let noise_rates = [0.0, 0.2, 0.4];

    let mut rows = Vec::new();
    let mut gt_f1s = Vec::new();
    for &noise in &noise_rates {
        for (name, cleaning, extend) in strategies {
            let examples = make_examples(&mut rng, 20, noise);
            let mut config = ExplainConfig::standard();
            config.enumerator.cleaning = cleaning;
            config.enumerator.extend_with_subgroups = extend;
            let explanation = corrupted_explanation(&dataset, examples, config);
            let (predicate, improvement, gt_f1) = match explanation.best() {
                Some(b) => (
                    b.predicate.to_string(),
                    b.improvement,
                    dataset.truth.score_predicate(&dataset.table, &b.predicate).f1,
                ),
                None => ("(none)".to_string(), 0.0, 0.0),
            };
            rows.push(vec![
                format!("{:.0}%", noise * 100.0),
                name.to_string(),
                explanation.candidates.len().to_string(),
                explanation.predicates.len().to_string(),
                predicate,
                fmt(improvement),
                fmt(gt_f1),
            ]);
            gt_f1s.push(gt_f1);
        }
    }
    let mut out = String::new();
    render_table(
        &mut out,
        "E8: Dataset Enumerator ablation — D' noise vs. cleaning/extension strategy (12k rows, |D'| = 20)",
        &["D'_noise", "enumerator", "candidates", "predicates", "top predicate", "improvement", "gt_f1"],
        &rows,
    );
    assert_golden(&out, include_str!("golden/quality_e8.txt"), "E8");

    assert!(!strategies[0].2, "the first enumerator row is the one without extension");
    for (noise, f1s) in noise_rates.iter().zip(gt_f1s.chunks(strategies.len())) {
        let plain = f1s[0];
        for (&f1, &(name, _, extend)) in f1s.iter().zip(&strategies) {
            if extend {
                assert!(f1 >= plain, "E8 at {noise}: {name} gt_f1 {f1} < no extension {plain}");
            }
        }
    }
}
