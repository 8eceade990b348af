//! Equivalence property tests for the vectorized predicate path.
//!
//! For random tables (NULLs and empty tables included) and
//! random conditions (equality, ranges, `IN` sets with NULL members,
//! substring containment) and out-of-grammar row leaves, some failing on
//! some rows, the one compiled form (`CompiledBoolExpr`) must agree **row
//! for row** with the scalar three-valued `Expr::eval` walk, and every
//! filter — whole table or from a row on, an append absorb's — return the
//! walk's rows or its error; `matching_rows` keeps its contract (the
//! matches, ascending, a failing row no match). The `RowSet` bitmap
//! algebra is pinned against a `BTreeSet` oracle.

mod common;

use dbwipes::storage::rowset::RowSet;
use dbwipes::storage::{
    col, lit, CompiledBoolExpr, ConditionBitmapCache, DataType, Expr, Schema, Value, CHUNK_ROWS,
};
use dbwipes::{Condition, ConjunctivePredicate, RowId, Table};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random sensor-style table: nullable int / float / str / bool columns.
/// Sizes run from empty to several bitmap words. Wherever a selective left
/// branch — `id = k` keeps about a seventh of the rows — leaves under a
/// quarter of them in play, the compiled `AND` folds its right side with
/// the surviving rows as its selection, so its kernels visit only them.
fn arbitrary_table() -> impl Strategy<Value = Table> {
    let id = prop_oneof![Just(None), (0i64..6).prop_map(Some)];
    let x = prop_oneof![Just(None), (-40i64..40).prop_map(|k| Some(k as f64 / 2.0))];
    let memo = (0usize..5).prop_map(|k| ["", "ok", "REATTRIBUTION TO SPOUSE", "spouse", "Lab"][k]);
    let flag = prop_oneof![Just(None), any::<bool>().prop_map(Some)];
    let row = (id, x, memo, flag);
    proptest::collection::vec(row, 0..160).prop_map(|rows| {
        let schema = Schema::of(&[
            ("id", DataType::Int),
            ("x", DataType::Float),
            ("memo", DataType::Str),
            ("flag", DataType::Bool),
        ]);
        let mut t = Table::new("m", schema).unwrap();
        for (i, (id, x, memo, flag)) in rows.into_iter().enumerate() {
            t.push_row(vec![
                id.map(Value::Int).unwrap_or(Value::Null),
                x.map(Value::Float).unwrap_or(Value::Null),
                if memo.is_empty() && i % 2 == 0 { Value::Null } else { Value::str(memo) },
                flag.map(Value::Bool).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        t
    })
}

/// Condition shape `shape` (of [`CONDITION_SHAPES`]) over the table's
/// columns, with parameters `k` and `k2`, each in −30..30; only the closed
/// range reads both, as its two independent ends. Between them the shapes
/// cover every kernel: numeric and string equality (negated too), half-open
/// and closed ranges, `IN` sets with and without NULL members, containment
/// (empty needle included), and the unbounded range that compiles to `TRUE`.
fn condition_shape(shape: usize, k: i64, k2: i64) -> Condition {
    let id = k.rem_euclid(7);
    let member = k.rem_euclid(4);
    let x = k as f64 / 2.0;
    match shape {
        0 => Condition::equals("id", id),
        1 => Condition::not_equals("id", id),
        2 => Condition::equals("id", Value::Null),
        3 => Condition::above("x", x),
        4 => Condition::at_least("x", x),
        5 => Condition::at_most("x", x),
        // Low end in −15.0..=−0.5, high end in 0.0..=14.5, drawn apart.
        6 => Condition::between(
            "x",
            -(k.rem_euclid(30) + 1) as f64 / 2.0,
            k2.rem_euclid(30) as f64 / 2.0,
        ),
        7 => Condition::Range {
            column: "x".into(),
            low: None,
            low_inclusive: false,
            high: None,
            high_inclusive: false,
        },
        8 => Condition::in_set("id", vec![Value::Int(member), Value::Int(member + 2)]),
        9 => Condition::in_set("id", vec![Value::Int(member), Value::Null]),
        10 => Condition::in_set("memo", vec![Value::str("ok"), Value::str("Lab"), Value::Int(3)]),
        11 => Condition::in_set("memo", vec![Value::str("ok"), Value::Null]),
        12 => Condition::contains("memo", ["", "SPOUSE", "lab", "zzz"][member as usize]),
        13 => Condition::equals("memo", Value::str("ok")),
        _ => Condition::not_equals("memo", Value::str("ok")),
    }
}

const CONDITION_SHAPES: usize = 15;

/// A random condition: any shape, any parameters.
fn arbitrary_condition() -> impl Strategy<Value = Condition> {
    (0..CONDITION_SHAPES, -30i64..30, -30i64..30)
        .prop_map(|(shape, k, k2)| condition_shape(shape, k, k2))
}

/// Leaf shape `shape` (of [`ROW_LEAF_SHAPES`]), outside the kernels'
/// grammar, with parameter `k` in −30..30: arithmetic, column against
/// column, `IS NULL`, `NOT IN` with a NULL member and a column, string
/// order, a bare bool column, a mistyped literal (fails on every non-NULL
/// `id`), a division by a column that is sometimes 0 (fails there), and a
/// column the table lacks (fails on every row; on an empty table, on none).
fn row_leaf(shape: usize, k: i64) -> Expr {
    match shape {
        0 => (col("x") + lit(1.0)).gt(lit(k as f64 / 2.0)),
        1 => col("x").gt(col("id")),
        2 => col("x").is_null(),
        3 => col("id").not_in_list(vec![lit(k.rem_euclid(6)), lit(Value::Null), col("x")]),
        4 => col("memo").lt(lit("m")),
        5 => col("flag"),
        6 => col("id").eq(lit("x")),
        7 => (col("x") / col("id")).gt(lit(1.0)),
        _ => col("no_such_column").gt(lit(k)),
    }
}

const ROW_LEAF_SHAPES: usize = 9;

/// A random tree leaf: a condition three times in four, else a row leaf.
fn arbitrary_leaf() -> impl Strategy<Value = Expr> {
    (0usize..4, arbitrary_condition(), 0..ROW_LEAF_SHAPES, -30i64..30).prop_map(
        |(pick, condition, shape, k)| match pick {
            0 => row_leaf(shape, k),
            _ => condition.to_expr(),
        },
    )
}

/// Every column of the fixed multi-type table, then one it lacks.
const AIMS: [&str; 6] = ["id", "x", "memo", "flag", "at", "no_such_column"];

/// `condition` with its column replaced by `column`.
fn aimed_at(mut condition: Condition, column: &str) -> Condition {
    match &mut condition {
        Condition::Equals { column: c, .. }
        | Condition::NotEquals { column: c, .. }
        | Condition::Range { column: c, .. }
        | Condition::InSet { column: c, .. }
        | Condition::Contains { column: c, .. } => *c = column.to_string(),
    }
    condition
}

/// An unbounded range on a column the table lacks: it renders as the
/// literal `TRUE`, which names no column.
fn unbounded_range_on_a_missing_column() -> Condition {
    aimed_at(condition_shape(7, 0, 0), "no_such_column")
}

/// The scalar three-valued verdict of a boolean expression on one row;
/// FALSE where the walk fails, as a filter never keeps such a row.
fn scalar_verdict(expr: &Expr, table: &Table, row: RowId) -> Option<bool> {
    match expr.eval(table, row) {
        Ok(Value::Null) => None,
        verdict => Some(verdict.is_ok_and(|v| v == Value::Bool(true))),
    }
}

/// The compiled form of `expr` against the scalar walk of `expr` on every
/// row.
fn assert_compiled_equivalence(
    table: &Table,
    compiled: &CompiledBoolExpr<'_>,
    expr: &Expr,
) -> Result<(), String> {
    let tri = compiled.eval_columns();
    prop_assert_eq!(tri.trues.universe(), table.num_rows());
    prop_assert!(tri.trues.and(&tri.unknowns).is_empty());
    for i in 0..table.num_rows() {
        let scalar = scalar_verdict(expr, table, RowId(i));
        prop_assert!(tri.value(i) == scalar, "eval_columns diverged at row {} for {}", i, expr);
    }
    Ok(())
}

/// A filter's rows, or its error's message.
type Filtered = Result<Vec<RowId>, String>;

/// Every filter path against the walk — the compiled columns, `filter`
/// and `filter_set` over the whole table, `filter_bitmap` from each row of
/// `froms` on (an append absorb's) against the walk of those rows: the
/// same rows, or the same error.
fn assert_filters_agree(table: &Table, expr: &Expr, froms: &[usize]) -> Result<(), String> {
    assert_compiled_equivalence(table, &CompiledBoolExpr::compile(expr, table), expr)?;
    let message = |e: dbwipes::storage::StorageError| e.to_string();
    let walked: Filtered = expr.filter_scalar(table).map_err(message);
    prop_assert_eq!(expr.filter(table).map_err(message), walked.clone());
    prop_assert_eq!(expr.filter_set(table).map(|rows| rows.to_row_ids()).map_err(message), walked);
    for &from in froms {
        let walked: Filtered = (from..table.num_rows())
            .map(RowId)
            .filter_map(|r| expr.matches(table, r).map(|m| m.then_some(r)).transpose())
            .collect::<Result<_, _>>()
            .map_err(message);
        let suffix = expr.filter_bitmap(table, from).map(|rows| rows.to_row_ids()).map_err(message);
        prop_assert!(suffix == walked, "the filter from row {} diverged for {}", from, expr);
    }
    Ok(())
}

/// One conjunction's compiled form against the scalar evaluator, and the
/// `matching_rows` contract.
fn assert_kernel_equivalence(table: &Table, pred: &ConjunctivePredicate) -> Result<(), String> {
    let expr = pred.to_expr();
    assert_compiled_equivalence(table, &pred.compile(table).unwrap(), &expr)?;
    // matching_rows: the walk's matches, ascending, a failing row no match.
    let walked: Vec<RowId> =
        table.row_ids().filter(|&r| expr.matches(table, r).unwrap_or(false)).collect();
    let rows = pred.matching_rows(table);
    prop_assert!(rows == walked, "matching_rows diverged for {}", pred);
    prop_assert!(rows.windows(2).all(|w| w[0] < w[1]), "matching_rows not ascending");
    Ok(())
}

/// A random boolean predicate tree over four random leaves: flat
/// disjunctions, negations, and nested AND-OR-NOT shapes up to depth 3,
/// plus the degenerate empty connectives (`TRUE` / `FALSE`).
fn arbitrary_tree() -> impl Strategy<Value = Expr> {
    (arbitrary_leaf(), arbitrary_leaf(), arbitrary_leaf(), arbitrary_leaf(), 0usize..9).prop_map(
        |(a, b, c, d, shape)| match shape {
            0 => a.or(b),
            1 => !a,
            2 => !a.or(b),
            3 => a.or(b).and(!c),
            4 => a.and(b).or(c.and(d)),
            5 => (!a).or(b.and(!c)),
            6 => !!a,
            7 => lit(true),
            _ => lit(false),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: NOT/OR/nested boolean trees — row leaves
    /// among their leaves — agree with the scalar three-valued walk row
    /// for row, UNKNOWN propagation through the Kleene connectives
    /// included, on random tables (empty ones too), and every filter path
    /// returns the walk's rows or its error, over the whole table and from
    /// a drawn row on.
    #[test]
    fn boolean_trees_match_scalar_walk(
        table in arbitrary_table(),
        tree in arbitrary_tree(),
        from in 0usize..161,
    ) {
        let expr = tree;
        // Where the cache's fold succeeds, it is the compiled columns'.
        if let Ok(tri) = ConditionBitmapCache::new(&table).bool_expr(&table, &expr) {
            let direct = CompiledBoolExpr::compile(&expr, &table).eval_columns();
            prop_assert!(tri.trues == direct.trues && tri.unknowns == direct.unknowns, "{}", expr);
        }
        assert_filters_agree(&table, &expr, &[from.min(table.num_rows())])?;
    }

    /// Kernels ≡ scalar for single conditions and random conjunctions, and
    /// the condition-bitmap cache agrees with direct evaluation (twice, so
    /// the second pass exercises the hit path).
    #[test]
    fn vectorized_matches_scalar(
        table in arbitrary_table(),
        a in arbitrary_condition(),
        b in arbitrary_condition(),
        c in arbitrary_condition(),
    ) {
        let predicates = [
            ConjunctivePredicate::new(vec![a.clone()]),
            ConjunctivePredicate::new(vec![b.clone()]),
            ConjunctivePredicate::new(vec![a.clone(), b.clone()]),
            ConjunctivePredicate::new(vec![a.clone(), b.clone(), c.clone()]),
            ConjunctivePredicate::always_true(),
        ];
        let cache = ConditionBitmapCache::new(&table);
        for pred in &predicates {
            assert_kernel_equivalence(&table, pred)?;
            for _round in 0..2 {
                let via_cache = pred.tri_eval(&cache, &table).expect("well-typed");
                let direct = pred.compile(&table).unwrap().eval_columns();
                prop_assert!(
                    via_cache.trues == direct.trues && via_cache.unknowns == direct.unknowns,
                    "cached bitmaps diverged for {}", pred
                );
            }
        }
        let (hits, misses) = cache.stats();
        prop_assert!(hits + misses > 0);
    }

    /// Only a condition that does not validate is walked row by row, so a
    /// conjunction's evaluation fails — with the walk's error — exactly
    /// when its expression does not validate on a table where every column
    /// holds values: a candidate the ranker cannot score is one whose
    /// rewritten statement would fail. Every condition shape aimed at
    /// every column of the multi-type table and at a missing one, alone
    /// and beside another aimed shape; `matching_rows` keeps its contract.
    #[test]
    fn evaluation_fails_exactly_when_validation_fails(
        k in -30i64..30,
        k2 in -30i64..30,
        other_shape in 0..CONDITION_SHAPES,
        other_aim in 0..AIMS.len(),
    ) {
        let table = common::boundary_table(64);
        let cache = ConditionBitmapCache::new(&table);
        let other = aimed_at(condition_shape(other_shape, k2, k), AIMS[other_aim]);
        for shape in 0..CONDITION_SHAPES {
            for aim in AIMS {
                let condition = aimed_at(condition_shape(shape, k, k2), aim);
                for conditions in [vec![condition.clone()], vec![condition.clone(), other.clone()]] {
                    let pred = ConjunctivePredicate::new(conditions);
                    let evaluated = pred.tri_eval(&cache, &table).map(|_| ()).map_err(|e| e.to_string());
                    let validated = pred.to_expr().validate(table.schema());
                    prop_assert!(
                        evaluated.is_err() == validated.is_err(),
                        "{}: evaluate {:?}, validate {:?}",
                        pred,
                        evaluated,
                        validated
                    );
                    if let Err(e) = pred.to_expr().filter_scalar(&table) {
                        prop_assert_eq!(evaluated, Err(e.to_string()));
                    }
                    assert_kernel_equivalence(&table, &pred)?;
                }
            }
        }
    }

    /// `RowSet` algebra laws against a `BTreeSet` oracle.
    #[test]
    fn rowset_algebra_matches_btreeset_oracle(
        universe in 0usize..200,
        xs in proptest::collection::vec(0usize..200, 0..60),
        ys in proptest::collection::vec(0usize..200, 0..60),
    ) {
        let xs: Vec<usize> = xs.into_iter().filter(|&i| i < universe).collect();
        let ys: Vec<usize> = ys.into_iter().filter(|&i| i < universe).collect();
        let a = RowSet::from_indices(universe, xs.iter().copied());
        let b = RowSet::from_indices(universe, ys.iter().copied());
        let oa: BTreeSet<usize> = xs.into_iter().collect();
        let ob: BTreeSet<usize> = ys.into_iter().collect();

        let ordered = |s: &RowSet| -> Vec<usize> { s.iter().collect() };
        prop_assert_eq!(ordered(&a), oa.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(a.count_ones(), oa.len());
        prop_assert_eq!(
            ordered(&a.and(&b)),
            oa.intersection(&ob).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(ordered(&a.or(&b)), oa.union(&ob).copied().collect::<Vec<_>>());
        prop_assert_eq!(
            ordered(&a.and_not(&b)),
            oa.difference(&ob).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(a.intersection_count(&b), oa.intersection(&ob).count());
        for probe in [0usize, 1, 63, 64, 127, 199] {
            prop_assert_eq!(a.contains(probe), oa.contains(&probe));
        }
        // Round trip through RowIds preserves the set.
        let ids = a.to_row_ids();
        prop_assert_eq!(ids.len(), a.count_ones());
        let back = RowSet::from_rows(universe, ids.iter());
        prop_assert!(back == a);
        // Identities: A ∧ A = A, A ∨ ∅ = A, A \ A = ∅, A ∧ full = A.
        prop_assert!(a.and(&a) == a);
        prop_assert!(a.or(&RowSet::empty(universe)) == a);
        prop_assert!(a.and_not(&a).is_empty());
        prop_assert!(a.and(&RowSet::full(universe)) == a);
    }
}

/// The unbounded range names no column, so on a column the table lacks it
/// validates and compiles, and matches every row exactly as the scalar walk
/// does — alone and beside a condition that compiles.
#[test]
fn an_unbounded_range_on_a_missing_column_compiles_to_true() {
    let table = common::boundary_table(64);
    let pred = ConjunctivePredicate::new(vec![unbounded_range_on_a_missing_column()]);
    for pred in [pred.clone(), pred.with(Condition::equals("id", 3))] {
        assert_eq!(pred.to_expr().validate(table.schema()).unwrap(), DataType::Bool);
        assert_kernel_equivalence(&table, &pred).unwrap();
    }
}

/// The properties above on one more input, the fixed multi-chunk table:
/// every condition shape through its kernel and through `matching_rows`,
/// and every filter path on trees over them and over every row-leaf shape
/// — on columns of two sealed chunks and a tail, with NULLs either side of
/// each boundary (the random tables stop at 160 rows). On the empty table
/// no row leaf fails, the unknown column's included.
#[test]
fn chunk_boundaries_are_invisible_to_every_kernel() {
    let table = common::boundary_table(common::BOUNDARY_ROWS);
    let conditions: Vec<Condition> = (0..CONDITION_SHAPES)
        .map(|shape| condition_shape(shape, 2 * shape as i64 - 11, 7))
        .collect();
    let froms = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 1, table.num_rows()];
    for (shape, condition) in conditions.iter().enumerate() {
        let alone = ConjunctivePredicate::new(vec![condition.clone()]);
        assert_kernel_equivalence(&table, &alone).unwrap();
        // In a tree with its neighbour and a row leaf: AND skips rows (never
        // a row leaf's), OR and NOT do not.
        let (a, b) = (condition.to_expr(), conditions[(shape + 1) % CONDITION_SHAPES].to_expr());
        let row = row_leaf(shape % ROW_LEAF_SHAPES, 2 * shape as i64 - 11);
        for expr in [a.clone().and(!b.clone()), a.clone().or(b.clone()), !(a.and(row)).or(b)] {
            assert_filters_agree(&table, &expr, &froms).unwrap();
        }
    }
    for shape in 0..ROW_LEAF_SHAPES {
        assert_filters_agree(&common::boundary_table(0), &row_leaf(shape, 3), &[0]).unwrap();
    }
}
