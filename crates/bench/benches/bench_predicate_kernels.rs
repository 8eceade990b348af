//! Criterion bench for the vectorized predicate path: scoring a pool of
//! candidate conjunctions against a table via (a) the scalar per-row
//! compiled walk, (b) the vectorized column kernels, and (c) the
//! condition-bitmap cache that shares kernels across candidates, at three
//! table sizes.
//!
//! The printed summary asserts the tentpole claim — vectorized evaluation
//! must not be slower than the scalar walk it replaced — at the largest
//! size, where per-row dispatch overhead dominates.

use criterion::{criterion_group, criterion_main, Criterion};
use dbwipes_storage::{
    Candidate, Condition, ConditionBitmapCache, ConjunctivePredicate, DataType, Schema, Table,
    Value,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sensor-style table with NULLs sprinkled into `temp` and a text column
/// for the `Contains`/`InSet` string kernels.
fn table(rows: usize) -> Table {
    let schema = Schema::of(&[
        ("sensorid", DataType::Int),
        ("voltage", DataType::Float),
        ("temp", DataType::Float),
        ("room", DataType::Str),
    ]);
    let mut t = Table::new("readings", schema).unwrap();
    for i in 0..rows as i64 {
        let sensor = i % 20;
        let temp = if i % 13 == 0 {
            Value::Null
        } else if sensor == 15 {
            Value::Float(110.0 + (i % 10) as f64)
        } else {
            Value::Float(18.0 + (i % 8) as f64)
        };
        let room = match i % 4 {
            0 => "lab",
            1 => "kitchen",
            2 => "office",
            _ => "LAB ANNEX",
        };
        t.push_row(vec![
            Value::Int(sensor),
            Value::Float(2.0 + (i % 7) as f64 * 0.1),
            temp,
            Value::str(room),
        ])
        .unwrap();
    }
    t
}

/// The candidate pool: conjunctions that heavily share conditions drawn
/// from one pool, like the Predicate Enumerator's tree- and text-derived
/// candidates do.
fn candidates() -> Vec<ConjunctivePredicate> {
    let mut out = Vec::new();
    for s in 0..20i64 {
        out.push(ConjunctivePredicate::new(vec![Condition::equals("sensorid", s)]));
        out.push(ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", s),
            Condition::above("temp", 100.0),
        ]));
        out.push(ConjunctivePredicate::new(vec![
            Condition::equals("sensorid", s),
            Condition::between("voltage", 2.1, 2.5),
            Condition::contains("room", "lab"),
        ]));
    }
    out.push(ConjunctivePredicate::new(vec![Condition::in_set(
        "room",
        vec![Value::str("kitchen"), Value::str("office")],
    )]));
    out.push(ConjunctivePredicate::new(vec![Condition::not_equals("room", "lab")]));
    out
}

/// Scalar baseline: the pre-vectorization path — compile, then evaluate
/// row by row over the visible rows.
fn score_scalar(t: &Table, pool: &[ConjunctivePredicate]) -> usize {
    let mut total = 0usize;
    for p in pool {
        let compiled = p.compile(t).expect("well-typed candidate");
        total += t.visible_row_ids().filter(|&r| compiled.matches(r) == Some(true)).count();
    }
    total
}

/// Vectorized: one columnar kernel scan per condition per candidate.
fn score_vectorized(t: &Table, pool: &[ConjunctivePredicate]) -> usize {
    let visible = t.visible_row_set();
    let mut total = 0usize;
    for p in pool {
        let compiled = p.compile(t).expect("well-typed candidate");
        total += compiled.eval_columns().trues.intersection_count(&visible);
    }
    total
}

/// Cached bitmaps: each **distinct** condition's kernel runs once; every
/// candidate after that is pure bitmap intersection.
fn score_cached(t: &Table, cache: &ConditionBitmapCache, pool: &[ConjunctivePredicate]) -> usize {
    let mut total = 0usize;
    for p in pool {
        let tri = p.tri_eval(cache, t, &|_| true).expect("well-typed candidate");
        total += tri.trues.intersection_count(cache.visible());
    }
    total
}

fn mean_wall(samples: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..samples {
        f();
    }
    start.elapsed() / samples as u32
}

fn bench_predicate_kernels(c: &mut Criterion) {
    let pool = candidates();
    let mut group = c.benchmark_group("predicate_kernels");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for rows in [4_000usize, 16_000, 64_000] {
        let t = table(rows);
        // All three strategies must agree before any of them is timed.
        let cache = ConditionBitmapCache::new(&t);
        let expected = score_scalar(&t, &pool);
        assert_eq!(score_vectorized(&t, &pool), expected, "vectorized != scalar at {rows}");
        assert_eq!(score_cached(&t, &cache, &pool), expected, "cached != scalar at {rows}");

        group.bench_function(format!("scalar/{rows}"), |b| {
            b.iter(|| black_box(score_scalar(&t, &pool)))
        });
        group.bench_function(format!("vectorized/{rows}"), |b| {
            b.iter(|| black_box(score_vectorized(&t, &pool)))
        });
        group.bench_function(format!("cached/{rows}"), |b| {
            b.iter(|| black_box(score_cached(&t, &cache, &pool)))
        });
    }
    group.finish();

    // The tentpole claim, measured outside criterion so it can be diffed
    // and asserted: vectorized scoring must not be slower than the scalar
    // walk. 1.25x slack absorbs scheduler noise on shared runners; the
    // real margin is several-fold.
    let t = table(64_000);
    let scalar = mean_wall(5, || {
        black_box(score_scalar(&t, &pool));
    });
    let vectorized = mean_wall(5, || {
        black_box(score_vectorized(&t, &pool));
    });
    println!(
        "predicate_kernels 64k: scalar {scalar:?} vs vectorized {vectorized:?} ({:.2}x)",
        scalar.as_secs_f64() / vectorized.as_secs_f64().max(f64::EPSILON)
    );
    assert!(
        vectorized <= scalar.mul_f64(1.25),
        "vectorized candidate scoring ({vectorized:?}) must not be slower than the scalar walk \
         ({scalar:?})"
    );
}

criterion_group!(benches, bench_predicate_kernels);
criterion_main!(benches);
