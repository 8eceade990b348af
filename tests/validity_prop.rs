//! A chunk that holds no NULL keeps no validity mask, and nothing outside
//! the column can tell: for every NULL density — none, one, sparse, all —
//! at lengths one short of, on and one past one and two chunks, a column
//! built by pushes, by an append to a copy somebody else holds, by a
//! table file's whole-file write plus an appended record, and by a
//! whole-file image alone answers every reader as a flat `Vec<Value>` of
//! what was pushed does: `get`, `get_f64`, `get_str`, `is_null`,
//! `non_null_count`, and the condition kernels' three-valued bitmaps (a
//! NULL is unknown). That the bytes on disk did not move is pinned
//! elsewhere, by `append_segment_prop`'s `DBWT_PIN` / `DBWA_PINS`: format
//! 4 re-pinned them with every column encoding inside its records byte
//! for byte the column segment format 3 wrote.

mod common;

use common::mix;
use dbwipes::storage::persist::{decode_table, encode_table};
use dbwipes::storage::{
    ConditionBitmapCache, DataType, FsBackend, Schema, StorageBackend, Value, CHUNK_ROWS,
};
use dbwipes::{Catalog, Condition, ConjunctivePredicate, Table};
use std::path::PathBuf;

/// One column of each type, named after it.
const COLUMNS: [(&str, DataType); 5] = [
    ("b", DataType::Bool),
    ("i", DataType::Int),
    ("f", DataType::Float),
    ("s", DataType::Str),
    ("t", DataType::Timestamp),
];

/// How many of a column's rows are NULL.
#[derive(Debug, Clone, Copy)]
enum Density {
    None,
    /// Exactly one, at a drawn row.
    One,
    /// About one row in 97.
    Sparse,
    All,
}

/// Row `row` of the table of `len` rows drawn from `seed`.
fn row(density: Density, len: usize, seed: u64, row: usize) -> Vec<Value> {
    let lone = mix(seed) as usize % len;
    COLUMNS
        .iter()
        .enumerate()
        .map(|(c, &(_, dtype))| {
            let h = mix(seed ^ mix(row as u64 * 7 + c as u64));
            let null = match density {
                Density::None => false,
                Density::One => row == lone,
                Density::Sparse => h % 97 == 0,
                Density::All => true,
            };
            let k = (h >> 8) as i64 % 100;
            match dtype {
                _ if null => Value::Null,
                DataType::Bool => Value::Bool(k % 2 == 0),
                DataType::Int => Value::Int(k - 50),
                DataType::Float => Value::Float(k as f64 / 4.0),
                DataType::Str => Value::Str(format!("v{}", k % 7)),
                _ => Value::Timestamp(k * 60),
            }
        })
        .collect()
}

/// The condition the kernels answer for a column, and its verdict on a
/// non-NULL value.
fn condition(name: &str, dtype: DataType) -> (Condition, fn(&Value) -> bool) {
    match dtype {
        DataType::Str => (Condition::equals(name, Value::str("v3")), |v| v.as_str() == Some("v3")),
        DataType::Bool => (Condition::equals(name, Value::Bool(true)), |v| *v == Value::Bool(true)),
        _ => (Condition::at_least(name, 0.5), |v| v.as_f64().is_some_and(|x| x >= 0.5)),
    }
}

/// Every reader of `table` against the flat rows it was built from.
fn assert_reads_as(table: &Table, model: &[Vec<Value>], what: &str) {
    assert_eq!(table.num_rows(), model.len(), "{what}");
    let cache = ConditionBitmapCache::new(table);
    for (c, &(name, dtype)) in COLUMNS.iter().enumerate() {
        let column = table.column(c).unwrap();
        let flat: Vec<&Value> = model.iter().map(|r| &r[c]).collect();
        let non_null = flat.iter().filter(|v| !v.is_null()).count();
        assert_eq!(column.non_null_count(), non_null, "{what}, column {name}");
        for (r, &value) in flat.iter().enumerate() {
            assert_eq!(column.get(r).as_ref(), Some(value), "{what}, {name} row {r}");
            assert_eq!(column.get_f64(r), value.as_f64(), "{what}, {name} row {r}");
            assert_eq!(column.get_str(r), value.as_str(), "{what}, {name} row {r}");
            assert_eq!(column.is_null(r), value.is_null(), "{what}, {name} row {r}");
        }
        let (cond, holds) = condition(name, dtype);
        let tri = ConjunctivePredicate::new(vec![cond]).tri_eval(&cache, table).unwrap();
        let trues: Vec<usize> = (0..flat.len()).filter(|&r| holds(flat[r])).collect();
        let unknowns: Vec<usize> = (0..flat.len()).filter(|&r| flat[r].is_null()).collect();
        assert_eq!(tri.trues.iter().collect::<Vec<_>>(), trues, "{what}, {name}");
        assert_eq!(tri.unknowns.iter().collect::<Vec<_>>(), unknowns, "{what}, {name}");
    }
}

/// A per-case data directory under the OS temp dir; removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(case: usize) -> TempDir {
        let name = format!("dbwipes-validity-{}-{case}", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_missing_validity_mask_reads_as_all_valid_everywhere() {
    let densities = [Density::None, Density::One, Density::Sparse, Density::All];
    let lens = [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1].into_iter().chain([
        2 * CHUNK_ROWS - 1,
        2 * CHUNK_ROWS,
        2 * CHUNK_ROWS + 1,
    ]);
    let cases = densities.iter().flat_map(|&d| lens.clone().map(move |len| (d, len)));
    for (case, (density, len)) in cases.enumerate() {
        let seed = mix(case as u64);
        let model: Vec<Vec<Value>> = (0..len).map(|r| row(density, len, seed, r)).collect();
        // The base is a drawn prefix; the rest arrives as one append.
        let split = mix(seed ^ 1) as usize % (len + 1);
        let what = format!("{density:?}, {len} rows, base {split}");

        let mut base = Table::new("v", Schema::of(&COLUMNS)).unwrap();
        base.push_rows(model[..split].to_vec()).unwrap();
        let dir = TempDir::new(case);
        let backend = FsBackend::open(&dir.0).unwrap();
        backend.save_table(&base).unwrap();
        let mut catalog = Catalog::new();
        catalog.register(base).unwrap();

        // A reader holds the base while the append lands on a copy.
        let held = catalog.table_arc("v").unwrap();
        catalog.table_mut("v").unwrap().push_rows(model[split..].to_vec()).unwrap();
        let grown = catalog.table_arc("v").unwrap();
        assert_reads_as(&held, &model[..split], &format!("{what}: the held base"));
        assert_reads_as(&grown, &model, &format!("{what}: the grown copy"));

        backend.save_table(&grown).unwrap();
        let restored = FsBackend::open(&dir.0).unwrap().load_table(grown.id()).unwrap();
        assert_reads_as(&restored, &model, &format!("{what}: whole file + appended record"));
        let decoded = decode_table(&encode_table(&grown)).unwrap();
        assert_reads_as(&decoded, &model, &format!("{what}: whole-file image"));
        assert_eq!(encode_table(&decoded), encode_table(&grown), "{what}");
    }
}
