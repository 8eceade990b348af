//! The fixed multi-chunk table: one more input for the suites whose random
//! tables never reach a chunk boundary (their strategies draw at most 160
//! rows, a column seals a chunk every [`CHUNK_ROWS`]).
//!
//! [`boundary_table`]`(`[`BOUNDARY_ROWS`]`)` holds two sealed chunks and a
//! 17-row tail of every column type, with NULLs in every column within two
//! rows of each side of each boundary, a string column whose vocabulary
//! grows from chunk to chunk. A shorter prefix plus [`boundary_rows`] is the same table mid-append.

#![allow(dead_code)] // each suite uses its own part of this module

use dbwipes::storage::{DataType, Schema, Value, CHUNK_ROWS};
use dbwipes::Table;

/// Rows of the fixed table: two full chunks and a 17-row tail.
pub const BOUNDARY_ROWS: usize = 2 * CHUNK_ROWS + 17;

/// SplitMix64: a cell is a pure function of its inputs.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Row `row` of the table: `id` Int in 0..6, `x` Float on the half-integer
/// grid in −20..20, `memo` Str, `flag` Bool, `at` Timestamp. Rows of
/// `id = 3` with the reattribution memo carry an `x` near the top of the
/// grid, so `avg(x)` by `id` has one group worth explaining.
pub fn boundary_row(row: usize) -> Vec<Value> {
    let h = mix(row as u64);
    let id = (h >> 8) % 6;
    let memo = (h >> 32) % 6;
    let x = match (id, memo) {
        (3, 2) => 18.0 + ((h >> 24) % 4) as f64 / 2.0,
        _ => ((h >> 16) % 80) as f64 / 2.0 - 20.0,
    };
    let memo = match memo {
        5 => format!("m{}", row / 1000),
        k => ["", "ok", "REATTRIBUTION TO SPOUSE", "spouse", "Lab"][k as usize].to_string(),
    };
    let mut cells = vec![
        Value::Int(id as i64),
        Value::Float(x),
        Value::Str(memo),
        Value::Bool(h >> 40 & 1 == 1),
        Value::Timestamp(row as i64 * 60),
    ];
    // Two rows either side of a boundary: the even columns are NULL on the
    // even rows, the odd columns on the odd ones. Elsewhere, one cell in
    // eleven.
    let near = (row + 2) % CHUNK_ROWS;
    for (c, cell) in cells.iter_mut().enumerate() {
        let at_edge = row + 2 >= CHUNK_ROWS && near < 4 && near % 2 == c % 2;
        if at_edge || (h >> 48) % 11 == c as u64 {
            *cell = Value::Null;
        }
    }
    cells
}

/// Rows `rows` of the table, as an append batch.
pub fn boundary_rows(rows: std::ops::Range<usize>) -> Vec<Vec<Value>> {
    rows.map(boundary_row).collect()
}

/// The first `rows` rows of the table.
pub fn boundary_table(rows: usize) -> Table {
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("x", DataType::Float),
        ("memo", DataType::Str),
        ("flag", DataType::Bool),
        ("at", DataType::Timestamp),
    ]);
    let mut t = Table::new("m", schema).unwrap();
    t.push_rows(boundary_rows(0..rows)).unwrap();
    t
}
