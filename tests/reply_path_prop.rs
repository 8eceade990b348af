//! Property tests for the reply path: the `JsonWriter` push encoder against
//! the parser and the number / string rules it must keep, the typed
//! two-column walk against per-row `get_f64` reads and the fixed-buffer
//! point writer against points pushed key by key, and the columnar
//! `zoom_series` / bitmap `inputs_of_groups` against the definitions they
//! replaced (kept here, verbatim, as the reference).

use dbwipes::dashboard::{zoom_series, Brush, DashboardSession};
use dbwipes::engine::{execute, parse_select, ExecOptions, QueryResult};
use dbwipes::storage::{DataType, RowSet, Schema, Value, CHUNK_ROWS};
use dbwipes::{DbWipes, RowId, Table};
use dbwipes_server::{Json, JsonWriter, WireError};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// A small deterministic generator, so one `u64` from the (non-recursive)
/// proptest shim can grow a whole tree.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        const ALPHABET: &str =
            "aZ0 \"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}éß→日😀\u{10ffff}{[:,";
        let alphabet: Vec<char> = ALPHABET.chars().collect();
        (0..self.below(6)).map(|_| alphabet[self.below(alphabet.len() as u64) as usize]).collect()
    }

    fn number(&mut self) -> f64 {
        match self.below(9) {
            0 => self.below(1000) as f64,
            // Short decimals of every length, the encoder's fast path...
            1 => -(self.below(1_000_000) as f64) / 100.0,
            2 => self.below(1_000_000_000_000_000) as f64 / 10f64.powi(self.below(9) as i32),
            // ...their neighbouring doubles, which are not short...
            3 => {
                let short = self.below(1_000_000_000) as f64 / 1e3;
                f64::from_bits(short.to_bits().wrapping_add(self.below(5)).wrapping_sub(2))
            }
            // ...and the magnitudes around where it stops applying.
            4 => self.below(10_000_000_000_000_000_000) as f64 / 1e6,
            5 => f64::from_bits(self.next()),
            6 => self.next() as f64,
            7 => (self.below(2_000_001) as f64 - 1_000_000.0) * 1e10,
            _ => 1.0 / (1.0 + self.below(1_000_000) as f64),
        }
    }

    fn json(&mut self, depth: u32) -> Json {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 0),
            2 => Json::Num(self.number()),
            3 => Json::Str(self.string()),
            4 => Json::Arr((0..self.below(4)).map(|_| self.json(depth - 1)).collect()),
            _ => {
                let pairs: Vec<(String, Json)> =
                    (0..self.below(4)).map(|_| (self.string(), self.json(depth - 1))).collect();
                Json::obj(pairs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect())
            }
        }
    }
}

/// The number rule of the tree encoder this crate had before `JsonWriter`.
fn reference_number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// The string rule of that encoder, character by character.
fn reference_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// NaN never equals itself and renders as `null`; compare what survives.
fn without_non_finite(value: &Json) -> Json {
    match value {
        Json::Num(n) if !n.is_finite() => Json::Null,
        Json::Arr(items) => Json::Arr(items.iter().map(without_non_finite).collect()),
        Json::Obj(map) => {
            Json::Obj(map.iter().map(|(k, v)| (k.clone(), without_non_finite(v))).collect())
        }
        other => other.clone(),
    }
}

#[test]
fn numbers_render_by_the_old_rule_on_the_edges() {
    let edges = [
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
        (0.0, "0"),
        (-0.0, "0"),
        (-1.0, "-1"),
        (0.1, "0.1"),
        (8_999_999_999_999_999.0, "8999999999999999"),
        (-8_999_999_999_999_999.0, "-8999999999999999"),
        (9e15, "9000000000000000"),
        (9_007_199_254_740_993.0, "9007199254740992"),
        (u64::MAX as f64, "18446744073709552000"),
        (i64::MIN as f64, "-9223372036854776000"),
        (1e21, "1000000000000000000000"),
        (5e-324, &format!("{}", 5e-324)),
        (f64::MIN_POSITIVE, &format!("{}", f64::MIN_POSITIVE)),
        (1e300, &format!("{}", 1e300)),
        (f64::MAX, &format!("{}", f64::MAX)),
    ];
    for (n, expected) in edges {
        assert_eq!(Json::Num(n).to_string(), expected, "{n:e}");
        assert_eq!(reference_number(n), expected, "{n:e}");
        if n.is_finite() {
            let back = Json::parse(expected).unwrap().as_f64().unwrap();
            assert_eq!(back, n, "{expected} must read back as {n:e}");
        }
    }
    assert_eq!(Json::Num(1e300).to_string().len(), 301, "no exponent form");
}

/// Every digit count the two-digit writer can meet, odd and even, with
/// and without a carry into a new digit, as integers and as decimals of
/// one to six places (whose fractions need leading zeros).
#[test]
fn numbers_around_powers_of_ten_render_by_the_old_rule() {
    let mut power = 1u64;
    while power as f64 <= 9e15 {
        for n in [power - 1, power, power + 1] {
            for signed in [n as f64, -(n as f64)] {
                assert_eq!(Json::Num(signed).to_string(), reference_number(signed), "{signed}");
                for places in 1..=6 {
                    let decimal = signed / 10f64.powi(places);
                    let rendered = Json::Num(decimal).to_string();
                    assert_eq!(rendered, reference_number(decimal), "{signed} / 10^{places}");
                }
            }
        }
        power *= 10;
    }
}

#[test]
fn every_control_byte_and_escape_reads_back() {
    for byte in 0u8..0x80 {
        let s = format!("a{}b", byte as char);
        let rendered = Json::str(s.clone()).to_string();
        assert_eq!(rendered, reference_string(&s), "byte {byte:#x}");
        assert_eq!(Json::parse(&rendered).unwrap(), Json::str(s), "byte {byte:#x}");
    }
    // Escapes the encoder never produces still parse to what it prints raw.
    let parsed = Json::parse(r#""\ud83d\ude00 \u00e9 \/ \b \f""#).unwrap();
    assert_eq!(parsed, Json::str("😀 é / \u{8} \u{c}"));
    assert_eq!(parsed.to_string(), "\"😀 é / \\u0008 \\u000c\"");
}

/// Rows of the walk's table: four sealed chunks and a 17-row tail.
const WALK_ROWS: usize = 4 * CHUNK_ROWS + 17;

/// The walk's columns: integers with and without NULLs, a float, a bool,
/// a timestamp and a string (which has no numbers).
const WALK_AXES: [&str; 6] = ["int", "dense", "float", "flag", "ts", "name"];

/// A table whose integer columns' sealed chunks are stored at each width:
/// `int` and `dense` at i8, i16, i32 then i64 (values past 2^53, which
/// round on the way to `f64`), `ts` in the opposite order. Every column
/// but `dense` has NULLs; `float` has ±0.0, NaN and ±∞ among them.
fn walk_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let schema = Schema::of(&[
            ("int", DataType::Int),
            ("dense", DataType::Int),
            ("float", DataType::Float),
            ("flag", DataType::Bool),
            ("ts", DataType::Timestamp),
            ("name", DataType::Str),
        ]);
        let mut t = Table::new("w", schema).unwrap();
        let widths = [100i64, 30_000, 2_000_000_000, i64::MAX];
        let mut gen = Gen(0x5eed);
        let rows = (0..WALK_ROWS).map(|row| {
            let chunk = row / CHUNK_ROWS;
            let int = |gen: &mut Gen, chunk: usize| {
                let bound = widths[chunk.min(3)];
                (gen.next() as i64) % bound
            };
            let floats = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.1, -2.5];
            let cells = [
                Value::Int(int(&mut gen, chunk)),
                Value::Int(int(&mut gen, chunk)),
                match gen.below(4) {
                    0 => Value::Float(floats[gen.below(floats.len() as u64) as usize]),
                    _ => Value::Float(gen.number()),
                },
                Value::Bool(gen.below(2) == 0),
                Value::Timestamp(int(&mut gen, 3 - chunk.min(3))),
                Value::Str(format!("n{}", gen.below(10))),
            ];
            cells
                .into_iter()
                .enumerate()
                .map(|(c, cell)| if c != 1 && gen.below(7) == 0 { Value::Null } else { cell })
                .collect()
        });
        t.push_rows(rows.collect()).unwrap();
        t
    })
}

/// A point member: the numbers at the edges of the writer's rule — the
/// integer limit 9e15, 2^53 and the `i64` edges, 1e9 where six places
/// stop, decimals with and without a six-place form, `{n}` forms longer
/// than the point buffer, ±0.0, NaN, ±∞ — or any number, of either sign.
fn point_number(gen: &mut Gen) -> f64 {
    const EDGES: [f64; 24] = [
        0.0,
        f64::NAN,
        f64::INFINITY,
        9e15 - 1.0,
        9e15,
        9e15 + 1.0,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_993.0,
        i64::MIN as f64,
        i64::MAX as f64,
        999_999_999.0,
        999_999_999.999999,
        1e9,
        1e9 + 0.5,
        999_999_999.5,
        0.1,
        20.25,
        0.000001,
        0.1 + 0.2,
        1.0 / 3.0,
        1e-300,
        5e-324,
        f64::MAX,
    ];
    let n = match gen.below(3) {
        0 => gen.number(),
        _ => EDGES[gen.below(EDGES.len() as u64) as usize],
    };
    if gen.below(2) == 0 {
        -n
    } else {
        n
    }
}

/// A random table with NULLs and every axis type `zoom` can be pointed at.
fn arbitrary_table() -> impl Strategy<Value = Table> {
    let row = (
        0i64..5,
        proptest::option::of(any::<bool>()),
        proptest::option::of(0u8..4),
        proptest::option::of(-50.0..150.0f64),
        0i64..1_000,
    );
    proptest::collection::vec(row, 1..80).prop_map(|rows| {
        let schema = Schema::of(&[
            ("grp", DataType::Int),
            ("flag", DataType::Bool),
            ("name", DataType::Str),
            ("value", DataType::Float),
            ("ts", DataType::Timestamp),
        ]);
        let mut t = Table::new("m", schema).unwrap();
        for (grp, flag, name, value, ts) in rows {
            t.push_row(vec![
                Value::Int(grp),
                flag.map_or(Value::Null, Value::Bool),
                name.map_or(Value::Null, |n| Value::Str(format!("n{n}"))),
                value.map_or(Value::Null, Value::Float),
                Value::Timestamp(ts),
            ])
            .unwrap();
        }
        t
    })
}

const AXES: &[&str] = &["grp", "flag", "name", "value", "ts", "VALUE", "missing"];

fn grouped(table: &Table) -> QueryResult {
    let stmt = parse_select("SELECT grp, avg(value) FROM m GROUP BY grp").unwrap();
    execute(table, &stmt, ExecOptions::default()).unwrap()
}

/// `Lineage::inputs_of_groups` as it was: a `BTreeSet` over the groups.
fn reference_inputs(result: &QueryResult, outputs: &[usize]) -> Vec<RowId> {
    let mut set = BTreeSet::new();
    for &g in outputs {
        set.extend(result.inputs_of(g).iter().copied());
    }
    set.into_iter().collect()
}

/// `zoom_series` as it was: one `Value` per coordinate through
/// `Table::value_by_name`.
fn reference_zoom(
    table: &Table,
    result: &QueryResult,
    outputs: &[usize],
    x: &str,
    y: &str,
) -> Option<Vec<(u64, u64, RowId)>> {
    table.schema().index_of(x)?;
    table.schema().index_of(y)?;
    Some(
        reference_inputs(result, outputs)
            .into_iter()
            .filter_map(|rid| {
                let px = table.value_by_name(rid, x).ok()?.as_f64()?;
                let py = table.value_by_name(rid, y).ok()?.as_f64()?;
                Some((px.to_bits(), py.to_bits(), rid))
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse(to_string(x)) == x` for any tree (NaN and the infinities,
    /// which JSON cannot carry, become `null`), and printing is a fixed
    /// point from there on.
    #[test]
    fn random_trees_round_trip(seed in any::<u64>()) {
        let tree = Gen(seed | 1).json(3);
        let text = tree.to_string();
        let back = Json::parse(&text).map_err(|e| format!("{text}: {e}"))?;
        prop_assert_eq!(&back, &without_non_finite(&tree));
        prop_assert_eq!(back.to_string(), text);
    }

    /// Numbers and strings render exactly as the tree encoder rendered them.
    #[test]
    fn scalars_render_by_the_old_rules(seed in any::<u64>()) {
        let mut gen = Gen(seed | 1);
        for _ in 0..64 {
            let n = gen.number();
            prop_assert_eq!(Json::Num(n).to_string(), reference_number(n));
        }
        let s = gen.string();
        prop_assert_eq!(Json::str(s.clone()).to_string(), reference_string(&s));
    }

    /// A reply pushed field by field is the reply the tree builder made:
    /// the payload in key order with `id` and `ok` merged in.
    #[test]
    fn pushed_replies_equal_built_trees(seed in any::<u64>(), with_id in any::<bool>()) {
        let mut gen = Gen(seed | 1);
        let mut expected = BTreeMap::new();
        for key in ["alpha", "cached", "h", "id_", "j", "oj", "ok_", "zeta"] {
            if gen.below(2) == 0 {
                expected.insert(key.to_string(), gen.json(2));
            }
        }
        let id = with_id.then(|| gen.json(1));

        let mut line = String::new();
        let mut reply = JsonWriter::reply(&mut line, id.as_ref());
        for (k, v) in &expected {
            reply.key(k).value(v);
        }
        reply.end_object();

        expected.insert("ok".to_string(), Json::Bool(true));
        expected.extend(id.clone().map(|id| ("id".to_string(), id)));
        prop_assert_eq!(line, Json::Obj(expected).to_string());
    }

    /// A handler that fails — by `Err` or by panicking — after writing
    /// some fields, even half a nested value, leaves exactly the error
    /// envelope.
    #[test]
    fn a_failed_handler_leaves_exactly_the_error_envelope(
        seed in any::<u64>(),
        with_id in any::<bool>(),
        structured in any::<bool>(),
        panics in any::<bool>(),
    ) {
        let mut gen = Gen(seed | 1);
        let id = with_id.then(|| gen.json(1));
        let message = gen.string();
        let error = if structured {
            WireError::internal(message.clone())
        } else {
            WireError::from(message.clone())
        };

        let mut line = String::new();
        let mut reply = JsonWriter::reply(&mut line, id.as_ref());
        let handler = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reply.key("applied_predicates").begin_array();
            reply.str("p");
            reply.end_array();
            reply.key("rows").begin_array();
            reply.begin_array();
            reply.num(1.5);
            if panics {
                std::panic::resume_unwind(Box::new("handler died"));
            }
        }));
        prop_assert_eq!(handler.is_err(), panics);
        error.write_to(reply);

        let rendered_error = if structured {
            Json::obj(vec![
                ("kind", Json::str("internal")),
                ("retryable", Json::Bool(false)),
                ("message", Json::str(message)),
            ])
        } else {
            Json::str(message)
        };
        let mut expected = vec![("error", rendered_error), ("ok", Json::Bool(false))];
        expected.extend(id.clone().map(|id| ("id", id)));
        prop_assert_eq!(line, Json::obj(expected).to_string());
    }

    /// The typed walk gives the rows, in order and with their NULLs
    /// skipped, and the numbers, bit for bit, of a `get_f64` per cell —
    /// over sealed chunks of every integer width and a tail, selections
    /// of every density over a shorter, equal or longer universe — and a
    /// point written from the fixed buffer is the point pushed key by key.
    #[test]
    fn points_walked_and_written_equal_the_per_cell_definitions(seed in any::<u64>()) {
        let mut gen = Gen(seed | 1);
        let table = walk_table();
        let (x, y) = (WALK_AXES[gen.below(6) as usize], WALK_AXES[gen.below(6) as usize]);
        let (x, y) = (table.column_by_name(x).unwrap(), table.column_by_name(y).unwrap());
        let universe = match gen.below(3) {
            0 => gen.below(WALK_ROWS as u64) as usize,
            1 => WALK_ROWS,
            _ => WALK_ROWS + 1 + gen.below(200) as usize,
        };
        let one_in = [1, 2, 64, 5_000][gen.below(4) as usize];
        let rows = RowSet::from_indices(universe, (0..universe).filter(|_| gen.below(one_in) == 0));
        let mut walked = Vec::new();
        x.visit_f64_pairs(y, &rows, |row, x, y| walked.push((row, x.to_bits(), y.to_bits())));
        let per_cell: Vec<_> = rows
            .iter()
            .filter_map(|row| Some((row, x.get_f64(row)?.to_bits(), y.get_f64(row)?.to_bits())))
            .collect();
        prop_assert_eq!(walked, per_cell);

        let kind = ["input", "output"][gen.below(2) as usize];
        let points: Vec<[f64; 3]> = (0..gen.below(6))
            .map(|_| std::array::from_fn(|_| point_number(&mut gen)))
            .collect();
        let (mut written, mut keyed) = (String::new(), String::new());
        JsonWriter::new(&mut written).points(kind, points.len(), |out| {
            points.iter().for_each(|&[reference, x, y]| out.point(reference, x, y))
        });
        let mut by_key = JsonWriter::new(&mut keyed);
        by_key.begin_array();
        for &[reference, x, y] in &points {
            by_key.begin_object();
            by_key.key("kind").str(kind);
            by_key.key("ref").num(reference);
            by_key.key("x").num(x);
            by_key.key("y").num(y);
            by_key.end_object();
        }
        by_key.end_array();
        prop_assert_eq!(written, keyed);
    }

    /// `inputs_of_rows` (a bitmap union) equals the `BTreeSet` definition,
    /// with duplicate, out-of-range and no outputs selected.
    #[test]
    fn inputs_of_groups_equals_the_set_definition(
        table in arbitrary_table(),
        outputs in proptest::collection::vec(0usize..8, 0..10),
    ) {
        let result = grouped(&table);
        prop_assert_eq!(result.inputs_of_rows(&outputs), reference_inputs(&result, &outputs));
        prop_assert!(result.inputs_of_rows(&[]).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same on lineages whose row ids are sparse and high: a `WHERE`
    /// that keeps a random one row in 200, and one that keeps every 1000th
    /// row.
    #[test]
    fn inputs_of_groups_equals_the_set_definition_on_sparse_rows(
        seed in any::<u64>(),
        outputs in proptest::collection::vec(0usize..8, 0..10),
    ) {
        let mut gen = Gen(seed | 1);
        let rows = 3_000 + gen.below(5_000) as usize;
        let schema = Schema::of(&[
            ("grp", DataType::Int),
            ("value", DataType::Float),
            ("thousandth", DataType::Int),
            ("sampled", DataType::Int),
        ]);
        let mut table = Table::new("m", schema).unwrap();
        for r in 0..rows {
            let row = vec![
                Value::Int(gen.below(5) as i64),
                Value::Float(r as f64),
                Value::Int(i64::from(r % 1000 == 0)),
                Value::Int(i64::from(gen.below(200) == 0)),
            ];
            table.push_row(row).unwrap();
        }
        let run = |sql: &str| execute(&table, &parse_select(sql).unwrap(), ExecOptions::default());
        let sampled = run("SELECT grp, avg(value) FROM m WHERE sampled = 1 GROUP BY grp").unwrap();
        let thinned = run("SELECT grp, avg(value) FROM m WHERE thousandth = 1 GROUP BY grp").unwrap();
        for result in [sampled, thinned] {
            prop_assert_eq!(result.inputs_of_rows(&outputs), reference_inputs(&result, &outputs));
            prop_assert!(result.inputs_of_rows(&[]).is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `zoom_series` equals its per-`Value` definition on every axis type,
    /// bit for bit, including against a table shorter than the lineage
    /// (out-of-range rows are skipped), and `brush_inputs` selects the
    /// same rows from it.
    #[test]
    fn zoom_and_brush_equal_their_value_definitions(
        table in arbitrary_table(),
        outputs in proptest::collection::vec(0usize..8, 0..10),
        x in 0usize..AXES.len(),
        y in 0usize..AXES.len(),
        keep in 1usize..80,
        y_min in -60.0..160.0f64,
    ) {
        let (x, y) = (AXES[x], AXES[y]);
        let result = grouped(&table);
        let mut shorter = Table::new("m", table.schema().clone()).unwrap();
        for r in 0..keep.min(table.num_rows()) {
            shorter.push_row(table.row(RowId(r)).unwrap()).unwrap();
        }
        for t in [&table, &shorter] {
            let got = zoom_series(t, &result, &outputs, x, y).map(|s| {
                prop_assert_eq!(s.x_label.as_str(), x);
                prop_assert_eq!(s.y_label.as_str(), y);
                Ok(s.points
                    .iter()
                    .map(|p| match p.reference {
                        dbwipes::dashboard::PointRef::Input(rid) => (p.x.to_bits(), p.y.to_bits(), rid),
                        other => panic!("zoom plots inputs, got {other:?}"),
                    })
                    .collect::<Vec<_>>())
            }).transpose()?;
            prop_assert_eq!(got, reference_zoom(t, &result, &outputs, x, y));
        }

        // The session-level brush over the same zoom.
        let mut db = DbWipes::new();
        db.register(table.clone()).unwrap();
        let mut session = DashboardSession::new(db);
        session.run_query("SELECT grp, avg(value) FROM m GROUP BY grp").unwrap();
        session.select_outputs(outputs.clone());
        let brush = Brush::above(y_min);
        let expected: Vec<RowId> = reference_zoom(&table, &result, &outputs, x, y)
            .unwrap_or_default()
            .into_iter()
            .filter(|&(_, py, _)| f64::from_bits(py) >= y_min)
            .map(|(_, _, rid)| rid)
            .collect();
        prop_assert_eq!(session.brush_inputs(x, y, brush), expected.clone());
        prop_assert_eq!(session.selected_inputs(), expected.as_slice());
    }
}
