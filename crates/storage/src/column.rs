//! Typed columnar storage in immutable shared chunks.
//!
//! A [`Column`] stores one attribute of a table as a run of *sealed*
//! chunks — each exactly [`CHUNK_ROWS`] rows, immutable, behind an `Arc` —
//! plus one owned *tail* chunk of fewer rows that appends write to. A chunk
//! is a dense typed vector, with a parallel validity mask once it holds a
//! NULL, so aggregate scans and the condition kernels still run over typed
//! slices; they just run over one slice per chunk. A tail holds its
//! integers and timestamps at eight bytes; sealing stores them at the
//! narrowest of one, two, four or eight bytes that holds every value of
//! the chunk (see `Ints`), chosen from the values alone.
//!
//! The point of the split is what a copy costs. Cloning a column copies
//! one pointer per sealed chunk and the tail, so a snapshot of a table
//! ([`crate::Table`]'s `Clone`, hence `Arc::make_mut` in
//! [`crate::Catalog::table_mut`]) costs O(chunks) however many rows it
//! holds, and an append to the copy writes the tail only: every snapshot
//! that contains a sealed chunk shares it, and nothing ever writes to one.
//! The copied tail is one chunk-sized buffer per vector, so a stream of
//! appends reuses one block size instead of fragmenting the heap.
//!
//! Grouping reads a column through [`Column::visit_keys`]: each selected
//! row's cell as a [`KeyWord`], typed words read chunk by chunk, with no
//! [`Value`] per row. A zoom reads two columns the same way, through
//! [`Column::visit_f64_pairs`].

use crate::error::StorageError;
use crate::rowset::RowSet;
use crate::value::{DataType, Value};
use std::ops::Range;
use std::sync::Arc;

/// Rows per sealed chunk. A constant, not a knob: it is a power of two so
/// that locating a row is a shift and a mask, a multiple of 64 so that
/// chunk boundaries fall on word boundaries of every bitmap and on byte
/// boundaries of the bit-packed snapshot encoding, and at 16 384 rows an
/// eight-byte tail is 128 KiB — small enough that copying a tail is
/// microseconds, large enough that a 256k-row column is 16 pointers and
/// the kernels' per-chunk set-up is noise (measured in docs/TUNING.md). A
/// sealed integer chunk takes 16, 32, 64 or 128 KiB, by its width.
pub const CHUNK_ROWS: usize = 1 << 14;

/// Typed backing storage of a chunk.
///
/// Crate-visible so the vectorized condition kernels in
/// [`crate::predicate`] and the column codec in [`crate::persist`] can
/// work on the typed vectors directly instead of dispatching on the
/// variant per row.
#[derive(Debug)]
pub(crate) enum ColumnData {
    Bool(Vec<bool>),
    Int(Ints),
    Float(Vec<f64>),
    Str(Vec<String>),
    Timestamp(Ints),
}

/// The values of an integer or timestamp chunk, at one width. A tail is
/// always `I64`, so a push never widens anything; sealing narrows it once
/// ([`Ints::narrowed`]). Readers go through [`with_ints`], one arm for
/// every width.
#[derive(Debug)]
pub(crate) enum Ints {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
}

/// Evaluates `$body` with `$v` bound to the vector inside `$ints`, an
/// [`Ints`] (or a reference to one), whatever its width: the one generic
/// arm of every reader of an integer chunk.
macro_rules! with_ints {
    ($ints:expr, $v:ident => $body:expr) => {
        match $ints {
            $crate::column::Ints::I8($v) => $body,
            $crate::column::Ints::I16($v) => $body,
            $crate::column::Ints::I32($v) => $body,
            // `$body` widens every width to `i64`: a no-op on this one.
            #[allow(clippy::useless_conversion, clippy::unnecessary_cast)]
            $crate::column::Ints::I64($v) => $body,
        }
    };
}
pub(crate) use with_ints;

impl Ints {
    fn len(&self) -> usize {
        with_ints!(self, v => v.len())
    }

    /// The value at `at`, which is in bounds, widened back to `i64`.
    #[inline]
    fn get(&self, at: usize) -> i64 {
        with_ints!(self, v => i64::from(v[at]))
    }

    /// The full-width vector of a tail, which is the only chunk pushes
    /// and decodes write to.
    pub(crate) fn wide(&mut self) -> &mut Vec<i64> {
        match self {
            Ints::I64(v) => v,
            _ => unreachable!("a tail holds its integers at full width"),
        }
    }

    /// `values` at the narrowest width that holds every one of them (a
    /// NULL's slot holds what was written there, 0 for a push). An
    /// `I64` chunk keeps the vector it was given; a narrower one is a new
    /// vector of exactly `values.len()`.
    fn narrowed(values: Vec<i64>) -> Ints {
        let (lo, hi) = values.iter().fold((0, 0), |(lo, hi), &x| (x.min(lo), x.max(hi)));
        let fits = |min: i64, max: i64| min <= lo && hi <= max;
        if fits(i8::MIN.into(), i8::MAX.into()) {
            Ints::I8(values.iter().map(|&x| x as i8).collect())
        } else if fits(i16::MIN.into(), i16::MAX.into()) {
            Ints::I16(values.iter().map(|&x| x as i16).collect())
        } else if fits(i32::MIN.into(), i32::MAX.into()) {
            Ints::I32(values.iter().map(|&x| x as i32).collect())
        } else {
            Ints::I64(values)
        }
    }
}

impl ColumnData {
    fn new(dtype: DataType) -> Result<Self, StorageError> {
        Ok(match dtype {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Int => ColumnData::Int(Ints::I64(Vec::new())),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Timestamp => ColumnData::Timestamp(Ints::I64(Vec::new())),
            DataType::Null => {
                return Err(StorageError::TypeMismatch {
                    expected: "a concrete column type".into(),
                    found: DataType::Null,
                    context: "Column::new".into(),
                })
            }
        })
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// Makes room for `rows` rows in all, at a power-of-two capacity (see
    /// [`Chunk`]).
    fn reserve_for(&mut self, rows: usize) {
        let additional = rows.next_power_of_two().saturating_sub(self.len());
        match self {
            ColumnData::Bool(v) => v.reserve_exact(additional),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v.wide().reserve_exact(additional),
            ColumnData::Float(v) => v.reserve_exact(additional),
            ColumnData::Str(v) => v.reserve_exact(additional),
        }
    }
}

/// `values` copied into a whole chunk's buffer.
fn chunk_buffer<T: Copy>(values: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(CHUNK_ROWS);
    out.extend_from_slice(values);
    out
}

/// The validity mask of `len` rows none of which is NULL, in a whole
/// chunk's buffer: what a chunk's first NULL makes of its missing mask.
pub(crate) fn all_valid(len: usize) -> Vec<bool> {
    let mut out = Vec::with_capacity(CHUNK_ROWS);
    out.resize(len, true);
    out
}

/// Up to [`CHUNK_ROWS`] consecutive rows of a column: a typed vector, and
/// a validity mask of the same length once one of the rows is NULL.
///
/// Every vector of a tail has a capacity that is zero or a power of two no
/// larger than [`CHUNK_ROWS`], so the doubling of its pushes ends at
/// exactly a chunk and sealing a full tail moves nothing but the integers
/// it narrows.
#[derive(Debug)]
pub(crate) struct Chunk {
    data: ColumnData,
    /// `validity[i]` is false when row `i` of the chunk is NULL; `None`
    /// while no row is.
    validity: Option<Vec<bool>>,
}

/// The copy of a tail that an append to a table somebody else holds
/// makes (sealed chunks are shared, never copied). A fixed-width vector
/// is copied into a whole chunk's buffer: every copy is then the same
/// size, so the allocator hands each one the block the previous copy
/// freed, and no push after it reallocates. Strings own their heap one
/// value at a time anyway; their vector is copied at the next power of
/// two.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        let ints = |v: &Ints| match v {
            Ints::I64(v) => Ints::I64(chunk_buffer(v)),
            _ => unreachable!("a tail holds its integers at full width"),
        };
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(chunk_buffer(v)),
            ColumnData::Int(v) => ColumnData::Int(ints(v)),
            ColumnData::Float(v) => ColumnData::Float(chunk_buffer(v)),
            ColumnData::Timestamp(v) => ColumnData::Timestamp(ints(v)),
            ColumnData::Str(v) => {
                let mut out = Vec::with_capacity(v.len().next_power_of_two());
                out.extend(v.iter().cloned());
                ColumnData::Str(out)
            }
        };
        Chunk { data, validity: self.validity.as_deref().map(chunk_buffer) }
    }
}

impl Chunk {
    fn new(dtype: DataType) -> Result<Self, StorageError> {
        Ok(Chunk { data: ColumnData::new(dtype)?, validity: None })
    }

    /// The typed backing vector (for the columnar kernels and the codec).
    pub(crate) fn values(&self) -> &ColumnData {
        &self.data
    }

    /// The validity mask (`false` = NULL), aligned with the typed vector:
    /// all true for a chunk that holds no NULL.
    pub(crate) fn valid(&self) -> &[bool] {
        /// What a chunk without a mask reads as.
        const ALL_VALID: &[bool] = &[true; CHUNK_ROWS];
        self.validity.as_deref().unwrap_or(&ALL_VALID[..self.len()])
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    /// False when row `at`, which is in bounds, is NULL.
    #[inline]
    fn is_valid(&self, at: usize) -> bool {
        self.validity.as_ref().map_or(true, |v| v[at])
    }

    /// The value at `at`, which is in bounds.
    fn get(&self, at: usize) -> Value {
        if !self.is_valid(at) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[at]),
            ColumnData::Int(v) => Value::Int(v.get(at)),
            ColumnData::Float(v) => Value::Float(v[at]),
            ColumnData::Str(v) => Value::Str(v[at].clone()),
            ColumnData::Timestamp(v) => Value::Timestamp(v.get(at)),
        }
    }

    /// Values plus validity, by length (not capacity).
    fn approx_bytes(&self) -> usize {
        let values = match &self.data {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => {
                with_ints!(v, v => std::mem::size_of_val(v.as_slice()))
            }
            ColumnData::Float(v) => 8 * v.len(),
            ColumnData::Str(v) => {
                v.iter().map(|s| std::mem::size_of::<String>() + s.len()).sum::<usize>()
            }
        };
        values + self.validity.as_ref().map_or(0, Vec::len)
    }
}

/// One row's cell as a group-by key word, read by [`Column::visit_keys`].
/// Two cells of a column are the same word exactly when their [`Value`]s
/// are equal: a numeric cell is the bit pattern of its `f64` (so `-0.0`
/// and `0.0` are two words, as are two NaN payloads, and integers beyond
/// 2^53 that round to one `f64` are one), a Bool is its bit, a string is
/// the string, borrowed, and NULL is a word of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyWord<'a> {
    /// A NULL cell.
    Null,
    /// A numeric cell's `f64` bit pattern, or a Bool's bit.
    Bits(u64),
    /// A string cell.
    Str(&'a str),
}

/// [`Column::visit_keys`] over one chunk's typed vector: `sel` holds the
/// selection's words from the chunk's first row, `base`, on.
#[inline]
fn visit_chunk<'a, T>(
    xs: &'a [T],
    valid: Option<&[bool]>,
    sel: &[u64],
    base: usize,
    word: impl Fn(&'a T) -> KeyWord<'a>,
    visit: &mut impl FnMut(usize, KeyWord<'a>),
) {
    for (w, &bits) in sel.iter().enumerate() {
        let mut left = bits;
        while left != 0 {
            let at = w * 64 + left.trailing_zeros() as usize;
            left &= left - 1;
            let key = match valid {
                Some(valid) if !valid[at] => KeyWord::Null,
                _ => word(&xs[at]),
            };
            visit(base + at, key);
        }
    }
}

/// A chunk's cells as [`Column::get_f64`] reads them, for
/// [`Column::visit_f64_pairs`]: a typed slice per numeric type, so the
/// variant is matched once per chunk and the branch on it per cell always
/// goes the same way.
#[derive(Clone, Copy)]
enum Numbers<'a> {
    Bool(&'a [bool]),
    I8(&'a [i8]),
    I16(&'a [i16]),
    I32(&'a [i32]),
    I64(&'a [i64]),
    Float(&'a [f64]),
}

impl<'a> Numbers<'a> {
    /// `None` for a string chunk, which holds no number.
    fn of(data: &'a ColumnData) -> Option<Self> {
        Some(match data {
            ColumnData::Bool(v) => Numbers::Bool(v),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => match v {
                Ints::I8(v) => Numbers::I8(v),
                Ints::I16(v) => Numbers::I16(v),
                Ints::I32(v) => Numbers::I32(v),
                Ints::I64(v) => Numbers::I64(v),
            },
            ColumnData::Float(v) => Numbers::Float(v),
            ColumnData::Str(_) => return None,
        })
    }

    /// The cell at `at`, which is in bounds, as [`Column::get_f64`]
    /// converts it.
    #[inline]
    fn at(self, at: usize) -> f64 {
        match self {
            Numbers::Bool(v) => f64::from(v[at]),
            Numbers::I8(v) => v[at] as f64,
            Numbers::I16(v) => v[at] as f64,
            Numbers::I32(v) => v[at] as f64,
            Numbers::I64(v) => v[at] as f64,
            Numbers::Float(v) => v[at],
        }
    }
}

/// A single column of a table: sealed chunks shared with every snapshot
/// that contains them, plus the tail this one appends to.
#[derive(Debug, Clone)]
pub struct Column {
    dtype: DataType,
    /// Full chunks, [`CHUNK_ROWS`] rows each, never written again.
    sealed: Vec<Arc<Chunk>>,
    /// The rows past the last sealed chunk: always fewer than
    /// [`CHUNK_ROWS`], sealed the moment it fills.
    tail: Chunk,
}

impl Column {
    /// Creates an empty column of the given type.
    ///
    /// `DataType::Null` columns are not supported; use a nullable column of
    /// a concrete type instead.
    pub fn new(dtype: DataType) -> Result<Self, StorageError> {
        Ok(Column { dtype, sealed: Vec::new(), tail: Chunk::new(dtype)? })
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Number of entries (including NULLs).
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_ROWS + self.tail.len()
    }

    /// True when the column has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`Column::push`] would take `value`, and the error it would
    /// return otherwise. The one statement of the coercion table: NULL
    /// goes anywhere, integers go into float and timestamp columns, and
    /// floats into integer columns when lossless, so that generators can
    /// be sloppy about `3` vs `3.0`.
    pub fn accepts(&self, value: &Value) -> Result<(), StorageError> {
        match (self.dtype, value) {
            (_, Value::Null)
            | (DataType::Bool, Value::Bool(_))
            | (DataType::Int, Value::Int(_))
            | (DataType::Float, Value::Float(_) | Value::Int(_))
            | (DataType::Str, Value::Str(_))
            | (DataType::Timestamp, Value::Timestamp(_) | Value::Int(_)) => Ok(()),
            (DataType::Int, Value::Float(f)) if f.fract() == 0.0 => Ok(()),
            (dtype, other) => Err(StorageError::TypeMismatch {
                expected: dtype.name().to_string(),
                found: other.data_type(),
                context: "Column::push".into(),
            }),
        }
    }

    /// Appends a value, coerced as [`Column::accepts`] describes.
    pub fn push(&mut self, value: Value) -> Result<(), StorageError> {
        self.accepts(&value)?;
        match (&mut self.tail.data, value) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(b),
            (ColumnData::Int(v), Value::Int(i)) => v.wide().push(i),
            (ColumnData::Int(v), Value::Float(f)) => v.wide().push(f as i64),
            (ColumnData::Float(v), Value::Float(f)) => v.push(f),
            (ColumnData::Float(v), Value::Int(i)) => v.push(i as f64),
            (ColumnData::Str(v), Value::Str(s)) => v.push(s),
            (ColumnData::Timestamp(v), Value::Timestamp(t) | Value::Int(t)) => v.wide().push(t),
            _ => unreachable!("Column::accepts admits only what a column stores"),
        }
        if let Some(validity) = &mut self.tail.validity {
            validity.push(true);
        }
        self.seal_full_tail();
        Ok(())
    }

    /// Appends a NULL entry; the tail's first NULL gives it a mask.
    pub fn push_null(&mut self) {
        let len = self.tail.len();
        self.tail.validity.get_or_insert_with(|| all_valid(len)).push(false);
        match &mut self.tail.data {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => v.wide().push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(String::new()),
        }
        self.seal_full_tail();
    }

    /// Moves a tail that has reached [`CHUNK_ROWS`] rows behind an `Arc`
    /// and starts an empty one. Its vectors are a chunk's size already
    /// (see [`Chunk`]), so nothing is copied but integers, which are
    /// narrowed to the width their values need.
    fn seal_full_tail(&mut self) {
        if self.tail.len() < CHUNK_ROWS {
            return;
        }
        let fresh = Chunk::new(self.dtype).expect("existing column has a concrete type");
        let mut full = std::mem::replace(&mut self.tail, fresh);
        if let ColumnData::Int(v) | ColumnData::Timestamp(v) = &mut full.data {
            let wide = std::mem::take(v.wide());
            *v = Ints::narrowed(wide);
        }
        self.sealed.push(Arc::new(full));
    }

    /// The chunk holding `row` and the row's offset in it, or `None` when
    /// out of bounds.
    #[inline]
    fn locate(&self, row: usize) -> Option<(&Chunk, usize)> {
        let (idx, at) = (row / CHUNK_ROWS, row % CHUNK_ROWS);
        match self.sealed.get(idx) {
            Some(chunk) => Some((chunk, at)),
            None => (idx == self.sealed.len() && at < self.tail.len()).then_some((&self.tail, at)),
        }
    }

    /// Returns the value at `row`, or `None` when out of bounds.
    pub fn get(&self, row: usize) -> Option<Value> {
        self.locate(row).map(|(chunk, at)| chunk.get(at))
    }

    /// Returns the value at `row` as an `f64` when the column is numeric and
    /// the entry is non-NULL. This is the hot path used by aggregates.
    #[inline]
    pub fn get_f64(&self, row: usize) -> Option<f64> {
        let (chunk, at) = self.locate(row)?;
        if !chunk.is_valid(at) {
            return None;
        }
        match &chunk.data {
            ColumnData::Int(v) | ColumnData::Timestamp(v) => with_ints!(v, v => Some(v[at] as f64)),
            ColumnData::Float(v) => Some(v[at]),
            ColumnData::Bool(v) => Some(if v[at] { 1.0 } else { 0.0 }),
            ColumnData::Str(_) => None,
        }
    }

    /// Returns the string at `row` without cloning when the column is a
    /// string column and the entry is non-NULL.
    #[inline]
    pub fn get_str(&self, row: usize) -> Option<&str> {
        let (chunk, at) = self.locate(row)?;
        match &chunk.data {
            ColumnData::Str(v) if chunk.is_valid(at) => Some(v[at].as_str()),
            _ => None,
        }
    }

    /// True when the entry at `row` is NULL (out-of-bounds counts as NULL).
    pub fn is_null(&self, row: usize) -> bool {
        self.locate(row).map_or(true, |(chunk, at)| !chunk.is_valid(at))
    }

    /// Number of non-NULL entries.
    pub fn non_null_count(&self) -> usize {
        self.pieces(0..self.len())
            .map(|(chunk, _)| chunk.valid().iter().filter(|v| **v).count())
            .sum()
    }

    /// Iterates over all values (including NULLs) in row order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.pieces(0..self.len()).flat_map(|(chunk, rows)| rows.map(move |at| chunk.get(at)))
    }

    /// Bytes of values and validity this column reaches, shared chunks
    /// included.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.pieces(0..self.len()).map(|(chunk, _)| chunk.approx_bytes()).sum()
    }

    /// The one way to the typed vectors: the chunks that hold `rows`, each
    /// with the part of `rows` it holds as a range of its own offsets — a
    /// whole chunk for every chunk but the first and last of the range.
    /// Every chunk of a column holds the column's [`DataType`].
    ///
    /// # Panics
    /// When `rows` reaches past the end of the column.
    pub(crate) fn pieces(
        &self,
        rows: Range<usize>,
    ) -> impl Iterator<Item = (&Chunk, Range<usize>)> + '_ {
        assert!(rows.start <= rows.end && rows.end <= self.len(), "{rows:?} of {}", self.len());
        (rows.start / CHUNK_ROWS..rows.end.div_ceil(CHUNK_ROWS)).map(move |idx| {
            let base = idx * CHUNK_ROWS;
            let chunk = self.sealed.get(idx).map_or(&self.tail, |sealed| &**sealed);
            (chunk, rows.start.max(base) - base..rows.end.min(base + CHUNK_ROWS) - base)
        })
    }

    /// Hands `visit` every row of `rows`, a selection over this column's
    /// rows, in ascending order, with its cell as a [`KeyWord`]: the group
    /// stage's one read of a column, a typed loop per chunk over the
    /// selection's set bits.
    ///
    /// # Panics
    /// When `rows` is not a set over this column's rows.
    pub fn visit_keys<'a>(&'a self, rows: &RowSet, mut visit: impl FnMut(usize, KeyWord<'a>)) {
        assert_eq!(rows.universe(), self.len(), "a selection over another column's rows");
        let words = rows.word_slice();
        for (idx, (chunk, at)) in self.pieces(0..self.len()).enumerate() {
            let base = idx * CHUNK_ROWS;
            let sel = &words[base / 64..(base + at.end).div_ceil(64)];
            let valid = chunk.validity.as_deref();
            let visit = &mut visit;
            match &chunk.data {
                ColumnData::Bool(v) => {
                    visit_chunk(v, valid, sel, base, |&b| KeyWord::Bits(b.into()), visit)
                }
                ColumnData::Int(v) | ColumnData::Timestamp(v) => with_ints!(v, v => {
                    visit_chunk(v, valid, sel, base, |&x| KeyWord::Bits((x as f64).to_bits()), visit)
                }),
                ColumnData::Float(v) => {
                    visit_chunk(v, valid, sel, base, |x| KeyWord::Bits(x.to_bits()), visit)
                }
                ColumnData::Str(v) => {
                    visit_chunk(v, valid, sel, base, |s| KeyWord::Str(s.as_str()), visit)
                }
            }
        }
    }

    /// Hands `visit` every row of `rows` at which this column and `y` both
    /// hold a number, in ascending order, with the two cells as
    /// [`Column::get_f64`] reads them: `(row, x, y)`, bit for bit what two
    /// `get_f64` calls per row would give, read from typed slices chunk by
    /// chunk. A NULL in either column, a string column and a row past the
    /// end of either column give nothing, so `rows` may be over any
    /// universe.
    pub fn visit_f64_pairs(
        &self,
        y: &Column,
        rows: &RowSet,
        mut visit: impl FnMut(usize, f64, f64),
    ) {
        let end = rows.universe().min(self.len()).min(y.len());
        let words = rows.word_slice();
        for (idx, ((xc, at), (yc, _))) in self.pieces(0..end).zip(y.pieces(0..end)).enumerate() {
            let (Some(xs), Some(ys)) = (Numbers::of(&xc.data), Numbers::of(&yc.data)) else {
                return;
            };
            let (x_valid, y_valid) = (xc.validity.as_deref(), yc.validity.as_deref());
            let base = idx * CHUNK_ROWS;
            for (w, &bits) in words[base / 64..(base + at.end).div_ceil(64)].iter().enumerate() {
                let mut left = bits;
                while left != 0 {
                    let at = w * 64 + left.trailing_zeros() as usize;
                    left &= left - 1;
                    // A bit past `end` is in a universe longer than a column.
                    if xc.len() <= at || yc.len() <= at {
                        return;
                    }
                    if x_valid.map_or(true, |v| v[at]) && y_valid.map_or(true, |v| v[at]) {
                        visit(base + at, xs.at(at), ys.at(at));
                    }
                }
            }
        }
    }

    /// Appends `rows` rows a chunk's worth at a time, for the persistence
    /// layer to decode onto: `fill` is handed the tail's typed vector and
    /// validity mask, with room reserved in the vector, and which of the
    /// `rows` rows to push onto both. The mask is `None` while the tail
    /// holds no NULL; a fill leaves it so when its rows hold none either,
    /// and otherwise first makes it [`all_valid`] over the rows already
    /// there. A fill that leaves either short or long is an error, as is
    /// anything `fill` returns; the column is then half-extended and must
    /// be dropped.
    pub(crate) fn extend_with(
        &mut self,
        rows: usize,
        mut fill: impl FnMut(
            &mut ColumnData,
            &mut Option<Vec<bool>>,
            Range<usize>,
        ) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let mut done = 0;
        while done < rows {
            let take = (rows - done).min(CHUNK_ROWS - self.tail.len());
            let filled = self.tail.len() + take;
            self.tail.data.reserve_for(filled);
            fill(&mut self.tail.data, &mut self.tail.validity, done..done + take)?;
            let bits = self.tail.validity.as_ref().map_or(filled, Vec::len);
            if self.tail.data.len() != filled || bits != filled {
                return Err(StorageError::Corrupt(format!(
                    "decoded {} values and {bits} validity bits where {filled} were due",
                    self.tail.data.len(),
                )));
            }
            self.seal_full_tail();
            done += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = Column::new(DataType::Int).unwrap();
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(-7)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Some(Value::Int(1)));
        assert_eq!(c.get(1), Some(Value::Null));
        assert_eq!(c.get(2), Some(Value::Int(-7)));
        assert_eq!(c.get(3), None);
        assert_eq!(c.non_null_count(), 2);
        assert!(c.is_null(1));
        assert!(!c.is_null(0));
        assert!(c.is_null(99));
    }

    #[test]
    fn numeric_coercion_on_push() {
        let mut f = Column::new(DataType::Float).unwrap();
        f.push(Value::Int(3)).unwrap();
        assert_eq!(f.get(0), Some(Value::Float(3.0)));

        let mut i = Column::new(DataType::Int).unwrap();
        i.push(Value::Float(4.0)).unwrap();
        assert_eq!(i.get(0), Some(Value::Int(4)));
        assert!(i.push(Value::Float(4.5)).is_err());

        let mut t = Column::new(DataType::Timestamp).unwrap();
        t.push(Value::Int(100)).unwrap();
        assert_eq!(t.get(0), Some(Value::Timestamp(100)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Str).unwrap();
        assert!(c.push(Value::Int(1)).is_err());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn null_column_type_rejected() {
        assert!(Column::new(DataType::Null).is_err());
    }

    #[test]
    fn get_f64_and_get_str_fast_paths() {
        let mut c = Column::new(DataType::Float).unwrap();
        c.push(Value::Float(2.5)).unwrap();
        c.push_null();
        assert_eq!(c.get_f64(0), Some(2.5));
        assert_eq!(c.get_f64(1), None);
        assert_eq!(c.get_str(0), None);

        let mut s = Column::new(DataType::Str).unwrap();
        s.push(Value::str("hi")).unwrap();
        assert_eq!(s.get_str(0), Some("hi"));
        assert_eq!(s.get_f64(0), None);

        let mut b = Column::new(DataType::Bool).unwrap();
        b.push(Value::Bool(true)).unwrap();
        assert_eq!(b.get_f64(0), Some(1.0));
    }

    #[test]
    fn accepts_is_the_verdict_of_push_for_every_type_pair() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::str("3"),
            Value::Timestamp(3),
        ];
        for dtype in DTYPES {
            for value in &values {
                let mut c = Column::new(dtype).unwrap();
                let verdict = c.accepts(value);
                assert_eq!(verdict, c.push(value.clone()), "{value:?} into {dtype:?}");
                assert_eq!(c.len(), verdict.is_ok() as usize);
                if let Err(e) = verdict {
                    let StorageError::TypeMismatch { expected, found, context } = e else {
                        panic!("{e:?}")
                    };
                    assert_eq!((expected.as_str(), found), (dtype.name(), value.data_type()));
                    assert_eq!(context, "Column::push");
                }
            }
        }
    }

    const DTYPES: [DataType; 5] =
        [DataType::Bool, DataType::Int, DataType::Float, DataType::Str, DataType::Timestamp];

    /// SplitMix64: a cell is a pure function of (seed, row). The root
    /// package's `tests/common` has a generator like this one and this
    /// crate cannot reach it (the dependency runs the other way); the tests
    /// here stay here because they read `sealed` and `tail`, which are
    /// private.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn cell(dtype: DataType, seed: u64, row: usize) -> Value {
        let h = mix(seed ^ mix(row as u64));
        if h % 5 == 0 {
            return Value::Null;
        }
        let k = (h >> 8) as i64 % 1000;
        match dtype {
            DataType::Bool => Value::Bool(k % 2 == 0),
            DataType::Int => Value::Int(k - 500),
            DataType::Float => Value::Float(k as f64 / 4.0),
            DataType::Str => Value::Str(format!("v{}", k % 37)),
            DataType::Timestamp => Value::Timestamp(k * 60),
            DataType::Null => unreachable!("no column is of the null type"),
        }
    }

    /// The chunked column against the flat layout it replaced, a
    /// `Vec<Value>`: whatever sequence of `push` and `push_null` built it —
    /// stopping short of, on and past the first two chunk boundaries —
    /// every reader answers as the vector does.
    #[test]
    fn a_column_reads_as_the_flat_vector_of_what_was_pushed() {
        let lens = [0, 1, 63, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1].into_iter().chain([
            2 * CHUNK_ROWS - 1,
            2 * CHUNK_ROWS,
            2 * CHUNK_ROWS + 1,
            2 * CHUNK_ROWS + 23,
        ]);
        for (case, len) in lens.enumerate() {
            for dtype in DTYPES {
                let seed = mix(case as u64 * 5 + dtype as u64);
                let mut column = Column::new(dtype).unwrap();
                let mut model: Vec<Value> = Vec::new();
                for row in 0..len {
                    match cell(dtype, seed, row) {
                        // A NULL arrives either way.
                        Value::Null if row % 2 == 0 => column.push_null(),
                        value => column.push(value).unwrap(),
                    }
                    model.push(cell(dtype, seed, row));
                    assert_eq!(column.len(), model.len());
                }
                assert_eq!(column.is_empty(), model.is_empty());
                assert_eq!(column.sealed.len(), len / CHUNK_ROWS, "{len} rows of {dtype:?}");
                assert_eq!(column.tail.len(), len % CHUNK_ROWS);
                // Pushes double a tail to exactly a chunk: nothing to shrink.
                for chunk in &column.sealed {
                    assert!(data_buffer(chunk).map_or(true, |(_, cap)| cap == CHUNK_ROWS));
                    assert!(chunk.validity.as_ref().map_or(true, |v| v.capacity() == CHUNK_ROWS));
                }
                assert!(column.iter().eq(model.iter().cloned()), "{len} rows of {dtype:?}");
                let non_null = model.iter().filter(|v| !v.is_null()).count();
                assert_eq!(column.non_null_count(), non_null);
                for (row, value) in model.iter().enumerate() {
                    assert_eq!(column.get(row).as_ref(), Some(value), "row {row} of {len}");
                    assert_eq!(column.is_null(row), value.is_null());
                    assert_eq!(column.get_f64(row), value.as_f64(), "row {row} of {len}");
                    assert_eq!(column.get_str(row), value.as_str(), "row {row} of {len}");
                }
                for beyond in [len, len + 1, len + CHUNK_ROWS, usize::MAX] {
                    assert_eq!(column.get(beyond), None);
                    assert_eq!(column.get_f64(beyond), None);
                    assert_eq!(column.get_str(beyond), None);
                    assert!(column.is_null(beyond));
                }
                // The pieces of a range are the range, in order.
                for rows in [0..len, len / 3..len - len / 5, len..len] {
                    let pieces: Vec<Value> = column
                        .pieces(rows.clone())
                        .flat_map(|(chunk, at)| at.map(move |i| chunk.get(i)))
                        .collect();
                    assert_eq!(pieces, model[rows]);
                }
            }
        }
    }

    /// Where a chunk's fixed-width data vector lives, and its capacity in
    /// values; `None` for strings.
    fn data_buffer(chunk: &Chunk) -> Option<(*const (), usize)> {
        match &chunk.data {
            ColumnData::Bool(v) => Some((v.as_ptr().cast(), v.capacity())),
            ColumnData::Int(v) | ColumnData::Timestamp(v) => {
                with_ints!(v, v => Some((v.as_ptr().cast(), v.capacity())))
            }
            ColumnData::Float(v) => Some((v.as_ptr().cast(), v.capacity())),
            ColumnData::Str(_) => None,
        }
    }

    /// The bytes an integer chunk stores a value in.
    fn width(chunk: &Chunk) -> usize {
        fn of<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        match &chunk.data {
            ColumnData::Int(v) | ColumnData::Timestamp(v) => with_ints!(v, v => of(v)),
            other => panic!("{other:?} is not an integer chunk"),
        }
    }

    /// The fixed-width data buffers of a table's tails.
    fn tail_buffers(table: &crate::Table) -> Vec<(*const (), usize)> {
        let columns = (0..table.schema().len()).map(|c| table.column(c).unwrap());
        columns.filter_map(|column| data_buffer(&column.tail)).collect()
    }

    /// The 0 %-tolerance counterpart of the wall-clock claim: a
    /// copy-on-write append to a table somebody else holds copies the tail
    /// of each column and nothing else, into one chunk-sized buffer that
    /// the append does not move. The seal after it moves no float or bool
    /// buffer, and narrows each integer one once.
    #[test]
    fn an_append_to_a_shared_snapshot_copies_only_the_tail() {
        use crate::{Catalog, Condition, RowId, Schema, Table};
        let schema = Schema::of(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("b", DataType::Bool),
            ("t", DataType::Timestamp),
        ]);
        const ROWS: usize = 2 * CHUNK_ROWS + 17;
        let dtypes = schema.fields().iter().map(|f| f.dtype).collect::<Vec<_>>();
        let row = |r: usize| dtypes.iter().map(|&dtype| cell(dtype, 9, r)).collect::<Vec<_>>();
        let mut table = Table::new("t", schema).unwrap();
        table.push_rows((0..ROWS).map(row).collect()).unwrap();
        let mut catalog = Catalog::new();
        catalog.register(table).unwrap();

        // A session holds the snapshot, with a condition bitmap warm on it.
        let old = catalog.table_arc("t").unwrap();
        let (version, bytes) = (old.version(), old.approx_bytes());
        let warm = old.condition_bitmaps();
        warm.condition(&old, &Condition::above("f", 100.0)).unwrap();
        let values: Vec<Vec<Value>> = old.row_ids().map(|r| old.row(r).unwrap()).collect();

        // The copy: every fixed-width tail buffer, and every mask, is a
        // whole chunk's, and the append that follows it moves none of them.
        let copy = catalog.table_mut("t").unwrap();
        let copied = tail_buffers(copy);
        assert_eq!(copied.len(), 4);
        assert!(copied.iter().all(|&(_, capacity)| capacity == CHUNK_ROWS), "{copied:?}");
        for c in 0..5 {
            let mask = copy.column(c).unwrap().tail.validity.as_ref();
            assert!(mask.map_or(true, |v| v.capacity() == CHUNK_ROWS), "column {c}");
        }
        copy.push_rows((ROWS..ROWS + 256).map(row).collect()).unwrap();
        assert_eq!(tail_buffers(copy), copied, "the append after the copy moved a tail");
        let new = catalog.table_arc("t").unwrap();
        assert!(!Arc::ptr_eq(&old, &new), "the held snapshot was copied, not written");
        for c in 0..5 {
            let (before, after) = (old.column(c).unwrap(), new.column(c).unwrap());
            assert_eq!((before.sealed.len(), after.sealed.len()), (2, 2));
            for (a, b) in before.sealed.iter().zip(&after.sealed) {
                assert!(Arc::ptr_eq(a, b), "column {c}: a sealed chunk was copied");
            }
            assert_eq!((before.tail.len(), after.tail.len()), (17, 17 + 256));
        }
        // The old snapshot: rows, version, every value, its bitmaps.
        assert_eq!((old.num_rows(), old.version(), old.approx_bytes()), (ROWS, version, bytes));
        assert!(old.row_ids().all(|r| old.row(r).unwrap() == values[r.index()]));
        assert!(Arc::ptr_eq(&warm, &old.condition_bitmaps()));
        assert_eq!(old.retained_condition_bitmaps().0, 1);
        // The new one: old rows, then new rows, no bitmaps yet.
        assert_eq!(new.num_rows(), ROWS + 256);
        assert!(new.id() == old.id() && new.version() > version);
        assert!((0..ROWS + 256).all(|r| new.row(RowId(r)).unwrap() == row(r)));
        assert_eq!(new.retained_condition_bitmaps(), (0, 0));
        assert!(new.approx_bytes() > bytes);

        // An append that fills the tail seals exactly one chunk per column,
        // and the chunks sealed before are the same chunks still.
        // Sealing moves no float or bool buffer: the full tail is the
        // chunk. It narrows an integer one once, into exactly a chunk at
        // the width its values need: `i` holds -500..500, `t` up to 59 940.
        drop(old);
        let fill = 3 * CHUNK_ROWS - new.num_rows();
        let copy = catalog.table_mut("t").unwrap();
        let copied = tail_buffers(copy);
        copy.push_rows((0..fill).map(row).collect()).unwrap();
        let full = catalog.table_arc("t").unwrap();
        let mut sealed = Vec::new();
        for c in 0..5 {
            let (before, after) = (new.column(c).unwrap(), full.column(c).unwrap());
            assert_eq!((after.sealed.len(), after.tail.len()), (3, 0));
            assert!(before.sealed.iter().zip(&after.sealed).all(|(a, b)| Arc::ptr_eq(a, b)));
            sealed.extend(data_buffer(&after.sealed[2]));
        }
        // `copied` and `sealed` hold columns i, f, b and t, in that order.
        assert_eq!([sealed[1], sealed[2]], [copied[1], copied[2]], "sealing moved a buffer");
        for (k, (c, bytes)) in [(0, (0, 2)), (3, (4, 4))] {
            assert_ne!(sealed[k].0, copied[k].0, "column {c} was not narrowed");
            assert_eq!(sealed[k].1, CHUNK_ROWS, "column {c}");
            assert_eq!(width(&full.column(c).unwrap().sealed[2]), bytes, "column {c}");
        }
        let pushed = |r: usize| row(if r < ROWS + 256 { r } else { r - ROWS - 256 });
        assert!((0..3 * CHUNK_ROWS).all(|r| full.row(RowId(r)).unwrap() == pushed(r)));
    }

    /// One non-NULL value of each type.
    fn some(dtype: DataType) -> Value {
        cell(dtype, 0, (0..).find(|&r| !cell(dtype, 0, r).is_null()).unwrap())
    }

    /// A chunk keeps a validity mask only once it holds a NULL: the first
    /// one gives the tail a mask of its rows so far (all valid) and the
    /// NULL; the mask seals with the chunk, and the next tail starts
    /// without one — whichever way the NULL arrives.
    #[test]
    fn a_chunk_holds_a_validity_mask_only_once_it_holds_a_null() {
        for dtype in DTYPES {
            for null_via_push in [false, true] {
                let mut c = Column::new(dtype).unwrap();
                let push_null = |c: &mut Column| match null_via_push {
                    true => c.push(Value::Null).unwrap(),
                    false => c.push_null(),
                };
                for _ in 0..CHUNK_ROWS + 10 {
                    c.push(some(dtype)).unwrap();
                }
                assert!(c.sealed[0].validity.is_none() && c.tail.validity.is_none());
                push_null(&mut c);
                let mask = c.tail.validity.as_ref().expect("the first NULL makes a mask");
                assert_eq!(mask.len(), 11);
                assert!(mask[..10].iter().all(|&v| v) && !mask[10]);
                while c.tail.len() > 0 {
                    c.push(some(dtype)).unwrap();
                }
                let sealed = c.sealed[1].validity.as_ref().expect("the mask seals with its chunk");
                let nulls: Vec<usize> = (0..CHUNK_ROWS).filter(|&i| !sealed[i]).collect();
                assert_eq!(nulls, [10]);
                assert!(c.sealed[0].validity.is_none() && c.tail.validity.is_none());
                // A NULL as the first row of a tail.
                push_null(&mut c);
                assert_eq!(c.tail.validity.as_deref(), Some(&[false][..]));
                assert_eq!(c.non_null_count(), 2 * CHUNK_ROWS - 1);
                let nulls: Vec<usize> = (0..c.len()).filter(|&r| c.is_null(r)).collect();
                assert_eq!(nulls, [CHUNK_ROWS + 10, 2 * CHUNK_ROWS]);
            }
        }
    }

    /// A table that holds no NULL costs its values and nothing else: a
    /// float, and an integer or timestamp in the tail, eight bytes; a
    /// sealed integer or timestamp the width of its chunk, the narrowest
    /// that holds every value in it.
    #[test]
    fn a_null_free_numeric_table_costs_its_width_a_value() {
        use crate::{Schema, Table};
        let schema = Schema::of(&[
            ("i8", DataType::Int),
            ("i16", DataType::Timestamp),
            ("i32", DataType::Int),
            ("i64", DataType::Timestamp),
            ("f", DataType::Float),
        ]);
        let mut table = Table::new("t", schema).unwrap();
        const ROWS: usize = CHUNK_ROWS + 100;
        let row = |r: usize| {
            let r = r as i64;
            let ints = [r % 128, r, r * 1000, r << 32].map(Value::Int);
            ints.into_iter().chain([Value::Float(r as f64)]).collect()
        };
        table.push_rows((0..ROWS).map(row).collect()).unwrap();
        let widths: Vec<usize> =
            (0..4).map(|c| width(&table.column(c).unwrap().sealed[0])).collect();
        assert_eq!(widths, [1, 2, 4, 8]);
        assert_eq!(table.approx_bytes(), (1 + 2 + 4 + 8 + 8) * CHUNK_ROWS + 5 * 8 * 100);
    }

    /// Every width at its edges. A chunk whose values reach exactly a
    /// width's MIN and MAX seals at that width, and one a step past either
    /// seals at the next. Whatever the widths, across two seals and with
    /// NULLs, every reader, the condition kernels and the codec see the
    /// values that were pushed, and a decoded table narrows alike.
    #[test]
    fn every_integer_width_reads_back_at_its_edges() {
        use crate::persist::{decode_table, encode_table};
        use crate::{Condition, Schema, Table};
        // A chunk's lowest and highest value, and the bytes it seals at.
        let cases: [(i64, i64, usize); 10] = [
            (i8::MIN.into(), i8::MAX.into(), 1),
            (i64::from(i8::MIN) - 1, 0, 2),
            (0, i64::from(i8::MAX) + 1, 2),
            (i16::MIN.into(), i16::MAX.into(), 2),
            (i64::from(i16::MIN) - 1, 0, 4),
            (0, i64::from(i16::MAX) + 1, 4),
            (i32::MIN.into(), i32::MAX.into(), 4),
            (i64::from(i32::MIN) - 1, 0, 8),
            (0, i64::from(i32::MAX) + 1, 8),
            (i64::MIN, i64::MAX, 8),
        ];
        // Row `r` of a chunk of case `(lo, hi)`: NULL, the edges, a step
        // inside each, then values spread over the whole range.
        let cell = |(lo, hi, _): (i64, i64, usize), r: usize| match r % 7 {
            0 => Value::Null,
            1 => Value::Int(lo),
            2 => Value::Int(hi),
            3 => Value::Int(lo + 1),
            4 => Value::Int(hi - 1),
            _ => {
                let (lo, hi) = (i128::from(lo), i128::from(hi));
                Value::Int((lo + (hi - lo) * (r % 997) as i128 / 996) as i64)
            }
        };
        const ROWS: usize = 2 * CHUNK_ROWS + 100;
        for (i, &first) in cases.iter().enumerate() {
            let second = cases[(i + 1) % cases.len()];
            let chunk_case = [first, second, first];
            let model: Vec<Value> =
                (0..ROWS).map(|r| cell(chunk_case[r / CHUNK_ROWS], r)).collect();
            let schema = Schema::of(&[("i", DataType::Int), ("t", DataType::Timestamp)]);
            let mut table = Table::new("t", schema).unwrap();
            table.push_rows(model.iter().map(|v| vec![v.clone(), v.clone()]).collect()).unwrap();
            let decoded = decode_table(&encode_table(&table)).unwrap();
            assert_eq!(encode_table(&decoded), encode_table(&table), "{first:?} then {second:?}");
            for t in [&table, &decoded] {
                for (c, wrap) in [(0, Value::Int as fn(i64) -> Value), (1, Value::Timestamp)] {
                    let column = t.column(c).unwrap();
                    let widths = [&*column.sealed[0], &*column.sealed[1], &column.tail].map(width);
                    assert_eq!(widths, [first.2, second.2, 8], "{first:?} then {second:?}");
                    let model: Vec<Value> =
                        model.iter().map(|v| v.as_i64().map_or(Value::Null, wrap)).collect();
                    assert!(column.iter().eq(model.iter().cloned()), "{first:?} then {second:?}");
                    for (row, value) in model.iter().enumerate() {
                        assert_eq!(column.get(row).as_ref(), Some(value), "row {row}");
                        assert_eq!(column.get_f64(row), value.as_f64(), "row {row}");
                    }
                }
                // The kernels, through an equality and a closed range at
                // each edge of both cases.
                let bitmaps = t.condition_bitmaps();
                for (lo, hi, _) in [first, second] {
                    for edge in [lo, hi, lo + 1, hi - 1] {
                        let (edge_f, lo_f) = (edge as f64, lo as f64);
                        for name in ["i", "t"] {
                            let conds: [(Condition, &dyn Fn(f64) -> bool); 2] = [
                                (Condition::equals(name, edge), &|x| x.total_cmp(&edge_f).is_eq()),
                                (Condition::between(name, lo_f, edge_f), &|x| {
                                    lo_f <= x && x <= edge_f
                                }),
                            ];
                            for (cond, test) in conds {
                                let tri = bitmaps.condition(t, &cond).unwrap();
                                for (row, value) in model.iter().enumerate() {
                                    let want = value.as_f64().map(test);
                                    assert_eq!(tri.value(row), want, "{cond:?} at row {row}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn iter_visits_all_rows() {
        let mut c = Column::new(DataType::Int).unwrap();
        for i in 0..4 {
            c.push(Value::Int(i)).unwrap();
        }
        let collected: Vec<Value> = c.iter().collect();
        assert_eq!(collected, vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}
