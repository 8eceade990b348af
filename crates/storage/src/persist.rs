//! Durable columnar tables: the on-disk formats — base snapshot, append
//! segment, versioned [`Manifest`] — and the [`StorageBackend`] trait with
//! its filesystem implementation.
//!
//! Everything in memory is columnar, so the formats are too. A table's
//! *base snapshot* (`DBWT`) holds one segment per column (the validity
//! vector, then the typed values, each written once in row order — where
//! the column's in-memory chunks end does not show; string columns are
//! dictionary-encoded). Rows appended since are *append segments* (`DBWA`)
//! in a log beside it: one length-framed record per durable append,
//! carrying the row range, the version stamp the table had after the
//! append, and the same column encoding over just those rows — so making
//! a grown table durable writes bytes proportional to the growth, and
//! loading replays the log onto the base. Every segment and record carries an
//! FNV-1a 64 checksum, and the catalog is described by a versioned
//! manifest keyed by stable [`Table::id`]s and the mutation-stamped
//! [`Table::version`] of each base.
//!
//! Bases and the manifest are written via temp-file + atomic rename, so a
//! crash mid-write leaves the previous file intact. A record is one
//! `write_all` to a file opened in append mode, with no rename to hide
//! behind: a crash mid-write leaves a *torn tail*, a last record shorter
//! than its frame says, which loading ignores and the next append cuts
//! off. A record that is whole but wrong is corruption, like anywhere
//! else. When a log would reach the size of its base, the save writes a
//! fresh base instead (compaction), which bounds both the directory — at
//! most twice the data — and the cost: at most three bytes written per
//! byte appended, amortised. No file is synced: durable means a completed
//! `write(2)`, which survives the death of the process, not of the
//! machine.
//!
//! The byte codec underneath is private to this module: little-endian
//! fixed-width integers, IEEE-754 bit patterns for floats, length-prefixed
//! UTF-8 strings and bit-packed boolean vectors. Readers never panic on
//! malformed input — truncation, bad magic bytes, an unsupported format
//! version or a checksum mismatch all surface as
//! [`StorageError::Corrupt`] (I/O failures as [`StorageError::Io`]).
//!
//! ```
//! use dbwipes_storage::{DataType, FsBackend, Schema, StorageBackend, Table, Value};
//!
//! let dir = std::env::temp_dir().join(format!("dbwipes-doc-{}", std::process::id()));
//! let backend = FsBackend::open(&dir).unwrap();
//!
//! let mut t = Table::new("readings", Schema::of(&[("temp", DataType::Float)])).unwrap();
//! t.push_row(vec![Value::Float(21.5)]).unwrap();
//! backend.save_table(&t).unwrap();
//!
//! let restored = backend.load_table(t.id()).unwrap();
//! assert_eq!(restored.id(), t.id());
//! assert_eq!(restored.version(), t.version());
//! assert_eq!(restored.row(0.into()).unwrap(), t.row(0.into()).unwrap());
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::column::{all_valid, Column, ColumnData};
use crate::error::StorageError;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Version stamp written into every snapshot file; readers reject any
/// other value rather than guessing at layout changes. Version 3 dropped
/// the soft-deletion mask segment from table snapshots and went back to
/// one version stamp per table snapshot, append segment and manifest
/// entry (version 2 carried two).
pub const FORMAT_VERSION: u32 = 3;

/// Magic bytes of a table segment file.
const TABLE_MAGIC: &[u8; 4] = b"DBWT";
/// Magic bytes of an append-segment record in a table's log.
const SEGMENT_MAGIC: &[u8; 4] = b"DBWA";
/// Magic bytes of the manifest file.
const MANIFEST_MAGIC: &[u8; 4] = b"DBWM";

/// FNV-1a 64 over a byte slice — the snapshot format's per-segment
/// checksum. Small, stable, dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian byte-stream writer: the encoding half of the snapshot
/// codec.
#[derive(Debug, Default)]
struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Consumes the writer, returning the accumulated bytes.
    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far (for trailing checksums).
    fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes verbatim.
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-for-bit, NaN
    /// payloads and signed zeros included).
    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a boolean as one byte.
    fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed, bit-packed boolean vector: the
    /// concatenation of `runs`, which hold `len` bits between them (a run
    /// need not end on a byte).
    fn put_bool_runs<'a>(&mut self, len: usize, runs: impl Iterator<Item = &'a [bool]>) {
        self.put_u64(len as u64);
        let start = self.buf.len();
        self.buf.resize(start + len.div_ceil(8), 0);
        let packed = &mut self.buf[start..];
        let mut i = 0;
        for run in runs {
            for &b in run {
                packed[i / 8] |= (b as u8) << (i % 8);
                i += 1;
            }
        }
        debug_assert_eq!(i, len);
    }
}

/// Checked little-endian byte-stream reader: the decoding half of the
/// snapshot wire codec. Every accessor validates bounds and returns
/// [`StorageError::Corrupt`] on truncated input instead of panicking.
#[derive(Debug)]
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, starting at offset zero.
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Number of unread bytes.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes, or a corruption error when fewer remain.
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if n > self.remaining() {
            return Err(StorageError::Corrupt(format!(
                "truncated snapshot: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    fn get_u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    fn get_u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads one byte as a boolean (any non-zero value is true).
    fn get_bool(&mut self) -> Result<bool, StorageError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a `u64` length prefix and validates it against the bytes that
    /// actually remain (at `per_item` bytes each), so a corrupted length
    /// can never trigger a huge allocation.
    fn get_len(&mut self, per_item: usize) -> Result<usize, StorageError> {
        let raw = self.get_u64()?;
        let len = usize::try_from(raw)
            .map_err(|_| StorageError::Corrupt(format!("length {raw} overflows this platform")))?;
        let need = len.checked_mul(per_item).ok_or_else(|| {
            StorageError::Corrupt(format!("length {len} x {per_item} bytes overflows"))
        })?;
        if need > self.remaining() {
            return Err(StorageError::Corrupt(format!(
                "truncated snapshot: length {len} needs {need} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    fn get_str(&mut self) -> Result<String, StorageError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Corrupt("string segment is not valid UTF-8".into()))
    }

    /// Reads a length-prefixed, bit-packed boolean vector without
    /// unpacking it: its length in bits, and the bytes that hold them.
    fn get_packed_bits(&mut self) -> Result<(usize, &'a [u8]), StorageError> {
        let raw = self.get_u64()?;
        let len = usize::try_from(raw)
            .map_err(|_| StorageError::Corrupt(format!("length {raw} overflows this platform")))?;
        let packed_len = len.div_ceil(8);
        if packed_len > self.remaining() {
            return Err(StorageError::Corrupt(format!(
                "truncated snapshot: {len} packed bits need {packed_len} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok((len, self.take(packed_len)?))
    }
}

/// Appends bits `bits` of a bit-packed vector to `out`: whole bytes at a
/// time when the range starts on one (every chunk of a base snapshot
/// does, `CHUNK_ROWS` being a multiple of 8), bit by bit otherwise.
fn unpack_bits(packed: &[u8], bits: Range<usize>, out: &mut Vec<bool>) {
    let whole = if bits.start % 8 == 0 { bits.len() / 8 } else { 0 };
    let first = bits.start / 8;
    for &byte in &packed[first..first + whole] {
        out.extend_from_slice(&std::array::from_fn::<bool, 8, _>(|i| byte >> i & 1 != 0));
    }
    out.extend((bits.start + whole * 8..bits.end).map(|i| packed[i / 8] >> (i % 8) & 1 != 0));
}

/// True when every bit in `bits` of a bit-packed vector is set: whole
/// bytes at a time where [`unpack_bits`] would take them so.
fn all_set(packed: &[u8], bits: Range<usize>) -> bool {
    let whole = if bits.start % 8 == 0 { bits.len() / 8 } else { 0 };
    let first = bits.start / 8;
    packed[first..first + whole].iter().all(|&byte| byte == u8::MAX)
        && (bits.start + whole * 8..bits.end).all(|i| packed[i / 8] >> (i % 8) & 1 != 0)
}

/// The wire tag of a [`DataType`] (0 is reserved so a zeroed byte never
/// decodes as a valid type).
fn dtype_code(dtype: DataType) -> u8 {
    match dtype {
        DataType::Null => 0,
        DataType::Bool => 1,
        DataType::Int => 2,
        DataType::Float => 3,
        DataType::Str => 4,
        DataType::Timestamp => 5,
    }
}

fn dtype_from_code(code: u8) -> Result<DataType, StorageError> {
    Ok(match code {
        1 => DataType::Bool,
        2 => DataType::Int,
        3 => DataType::Float,
        4 => DataType::Str,
        5 => DataType::Timestamp,
        other => {
            return Err(StorageError::Corrupt(format!("unknown data type code {other}")));
        }
    })
}

/// Encodes rows `rows` of one column: dtype tag, row count, validity
/// vector, then the typed values (strings dictionary-encoded over the
/// range). The one column codec — a base snapshot encodes `0..len`, an
/// append segment the appended range — and the bytes do not show where
/// the column's chunks end: each vector is written once, over the pieces
/// of the range in order.
fn encode_column(w: &mut ByteWriter, col: &Column, rows: Range<usize>) {
    const ONE_TYPE: &str = "a chunk holds its column's type";
    let count = rows.len();
    w.put_u8(dtype_code(col.dtype()));
    w.put_u64(count as u64);
    w.put_bool_runs(count, col.pieces(rows.clone()).map(|(chunk, at)| &chunk.valid()[at]));
    match col.dtype() {
        DataType::Bool => {
            let runs = col.pieces(rows).map(|(chunk, at)| match chunk.values() {
                ColumnData::Bool(v) => &v[at],
                _ => unreachable!("{ONE_TYPE}"),
            });
            w.put_bool_runs(count, runs);
        }
        DataType::Str => {
            // Dictionary encoding: unique strings in first-appearance
            // order, then one u32 code per row.
            let mut index: HashMap<&str, u32> = HashMap::new();
            let mut dict: Vec<&str> = Vec::new();
            let mut codes: Vec<u32> = Vec::with_capacity(count);
            for (chunk, at) in col.pieces(rows) {
                let ColumnData::Str(v) = chunk.values() else { unreachable!("{ONE_TYPE}") };
                for s in &v[at] {
                    let code = *index.entry(s.as_str()).or_insert_with(|| {
                        dict.push(s.as_str());
                        (dict.len() - 1) as u32
                    });
                    codes.push(code);
                }
            }
            w.put_u64(dict.len() as u64);
            for s in &dict {
                w.put_str(s);
            }
            w.put_u64(codes.len() as u64);
            for &c in &codes {
                w.put_u32(c);
            }
        }
        _ => {
            w.put_u64(count as u64);
            for (chunk, at) in col.pieces(rows) {
                match chunk.values() {
                    ColumnData::Int(v) | ColumnData::Timestamp(v) => {
                        for &x in &v[at] {
                            w.put_i64(x);
                        }
                    }
                    ColumnData::Float(v) => {
                        for &x in &v[at] {
                            w.put_f64(x);
                        }
                    }
                    _ => unreachable!("{ONE_TYPE}"),
                }
            }
        }
    }
}

/// Words `at` of a run of little-endian `u64`s.
fn le_words(bytes: &[u8], at: Range<usize>) -> impl Iterator<Item = u64> + '_ {
    let words = bytes[at.start * 8..at.end * 8].chunks_exact(8);
    words.map(|word| u64::from_le_bytes(word.try_into().expect("8 bytes")))
}

/// The typed values of one encoded column, located and length-checked but
/// not yet decoded.
enum EncodedValues<'a> {
    /// A bit-packed vector.
    Bits(&'a [u8]),
    /// Little-endian 64-bit words: integers, timestamps, float bit patterns.
    Words(&'a [u8]),
    /// The dictionary, and one little-endian `u32` code per row.
    Codes(Vec<String>, &'a [u8]),
}

/// Decodes one column written by [`encode_column`], appending its rows to
/// `col` (an empty column, for a base snapshot) and leaving the reader
/// just past it. Every length is checked against the bytes that remain
/// before anything is allocated for it, and the rows are decoded from the
/// image straight into the column's chunks, a chunk's worth at a time.
fn decode_column(r: &mut ByteReader<'_>, col: &mut Column) -> Result<(), StorageError> {
    let dtype = dtype_from_code(r.get_u8()?)?;
    if dtype != col.dtype() {
        return Err(StorageError::Corrupt(format!(
            "segment holds {} data for a {} column",
            dtype.name(),
            col.dtype().name()
        )));
    }
    let declared = r.get_u64()?;
    let (rows, validity) = r.get_packed_bits()?;
    if rows as u64 != declared {
        return Err(StorageError::Corrupt(format!(
            "segment declares {declared} rows but has {rows} validity bits"
        )));
    }
    let (values, encoded) = match dtype {
        DataType::Bool => {
            let (len, packed) = r.get_packed_bits()?;
            (len, EncodedValues::Bits(packed))
        }
        DataType::Str => {
            // Each entry takes at least its eight-byte length.
            let dict_len = r.get_len(8)?;
            let mut dict = Vec::new();
            for _ in 0..dict_len {
                dict.push(r.get_str()?);
            }
            let len = r.get_len(4)?;
            (len, EncodedValues::Codes(dict, r.take(len * 4)?))
        }
        _ => {
            let len = r.get_len(8)?;
            (len, EncodedValues::Words(r.take(len * 8)?))
        }
    };
    if values != rows {
        return Err(StorageError::Corrupt(format!(
            "segment has {values} values for {rows} validity bits"
        )));
    }
    col.extend_with(rows, |data, valid, at| {
        // A chunk whose rows are all valid keeps no mask, as in memory.
        if valid.is_some() || !all_set(validity, at.clone()) {
            unpack_bits(validity, at.clone(), valid.get_or_insert_with(|| all_valid(data.len())));
        }
        match (data, &encoded) {
            (ColumnData::Bool(v), EncodedValues::Bits(packed)) => unpack_bits(packed, at, v),
            (ColumnData::Int(v) | ColumnData::Timestamp(v), EncodedValues::Words(bytes)) => {
                v.extend(le_words(bytes, at).map(|x| x as i64))
            }
            (ColumnData::Float(v), EncodedValues::Words(bytes)) => {
                v.extend(le_words(bytes, at).map(f64::from_bits))
            }
            (ColumnData::Str(v), EncodedValues::Codes(dict, codes)) => {
                for code in codes[at.start * 4..at.end * 4].chunks_exact(4) {
                    let code = u32::from_le_bytes(code.try_into().expect("4 bytes")) as usize;
                    let s = dict.get(code).ok_or_else(|| {
                        StorageError::Corrupt(format!(
                            "dictionary code {code} out of range (dictionary has {} entries)",
                            dict.len()
                        ))
                    })?;
                    v.push(s.clone());
                }
            }
            _ => unreachable!("the segment's type is the column's, checked above"),
        }
        Ok(())
    })
}

/// Appends a segment with the standard framing — body length, the body
/// `fill` writes, FNV-1a checksum of the body — in place: the length is
/// patched in afterwards, so no body is built in a buffer of its own.
/// The segment is everything `w` holds from its current end on.
fn put_segment(w: &mut ByteWriter, fill: impl FnOnce(&mut ByteWriter)) {
    let len_at = w.buf.len();
    w.put_u64(0);
    let body_at = w.buf.len();
    fill(w);
    let len = (w.buf.len() - body_at) as u64;
    w.buf[len_at..body_at].copy_from_slice(&len.to_le_bytes());
    w.put_u64(fnv1a64(&w.buf[body_at..]));
}

/// Reads one framed segment, verifying its checksum.
fn get_segment<'a>(r: &mut ByteReader<'a>, what: &str) -> Result<&'a [u8], StorageError> {
    let len = r.get_len(1)?;
    let body = r.take(len)?;
    let stored = r.get_u64()?;
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(StorageError::Corrupt(format!(
            "{what} checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(body)
}

/// Writes a whole table (identity stamps, schema, one segment per column)
/// to `out` as a snapshot file image, one
/// segment at a time: the only buffer is a scratch the size of the widest
/// column, never the table. Returns the bytes written.
fn write_table(table: &Table, out: &mut impl Write) -> std::io::Result<u64> {
    let mut written = 0u64;
    let mut flush = |w: &mut ByteWriter| {
        written += w.buf.len() as u64;
        out.write_all(&w.buf).map(|()| w.buf.clear())
    };
    let mut w = ByteWriter::new();
    w.put_bytes(TABLE_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_str(table.name());
    w.put_u64(table.id());
    w.put_u64(table.version());
    let schema = table.schema();
    w.put_u64(schema.len() as u64);
    for field in schema.fields() {
        w.put_str(&field.name);
        w.put_u8(dtype_code(field.dtype));
        w.put_bool(field.nullable);
    }
    w.put_u64(table.num_rows() as u64);
    flush(&mut w)?;
    for idx in 0..schema.len() {
        let col = table.column(idx).expect("schema-aligned column");
        put_segment(&mut w, |w| encode_column(w, col, 0..col.len()));
        flush(&mut w)?;
    }
    Ok(written)
}

/// Serializes a whole table into a snapshot file image in memory (what
/// [`FsBackend`] streams to a table's `.tbl` file).
pub fn encode_table(table: &Table) -> Vec<u8> {
    let mut image = Vec::new();
    write_table(table, &mut image).expect("writing to memory cannot fail");
    image
}

/// Decodes a snapshot file image written by [`encode_table`], restoring
/// the persisted identity and version stamps. All segment checksums are
/// verified; any structural problem yields [`StorageError::Corrupt`].
pub fn decode_table(bytes: &[u8]) -> Result<Table, StorageError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != TABLE_MAGIC {
        return Err(StorageError::Corrupt("not a dbwipes table snapshot (bad magic)".into()));
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported table snapshot format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let name = r.get_str()?;
    let table_id = r.get_u64()?;
    let table_version = r.get_u64()?;
    let field_count = r.get_len(10)?;
    let mut fields = Vec::with_capacity(field_count);
    for _ in 0..field_count {
        let fname = r.get_str()?;
        let dtype = dtype_from_code(r.get_u8()?)?;
        let nullable = r.get_bool()?;
        fields.push(Field { name: fname, dtype, nullable });
    }
    let schema = Schema::new(fields)?;
    let num_rows = r.get_u64()? as usize;
    let mut columns = Vec::with_capacity(schema.len());
    for (idx, field) in schema.fields().iter().enumerate() {
        let body = get_segment(&mut r, &format!("column segment {idx}"))?;
        let mut col = Column::new(field.dtype)?;
        decode_column(&mut ByteReader::new(body), &mut col)?;
        columns.push(col);
    }
    Table::restore(name, schema, columns, num_rows, table_id, table_version)
}

/// Bytes of a `DBWA` record before its body: magic, format version, body
/// length, and the FNV-1a checksum of those sixteen bytes. The frame has a
/// checksum of its own so that a damaged length is told apart from a torn
/// tail: a short file is a write that did not finish, a frame that fails
/// its checksum is corruption.
const SEGMENT_FRAME: usize = 24;

/// Serializes rows `first_row..` of `table` as one `DBWA` append-segment
/// record: the frame, then table id, the version stamp as it stands
/// *after* the append, the row range, and every column over that range in
/// the [`encode_column`] encoding, closed by the body's checksum.
fn encode_segment(table: &Table, first_row: usize) -> Vec<u8> {
    let rows = first_row..table.num_rows();
    let mut w = ByteWriter::new();
    w.put_bytes(SEGMENT_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(0); // body length and frame checksum, patched below
    w.put_u64(0);
    w.put_u64(table.id());
    w.put_u64(table.version());
    w.put_u64(rows.start as u64);
    w.put_u64(rows.len() as u64);
    w.put_u64(table.schema().len() as u64);
    for idx in 0..table.schema().len() {
        let col = table.column(idx).expect("schema-aligned column");
        encode_column(&mut w, col, rows.clone());
    }
    let body_len = (w.buf.len() - SEGMENT_FRAME) as u64;
    w.buf[8..16].copy_from_slice(&body_len.to_le_bytes());
    let frame_sum = fnv1a64(&w.buf[..16]);
    w.buf[16..SEGMENT_FRAME].copy_from_slice(&frame_sum.to_le_bytes());
    w.put_u64(fnv1a64(&w.buf[SEGMENT_FRAME..]));
    w.into_bytes()
}

/// One `DBWA` record read back from a log image, columns still encoded.
struct Segment<'a> {
    table_id: u64,
    version: u64,
    first_row: u64,
    rows: u64,
    columns: ByteReader<'a>,
    /// Offset of the byte after this record in the log image.
    end: usize,
}

/// Checks the [`SEGMENT_FRAME`] bytes a record starts with — magic,
/// format version, frame checksum — and returns the body length they
/// declare. `pos` is the record's log offset, for the error message.
fn read_frame(frame: &[u8], pos: usize) -> Result<u64, StorageError> {
    let mut r = ByteReader::new(frame);
    let magic = r.take(4)?;
    let version = r.get_u32()?;
    let body_len = r.get_u64()?;
    if r.get_u64()? != fnv1a64(&frame[..16]) || magic != SEGMENT_MAGIC {
        return Err(StorageError::Corrupt(format!(
            "append segment at log offset {pos} has a damaged frame"
        )));
    }
    if version != FORMAT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported append segment format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    Ok(body_len)
}

/// Reads the record starting at `pos` of a log image. `Ok(None)` is the
/// end of the log: either no byte is left, or fewer bytes are left than
/// the record needs — a torn tail, the write that was in flight when the
/// process died. A complete frame or body that fails a check is
/// [`StorageError::Corrupt`]. `verify` checks the body checksum: a load
/// verifies every record once ([`read_verified_log`]) and replays without.
fn read_segment(log: &[u8], pos: usize, verify: bool) -> Result<Option<Segment<'_>>, StorageError> {
    let rest = &log[pos..];
    if rest.len() < SEGMENT_FRAME {
        return Ok(None);
    }
    let (frame, rest) = rest.split_at(SEGMENT_FRAME);
    let body_len = match usize::try_from(read_frame(frame, pos)?) {
        Ok(len) if len <= rest.len().saturating_sub(8) => len,
        _ => return Ok(None),
    };
    let (body, rest) = rest.split_at(body_len);
    if verify {
        let stored = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        let actual = fnv1a64(body);
        if stored != actual {
            return Err(StorageError::Corrupt(format!(
                "append segment at log offset {pos} checksum mismatch: \
                 stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
    }
    let mut r = ByteReader::new(body);
    Ok(Some(Segment {
        table_id: r.get_u64()?,
        version: r.get_u64()?,
        first_row: r.get_u64()?,
        rows: r.get_u64()?,
        columns: r,
        end: pos + SEGMENT_FRAME + body_len + 8,
    }))
}

/// Reads a table's log and verifies every record in it, frame and body.
/// A missing log is an empty one.
fn read_verified_log(path: &Path) -> Result<Vec<u8>, StorageError> {
    let log = match fs::read(path) {
        Ok(log) => log,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(&format!("reading {}", path.display()), e)),
    };
    let mut pos = 0;
    while let Some(segment) = read_segment(&log, pos, true)? {
        pos = segment.end;
    }
    Ok(log)
}

/// Replays a verified log image ([`read_verified_log`]) onto the base
/// snapshot it sits beside, restoring each append's rows and recorded
/// version stamp. Returns the length of the log worth keeping: the end
/// of the last record applied (0 when none was). Whatever lies beyond is
/// a torn tail, and whatever lies before the first applied record is
/// *stale* — stamped at or before the base, left behind by a kill between
/// a full save's base rename and its log removal — and both are cut off
/// by the next append.
fn replay_log(table: &mut Table, log: &[u8]) -> Result<u64, StorageError> {
    let (mut pos, mut keep) = (0, 0);
    while let Some(segment) = read_segment(log, pos, false)? {
        pos = segment.end;
        if segment.table_id != table.id() {
            return Err(StorageError::Corrupt(format!(
                "log of table #{} holds a segment of table #{}",
                table.id(),
                segment.table_id
            )));
        }
        if segment.version <= table.version() {
            continue;
        }
        if segment.first_row != table.num_rows() as u64 {
            return Err(StorageError::Corrupt(format!(
                "append segment {} from row {} does not continue table #{} at ({}, {} rows)",
                segment.version,
                segment.first_row,
                table.id(),
                table.version(),
                table.num_rows()
            )));
        }
        let mut columns = segment.columns;
        if columns.get_u64()? != table.schema().len() as u64 {
            return Err(StorageError::Corrupt(format!(
                "append segment does not hold the {} columns of table #{}",
                table.schema().len(),
                table.id()
            )));
        }
        table.replay_append(segment.rows as usize, segment.version, |col| {
            decode_column(&mut columns, col)
        })?;
        if !columns.is_done() {
            return Err(StorageError::Corrupt("append segment has trailing bytes".into()));
        }
        keep = pos as u64;
    }
    Ok(keep)
}

/// The largest stamp recorded in a table's log, as far as it can be read
/// (for the stamp floor; a damaged log is reported when it is loaded).
/// Hops from frame to frame, reading only the stamps that open each body.
fn log_stamp_ceiling(path: &Path) -> u64 {
    let mut ceiling = 0;
    let Ok(mut log) = fs::File::open(path) else { return ceiling };
    // The frame, then the body's first two words: table id, version.
    let mut head = [0u8; SEGMENT_FRAME + 16];
    while log.read_exact(&mut head).is_ok() {
        let Ok(body_len) = read_frame(&head[..SEGMENT_FRAME], 0) else { break };
        let stamp = &head[SEGMENT_FRAME + 8..];
        ceiling = ceiling.max(u64::from_le_bytes(stamp.try_into().expect("8 bytes")));
        // The rest of the body and its checksum lie before the next frame.
        let rest = body_len.checked_sub(16).and_then(|rest| i64::try_from(rest + 8).ok());
        if !rest.is_some_and(|rest| log.seek(SeekFrom::Current(rest)).is_ok()) {
            break;
        }
    }
    ceiling
}

/// One table's entry in the [`Manifest`]: the durable identity the
/// recovery path keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The table name (as registered).
    pub name: String,
    /// The persisted [`Table::id`] stamp.
    pub table_id: u64,
    /// The persisted [`Table::version`] of the snapshot on disk. Every
    /// append draws a later one, so a manifest written before an append can
    /// never masquerade as covering the appended rows.
    pub version: u64,
    /// Row count of the snapshot.
    pub num_rows: u64,
    /// Snapshot file name, relative to the backend's data directory.
    pub file: String,
    /// Size of the snapshot file in bytes.
    pub bytes: u64,
}

/// The catalog-level index of a data directory: one [`ManifestEntry`] per
/// persisted table, keyed by stable table id. Written atomically after
/// every save so recovery always reads a consistent catalog description.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Entries in no particular order; table ids are unique.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// A manifest with no tables.
    pub fn empty() -> Self {
        Manifest::default()
    }

    /// Number of persisted tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no table has been persisted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry for `table_id`.
    pub fn entry(&self, table_id: u64) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.table_id == table_id)
    }

    /// Serializes the manifest (magic, format version, entries, trailing
    /// checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(MANIFEST_MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u64(self.entries.len() as u64);
        for e in &self.entries {
            w.put_str(&e.name);
            w.put_u64(e.table_id);
            w.put_u64(e.version);
            w.put_u64(e.num_rows);
            w.put_str(&e.file);
            w.put_u64(e.bytes);
        }
        let checksum = fnv1a64(w.bytes());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Decodes a manifest written by [`Manifest::encode`], verifying magic
    /// bytes, format version and the trailing checksum, and refusing what
    /// [`FsBackend`] never writes: an entry whose file is not `t<id>.tbl`
    /// (recovery joins it onto the data directory), a table id listed
    /// twice, or bytes after the last entry.
    pub fn decode(bytes: &[u8]) -> Result<Self, StorageError> {
        if bytes.len() < 8 {
            return Err(StorageError::Corrupt("manifest too short".into()));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        let actual = fnv1a64(body);
        if stored != actual {
            return Err(StorageError::Corrupt(format!(
                "manifest checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
        let mut r = ByteReader::new(body);
        if r.take(4)? != MANIFEST_MAGIC {
            return Err(StorageError::Corrupt("not a dbwipes manifest (bad magic)".into()));
        }
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported manifest format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        // The smallest entry: four u64 fields and two empty strings' u64
        // length prefixes.
        let count = r.get_len(6 * 8)?;
        let mut entries = Vec::with_capacity(count);
        let mut ids = HashSet::with_capacity(count);
        for _ in 0..count {
            let entry = ManifestEntry {
                name: r.get_str()?,
                table_id: r.get_u64()?,
                version: r.get_u64()?,
                num_rows: r.get_u64()?,
                file: r.get_str()?,
                bytes: r.get_u64()?,
            };
            if entry.file != FsBackend::table_file(entry.table_id) {
                return Err(StorageError::Corrupt(format!(
                    "manifest entry of table #{} names file {:?}",
                    entry.table_id, entry.file
                )));
            }
            if !ids.insert(entry.table_id) {
                return Err(StorageError::Corrupt(format!(
                    "manifest lists table #{} twice",
                    entry.table_id
                )));
            }
            entries.push(entry);
        }
        if !r.is_done() {
            return Err(StorageError::Corrupt(format!(
                "{} bytes after the last manifest entry",
                r.remaining()
            )));
        }
        Ok(Manifest { entries })
    }
}

/// What a backend has written since it was opened — the write-side
/// counters of the `stats` command's `storage` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteCounters {
    /// Full table snapshots written (first saves, saves over an unknown or
    /// torn log, and compactions).
    pub snapshot_saves: u64,
    /// Append segments written.
    pub segment_appends: u64,
    /// Bytes of those segments.
    pub segment_bytes: u64,
    /// Full snapshots written because a table's log had reached the size
    /// of its base (a subset of `snapshot_saves`).
    pub compactions: u64,
}

/// The one file write a [`StorageBackend::save_table`] call is about to
/// perform, as [`StorageBackend::pending_write`] describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// File name, relative to the backend's data directory.
    pub file: String,
    /// `Some(offset)`: the bytes go at this offset of the file, and
    /// whatever the file holds beyond it is a torn tail that is cut off
    /// first. `None`: the bytes replace the file.
    pub append_at: Option<u64>,
    /// The bytes to be written.
    pub bytes: Vec<u8>,
}

/// A durable home for tables. The filesystem implementation is
/// [`FsBackend`]; the trait exists so alternative
/// backends (object stores, test doubles such as
/// [`FaultInjectingBackend`](crate::faults::FaultInjectingBackend)) can
/// slot in behind the server without touching the recovery flow. `Debug`
/// is a supertrait so runtimes holding a `Box<dyn StorageBackend>` can
/// stay debuggable.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Makes `table` (data plus identity stamps) durable — the only way to
    /// do so. The backend decides what that takes: nothing when the table
    /// or a later version of it is already durable, the appended rows when
    /// the table is a later version of what is durable, a full snapshot
    /// otherwise. Returns the bytes written (0 for nothing).
    fn save_table(&self, table: &Table) -> Result<u64, StorageError>;

    /// Loads the durable state of `table_id`, restoring its stable
    /// identity and version stamps.
    fn load_table(&self, table_id: u64) -> Result<Table, StorageError>;

    /// What is durable, one entry per table: each entry's `version`,
    /// `num_rows` and `bytes` describe what [`StorageBackend::load_table`]
    /// would return as far as this backend knows. An empty data directory
    /// yields an empty manifest, not an error.
    fn list_manifest(&self) -> Result<Manifest, StorageError>;

    /// Removes `table_id`'s snapshot and log from the backend and the
    /// manifest. Evicting an unknown id is a no-op.
    fn evict(&self, table_id: u64) -> Result<(), StorageError>;

    /// Total bytes the backend currently occupies on disk (snapshots,
    /// logs and the manifest).
    fn bytes_on_disk(&self) -> Result<u64, StorageError>;

    /// What this backend has written since it was opened.
    fn write_counters(&self) -> WriteCounters;

    /// The file write `save_table(table)` would perform right now, or
    /// `None` when it would write nothing or the backend has no files.
    /// Fault injection asks so that a torn write leaves behind exactly the
    /// bytes a crash mid-`write(2)` would.
    fn pending_write(&self, _table: &Table) -> Option<PendingWrite> {
        None
    }
}

/// Filesystem [`StorageBackend`]: one directory holding, per table, a
/// `t<id>.tbl` base snapshot and a `t<id>.log` of `DBWA` append segments
/// written since, plus a `MANIFEST.bin` index of the bases. Bases and the
/// manifest are written via temp-file + atomic rename; a segment is one
/// `write_all` to the log opened in append mode. One process owns a data
/// directory at a time: the backend remembers what it made durable
/// instead of re-reading it.
#[derive(Debug)]
pub struct FsBackend {
    dir: PathBuf,
    /// Every transition of what is durable — a save, an evict, a load's
    /// log replay — happens under this one lock, so two saves of one
    /// table reach the disk in the order they are decided in.
    state: Mutex<DurableState>,
}

#[derive(Debug, Default)]
struct DurableState {
    tables: Vec<Durable>,
    written: WriteCounters,
}

/// What is durable for one table.
#[derive(Debug)]
struct Durable {
    /// The table's entry in `MANIFEST.bin`: its base snapshot.
    base: ManifestEntry,
    /// What base plus log hold, once this process has loaded or saved the
    /// table. Until then — and after a full save that failed half-way —
    /// the log is an unknown, and the next save writes a full base.
    tip: Option<Tip>,
}

#[derive(Debug, Clone, Copy)]
struct Tip {
    version: u64,
    rows: u64,
    /// Length of the log up to the last record that counts; bytes beyond
    /// it are a torn tail.
    log_bytes: u64,
}

/// What [`FsBackend::save_table`] has to write for a table.
enum Plan {
    /// The table, or a later version of it, is already durable.
    Nothing,
    /// One record with the rows past the durable tip, at this log offset.
    Segment { at: u64, record: Vec<u8> },
    /// A full base snapshot, manifest entry and empty log.
    Base { compaction: bool },
}

/// Manifest file name inside a data directory.
const MANIFEST_FILE: &str = "MANIFEST.bin";

/// A save that would take a table's log to this many times the size of
/// its base writes a fresh base instead. At 1 the rewrite is about twice
/// the base for a base's worth of appended bytes, so durable appends cost
/// at most 3 bytes written per byte appended, amortised, and the
/// directory at most twice the data.
const COMPACT_AT_LOG_OVER_BASE: u64 = 1;

fn io_err(context: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{context}: {e}"))
}

/// Writes `bytes` at offset `at` of the append-only file at `path`,
/// cutting off first whatever the file holds beyond `at` (a torn tail).
/// One `write_all`, so a kill leaves a prefix of `bytes` at worst.
pub(crate) fn append_at(path: &Path, at: u64, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = fs::OpenOptions::new().append(true).create(true).open(path)?;
    if file.metadata()?.len() > at {
        file.set_len(at)?;
    }
    file.write_all(bytes)
}

impl FsBackend {
    /// Opens (creating if needed) a data directory: removes the temp files
    /// a killed writer left behind, reads the manifest, and advances the
    /// process-global stamp counter past every id and stamp recorded in
    /// the manifest or in a log segment, so tables created later in this
    /// process can never collide with restored identities.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| io_err(&format!("creating data dir {}", dir.display()), e))?;
        let backend = FsBackend { dir, state: Mutex::default() };
        backend.remove_files(|name| name.contains(".tmp"));
        let manifest = backend.read_manifest()?;
        for e in &manifest.entries {
            let logged = log_stamp_ceiling(&backend.dir.join(Self::log_file(e.table_id)));
            crate::table::advance_stamp_floor(e.table_id.max(e.version).max(logged));
        }
        backend.lock_state().tables =
            manifest.entries.into_iter().map(|base| Durable { base, tip: None }).collect();
        Ok(backend)
    }

    /// The data directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn table_file(table_id: u64) -> String {
        format!("t{table_id}.tbl")
    }

    fn log_file(table_id: u64) -> String {
        format!("t{table_id}.log")
    }

    /// The durable state. A holder that panicked cannot have left it
    /// half-updated — every update is one assignment made after the disk
    /// write it records — so a poisoned lock is recovered, not propagated.
    fn lock_state(&self) -> MutexGuard<'_, DurableState> {
        self.state.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Writes what `fill` writes to `name` under the data directory via
    /// temp-file + atomic rename: a crash mid-write leaves the old file
    /// intact. Returns whatever `fill` returns.
    fn atomic_write<T>(
        &self,
        name: &str,
        fill: impl FnOnce(&mut fs::File) -> std::io::Result<T>,
    ) -> Result<T, StorageError> {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}.tmp{}", std::process::id()));
        let written = fs::File::create(&tmp).and_then(|mut file| fill(&mut file));
        let renamed = written.and_then(|value| fs::rename(&tmp, &path).map(|()| value));
        renamed.map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(&format!("writing {} into place", path.display()), e)
        })
    }

    fn read_manifest(&self) -> Result<Manifest, StorageError> {
        let path = self.dir.join(MANIFEST_FILE);
        match fs::read(&path) {
            Ok(bytes) => Manifest::decode(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Manifest::empty()),
            Err(e) => Err(io_err(&format!("reading {}", path.display()), e)),
        }
    }

    /// Best-effort removal of every file in the data directory whose name
    /// `doomed` accepts.
    fn remove_files(&self, doomed: impl Fn(&str) -> bool) {
        if let Ok(dir) = fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                if entry.file_name().to_str().is_some_and(&doomed) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Decides what making `table` durable takes, given what already is
    /// (`durable`: its entry in the state, if it has one).
    fn plan(&self, durable: Option<&Durable>, table: &Table) -> Plan {
        let Some(durable) = durable else { return Plan::Base { compaction: false } };
        // An unexamined log can only put the tip past the base.
        let at_least = durable.tip.map_or(durable.base.version, |tip| tip.version);
        if at_least >= table.version() {
            return Plan::Nothing;
        }
        let Some(tip) = durable.tip else { return Plan::Base { compaction: false } };
        // Fewer rows than the tip means a diverged clone, not a later
        // version; a log shorter than the tip says was torn (or removed)
        // behind our back. Either way only a fresh base is sure to hold
        // every row.
        let log_len =
            fs::metadata(self.dir.join(Self::log_file(table.id()))).map_or(0, |meta| meta.len());
        if (table.num_rows() as u64) < tip.rows || log_len < tip.log_bytes {
            return Plan::Base { compaction: false };
        }
        let record = encode_segment(table, tip.rows as usize);
        if tip.log_bytes + record.len() as u64 >= COMPACT_AT_LOG_OVER_BASE * durable.base.bytes {
            return Plan::Base { compaction: true };
        }
        Plan::Segment { at: tip.log_bytes, record }
    }
}

impl StorageBackend for FsBackend {
    fn save_table(&self, table: &Table) -> Result<u64, StorageError> {
        let mut state = self.lock_state();
        let slot = state.tables.iter().position(|d| d.base.table_id == table.id());
        let tip = |log_bytes| {
            Some(Tip { version: table.version(), rows: table.num_rows() as u64, log_bytes })
        };
        Ok(match self.plan(slot.map(|slot| &state.tables[slot]), table) {
            Plan::Nothing => 0,
            Plan::Segment { at, record } => {
                let path = self.dir.join(Self::log_file(table.id()));
                append_at(&path, at, &record)
                    .map_err(|e| io_err(&format!("appending to {}", path.display()), e))?;
                let written = record.len() as u64;
                state.tables[slot.expect("a segment extends a durable table")].tip =
                    tip(at + written);
                state.written.segment_appends += 1;
                state.written.segment_bytes += written;
                written
            }
            Plan::Base { compaction } => {
                // Base first, then the log, then the manifest: a kill after
                // the rename leaves a base ahead of its manifest entry
                // (which `load_table` accepts) beside a log of stale
                // records (which replay skips). From the rename until all
                // three are done the tip is unknown, so an attempt that
                // fails in between is retried whole.
                let file = Self::table_file(table.id());
                let bytes = self.atomic_write(&file, |out| write_table(table, out))?;
                if let Some(slot) = slot {
                    state.tables[slot].tip = None;
                }
                let _ = fs::remove_file(self.dir.join(Self::log_file(table.id())));
                let base = ManifestEntry {
                    name: table.name().to_string(),
                    table_id: table.id(),
                    version: table.version(),
                    num_rows: table.num_rows() as u64,
                    file,
                    bytes,
                };
                let mut manifest =
                    Manifest { entries: state.tables.iter().map(|d| d.base.clone()).collect() };
                match slot {
                    Some(slot) => manifest.entries[slot] = base.clone(),
                    None => manifest.entries.push(base.clone()),
                }
                self.atomic_write(MANIFEST_FILE, |out| out.write_all(&manifest.encode()))?;
                let durable = Durable { base, tip: tip(0) };
                match slot {
                    Some(slot) => state.tables[slot] = durable,
                    None => state.tables.push(durable),
                }
                state.written.snapshot_saves += 1;
                state.written.compactions += u64::from(compaction);
                bytes
            }
        })
    }

    fn load_table(&self, table_id: u64) -> Result<Table, StorageError> {
        let mut state = self.lock_state();
        let durable = state
            .tables
            .iter_mut()
            .find(|d| d.base.table_id == table_id)
            .ok_or_else(|| StorageError::UnknownTable(format!("#{table_id}")))?;
        let entry = &durable.base;
        let read_base = || {
            let path = self.dir.join(&entry.file);
            let bytes =
                fs::read(&path).map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
            decode_table(&bytes)
        };
        // Two files, each read and checksummed on its own: the log on a
        // second thread while this one decodes the base.
        let log_path = self.dir.join(Self::log_file(table_id));
        let (table, log) = std::thread::scope(|scope| {
            let log = scope.spawn(|| read_verified_log(&log_path));
            (read_base(), log.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        });
        let mut table = table?;
        // A full save writes the snapshot file *before* the manifest, so a
        // crash between the two renames leaves a complete, checksummed
        // snapshot stamped AHEAD of the manifest entry. That file is the
        // durable truth — accept it. A snapshot BEHIND the manifest cannot
        // arise from that ordering and still means corruption.
        if table.id() != entry.table_id || table.version() < entry.version {
            return Err(StorageError::Corrupt(format!(
                "snapshot {} is stamped ({}, {}) but the manifest expects ({}, {})",
                entry.file,
                table.id(),
                table.version(),
                entry.table_id,
                entry.version
            )));
        }
        let log_bytes = replay_log(&mut table, &log?)?;
        durable.tip =
            Some(Tip { version: table.version(), rows: table.num_rows() as u64, log_bytes });
        Ok(table)
    }

    fn list_manifest(&self) -> Result<Manifest, StorageError> {
        let durable = |d: &Durable| match d.tip {
            Some(tip) => ManifestEntry {
                version: tip.version,
                num_rows: tip.rows,
                bytes: d.base.bytes + tip.log_bytes,
                ..d.base.clone()
            },
            None => d.base.clone(),
        };
        Ok(Manifest { entries: self.lock_state().tables.iter().map(durable).collect() })
    }

    fn evict(&self, table_id: u64) -> Result<(), StorageError> {
        let mut state = self.lock_state();
        if let Some(slot) = state.tables.iter().position(|d| d.base.table_id == table_id) {
            let mut manifest =
                Manifest { entries: state.tables.iter().map(|d| d.base.clone()).collect() };
            manifest.entries.remove(slot);
            self.atomic_write(MANIFEST_FILE, |out| out.write_all(&manifest.encode()))?;
            state.tables.remove(slot);
        }
        let _ = fs::remove_file(self.dir.join(Self::table_file(table_id)));
        let _ = fs::remove_file(self.dir.join(Self::log_file(table_id)));
        Ok(())
    }

    fn bytes_on_disk(&self) -> Result<u64, StorageError> {
        let mut total = 0u64;
        let dir = fs::read_dir(&self.dir)
            .map_err(|e| io_err(&format!("listing {}", self.dir.display()), e))?;
        for entry in dir.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    total += meta.len();
                }
            }
        }
        Ok(total)
    }

    fn write_counters(&self) -> WriteCounters {
        self.lock_state().written
    }

    fn pending_write(&self, table: &Table) -> Option<PendingWrite> {
        let id = table.id();
        let state = self.lock_state();
        match self.plan(state.tables.iter().find(|d| d.base.table_id == id), table) {
            Plan::Nothing => None,
            Plan::Segment { at, record } => {
                Some(PendingWrite { file: Self::log_file(id), append_at: Some(at), bytes: record })
            }
            Plan::Base { .. } => Some(PendingWrite {
                file: Self::table_file(id),
                append_at: None,
                bytes: encode_table(table),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A fresh per-test directory under the OS temp dir; removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("dbwipes-persist-{}-{n}", std::process::id()));
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn every_type_table() -> Table {
        let schema = Schema::new(vec![
            Field::nullable("flag", DataType::Bool),
            Field::nullable("count", DataType::Int),
            Field::nullable("temp", DataType::Float),
            Field::nullable("room", DataType::Str),
            Field::nullable("at", DataType::Timestamp),
        ])
        .unwrap();
        let mut t = Table::new("everything", schema).unwrap();
        t.push_rows(vec![
            vec![
                Value::Bool(true),
                Value::Int(-7),
                Value::Float(1.5),
                Value::str("lab"),
                Value::Timestamp(99),
            ],
            vec![Value::Null, Value::Null, Value::Null, Value::Null, Value::Null],
            vec![
                Value::Bool(false),
                Value::Int(i64::MAX),
                Value::Float(-0.0),
                Value::str("lab"),
                Value::Timestamp(-1),
            ],
            vec![
                Value::Bool(true),
                Value::Int(0),
                Value::Float(f64::INFINITY),
                Value::str(""),
                Value::Timestamp(0),
            ],
        ])
        .unwrap();
        t
    }

    fn assert_tables_identical(a: &Table, b: &Table) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.id(), b.id());
        assert_eq!(a.version(), b.version());
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for rid in a.row_ids() {
            assert_eq!(a.row(rid).unwrap(), b.row(rid).unwrap(), "row {rid}");
        }
    }

    #[test]
    fn table_image_round_trips_every_column_type() {
        let t = every_type_table();
        let restored = decode_table(&encode_table(&t)).unwrap();
        assert_tables_identical(&t, &restored);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new("empty", Schema::of(&[("x", DataType::Int)])).unwrap();
        let restored = decode_table(&encode_table(&t)).unwrap();
        assert_tables_identical(&t, &restored);
        assert!(restored.is_empty());
    }

    #[test]
    fn truncated_and_corrupted_images_are_rejected_cleanly() {
        let t = every_type_table();
        let bytes = encode_table(&t);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_table(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
        // A flipped byte anywhere in a segment body trips its checksum (or
        // an earlier structural check); headers fail structurally.
        for pos in [0, 5, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            assert!(decode_table(&bad).is_err(), "flipped byte at {pos}");
        }
    }

    #[test]
    fn unsupported_format_version_is_rejected() {
        let t = every_type_table();
        let mut bytes = encode_table(&t);
        bytes[4] = 0xee; // the u32 format version follows the 4-byte magic
        let err = decode_table(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn fs_backend_saves_loads_and_evicts() {
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let t = every_type_table();
        let written = backend.save_table(&t).unwrap();
        assert!(written > 0);

        let manifest = backend.list_manifest().unwrap();
        assert_eq!(manifest.len(), 1);
        let entry = manifest.entry(t.id()).unwrap();
        assert_eq!(entry.name, "everything");
        assert_eq!(entry.version, t.version());
        assert_eq!(entry.num_rows, t.num_rows() as u64);
        assert_eq!(entry.bytes, written);
        assert!(backend.bytes_on_disk().unwrap() >= written);

        let restored = backend.load_table(t.id()).unwrap();
        assert_tables_identical(&t, &restored);

        backend.evict(t.id()).unwrap();
        assert!(backend.list_manifest().unwrap().is_empty());
        assert!(matches!(backend.load_table(t.id()), Err(StorageError::UnknownTable(_))));
        // Evicting an unknown id is a no-op.
        backend.evict(t.id()).unwrap();
    }

    #[test]
    fn resaving_a_grown_table_replaces_its_manifest_entry() {
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let t = every_type_table();
        backend.save_table(&t).unwrap();
        let grown = one_more_row(&t);
        backend.save_table(&grown).unwrap();
        let manifest = backend.list_manifest().unwrap();
        assert_eq!(manifest.len(), 1, "same table id replaces, never duplicates");
        assert_eq!(manifest.entry(t.id()).unwrap().version, grown.version());
        assert_tables_identical(&grown, &backend.load_table(t.id()).unwrap());
    }

    #[test]
    fn snapshot_ahead_of_manifest_loads_as_the_durable_truth() {
        // Simulate a crash between `save_table`'s two renames: the snapshot
        // file holds a complete newer epoch while the manifest still records
        // the previous save. The newer file must load, not error.
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let mut t = every_type_table();
        backend.save_table(&t).unwrap();
        let stale_version = backend.list_manifest().unwrap().entry(t.id()).unwrap().version;
        t.push_rows(vec![vec![
            Value::Bool(false),
            Value::Int(42),
            Value::Float(2.5),
            Value::str("attic"),
            Value::Timestamp(7),
        ]])
        .unwrap();
        // Write only the snapshot file — the half of `save_table` that
        // completes first — leaving the manifest behind.
        backend.atomic_write(&FsBackend::table_file(t.id()), |out| write_table(&t, out)).unwrap();
        assert_ne!(t.version(), stale_version);
        let restored = backend.load_table(t.id()).unwrap();
        assert_tables_identical(&t, &restored);
        // The manifest file is still behind; what the backend reports as
        // durable is what it just loaded.
        assert_eq!(backend.read_manifest().unwrap().entry(t.id()).unwrap().version, stale_version);
        assert_eq!(backend.list_manifest().unwrap().entry(t.id()).unwrap().version, t.version());
    }

    #[test]
    fn snapshot_behind_the_manifest_is_still_rejected() {
        // The reverse skew cannot arise from `save_table`'s write ordering,
        // so an older-than-manifest snapshot still means corruption.
        let dir = TempDir::new();
        let t = every_type_table();
        FsBackend::open(dir.path()).unwrap().save_table(&t).unwrap();
        let old_bytes = encode_table(&t);
        // A backend that has not examined the log writes the grown table
        // as a fresh base.
        let backend = FsBackend::open(dir.path()).unwrap();
        backend.save_table(&one_more_row(&t)).unwrap();
        backend
            .atomic_write(&FsBackend::table_file(t.id()), |out| out.write_all(&old_bytes))
            .unwrap();
        let err = backend.load_table(t.id()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err}");
    }

    fn one_more_row(t: &Table) -> Table {
        let mut grown = t.clone();
        grown
            .push_rows(vec![vec![
                Value::Bool(false),
                Value::Int(42),
                Value::Float(2.5),
                Value::str("attic"),
                Value::Timestamp(7),
            ]])
            .unwrap();
        grown
    }

    #[test]
    fn saves_that_reach_the_disk_out_of_order_never_regress_what_is_durable() {
        let a = every_type_table();
        let b = one_more_row(&a);
        for newest_first in [true, false] {
            let dir = TempDir::new();
            let backend = FsBackend::open(dir.path()).unwrap();
            backend.save_table(&a).unwrap();
            let c = one_more_row(&b);
            let order = if newest_first { [&c, &b] } else { [&b, &c] };
            let written = order.map(|t| backend.save_table(t).unwrap());
            if newest_first {
                assert_eq!(written[1], 0, "an append-ancestor of what is durable is a no-op");
            }
            assert_eq!(
                backend.list_manifest().unwrap().entry(a.id()).unwrap().version,
                c.version()
            );
            assert_tables_identical(&c, &backend.load_table(a.id()).unwrap());
            // The same holds for a process that has not examined the log:
            // the base alone proves `a` durable.
            let reopened = FsBackend::open(dir.path()).unwrap();
            assert_eq!(reopened.save_table(&a).unwrap(), 0);
            assert_tables_identical(&c, &reopened.load_table(a.id()).unwrap());
        }
    }

    #[test]
    fn open_removes_leftover_temp_files() {
        let dir = TempDir::new();
        let t = every_type_table();
        FsBackend::open(dir.path()).unwrap().save_table(&t).unwrap();
        let before = FsBackend::open(dir.path()).unwrap().bytes_on_disk().unwrap();
        let doomed = [
            // A kill between `fs::write` and `fs::rename`, under another pid.
            format!("t{}.tbl.tmp4242", t.id()),
            "MANIFEST.bin.tmp4242".to_string(),
        ];
        let kept = ["notes.bin"];
        for name in doomed.iter().map(String::as_str).chain(kept) {
            fs::write(dir.path().join(name), b"half a file").unwrap();
        }
        let backend = FsBackend::open(dir.path()).unwrap();
        for name in &doomed {
            assert!(!dir.path().join(name).exists(), "{name} must be swept");
        }
        for name in kept {
            assert!(dir.path().join(name).exists(), "{name} is not ours to remove");
            fs::remove_file(dir.path().join(name)).unwrap();
        }
        assert_eq!(backend.bytes_on_disk().unwrap(), before);
        assert_tables_identical(&t, &backend.load_table(t.id()).unwrap());
    }

    #[test]
    fn corrupted_snapshot_file_fails_checksum_on_load() {
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let t = every_type_table();
        backend.save_table(&t).unwrap();
        let file = dir.path().join(format!("t{}.tbl", t.id()));
        let mut bytes = fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&file, bytes).unwrap();
        assert!(matches!(backend.load_table(t.id()), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn stamp_floor_prevents_identity_collisions_after_restore() {
        let t = every_type_table();
        let restored = decode_table(&encode_table(&t)).unwrap();
        let fresh = Table::new("fresh", Schema::of(&[("x", DataType::Int)])).unwrap();
        assert!(fresh.id() > restored.id());
        assert!(fresh.id() > restored.version());
    }

    #[test]
    fn manifest_decode_rejects_corruption() {
        let entry = |table_id: u64, file: &str| ManifestEntry {
            name: "t".into(),
            table_id,
            version: 6,
            num_rows: 5,
            file: file.into(),
            bytes: 128,
        };
        let manifest = Manifest { entries: vec![entry(3, "t3.tbl")] };
        let bytes = manifest.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), manifest);
        assert!(Manifest::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[6] ^= 0x10;
        assert!(Manifest::decode(&bad).is_err());
        assert!(Manifest::decode(b"nope").is_err());

        // Well-checksummed manifests `save_table` never writes.
        let corrupt = |bytes: &[u8]| match Manifest::decode(bytes) {
            Err(StorageError::Corrupt(message)) => message,
            other => panic!("decoded {other:?}"),
        };
        let resealed = |mut body: Vec<u8>| {
            let checksum = fnv1a64(&body);
            body.extend_from_slice(&checksum.to_le_bytes());
            body
        };
        for file in ["/etc/passwd", "../x", "t4.tbl", "t3.log", ""] {
            let m = Manifest { entries: vec![entry(3, file)] };
            assert!(corrupt(&m.encode()).contains("names file"), "{file}");
        }
        let twice = Manifest { entries: vec![entry(3, "t3.tbl"), entry(3, "t3.tbl")] };
        assert!(corrupt(&twice.encode()).contains("twice"));
        let body = &bytes[..bytes.len() - 8];
        assert!(corrupt(&resealed([body, &[0]].concat())).contains("after the last"));
        // A count of two over one entry's bytes: refused by its length,
        // before anything is read or allocated for it.
        let mut counted = body.to_vec();
        counted[8..16].copy_from_slice(&2u64.to_le_bytes());
        assert!(corrupt(&resealed(counted)).contains("length 2 needs 96 bytes"));
    }

    #[test]
    fn manifest_read_modify_write_is_keyed_by_table_id() {
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let a = every_type_table();
        let b = Table::new("other", Schema::of(&[("x", DataType::Int)])).unwrap();
        backend.save_table(&a).unwrap();
        backend.save_table(&b).unwrap();
        let manifest = backend.list_manifest().unwrap();
        assert_eq!(manifest.len(), 2);
        assert!(manifest.entry(a.id()).is_some());
        assert!(manifest.entry(b.id()).is_some());
    }

    #[test]
    fn reopening_a_data_dir_advances_the_stamp_floor() {
        let dir = TempDir::new();
        {
            let backend = FsBackend::open(dir.path()).unwrap();
            backend.save_table(&every_type_table()).unwrap();
        }
        let manifest_max = {
            let backend = FsBackend::open(dir.path()).unwrap();
            let m = backend.list_manifest().unwrap();
            m.entries.iter().map(|e| e.table_id.max(e.version)).max().unwrap()
        };
        let fresh = Table::new("fresh", Schema::of(&[("x", DataType::Int)])).unwrap();
        assert!(fresh.id() > manifest_max, "open() must advance the stamp floor");
    }
}
