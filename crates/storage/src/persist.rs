//! Durable columnar tables: the on-disk format — one file of framed
//! records per table, and a versioned [`Manifest`] — and the
//! [`StorageBackend`] trait with its filesystem implementation.
//!
//! A table only grows, so its file is its append history. Every record is
//! a 24-byte frame (magic, format version, body length, and the FNV-1a 64
//! checksum of those sixteen bytes), the body, and the body's FNV-1a 64
//! checksum: every byte of the file is under a checksum. The first record,
//! and only the first, is a `DBWT` *header* — name, id, schema. Every later
//! one is a `DBWA` *data record*: table id, the row range, and every column
//! over that range, each vector written once in row order (where the
//! in-memory chunks end does not show; strings are dictionary-encoded over
//! the range). A *whole-file write* is the header and one data record over
//! every row; an *append* adds one data record over the rows appended
//! since, bytes proportional to the growth. No version is stored: a
//! table's version is its row count ([`Table::version`]). Loading reads the
//! file in one pass, verifying each record and then replaying it onto the
//! table the header describes. The manifest keys each table's last
//! whole-file write by its stable [`Table::id`].
//!
//! Whole-file writes and the manifest go via temp-file + atomic rename, so
//! a crash mid-write leaves the previous file intact. An append is one
//! `write_all` at the file's durable end, with no rename to hide behind: a
//! crash mid-write leaves a *torn tail*, a last record shorter than its
//! frame says, which loading ignores and the next append cuts off. A
//! record that is whole but wrong is corruption. When the records appended
//! since the last whole-file write would reach its size, the save rewrites
//! the file instead (compaction): a file stays within twice the data, and
//! an append costs at most three bytes written per byte, amortised. No
//! file is synced: durable means a completed `write(2)`, which survives
//! the death of the process, not of the machine.
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

use crate::column::{all_valid, with_ints, Column, ColumnData};
use crate::error::StorageError;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{Cursor, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Format version written into every record frame and the manifest;
/// readers reject any other value rather than guessing at layout changes.
pub const FORMAT_VERSION: u32 = 5;

/// Magic bytes of a table file's header record.
const HEADER_MAGIC: &[u8; 4] = b"DBWT";
/// Magic bytes of a data record.
const DATA_MAGIC: &[u8; 4] = b"DBWA";
/// Magic bytes of the manifest file.
const MANIFEST_MAGIC: &[u8; 4] = b"DBWM";

/// The FNV-1a 64 offset basis: the checksum of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over a byte slice — the on-disk format's checksum. Small,
/// stable, dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_on(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 checksum `h` over `bytes`, so a body written a
/// piece at a time is summed without being held whole.
fn fnv1a64_on(mut h: u64, bytes: &[u8]) -> u64 {
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
/// time when the range starts on one (every chunk of a whole-file write
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
/// range). The one column codec — a whole-file write encodes `0..len`, an
/// append the appended range — and the bytes do not show where
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
                    // Widened back: the bytes do not show a chunk's width.
                    ColumnData::Int(v) | ColumnData::Timestamp(v) => with_ints!(v, v => {
                        for &x in &v[at] {
                            w.put_i64(x.into());
                        }
                    }),
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
/// `col` and leaving the reader just past it. Every length is checked
/// against the bytes that remain before anything is allocated for it, and
/// the rows are decoded from the image straight into the column's chunks,
/// a chunk's worth at a time.
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
                v.wide().extend(le_words(bytes, at).map(|x| x as i64))
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

/// Bytes of a record before its body: magic, format version, body length,
/// and the FNV-1a checksum of those sixteen bytes. The frame has a
/// checksum of its own so that a damaged length is told apart from a torn
/// tail: a short file is a write that did not finish, a frame that fails
/// its checksum is corruption.
const FRAME: usize = 24;

/// The body of a record being written: what a caller [`put`](Self::put)s
/// is summed and written out at once, so the only buffer is the scratch
/// between two puts — one column of a data record, never the table.
struct BodyWriter<'a, W> {
    out: &'a mut W,
    scratch: ByteWriter,
    sum: u64,
}

impl<W: Write> BodyWriter<'_, W> {
    /// Appends to the body what `fill` writes.
    fn put(&mut self, fill: impl FnOnce(&mut ByteWriter)) -> std::io::Result<()> {
        fill(&mut self.scratch);
        self.sum = fnv1a64_on(self.sum, &self.scratch.buf);
        self.out.write_all(&self.scratch.buf)?;
        self.scratch.buf.clear();
        Ok(())
    }
}

/// Writes one record of kind `magic` at the current position of `out`: a
/// blank frame, the body `fill` streams, the body's checksum, and then the
/// frame, filled in through `Seek` once the body's length is known.
/// Returns the record's length.
fn write_record<W: Write + Seek>(
    out: &mut W,
    magic: &[u8; 4],
    fill: impl FnOnce(&mut BodyWriter<'_, W>) -> std::io::Result<()>,
) -> std::io::Result<u64> {
    let start = out.stream_position()?;
    out.write_all(&[0; FRAME])?;
    let mut body = BodyWriter { out: &mut *out, scratch: ByteWriter::new(), sum: FNV_OFFSET };
    fill(&mut body)?;
    let sum = body.sum;
    out.write_all(&sum.to_le_bytes())?;
    let end = out.stream_position()?;
    let len = end - start - FRAME as u64 - 8;
    let mut frame = [&magic[..], &FORMAT_VERSION.to_le_bytes(), &len.to_le_bytes()].concat();
    frame.extend_from_slice(&fnv1a64(&frame).to_le_bytes());
    out.seek(SeekFrom::Start(start))?;
    out.write_all(&frame)?;
    out.seek(SeekFrom::Start(end))?;
    Ok(end - start)
}

/// Writes rows `first_row..` of `table` to `out` as one data record: table
/// id, the row range, the column count, and every column over that range
/// in the [`encode_column`] encoding, one column at a time.
fn write_data_record(
    table: &Table,
    first_row: usize,
    out: &mut (impl Write + Seek),
) -> std::io::Result<u64> {
    let rows = first_row..table.num_rows();
    write_record(out, DATA_MAGIC, |body| {
        body.put(|w| {
            w.put_u64(table.id());
            w.put_u64(rows.start as u64);
            w.put_u64(rows.len() as u64);
            w.put_u64(table.schema().len() as u64);
        })?;
        for idx in 0..table.schema().len() {
            let col = table.column(idx).expect("schema-aligned column");
            body.put(|w| encode_column(w, col, rows.clone()))?;
        }
        Ok(())
    })
}

/// Writes `table` to `out` as a whole file: the header record — name, id,
/// schema — and one data record over every row. Returns the bytes written.
fn write_whole_file(table: &Table, out: &mut (impl Write + Seek)) -> std::io::Result<u64> {
    let header = write_record(out, HEADER_MAGIC, |body| {
        body.put(|w| {
            w.put_str(table.name());
            w.put_u64(table.id());
            w.put_u64(table.schema().len() as u64);
            for field in table.schema().fields() {
                w.put_str(&field.name);
                w.put_u8(dtype_code(field.dtype));
                w.put_bool(field.nullable);
            }
        })
    })?;
    Ok(header + write_data_record(table, 0, out)?)
}

/// Serializes a whole table into the image of its file in memory (what
/// [`FsBackend`] writes to a table's `.tbl` file).
pub fn encode_table(table: &Table) -> Vec<u8> {
    let mut image = Cursor::new(Vec::new());
    write_whole_file(table, &mut image).expect("writing to memory cannot fail");
    image.into_inner()
}

/// Decodes a file image written by [`encode_table`], restoring the
/// persisted identity. Every checksum is verified; a
/// torn last record, like any other structural problem, yields
/// [`StorageError::Corrupt`]: an image is whole.
pub fn decode_table(bytes: &[u8]) -> Result<Table, StorageError> {
    let (table, whole) = decode_file(bytes)?;
    if whole != bytes.len() as u64 {
        return Err(StorageError::Corrupt(format!(
            "table image ends in {} bytes of a torn record",
            bytes.len() as u64 - whole
        )));
    }
    Ok(table)
}

/// Checks the [`FRAME`] bytes a record starts with — magic, format
/// version, frame checksum — and returns the magic and the body length
/// they declare. `pos` is the record's file offset, for the error message.
fn read_frame(frame: &[u8], pos: usize) -> Result<(&[u8], u64), StorageError> {
    let mut r = ByteReader::new(frame);
    let magic = r.take(4)?;
    let version = r.get_u32()?;
    let body_len = r.get_u64()?;
    if magic != HEADER_MAGIC && magic != DATA_MAGIC {
        return Err(StorageError::Corrupt(format!(
            "no dbwipes table record at file offset {pos} (bad magic)"
        )));
    }
    if version != FORMAT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported table record format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    if r.get_u64()? != fnv1a64(&frame[..16]) {
        return Err(StorageError::Corrupt(format!(
            "record at file offset {pos} has a damaged frame"
        )));
    }
    Ok((magic, body_len))
}

/// One record read back from a table file, checksums verified.
struct Record<'a> {
    header: bool,
    body: &'a [u8],
    /// Offset of the byte after this record in the file.
    end: usize,
}

/// Reads and verifies the record starting at `pos` of a table file.
/// `Ok(None)` is the end of the file: either no byte is left, or fewer
/// bytes are left than the record needs — a torn tail, the write that was
/// in flight when the process died. A complete frame or body that fails a
/// check is [`StorageError::Corrupt`].
fn read_record(file: &[u8], pos: usize) -> Result<Option<Record<'_>>, StorageError> {
    let rest = &file[pos..];
    if rest.len() < FRAME {
        return Ok(None);
    }
    let (frame, rest) = rest.split_at(FRAME);
    let (magic, body_len) = read_frame(frame, pos)?;
    let body_len = match usize::try_from(body_len) {
        Ok(len) if len <= rest.len().saturating_sub(8) => len,
        _ => return Ok(None),
    };
    let (body, rest) = rest.split_at(body_len);
    let stored = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(StorageError::Corrupt(format!(
            "record at file offset {pos} checksum mismatch: \
             stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    Ok(Some(Record { header: magic == HEADER_MAGIC, body, end: pos + FRAME + body_len + 8 }))
}

/// The empty table a header record describes, with its persisted id.
fn decode_header(body: &[u8]) -> Result<Table, StorageError> {
    let mut r = ByteReader::new(body);
    let name = r.get_str()?;
    let id = r.get_u64()?;
    let field_count = r.get_len(10)?;
    let mut fields = Vec::with_capacity(field_count);
    for _ in 0..field_count {
        let fname = r.get_str()?;
        let dtype = dtype_from_code(r.get_u8()?)?;
        let nullable = r.get_bool()?;
        fields.push(Field { name: fname, dtype, nullable });
    }
    if !r.is_done() {
        return Err(StorageError::Corrupt("header record has trailing bytes".into()));
    }
    Table::with_id(name, Schema::new(fields)?, id)
}

/// Replays one data record onto `table`: it must be of the table's id and
/// continue its rows.
fn replay_record(table: &mut Table, body: &[u8]) -> Result<(), StorageError> {
    let mut r = ByteReader::new(body);
    let (table_id, first_row, rows) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
    if table_id != table.id() {
        return Err(StorageError::Corrupt(format!(
            "file of table #{} holds a record of table #{table_id}",
            table.id()
        )));
    }
    if first_row != table.num_rows() as u64 {
        return Err(StorageError::Corrupt(format!(
            "record from row {first_row} does not continue table #{} at {} rows",
            table.id(),
            table.num_rows()
        )));
    }
    if r.get_u64()? != table.schema().len() as u64 {
        return Err(StorageError::Corrupt(format!(
            "record does not hold the {} columns of table #{}",
            table.schema().len(),
            table.id()
        )));
    }
    table.replay_append(rows as usize, |col| decode_column(&mut r, col))?;
    if !r.is_done() {
        return Err(StorageError::Corrupt("data record has trailing bytes".into()));
    }
    Ok(())
}

/// Decodes a table file in one pass: the header record first, the empty
/// table it describes, then each data record verified and replayed onto
/// it, up to a torn tail. Returns the table and the length of the file up
/// to its last whole record. A file that does not open with a header and a
/// data record, or holds a second header, is corrupt: no write leaves one
/// behind. On an error the half-built table is dropped.
fn decode_file(file: &[u8]) -> Result<(Table, u64), StorageError> {
    let incomplete = || StorageError::Corrupt("table file lacks a header or a data record".into());
    let header = read_record(file, 0)?.filter(|record| record.header).ok_or_else(incomplete)?;
    let mut table = decode_header(header.body)?;
    let mut end = None;
    while let Some(record) = read_record(file, end.unwrap_or(header.end))? {
        if record.header {
            return Err(StorageError::Corrupt("table file has a second header record".into()));
        }
        replay_record(&mut table, record.body)?;
        end = Some(record.end);
    }
    let end = end.ok_or_else(incomplete)?;
    Ok((table, end as u64))
}

/// One table's entry in the [`Manifest`]: the durable identity the
/// recovery path keys on. The table's file is `t<table_id>.tbl`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The table name (as registered).
    pub name: String,
    /// The persisted [`Table::id`].
    pub table_id: u64,
    /// Row count of the table's last whole-file write — its
    /// [`Table::version`]. A table only grows, so a manifest written before
    /// an append can never masquerade as covering the appended rows.
    pub num_rows: u64,
    /// Size of that write in bytes.
    pub bytes: u64,
}

/// The catalog-level index of a data directory: one [`ManifestEntry`] per
/// persisted table, keyed by stable table id. Written atomically after
/// every whole-file write so recovery always reads a consistent catalog
/// description.
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
            w.put_u64(e.num_rows);
            w.put_u64(e.bytes);
        }
        let checksum = fnv1a64(w.bytes());
        w.put_u64(checksum);
        w.into_bytes()
    }

    /// Decodes a manifest written by [`Manifest::encode`], verifying magic
    /// bytes, format version and the trailing checksum, and refusing what
    /// [`FsBackend`] never writes: a table id listed twice, or bytes after
    /// the last entry.
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
        // The smallest entry: three u64 fields and an empty name's u64
        // length prefix.
        let count = r.get_len(4 * 8)?;
        let mut entries = Vec::with_capacity(count);
        let mut ids = HashSet::with_capacity(count);
        for _ in 0..count {
            let entry = ManifestEntry {
                name: r.get_str()?,
                table_id: r.get_u64()?,
                num_rows: r.get_u64()?,
                bytes: r.get_u64()?,
            };
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
    /// Whole-file writes (first saves, saves over a file this process has
    /// not read, and compactions).
    pub snapshot_saves: u64,
    /// Data records appended.
    pub segment_appends: u64,
    /// Bytes of those records.
    pub segment_bytes: u64,
    /// Whole-file writes made because the records appended to a file had
    /// reached the size of its last whole-file write (a subset of
    /// `snapshot_saves`).
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
    /// Makes `table` (data plus identity) durable — the only way to
    /// do so. The backend decides what that takes: nothing when the table
    /// or a later version of it is already durable, the appended rows when
    /// the table is a later version of what is durable, the whole table
    /// otherwise. Returns the bytes written (0 for nothing).
    fn save_table(&self, table: &Table) -> Result<u64, StorageError>;

    /// Loads the durable state of `table_id`, restoring its stable
    /// identity. Each load starts a lineage of its own: two tables loaded
    /// from one id and then appended to differently share `(id, version)`
    /// keys, so a process loads each table once (the server does, in its
    /// catalog restore) and clones what it loaded.
    fn load_table(&self, table_id: u64) -> Result<Table, StorageError>;

    /// What is durable, one entry per table: each entry's `num_rows` and
    /// `bytes` describe what [`StorageBackend::load_table`]
    /// would return as far as this backend knows. An empty data directory
    /// yields an empty manifest, not an error.
    fn list_manifest(&self) -> Result<Manifest, StorageError>;

    /// Removes `table_id`'s file from the backend and its entry from the
    /// manifest. Evicting an unknown id is a no-op.
    fn evict(&self, table_id: u64) -> Result<(), StorageError>;

    /// Total bytes the backend currently occupies on disk (table files and
    /// the manifest).
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

/// Filesystem [`StorageBackend`]: one directory holding a `t<id>.tbl` file
/// per table and a `MANIFEST.bin` index of their last whole-file writes.
/// Whole-file writes and the manifest go via temp-file + atomic rename; an
/// append is one `write_all` at the file's durable end. One process owns a
/// data directory at a time: the backend remembers what it made durable
/// instead of re-reading it.
#[derive(Debug)]
pub struct FsBackend {
    dir: PathBuf,
    /// Every transition of what is durable — a save, an evict, a load —
    /// happens under this one lock, so two saves of one table reach the
    /// disk in the order they are decided in.
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
    /// The table's entry in `MANIFEST.bin`: its last whole-file write.
    entry: ManifestEntry,
    /// What the file holds, once this process has loaded or saved the
    /// table. Until then — and after a whole-file write that failed
    /// half-way — the file's end is an unknown, and the next save rewrites
    /// it whole.
    tip: Option<Tip>,
}

#[derive(Debug, Clone, Copy)]
struct Tip {
    rows: u64,
    /// Length of the file up to its last whole record; bytes beyond it
    /// are a torn tail.
    bytes: u64,
}

/// What [`FsBackend::save_table`] has to write for a table.
enum Plan {
    /// The table, or a later version of it, is already durable.
    Nothing,
    /// One data record with the rows past the durable tip, at this offset.
    Append { at: u64, record: Vec<u8> },
    /// A whole-file write and the manifest entry naming it.
    Whole { compaction: bool },
}

/// Decides what making `table` durable takes, given what already is
/// (`durable`: its entry in the state, if it has one).
fn plan(durable: Option<&Durable>, table: &Table) -> Plan {
    let Some(durable) = durable else { return Plan::Whole { compaction: false } };
    // An unread file can only put the tip past its manifest entry.
    let at_least = durable.tip.map_or(durable.entry.num_rows, |tip| tip.rows);
    if at_least >= table.version() {
        return Plan::Nothing;
    }
    let Some(tip) = durable.tip else { return Plan::Whole { compaction: false } };
    let mut record = Cursor::new(Vec::new());
    write_data_record(table, tip.rows as usize, &mut record)
        .expect("writing to memory cannot fail");
    let record = record.into_inner();
    let appended = tip.bytes.saturating_sub(durable.entry.bytes) + record.len() as u64;
    if appended >= COMPACT_AT_APPENDED_OVER_WHOLE * durable.entry.bytes {
        return Plan::Whole { compaction: true };
    }
    Plan::Append { at: tip.bytes, record }
}

/// Manifest file name inside a data directory.
const MANIFEST_FILE: &str = "MANIFEST.bin";

/// A save that would take the records appended to a table's file since
/// its last whole-file write to this many times that write's size
/// rewrites the file instead. At 1 the rewrite is about twice the last
/// one for that many bytes appended, so durable appends cost at most 3
/// bytes written per byte appended, amortised, and the file stays within
/// twice the data.
const COMPACT_AT_APPENDED_OVER_WHOLE: u64 = 1;

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
    /// process-global identity counter past every table id it lists, so
    /// tables created later in this process can never collide with
    /// restored identities.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| io_err(&format!("creating data dir {}", dir.display()), e))?;
        let backend = FsBackend { dir, state: Mutex::default() };
        backend.remove_files(|name| name.contains(".tmp"));
        let manifest = backend.read_manifest()?;
        for e in &manifest.entries {
            crate::table::advance_stamp_floor(e.table_id);
        }
        backend.lock_state().tables =
            manifest.entries.into_iter().map(|entry| Durable { entry, tip: None }).collect();
        Ok(backend)
    }

    /// The data directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn table_file(table_id: u64) -> String {
        format!("t{table_id}.tbl")
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
}

impl StorageBackend for FsBackend {
    fn save_table(&self, table: &Table) -> Result<u64, StorageError> {
        let mut state = self.lock_state();
        let slot = state.tables.iter().position(|d| d.entry.table_id == table.id());
        let tip = |bytes| Some(Tip { rows: table.num_rows() as u64, bytes });
        let file = Self::table_file(table.id());
        Ok(match plan(slot.map(|slot| &state.tables[slot]), table) {
            Plan::Nothing => 0,
            Plan::Append { at, record } => {
                let path = self.dir.join(&file);
                append_at(&path, at, &record)
                    .map_err(|e| io_err(&format!("appending to {}", path.display()), e))?;
                let written = record.len() as u64;
                state.tables[slot.expect("an append extends a durable table")].tip =
                    tip(at + written);
                state.written.segment_appends += 1;
                state.written.segment_bytes += written;
                written
            }
            Plan::Whole { compaction } => {
                // The file first, then the manifest: a kill between the two
                // renames leaves a file ahead of its manifest entry, which
                // `load_table` accepts. From the file's rename until the
                // manifest's the tip is unknown, so an attempt that fails
                // in between is retried whole.
                let bytes = self.atomic_write(&file, |out| write_whole_file(table, out))?;
                if let Some(slot) = slot {
                    state.tables[slot].tip = None;
                }
                let entry = ManifestEntry {
                    name: table.name().to_string(),
                    table_id: table.id(),
                    num_rows: table.num_rows() as u64,
                    bytes,
                };
                let mut manifest =
                    Manifest { entries: state.tables.iter().map(|d| d.entry.clone()).collect() };
                match slot {
                    Some(slot) => manifest.entries[slot] = entry.clone(),
                    None => manifest.entries.push(entry.clone()),
                }
                self.atomic_write(MANIFEST_FILE, |out| out.write_all(&manifest.encode()))?;
                let durable = Durable { entry, tip: tip(bytes) };
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
            .find(|d| d.entry.table_id == table_id)
            .ok_or_else(|| StorageError::UnknownTable(format!("#{table_id}")))?;
        let path = self.dir.join(Self::table_file(table_id));
        let file =
            fs::read(&path).map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
        let (table, bytes) = decode_file(&file)?;
        // A whole-file write renames the file *before* the manifest, and an
        // append never writes the manifest, so a file with more rows than
        // its entry is the durable truth. A file behind its entry cannot
        // arise from that ordering — a torn whole-file write lands here —
        // and is corruption.
        let entry = &durable.entry;
        if table.id() != entry.table_id || table.version() < entry.num_rows {
            return Err(StorageError::Corrupt(format!(
                "{} holds table #{} at {} rows but the manifest expects #{} at {}",
                path.display(),
                table.id(),
                table.version(),
                entry.table_id,
                entry.num_rows
            )));
        }
        durable.tip = Some(Tip { rows: table.num_rows() as u64, bytes });
        Ok(table)
    }

    fn list_manifest(&self) -> Result<Manifest, StorageError> {
        let durable = |d: &Durable| match d.tip {
            Some(tip) => ManifestEntry { num_rows: tip.rows, bytes: tip.bytes, ..d.entry.clone() },
            None => d.entry.clone(),
        };
        Ok(Manifest { entries: self.lock_state().tables.iter().map(durable).collect() })
    }

    fn evict(&self, table_id: u64) -> Result<(), StorageError> {
        let mut state = self.lock_state();
        if let Some(slot) = state.tables.iter().position(|d| d.entry.table_id == table_id) {
            let mut manifest =
                Manifest { entries: state.tables.iter().map(|d| d.entry.clone()).collect() };
            manifest.entries.remove(slot);
            self.atomic_write(MANIFEST_FILE, |out| out.write_all(&manifest.encode()))?;
            state.tables.remove(slot);
        }
        let _ = fs::remove_file(self.dir.join(Self::table_file(table_id)));
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
        let (append_at, bytes) =
            match plan(state.tables.iter().find(|d| d.entry.table_id == id), table) {
                Plan::Nothing => return None,
                Plan::Append { at, record } => (Some(at), record),
                Plan::Whole { .. } => (None, encode_table(table)),
            };
        Some(PendingWrite { file: Self::table_file(id), append_at, bytes })
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

    /// Whole, checksummed records that no save writes in that order are
    /// corrupt: the header is the first record and only the first, at
    /// least one data record follows it, and each data record is of the
    /// header's table and continues its rows.
    #[test]
    fn records_that_do_not_continue_the_table_are_corrupt() {
        let t = every_type_table();
        let grown = one_more_row(&t);
        let record = |table: &Table, first_row: usize| {
            let mut out = Cursor::new(Vec::new());
            write_data_record(table, first_row, &mut out).unwrap();
            out.into_inner()
        };
        let image = encode_table(&t);
        let header = &image[..image.len() - record(&t, 0).len()];
        let other = Table::new("everything", t.schema().clone()).unwrap();
        let never_appended = Table::new("x", Schema::of(&[("x", DataType::Int)])).unwrap();
        let decoded = decode_table(&encode_table(&never_appended)).unwrap();
        assert_eq!((decoded.id(), decoded.version()), (never_appended.id(), 0));
        assert_tables_identical(
            &grown,
            &decode_table(&[&image, &record(&grown, 4)[..]].concat()).unwrap(),
        );
        for (what, bytes) in [
            ("no data record", header.to_vec()),
            ("no header", record(&t, 0)),
            ("a second header", [header, &image].concat()),
            ("another table's record", [&image, &record(&other, 0)[..]].concat()),
            ("rows that do not continue", [&image, &record(&grown, 0)[..]].concat()),
            ("a gap in the rows", [&image, &record(&one_more_row(&grown), 5)[..]].concat()),
        ] {
            let outcome = decode_table(&bytes);
            assert!(matches!(outcome, Err(StorageError::Corrupt(_))), "{what}: {outcome:?}");
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
        assert_eq!(manifest.entry(t.id()).unwrap().num_rows, grown.version());
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
        let stale_version = backend.list_manifest().unwrap().entry(t.id()).unwrap().num_rows;
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
        backend
            .atomic_write(&FsBackend::table_file(t.id()), |out| write_whole_file(&t, out))
            .unwrap();
        assert_ne!(t.version(), stale_version);
        let restored = backend.load_table(t.id()).unwrap();
        assert_tables_identical(&t, &restored);
        // The manifest file is still behind; what the backend reports as
        // durable is what it just loaded.
        assert_eq!(backend.read_manifest().unwrap().entry(t.id()).unwrap().num_rows, stale_version);
        assert_eq!(backend.list_manifest().unwrap().entry(t.id()).unwrap().num_rows, t.version());
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
        let c = one_more_row(&b);
        for newest_first in [true, false] {
            let dir = TempDir::new();
            let backend = FsBackend::open(dir.path()).unwrap();
            backend.save_table(&a).unwrap();
            let order = if newest_first { [&c, &b] } else { [&b, &c] };
            let written = order.map(|t| backend.save_table(t).unwrap());
            if newest_first {
                assert_eq!(written[1], 0, "an append-ancestor of what is durable is a no-op");
            }
            assert_eq!(
                backend.list_manifest().unwrap().entry(a.id()).unwrap().num_rows,
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

    /// A clone that appends after the table it was cloned from has is a
    /// table of its own: its save is a whole file under its own id, and
    /// neither load returns the other's rows.
    #[test]
    fn a_diverged_clone_is_saved_as_a_table_of_its_own() {
        let dir = TempDir::new();
        let backend = FsBackend::open(dir.path()).unwrap();
        let mut original = Table::new("t", Schema::of(&[("x", DataType::Int)])).unwrap();
        // Rows enough that the appends below stay appends, not compactions.
        original.push_rows((0..64).map(|x| vec![Value::Int(x)]).collect()).unwrap();
        backend.save_table(&original).unwrap();
        let mut clone = original.clone();
        original.push_rows(vec![vec![Value::Int(100)], vec![Value::Int(101)]]).unwrap();
        backend.save_table(&original).unwrap();
        clone.push_rows((200..203).map(|x| vec![Value::Int(x)]).collect()).unwrap();
        backend.save_table(&clone).unwrap();
        let column = |t: &Table| t.row_ids().map(|r| t.value(r, 0).unwrap()).collect::<Vec<_>>();
        for t in [&original, &clone] {
            let loaded = backend.load_table(t.id()).unwrap();
            assert_eq!(column(&loaded), column(t));
            assert_tables_identical(&loaded, t);
        }
        let written = backend.write_counters();
        assert_eq!((written.snapshot_saves, written.segment_appends), (2, 1));
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
    }

    #[test]
    fn manifest_decode_rejects_corruption() {
        let entry =
            |table_id: u64| ManifestEntry { name: "t".into(), table_id, num_rows: 5, bytes: 128 };
        let manifest = Manifest { entries: vec![entry(3)] };
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
        let twice = Manifest { entries: vec![entry(3), entry(3)] };
        assert!(corrupt(&twice.encode()).contains("twice"));
        let body = &bytes[..bytes.len() - 8];
        assert!(corrupt(&resealed([body, &[0]].concat())).contains("after the last"));
        // A count of two over one entry's bytes: refused by its length,
        // before anything is read or allocated for it.
        let mut counted = body.to_vec();
        counted[8..16].copy_from_slice(&2u64.to_le_bytes());
        assert!(corrupt(&resealed(counted)).contains("length 2 needs 64 bytes"));
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
            m.entries.iter().map(|e| e.table_id).max().unwrap()
        };
        let fresh = Table::new("fresh", Schema::of(&[("x", DataType::Int)])).unwrap();
        assert!(fresh.id() > manifest_max, "open() must advance the identity floor");
    }
}
