//! Typed binary columnar shard store (the `.arda` format).
//!
//! CSV is the repository's interchange surface, but it is *typed-lossy*:
//! it has no timestamp syntax beyond the `@tick` display form and cannot
//! distinguish `Str("7")` from `Int(7)` or `Str("inf")` from a non-finite
//! float. ARDA's join discovery keys on column **types** (timestamp pairs
//! become soft time keys, floats never key), so a storage layer that
//! silently demotes dtypes corrupts the whole downstream plan. This module
//! is the root fix: a dependency-free, length-prefixed binary columnar
//! format that round-trips every [`DataType`] — values, nulls and dtypes —
//! bit-identically, with budget-parallel per-column encode/decode on
//! [`arda_par`].
//!
//! ## Byte-level layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size        field
//! 0       4           magic `b"ARDA"`
//! 4       2           format version  (u16, = 1)
//! 6       2           reserved        (u16, = 0)
//! 8       4           n_cols          (u32)
//! 12      8           n_rows          (u64)
//! 20      —           column directory, n_cols entries:
//!                       name_len (u32) · name (UTF-8 bytes)
//!                       dtype tag (u8: 0=int 1=float 2=str 3=bool 4=timestamp)
//!                       payload_len (u64)
//! ...     —           column payloads, concatenated in column order
//! ```
//!
//! Each column payload starts with a **validity bitmap** of
//! `ceil(n_rows/8)` bytes (bit `i % 8` of byte `i / 8` set ⇔ row `i` is
//! non-null, LSB first), followed by the values:
//!
//! * `int` / `timestamp` — `n_rows` × `i64` (nulls stored as `0`);
//! * `float` — `n_rows` × `f64` bit patterns via [`f64::to_bits`] (exact
//!   for every value including `-0.0`, infinities and NaN payloads);
//! * `bool` — a second `ceil(n_rows/8)` bitmap (nulls stored as `0`);
//! * `str` — `n_rows + 1` × `u64` monotone byte offsets, then the
//!   concatenated UTF-8 blob (`offsets[i]..offsets[i+1]` is row `i`;
//!   nulls are empty ranges).
//!
//! Because every column's payload is length-prefixed in the directory,
//! readers slice the body into independent per-column regions and decode
//! them in parallel on the ambient work budget; writers encode per column
//! in parallel and concatenate. Output bytes and decoded tables are
//! bit-identical at any budget.
//!
//! ## Failure behaviour
//!
//! Decoding never panics on hostile input: bad magic, unsupported
//! versions, truncated directories or payloads, out-of-range or
//! non-monotone string offsets, invalid UTF-8 and dtype tags all surface
//! as [`TableError::Store`]. All size arithmetic is checked before any
//! allocation is sized from untrusted input.

use crate::{Column, ColumnData, DataType, Field, Result, Schema, Table, TableError};
use std::io::{Read, Write};
use std::path::Path;

/// File magic, the first four bytes of every shard.
pub const ARDA_MAGIC: [u8; 4] = *b"ARDA";
/// Current format version.
pub const ARDA_VERSION: u16 = 1;

fn err(msg: impl Into<String>) -> TableError {
    TableError::Store(msg.into())
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
        DataType::Timestamp => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Option<DataType> {
    DataType::all().get(tag as usize).copied()
}

fn bitmap_len(n_rows: usize) -> usize {
    n_rows.div_ceil(8)
}

/// Pack per-row presence flags into an LSB-first bitmap.
fn pack_bitmap(bits: impl ExactSizeIterator<Item = bool>) -> Vec<u8> {
    let mut out = vec![0u8; bitmap_len(bits.len())];
    for (i, set) in bits.enumerate() {
        if set {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn bitmap_get(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn encode_column(col: &Column) -> Vec<u8> {
    fn fixed<T: Copy>(values: &[Option<T>], to_le: impl Fn(T) -> [u8; 8], zero: T) -> Vec<u8> {
        let mut out = pack_bitmap(values.iter().map(Option::is_some));
        out.reserve(values.len() * 8);
        for v in values {
            out.extend_from_slice(&to_le(v.unwrap_or(zero)));
        }
        out
    }
    match col.data() {
        ColumnData::Int(v) | ColumnData::Timestamp(v) => fixed(v, i64::to_le_bytes, 0),
        ColumnData::Float(v) => fixed(v, |x: f64| x.to_bits().to_le_bytes(), 0.0),
        ColumnData::Bool(v) => {
            let mut out = pack_bitmap(v.iter().map(Option::is_some));
            out.extend_from_slice(&pack_bitmap(v.iter().map(|b| b.unwrap_or(false))));
            out
        }
        ColumnData::Str(v) => {
            let mut out = pack_bitmap(v.iter().map(Option::is_some));
            let blob_len: usize = v.iter().flatten().map(String::len).sum();
            out.reserve((v.len() + 1) * 8 + blob_len);
            let mut off = 0u64;
            out.extend_from_slice(&off.to_le_bytes());
            for s in v {
                off += s.as_deref().map_or(0, str::len) as u64;
                out.extend_from_slice(&off.to_le_bytes());
            }
            for s in v.iter().flatten() {
                out.extend_from_slice(s.as_bytes());
            }
            out
        }
    }
}

/// Serialize `table` into the version-1 shard format. Columns encode in
/// parallel on the ambient work budget; the byte stream is identical at
/// any budget (payloads are written in column order).
pub fn write_arda(table: &Table, mut out: impl Write) -> Result<()> {
    let io_err = |e: std::io::Error| err(format!("write failed: {e}"));
    let payloads: Vec<Vec<u8>> = arda_par::par_map(table.columns(), |_, c| encode_column(c));

    out.write_all(&ARDA_MAGIC).map_err(io_err)?;
    out.write_all(&ARDA_VERSION.to_le_bytes()).map_err(io_err)?;
    out.write_all(&0u16.to_le_bytes()).map_err(io_err)?;
    let n_cols = u32::try_from(table.n_cols()).map_err(|_| {
        err(format!(
            "{} columns exceed the u32 directory",
            table.n_cols()
        ))
    })?;
    out.write_all(&n_cols.to_le_bytes()).map_err(io_err)?;
    out.write_all(&(table.n_rows() as u64).to_le_bytes())
        .map_err(io_err)?;
    for (col, payload) in table.columns().iter().zip(&payloads) {
        let name = col.name().as_bytes();
        let name_len = u32::try_from(name.len())
            .map_err(|_| err(format!("column name of {} bytes too long", name.len())))?;
        out.write_all(&name_len.to_le_bytes()).map_err(io_err)?;
        out.write_all(name).map_err(io_err)?;
        out.write_all(&[dtype_tag(col.dtype())]).map_err(io_err)?;
        out.write_all(&(payload.len() as u64).to_le_bytes())
            .map_err(io_err)?;
    }
    for payload in &payloads {
        out.write_all(payload).map_err(io_err)?;
    }
    Ok(())
}

/// [`write_arda`] into a file at `path`.
pub(crate) fn write_arda_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path)
        .map_err(|e| err(format!("cannot create {}: {e}", path.display())))?;
    let mut buf = std::io::BufWriter::new(file);
    write_arda(table, &mut buf)?;
    buf.flush()
        .map_err(|e| err(format!("cannot flush {}: {e}", path.display())))
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// A shard's decoded directory: schema and row count, read without
/// touching any payload bytes. This is the manifest/catalog primitive —
/// on a file it reads only the header region.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardHeader {
    /// Column names and dtypes, in column order.
    pub schema: Schema,
    /// Number of rows in every column.
    pub n_rows: usize,
    /// Per-column payload byte lengths (directory order).
    payload_lens: Vec<usize>,
    /// Byte length of the header itself (payloads start here).
    header_len: usize,
}

/// Incrementally pull exact byte counts out of a reader, tracking the
/// running offset so truncation errors can say where.
struct HeaderReader<R: Read> {
    inner: R,
    offset: usize,
}

impl<R: Read> HeaderReader<R> {
    fn take(&mut self, n: usize, what: &str) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; n];
        self.inner.read_exact(&mut buf).map_err(|_| {
            err(format!(
                "truncated header: {what} at byte {} needs {n} more bytes",
                self.offset
            ))
        })?;
        self.offset += n;
        Ok(buf)
    }

    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Parse the magic, version, counts and column directory from `reader`.
/// `source_size` (the byte length of the slice or file being decoded)
/// bounds every directory-claimed length, so hostile headers cannot size
/// an allocation beyond the input that claims it.
fn parse_header<R: Read>(reader: R, source_size: u64) -> Result<ShardHeader> {
    let mut r = HeaderReader {
        inner: reader,
        offset: 0,
    };
    let magic = r.take(4, "magic")?;
    if magic != ARDA_MAGIC {
        return Err(err(format!("bad magic {magic:02x?}, expected \"ARDA\"")));
    }
    let version = u16::from_le_bytes(r.take(2, "version")?.try_into().expect("2 bytes"));
    if version != ARDA_VERSION {
        return Err(err(format!(
            "unsupported format version {version} (reader supports {ARDA_VERSION})"
        )));
    }
    r.take(2, "reserved")?;
    let n_cols = r.u32("n_cols")? as usize;
    let n_rows_raw = r.u64("n_rows")?;
    let n_rows = usize::try_from(n_rows_raw)
        .map_err(|_| err(format!("n_rows {n_rows_raw} exceeds addressable memory")))?;
    let bound = source_size;
    // Each directory entry costs ≥ 13 bytes; a hostile n_cols is rejected
    // before any per-column allocation.
    if (n_cols as u64).saturating_mul(13) > bound {
        return Err(err(format!(
            "directory claims {n_cols} columns, file too small"
        )));
    }
    let mut fields = Vec::with_capacity(n_cols);
    let mut payload_lens = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let name_len = r.u32(&format!("column {c} name length"))? as usize;
        if name_len as u64 > bound {
            return Err(err(format!(
                "column {c} claims a {name_len}-byte name, file too small"
            )));
        }
        let name = String::from_utf8(r.take(name_len, &format!("column {c} name"))?)
            .map_err(|_| err(format!("column {c} name is not valid UTF-8")))?;
        let tag = r.take(1, &format!("column {c} dtype"))?[0];
        let dtype = dtype_from_tag(tag)
            .ok_or_else(|| err(format!("column {c} ({name}) has unknown dtype tag {tag}")))?;
        let payload_len_raw = r.u64(&format!("column {c} payload length"))?;
        if payload_len_raw > bound {
            return Err(err(format!(
                "column {c} ({name}) claims a {payload_len_raw}-byte payload, file too small"
            )));
        }
        let payload_len = usize::try_from(payload_len_raw)
            .map_err(|_| err(format!("column {c} payload length overflows usize")))?;
        fields.push(Field::new(name, dtype));
        payload_lens.push(payload_len);
    }
    let schema = Schema::new(fields).map_err(|e| err(format!("invalid shard schema: {e}")))?;
    Ok(ShardHeader {
        schema,
        n_rows,
        payload_lens,
        header_len: r.offset,
    })
}

/// Read only a shard file's header: schema and row count. Never reads
/// payload bytes, so it is cheap even on multi-gigabyte shards. Errors do
/// not name the file; the repository adds the path.
pub(crate) fn read_arda_header(path: impl AsRef<Path>) -> Result<ShardHeader> {
    let file = std::fs::File::open(path).map_err(|e| err(format!("cannot open: {e}")))?;
    // The size bound is load-bearing (it caps every directory-claimed
    // allocation), so an unreadable size is an error, not an unbounded
    // parse.
    let size = file
        .metadata()
        .map_err(|e| err(format!("cannot stat: {e}")))?
        .len();
    parse_header(std::io::BufReader::new(file), size)
}

/// Expected payload byte length for a fixed-width column, with checked
/// arithmetic (an attacker-controlled `n_rows` must not wrap).
fn expect_len(n_rows: usize, per_row: usize, extra: usize) -> Result<usize> {
    n_rows
        .checked_mul(per_row)
        .and_then(|v| v.checked_add(extra))
        .ok_or_else(|| err(format!("payload size for {n_rows} rows overflows")))
}

fn decode_column(name: &str, dtype: DataType, n_rows: usize, bytes: &[u8]) -> Result<Column> {
    let ctx = |msg: String| err(format!("column {name}: {msg}"));
    let bm = bitmap_len(n_rows);
    let fixed_expected = expect_len(n_rows, 8, bm)?;
    let check = |expected: usize| -> Result<()> {
        if bytes.len() != expected {
            return Err(ctx(format!(
                "payload is {} bytes, expected {expected} for {n_rows} rows of {dtype}",
                bytes.len()
            )));
        }
        Ok(())
    };
    let read_i64 = |chunk: &[u8]| i64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    let data = match dtype {
        DataType::Int | DataType::Timestamp => {
            check(fixed_expected)?;
            let (bitmap, body) = bytes.split_at(bm);
            let v: Vec<Option<i64>> = body
                .chunks_exact(8)
                .enumerate()
                .map(|(i, c)| bitmap_get(bitmap, i).then(|| read_i64(c)))
                .collect();
            if dtype == DataType::Int {
                ColumnData::Int(v)
            } else {
                ColumnData::Timestamp(v)
            }
        }
        DataType::Float => {
            check(fixed_expected)?;
            let (bitmap, body) = bytes.split_at(bm);
            ColumnData::Float(
                body.chunks_exact(8)
                    .enumerate()
                    .map(|(i, c)| {
                        bitmap_get(bitmap, i).then(|| {
                            f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")))
                        })
                    })
                    .collect(),
            )
        }
        DataType::Bool => {
            check(bm.checked_mul(2).ok_or_else(|| err("bitmap overflows"))?)?;
            let (bitmap, body) = bytes.split_at(bm);
            ColumnData::Bool(
                (0..n_rows)
                    .map(|i| bitmap_get(bitmap, i).then(|| bitmap_get(body, i)))
                    .collect(),
            )
        }
        DataType::Str => {
            let offsets_len = expect_len(n_rows + 1, 8, 0)?;
            let min = bm
                .checked_add(offsets_len)
                .ok_or_else(|| err("offset table overflows"))?;
            if bytes.len() < min {
                return Err(ctx(format!(
                    "payload is {} bytes, needs at least {min} for the string offset table",
                    bytes.len()
                )));
            }
            let (bitmap, rest) = bytes.split_at(bm);
            let (offset_bytes, blob) = rest.split_at(offsets_len);
            let offsets: Vec<u64> = offset_bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            if offsets[0] != 0 {
                return Err(ctx(format!(
                    "string offsets must start at 0, got {}",
                    offsets[0]
                )));
            }
            if offsets.windows(2).any(|w| w[1] < w[0]) {
                return Err(ctx("string offsets are not monotone".into()));
            }
            if offsets[n_rows] != blob.len() as u64 {
                return Err(ctx(format!(
                    "string blob is {} bytes but offsets end at {}",
                    blob.len(),
                    offsets[n_rows]
                )));
            }
            ColumnData::Str(
                (0..n_rows)
                    .map(|i| {
                        if !bitmap_get(bitmap, i) {
                            return Ok(None);
                        }
                        let s = &blob[offsets[i] as usize..offsets[i + 1] as usize];
                        std::str::from_utf8(s)
                            .map(|s| Some(s.to_string()))
                            .map_err(|_| ctx(format!("row {i} is not valid UTF-8")))
                    })
                    .collect::<Result<_>>()?,
            )
        }
    };
    Ok(Column::new(name, data))
}

/// Decode a shard from an in-memory byte slice. Per-column payloads are
/// independent regions, so they decode in parallel on the ambient work
/// budget; the resulting [`Table`] is bit-identical at any budget.
pub fn read_arda_bytes(name: &str, bytes: &[u8]) -> Result<Table> {
    let header = parse_header(bytes, bytes.len() as u64)?;
    let body = &bytes[header.header_len..];
    let total: usize = header
        .payload_lens
        .iter()
        .try_fold(0usize, |acc, &l| acc.checked_add(l))
        .ok_or_else(|| err("payload lengths overflow"))?;
    if body.len() != total {
        return Err(err(format!(
            "body is {} bytes but the directory claims {total}",
            body.len()
        )));
    }
    let mut regions = Vec::with_capacity(header.schema.len());
    let mut offset = 0usize;
    for (field, &len) in header.schema.fields().iter().zip(&header.payload_lens) {
        regions.push((field.clone(), &body[offset..offset + len]));
        offset += len;
    }
    let columns = arda_par::par_map(&regions, |_, (field, slice)| {
        decode_column(&field.name, field.dtype, header.n_rows, slice)
    })
    .into_iter()
    .collect::<Result<Vec<Column>>>()?;
    Table::new(name, columns)
}

/// Read a shard file; the table is named after the file stem, exactly
/// like [`crate::read_csv`]. Errors do not name the file; the repository
/// adds the path.
pub(crate) fn read_arda(path: impl AsRef<Path>) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string();
    let bytes = std::fs::read(path).map_err(|e| err(format!("cannot read: {e}")))?;
    read_arda_bytes(&name, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample() -> Table {
        Table::new(
            "s",
            vec![
                Column::from_i64_opt("id", vec![Some(1), None, Some(-3)]),
                Column::from_f64_opt("x", vec![Some(-0.0), Some(f64::NAN), None]),
                Column::from_str_opt(
                    "s",
                    vec![Some("a,\"b\"\nc".into()), None, Some("日🦀".into())],
                ),
                Column::new(
                    "flag",
                    ColumnData::Bool(vec![Some(true), Some(false), None]),
                ),
                Column::new(
                    "ts",
                    ColumnData::Timestamp(vec![Some(86_400), None, Some(-5)]),
                ),
            ],
        )
        .unwrap()
    }

    fn to_bytes(t: &Table) -> Vec<u8> {
        let mut buf = Vec::new();
        write_arda(t, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_all_dtypes_exactly() {
        let t = sample();
        let back = read_arda_bytes("s", &to_bytes(&t)).unwrap();
        // Bit-exact: NaN payloads and -0.0 survive via to_bits, dtypes are
        // preserved (the fix CSV cannot provide), nulls keep their mask.
        for (a, b) in t.columns().iter().zip(back.columns()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.dtype(), b.dtype());
        }
        let nan = back.column("x").unwrap().get_f64(1).unwrap();
        assert!(nan.is_nan());
        assert_eq!(
            back.column("x").unwrap().get_f64(0).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.column("ts").unwrap().dtype(), DataType::Timestamp);
        assert_eq!(back.column("ts").unwrap().get(0), Value::Timestamp(86_400));
        assert_eq!(
            back.column("s").unwrap().get(0),
            Value::Str("a,\"b\"\nc".into())
        );
        assert_eq!(back.column("id").unwrap().get(1), Value::Null);
        assert_eq!(back.n_rows(), 3);
    }

    #[test]
    fn empty_tables_round_trip() {
        let zero_rows = Table::new(
            "z",
            vec![Column::from_i64("a", vec![]), Column::from_str("b", vec![])],
        )
        .unwrap();
        let back = read_arda_bytes("z", &to_bytes(&zero_rows)).unwrap();
        assert_eq!(back, zero_rows);
        let zero_cols = Table::empty("e");
        let back = read_arda_bytes("e", &to_bytes(&zero_cols)).unwrap();
        assert_eq!(back.n_cols(), 0);
        assert_eq!(back.n_rows(), 0);
    }

    #[test]
    fn header_scan_reads_schema_without_payload() {
        let t = sample();
        let dir = std::env::temp_dir().join(format!("arda_store_hdr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.arda");
        write_arda_file(&t, &path).unwrap();
        let header = read_arda_header(&path).unwrap();
        assert_eq!(header.n_rows, 3);
        assert_eq!(header.schema, t.schema());
        let back = read_arda(&path).unwrap();
        // NaN defeats PartialEq; re-encoding both proves bit-identity.
        assert_eq!(to_bytes(&back), to_bytes(&t));
        assert_eq!(back.name(), "s", "named after the file stem");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_version_and_tag_are_errors() {
        let good = to_bytes(&sample());
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_arda_bytes("t", &bad).unwrap_err(),
            TableError::Store(_)
        ));
        let mut bad = good.clone();
        bad[4] = 99; // version
        let msg = read_arda_bytes("t", &bad).unwrap_err().to_string();
        assert!(msg.contains("version"), "{msg}");
        // Corrupt the first column's dtype tag: directory entry starts at
        // 20, tag sits after name_len(4) + name("id" = 2).
        let mut bad = good;
        bad[26] = 250;
        let msg = read_arda_bytes("t", &bad).unwrap_err().to_string();
        assert!(msg.contains("dtype tag"), "{msg}");
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            match read_arda_bytes("t", &bytes[..cut]) {
                Err(TableError::Store(_)) => {}
                Err(other) => panic!("cut at {cut}: unexpected error kind {other}"),
                Ok(_) => panic!("cut at {cut}: truncated shard decoded"),
            }
        }
        assert!(read_arda_bytes("t", &bytes).is_ok());
    }

    #[test]
    fn corrupt_string_offsets_are_errors() {
        let t = Table::new("t", vec![Column::from_str("s", vec!["ab", "cd"])]).unwrap();
        let bytes = to_bytes(&t);
        // Payload of column 0 starts right after the header; bitmap is 1
        // byte, then 3 u64 offsets [0, 2, 4], then the 4-byte blob.
        let header_len = parse_header(&bytes[..], bytes.len() as u64)
            .unwrap()
            .header_len;
        let off0 = header_len + 1;
        let mut bad = bytes.clone();
        bad[off0] = 1; // offsets[0] != 0
        assert!(read_arda_bytes("t", &bad)
            .unwrap_err()
            .to_string()
            .contains("start at 0"));
        let mut bad = bytes.clone();
        bad[off0 + 8] = 9; // offsets[1] > offsets[2]: not monotone
        assert!(read_arda_bytes("t", &bad)
            .unwrap_err()
            .to_string()
            .contains("monotone"));
        let mut bad = bytes.clone();
        bad[off0 + 16] = 3; // offsets[n] != blob length
        assert!(read_arda_bytes("t", &bad)
            .unwrap_err()
            .to_string()
            .contains("blob"));
        let mut bad = bytes;
        bad[off0 + 24] = 0xFF; // blob byte: invalid UTF-8
        assert!(read_arda_bytes("t", &bad)
            .unwrap_err()
            .to_string()
            .contains("UTF-8"));
    }

    /// A header claiming astronomically many rows or columns errors out
    /// before any allocation is sized from the claim.
    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        let mut bytes = to_bytes(&sample());
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes()); // n_rows
        let msg = read_arda_bytes("t", &bytes).unwrap_err().to_string();
        assert!(
            msg.contains("expected") || msg.contains("overflow"),
            "{msg}"
        );

        let mut bytes = to_bytes(&sample());
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // n_cols
        let msg = read_arda_bytes("t", &bytes).unwrap_err().to_string();
        assert!(msg.contains("columns"), "{msg}");
    }
}
