//! CSV ingestion with type inference.
//!
//! ARDA's inputs are *repositories* of heterogeneous tables fed by a
//! discovery system (§2, Figure 1); CSV is the lingua franca. This module
//! implements an RFC-4180 reader plus per-column type inference with the
//! priority `Timestamp(@tick) → Int → finite Float → Bool → Str`; empty
//! fields become nulls.
//!
//! ## One read, one parse
//!
//! [`read_csv`] reads the file into memory once, as an `.arda` shard read
//! does ([`crate::store`]), and [`read_csv_str`] parses the text on the
//! calling thread in two passes over its records:
//!
//! 1. **Infer** — a quote-aware scan splits the text into records.
//!    Records terminate only at newlines *outside* quoted fields, which is
//!    what makes embedded `\n` / `\r\n` inside quoted cells parse
//!    correctly (RFC 4180 §2.6) instead of erroring as ragged rows. Each
//!    data record widens its columns' [`Inferred`] types with [`unify`]
//!    (`Int ∪ Float → Float`, anything else mixed → `Str`); the first
//!    ragged record is an error naming its row.
//! 2. **Build** — a second scan materializes *typed* columnar builders
//!    directly (no intermediate per-cell `String` table).
//!
//! A read holds the file's text while the columns are built. The reader
//! never spawns: a repository is many small shards, and the parallelism
//! sits one level up, where discovery mines (and so loads) shards side by
//! side.
//!
//! ## Semantics
//!
//! * The first record is the header; duplicate names are rejected by
//!   [`Table::new`].
//! * An empty record (blank line) is a full-width row of nulls.
//! * A record's trailing `\r` (the `\r\n` terminator) is stripped; a bare
//!   `\r` *inside* a field is data and [`write_csv`] quotes it (a field
//!   ending in `\r` would otherwise be silently truncated on read-back).
//! * Writing always round-trips: quoted fields escape `"` as `""` and are
//!   emitted for any field containing `,`, `"`, `\n` or `\r`.
//! * `Timestamp` columns write as `@<tick>` and read back as `Timestamp`
//!   (a column must be *all* `@tick`-or-null to infer as `Timestamp`;
//!   mixed with anything else it is text).
//!
//! ## Type-surface limits (use the binary [`crate::store`] format instead)
//!
//! CSV text cannot distinguish `Str("7")` from `Int(7)`, `Str("@5")` from
//! `Timestamp(5)`, or `Str("inf")` from `Float(∞)`. Inference resolves the
//! first two in favour of the typed reading, and the third in favour of
//! `Str`: Float inference admits **finite** literals only, so non-finite
//! values in a Float column degrade to a `Str` column of `inf`/`NaN`
//! tokens on re-read (previously such *text* columns silently became
//! non-finite Float columns that poison k-NN/Relief distances). The
//! `.arda` binary shard format round-trips all five dtypes bit-exactly
//! and is the right store for anything that must survive persistence.

use crate::{Column, ColumnData, Result, Table, TableError};
use std::io::BufRead;
use std::path::Path;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Inferred {
    Int,
    Float,
    Bool,
    Str,
    Timestamp,
}

/// Per-cell type inference with the priority
/// `Timestamp(@tick) → Int → finite Float → Bool → Str`.
///
/// * `@<i64>` is the [`crate::Value::Timestamp`] display form, so a column
///   [`write_csv`] emitted from a Timestamp column reads back as
///   `Timestamp` — the CSV leg of the PR 5 round-trip bugfix (previously
///   such columns silently degraded to `Str`).
/// * Float inference accepts **finite** literals only: tokens like
///   `inf` / `-inf` / `NaN` / `Infinity` / `1e999` stay `Str`. Otherwise an
///   all-text column of such tokens became a Float column of non-finite
///   values that poison k-NN/Relief distances downstream. The trade-off
///   (documented in the module docs) is that non-finite values in a real
///   Float column do not survive a CSV round-trip — use the binary
///   [`crate::store`] format, which round-trips every bit pattern.
fn infer_one(s: &str) -> Inferred {
    if let Some(tick) = s.strip_prefix('@') {
        if tick.parse::<i64>().is_ok() {
            return Inferred::Timestamp;
        }
    }
    if s.parse::<i64>().is_ok() {
        Inferred::Int
    } else if s.parse::<f64>().is_ok_and(f64::is_finite) {
        Inferred::Float
    } else if matches!(s, "true" | "false" | "TRUE" | "FALSE" | "True" | "False") {
        Inferred::Bool
    } else {
        Inferred::Str
    }
}

/// Widen `a` to cover `b`. `Timestamp` only unifies with itself — `@tick`
/// mixed with anything else is text.
fn unify(a: Inferred, b: Inferred) -> Inferred {
    use Inferred::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int, Float) | (Float, Int) => Float,
        _ => Str,
    }
}

// ---------------------------------------------------------------------------
// Record-level parsing
// ---------------------------------------------------------------------------

/// Parse one raw record (which may contain newlines inside quoted fields)
/// into fields, calling `f(field_index, text)` per unescaped field.
/// Returns the field count.
///
/// Quote handling is deliberately lenient, matching the original reader: a
/// quote toggles quoted mode wherever it appears, `""` inside quotes is a
/// literal `"`.
fn for_each_field(record: &str, mut f: impl FnMut(usize, &str)) -> usize {
    let mut cur = String::new();
    let mut idx = 0usize;
    let mut chars = record.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                f(idx, &cur);
                idx += 1;
                cur.clear();
            }
            c => cur.push(c),
        }
    }
    f(idx, &cur);
    idx + 1
}

/// The records of `text` in order, each without its `\n` terminator and
/// one trailing `\r`; a final unterminated record (EOF without a newline)
/// is included. Quote *parity* decides which newlines terminate records,
/// which is equivalent to the field parser's toggling for `""` escapes.
///
/// A lone `\r` after the last terminator is the `\r` of a `\r\n`-style
/// trailing empty line (the original parser stripped it to an empty last
/// line and popped it), so it is not a record.
fn records(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = text;
    std::iter::from_fn(move || {
        if rest.is_empty() || rest == "\r" {
            return None;
        }
        let mut in_quotes = false;
        let end = rest.bytes().position(|b| {
            in_quotes ^= b == b'"';
            b == b'\n' && !in_quotes
        });
        let (record, next) = match end {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        rest = next;
        Some(record.strip_suffix('\r').unwrap_or(record))
    })
}

/// The column names, parsed from the first record of `text`.
fn header(text: &str) -> Result<Vec<String>> {
    let Some(record) = records(text).next() else {
        return Err(TableError::Csv("empty input".into()));
    };
    if record.trim().is_empty() {
        return Err(TableError::Csv("empty header".into()));
    }
    let mut names = Vec::new();
    for_each_field(record, |_, s| names.push(s.to_string()));
    Ok(names)
}

fn ragged(record: usize, got: usize, width: usize) -> TableError {
    // Data record r (header = record 0) is "row r + 1" in the 1-based
    // message convention the original reader used.
    TableError::Csv(format!(
        "row {} has {} fields, expected {width}",
        record + 1,
        got
    ))
}

// ---------------------------------------------------------------------------
// Type inference
// ---------------------------------------------------------------------------

/// Infer per-column types (`Str` for a column of nulls) and count the data
/// records, `(record index, text)` with the header as record 0.
fn infer<'a>(
    data: impl Iterator<Item = (usize, &'a str)>,
    width: usize,
) -> Result<(Vec<Inferred>, usize)> {
    let mut types: Vec<Option<Inferred>> = vec![None; width];
    let mut rows = 0usize;
    for (record, rec) in data {
        rows += 1;
        if rec.is_empty() {
            continue; // full-width null row
        }
        let n = for_each_field(rec, |c, field| {
            if c < width && !field.is_empty() {
                let t = infer_one(field);
                types[c] = Some(match types[c] {
                    None => t,
                    Some(prev) => unify(prev, t),
                });
            }
        });
        if n != width {
            return Err(ragged(record, n, width));
        }
    }
    let types = types
        .into_iter()
        .map(|t| t.unwrap_or(Inferred::Str))
        .collect();
    Ok((types, rows))
}

// ---------------------------------------------------------------------------
// Typed columnar build
// ---------------------------------------------------------------------------

fn new_builder(t: Inferred, capacity: usize) -> ColumnData {
    match t {
        Inferred::Int => ColumnData::Int(Vec::with_capacity(capacity)),
        Inferred::Float => ColumnData::Float(Vec::with_capacity(capacity)),
        Inferred::Bool => ColumnData::Bool(Vec::with_capacity(capacity)),
        Inferred::Str => ColumnData::Str(Vec::with_capacity(capacity)),
        Inferred::Timestamp => ColumnData::Timestamp(Vec::with_capacity(capacity)),
    }
}

fn push_null(data: &mut ColumnData) {
    match data {
        ColumnData::Int(v) | ColumnData::Timestamp(v) => v.push(None),
        ColumnData::Float(v) => v.push(None),
        ColumnData::Str(v) => v.push(None),
        ColumnData::Bool(v) => v.push(None),
    }
}

/// Parse `field` into the builder's type. Inference saw the same text and
/// proved every non-null cell parses, so an error here is a reader bug,
/// reported instead of a panic.
fn push_field(data: &mut ColumnData, field: &str) -> Result<()> {
    if field.is_empty() {
        push_null(data);
        return Ok(());
    }
    let dtype = data.dtype();
    let bad = || TableError::Csv(format!("cell {field:?} does not parse as inferred {dtype}"));
    match data {
        ColumnData::Int(v) => v.push(Some(field.parse::<i64>().map_err(|_| bad())?)),
        ColumnData::Timestamp(v) => {
            let tick = field.strip_prefix('@').ok_or_else(bad)?;
            v.push(Some(tick.parse::<i64>().map_err(|_| bad())?))
        }
        ColumnData::Float(v) => {
            let x = field.parse::<f64>().map_err(|_| bad())?;
            if !x.is_finite() {
                return Err(bad());
            }
            v.push(Some(x))
        }
        ColumnData::Bool(v) => match field {
            "true" | "TRUE" | "True" => v.push(Some(true)),
            "false" | "FALSE" | "False" => v.push(Some(false)),
            _ => return Err(bad()),
        },
        ColumnData::Str(v) => v.push(Some(field.to_string())),
    }
    Ok(())
}

/// Materialize the data records into typed columns. Inference already
/// rejected ragged rows.
fn build<'a>(
    data: impl Iterator<Item = &'a str>,
    types: &[Inferred],
    n_rows: usize,
) -> Result<Vec<ColumnData>> {
    let mut cols: Vec<ColumnData> = types.iter().map(|&t| new_builder(t, n_rows)).collect();
    for rec in data {
        if rec.is_empty() {
            cols.iter_mut().for_each(push_null);
            continue;
        }
        let mut res = Ok(());
        for_each_field(rec, |c, field| {
            if res.is_ok() {
                res = push_field(&mut cols[c], field);
            }
        });
        res?;
    }
    Ok(cols)
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Read a table from CSV text. The first record is the header; an empty
/// record is a row of nulls; quoted fields may span lines.
pub fn read_csv_str(name: &str, text: &str) -> Result<Table> {
    let names = header(text)?;
    let (types, n_rows) = infer(records(text).enumerate().skip(1), names.len())?;
    let columns = build(records(text).skip(1), &types, n_rows)?;
    let columns: Vec<Column> = names
        .into_iter()
        .zip(columns)
        .map(|(n, data)| Column::new(n, data))
        .collect();
    Table::new(name, columns)
}

fn not_utf8() -> TableError {
    TableError::Csv("input is not valid UTF-8".into())
}

/// Read a table from a CSV file; the table is named after the file stem.
/// The file is read into memory once and parsed by [`read_csv_str`].
pub fn read_csv(path: impl AsRef<Path>) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string();
    let bytes = std::fs::read(path).map_err(|e| TableError::Csv(e.to_string()))?;
    let text = String::from_utf8(bytes).map_err(|_| not_utf8())?;
    read_csv_str(&name, &text)
}

/// Read only the header record of a CSV file: the column names, in order.
/// This is the manifest-scan primitive behind directory-sharded
/// repositories: it reads whole lines until the header's quotes close,
/// never the rest of the file.
pub(crate) fn read_csv_header(path: impl AsRef<Path>) -> Result<Vec<String>> {
    let io_err = |e: std::io::Error| TableError::Csv(e.to_string());
    let mut reader = std::io::BufReader::new(std::fs::File::open(path.as_ref()).map_err(io_err)?);
    let mut bytes = Vec::new();
    let mut in_quotes = false;
    loop {
        let before = bytes.len();
        if reader.read_until(b'\n', &mut bytes).map_err(io_err)? == 0 {
            break;
        }
        in_quotes ^= bytes[before..].iter().filter(|&&b| b == b'"').count() % 2 == 1;
        if !in_quotes {
            break;
        }
    }
    let text = String::from_utf8(bytes).map_err(|_| not_utf8())?;
    header(&text)
}

fn escape(field: &str) -> String {
    // `\r` must be quoted too: an unquoted field ending in `\r` would be
    // read back with the `\r\n`-terminator stripping applied — silent data
    // corruption rather than an error.
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Write a table as CSV (nulls become empty fields). Output always
/// round-trips through [`read_csv_str`].
pub fn write_csv(table: &Table, mut out: impl std::io::Write) -> Result<()> {
    let io_err = |e: std::io::Error| TableError::Csv(e.to_string());
    let header: Vec<String> = table.columns().iter().map(|c| escape(c.name())).collect();
    writeln!(out, "{}", header.join(",")).map_err(io_err)?;
    for i in 0..table.n_rows() {
        let row: Vec<String> = table
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(i);
                if v.is_null() {
                    String::new()
                } else {
                    escape(&v.to_string())
                }
            })
            .collect();
        writeln!(out, "{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Value};

    #[test]
    fn parses_types_and_nulls() {
        let t = read_csv_str("t", "id,price,name,flag\n1,2.5,apple,true\n2,,pear,false\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column("id").unwrap().dtype(), DataType::Int);
        assert_eq!(t.column("price").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("name").unwrap().dtype(), DataType::Str);
        assert_eq!(t.column("flag").unwrap().dtype(), DataType::Bool);
        assert!(t.column("price").unwrap().get(1).is_null());
    }

    #[test]
    fn int_widens_to_float() {
        let t = read_csv_str("t", "x\n1\n2.5\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("x").unwrap().get_f64(0), Some(1.0));
    }

    #[test]
    fn mixed_becomes_string() {
        let t = read_csv_str("t", "x\n1\nhello\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn quoted_fields() {
        let t = read_csv_str("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.column("a").unwrap().get(0), Value::Str("x,y".into()));
        assert_eq!(
            t.column("b").unwrap().get(0),
            Value::Str("he said \"hi\"".into())
        );
        // Multi-byte UTF-8, quoted and bare.
        let t = read_csv_str("t", "u,v\nαβ,\"日🦀\"\né,🦀\n").unwrap();
        let u: Vec<Value> = t.column("u").unwrap().iter().collect();
        let v: Vec<Value> = t.column("v").unwrap().iter().collect();
        assert_eq!(u, [Value::Str("αβ".into()), Value::Str("é".into())]);
        assert_eq!(v, [Value::Str("日🦀".into()), Value::Str("🦀".into())]);
    }

    #[test]
    fn ragged_rows_error() {
        assert!(read_csv_str("t", "a,b\n1\n").is_err());
        assert!(read_csv_str("t", "").is_err());
    }

    #[test]
    fn ragged_error_reports_earliest_row() {
        let err = read_csv_str("t", "a,b\n1,2\n3\n4,5\n6\n").unwrap_err();
        assert_eq!(err.to_string(), "csv error: row 3 has 1 fields, expected 2");
        // A ragged last record is found after every well-formed one.
        let err = read_csv_str("t", "a,b\n1,2\n3,4\n5,6\n7,8\n9\n").unwrap_err();
        assert_eq!(err.to_string(), "csv error: row 6 has 1 fields, expected 2");
    }

    #[test]
    fn round_trip() {
        let t = read_csv_str("t", "id,name\n1,apple\n2,\n").unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv_str("t", std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert!(back.column("name").unwrap().get(1).is_null());
        assert_eq!(back.column("id").unwrap().get(0), Value::Int(1));
    }

    #[test]
    fn write_escapes_commas() {
        let t = Table::new("t", vec![Column::from_str("s", vec!["a,b"])]).unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("\"a,b\""));
    }

    #[test]
    fn file_round_trip() {
        let t = read_csv_str("t", "a\n1\n2\n").unwrap();
        let dir = std::env::temp_dir().join("arda_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.csv");
        let f = std::fs::File::create(&path).unwrap();
        write_csv(&t, f).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.name(), "small");
        assert_eq!(back.n_rows(), 2);
    }

    // ---- PR 4 regression tests -------------------------------------------

    /// Bugfix: quoted fields containing newlines round-trip. The previous
    /// reader split on `\n` *before* quote handling, so reading back what
    /// `write_csv` produced errored with a ragged-row message.
    #[test]
    fn embedded_newlines_round_trip() {
        let t = Table::new(
            "t",
            vec![
                Column::from_str("s", vec!["a\nb", "c\r\nd", "e,f", "plain"]),
                Column::from_i64("k", vec![1, 2, 3, 4]),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv_str("t", std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back.n_rows(), 4);
        assert_eq!(back.column("s").unwrap().get(0), Value::Str("a\nb".into()));
        assert_eq!(
            back.column("s").unwrap().get(1),
            Value::Str("c\r\nd".into())
        );
        assert_eq!(back.column("s").unwrap().get(2), Value::Str("e,f".into()));
        assert_eq!(back.column("k").unwrap().get(3), Value::Int(4));

        // Hand-written: `\n` and `\r\n` inside quotes, a quoted empty
        // field (null), an escaped quote and a CRLF-terminated last record
        // with a trailing null.
        let t = read_csv_str("t", "a,note\n1,\"x\ny\"\n2,\"p\r\nq\"\n3,\"\"\n").unwrap();
        let note: Vec<Value> = t.column("note").unwrap().iter().collect();
        let x_y = Value::Str("x\ny".into());
        assert_eq!(note, [x_y, Value::Str("p\r\nq".into()), Value::Null]);
        assert_eq!(t.column("a").unwrap().dtype(), DataType::Int);
        let text = "name,x,note\nαβγ,1,\"line one\nline two\"\nplain,2,\"q\"\"uote\"\nlast,3,\r\n";
        let t = read_csv_str("t", text).unwrap();
        let note: Vec<Value> = t.column("note").unwrap().iter().collect();
        let lines = Value::Str("line one\nline two".into());
        assert_eq!(note, [lines, Value::Str("q\"uote".into()), Value::Null]);
        assert_eq!(t.column("name").unwrap().get(0), Value::Str("αβγ".into()));
    }

    /// Bugfix: an interior blank line is a full-width record of nulls, as
    /// the doc always promised — previously any table wider than one
    /// column errored on it.
    #[test]
    fn blank_interior_line_is_null_record() {
        let t = read_csv_str("t", "a,b,c\n1,x,true\n\n2,y,false\n").unwrap();
        assert_eq!(t.n_rows(), 3);
        for col in ["a", "b", "c"] {
            assert!(
                t.column(col).unwrap().get(1).is_null(),
                "blank line nulls column {col}"
            );
        }
        assert_eq!(t.column("a").unwrap().get(2), Value::Int(2));
        // A blank *final* line before the trailing newline counts too.
        let t = read_csv_str("t", "a,b\n1,2\n\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert!(t.column("a").unwrap().get(1).is_null());
        // So does a blank line after a quoted field, and a blank CRLF line.
        for (text, first, last) in [
            ("a,b\n1,\"q\"\"q\"\n\n2,z\n", "q\"q", "z"),
            ("a,b\r\n1,x\r\n\r\n2,y\r\n", "x", "y"),
        ] {
            let t = read_csv_str("t", text).unwrap();
            let a: Vec<Value> = t.column("a").unwrap().iter().collect();
            let b: Vec<Value> = t.column("b").unwrap().iter().collect();
            assert_eq!(a, [Value::Int(1), Value::Null, Value::Int(2)], "{text:?}");
            let (first, last) = (Value::Str(first.into()), Value::Str(last.into()));
            assert_eq!(b, [first, Value::Null, last], "{text:?}");
        }
    }

    /// Bugfix: a field with a bare `\r` must be quoted on write; unquoted
    /// it was silently truncated by the reader's `\r\n` stripping — data
    /// corruption, not an error.
    #[test]
    fn bare_cr_fields_survive_round_trip() {
        let t = Table::new(
            "t",
            vec![Column::from_str("s", vec!["ends-in\r", "mid\rdle", "\r"])],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"ends-in\r\""), "cr field quoted: {text:?}");
        let back = read_csv_str("t", &text).unwrap();
        assert_eq!(
            back.column("s").unwrap().get(0),
            Value::Str("ends-in\r".into()),
            "no truncation"
        );
        assert_eq!(
            back.column("s").unwrap().get(1),
            Value::Str("mid\rdle".into())
        );
        assert_eq!(back.column("s").unwrap().get(2), Value::Str("\r".into()));
    }

    /// A lone `\r` after the final newline (a `\r\n`-style trailing empty
    /// line truncated at the `\r`) is not a record — the seed parser
    /// stripped it to an empty last line and popped it.
    #[test]
    fn lone_cr_tail_is_not_a_record() {
        let t = read_csv_str("t", "a,b\n1,2\n\r").unwrap();
        assert_eq!(t.n_rows(), 1);
        let t = read_csv_str("t", "a,b\n1,2\n3,4\n\r").unwrap();
        assert_eq!(t.column("a").unwrap().get(1), Value::Int(3));
        assert_eq!(t.n_rows(), 2);
        let err = read_csv_str("t", "\r").unwrap_err();
        assert_eq!(err.to_string(), "csv error: empty input");
        // A `\r` tail *with* content stays a (stripped) record.
        let t = read_csv_str("t", "a,b\n1,2\n3,4\r").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column("a").unwrap().get(1), Value::Int(3));
    }

    // ---- PR 5 regression tests -------------------------------------------

    /// Bugfix: a `Timestamp` column survives `write_csv` → read with dtype
    /// and values identical. Previously `@tick` strings read back as `Str`
    /// (the `Inferred` enum had no `Timestamp` variant), so every
    /// persisted repository lost its soft time keys.
    #[test]
    fn timestamp_round_trip() {
        let t = Table::new(
            "t",
            vec![
                Column::new(
                    "ts",
                    ColumnData::Timestamp(vec![Some(86_400), None, Some(-7), Some(0)]),
                ),
                Column::from_i64("k", vec![1, 2, 3, 4]),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("@86400"), "@tick syntax written: {text:?}");
        let back = read_csv_str("t", &text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.column("ts").unwrap().dtype(), DataType::Timestamp);
        assert_eq!(back.column("k").unwrap().dtype(), DataType::Int);
    }

    /// `@tick` mixed with non-timestamp values (or malformed `@` tokens)
    /// stays text — only an all-`@tick` column infers as `Timestamp`.
    #[test]
    fn malformed_or_mixed_ticks_stay_str() {
        for text in ["x\n@5\n6\n", "x\n@5\nhello\n", "x\n@\n@1.5\n", "x\n@@3\n"] {
            let t = read_csv_str("t", text).unwrap();
            assert_eq!(t.column("x").unwrap().dtype(), DataType::Str, "{text:?}");
        }
        // Null cells don't block timestamp inference.
        let t = read_csv_str("t", "x\n@5\n\n@-6\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Timestamp);
        assert_eq!(t.column("x").unwrap().get(1), Value::Null);
        assert_eq!(t.column("x").unwrap().get(2), Value::Timestamp(-6));
        // Beside a Float column, with nulls in both, under an `@` name.
        let t = read_csv_str("t", "@t,n\n@5,1.5\n,2\n@-7,\n").unwrap();
        let ts: Vec<Value> = t.column("@t").unwrap().iter().collect();
        let n: Vec<Value> = t.column("n").unwrap().iter().collect();
        assert_eq!(ts, [Value::Timestamp(5), Value::Null, Value::Timestamp(-7)]);
        assert_eq!(n, [Value::Float(1.5), Value::Float(2.0), Value::Null]);
    }

    /// Bugfix: non-finite float literals no longer infer as `Float`. An
    /// all-text column of `inf`/`NaN`-style tokens used to become a Float
    /// column whose non-finite values poison k-NN/Relief distances.
    #[test]
    fn non_finite_tokens_stay_str() {
        let t = read_csv_str("t", "x\ninf\nNaN\n-inf\nInfinity\n1e999\n").unwrap();
        let col = t.column("x").unwrap();
        assert_eq!(col.dtype(), DataType::Str);
        assert_eq!(col.get(0), Value::Str("inf".into()));
        assert_eq!(col.get(4), Value::Str("1e999".into()));
        // Finite literals still widen Int → Float as before.
        let t = read_csv_str("t", "x\n1\n2.5e3\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Float);
    }

    /// The documented CSV degradation: non-finite values in a *real* Float
    /// column come back as their text tokens (`Str`), values preserved as
    /// strings — not silently re-typed. The binary store round-trips them
    /// exactly; this pin makes the CSV trade-off explicit.
    #[test]
    fn non_finite_floats_degrade_to_str_on_csv_round_trip() {
        let t = Table::new(
            "t",
            vec![Column::from_f64("x", vec![1.5, f64::INFINITY, f64::NAN])],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv_str("t", std::str::from_utf8(&buf).unwrap()).unwrap();
        let col = back.column("x").unwrap();
        assert_eq!(col.dtype(), DataType::Str);
        assert_eq!(col.get(0), Value::Str("1.5".into()));
        assert_eq!(col.get(1), Value::Str("inf".into()));
        assert_eq!(col.get(2), Value::Str("NaN".into()));
    }

    #[test]
    fn header_only_and_header_scan() {
        let t = read_csv_str("t", "a,b\n").unwrap();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.column("a").unwrap().dtype(), DataType::Str);

        let dir = std::env::temp_dir().join("arda_csv_header_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.csv");
        std::fs::write(&path, "k,\"v,1\",w\n1,2,3\n").unwrap();
        assert_eq!(
            read_csv_header(&path).unwrap(),
            vec!["k".to_string(), "v,1".to_string(), "w".to_string()]
        );
    }
}
