//! Streaming CSV ingestion with type inference.
//!
//! ARDA's inputs are *repositories* of heterogeneous tables fed by a
//! discovery system (§2, Figure 1); CSV is the lingua franca. This module
//! implements a streaming, budget-parallel RFC-4180 reader plus per-column
//! type inference with the priority
//! `Timestamp(@tick) → Int → finite Float → Bool → Str`; empty fields
//! become nulls.
//!
//! ## The streaming engine
//!
//! The reader never slurps a file into one `String`. Input is consumed in
//! fixed-size byte chunks ([`CsvReadOptions::chunk_size`]); a *quote-aware*
//! boundary scanner — quote parity is tracked across chunk boundaries, so a
//! `"` / `\n` split between two reads cannot confuse it — carves the byte
//! stream into **blocks** of complete records. Records therefore terminate
//! only at newlines *outside* quoted fields, which is what makes embedded
//! `\n` / `\r\n` inside quoted cells parse correctly (RFC 4180 §2.6)
//! instead of erroring as ragged rows.
//!
//! Parsing runs in **two streaming passes** so memory stays bounded by
//! `O(budget width × chunk_size)` of raw text (plus the final columns)
//! rather than `raw text + dynamic cells + columns` all at once:
//!
//! 1. **Infer** — blocks are fanned out on the ambient [`arda_par`] work
//!    budget; each worker parses its block and accumulates per-column
//!    [`Inferred`] types, which are folded back *in block order* with the
//!    deterministic widen-merge [`unify`] (`Int ∪ Float → Float`, anything
//!    else mixed → `Str`). Ragged rows surface the earliest offending row,
//!    exactly like a sequential scan.
//! 2. **Build** — the source is re-opened and blocks are fanned out again,
//!    this time materializing *typed* columnar builders directly (no
//!    intermediate per-cell `String` table); partial columns are appended
//!    in block order.
//!
//! Chunk boundaries, block boundaries and the merge order depend only on
//! `chunk_size` — never on the budget width or how many permits the pool
//! granted — so the resulting [`Table`] is **bit-identical** at any
//! `ARDA_THREADS` / budget, and identical to a whole-file parse at any
//! chunk size. `tests/csv_stream.rs` asserts both properties.
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
use std::io::Read;
use std::path::Path;

/// Tuning knobs for the streaming CSV reader.
#[derive(Debug, Clone)]
pub struct CsvReadOptions {
    /// Bytes per streamed chunk. Blocks handed to parallel workers are at
    /// least this large (they extend to the last complete record found).
    /// `usize::MAX` degenerates to a whole-input parse ("slurp mode") —
    /// the output is identical either way.
    pub chunk_size: usize,
}

impl Default for CsvReadOptions {
    fn default() -> Self {
        CsvReadOptions {
            chunk_size: 64 * 1024,
        }
    }
}

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

/// Widen `a` to cover `b`. Associative and commutative, so the per-block
/// fold order cannot change the merged type (the fold still runs in block
/// order for determinism by construction). `Timestamp` only unifies with
/// itself — `@tick` mixed with anything else is text.
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

/// Parse one record into owned fields (test/oracle convenience).
fn parse_record(record: &str) -> Vec<String> {
    let mut fields = Vec::new();
    for_each_field(record, |_, s| fields.push(s.to_string()));
    fields
}

/// Iterate the complete records of `block`, stripping the `\n` terminator
/// and one trailing `\r` per record. `block` must start at a record
/// boundary; newlines inside quoted fields (tracked by quote *parity*,
/// which is equivalent to the field parser's toggling for `""` escapes) do
/// not terminate a record. A final unterminated record (EOF without a
/// newline) is yielded too.
fn for_each_record(block: &str, mut f: impl FnMut(usize, &str) -> Result<()>) -> Result<()> {
    let bytes = block.as_bytes();
    let mut in_quotes = false;
    let mut start = 0usize;
    let mut rec_no = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                let mut end = i;
                if end > start && bytes[end - 1] == b'\r' {
                    end -= 1;
                }
                f(rec_no, &block[start..end])?;
                rec_no += 1;
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < bytes.len() {
        let mut end = bytes.len();
        if bytes[end - 1] == b'\r' {
            end -= 1;
        }
        f(rec_no, &block[start..end])?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chunked block streaming
// ---------------------------------------------------------------------------

/// A run of complete records carved out of the byte stream.
struct Block {
    text: String,
    /// Global index (header = 0) of this block's first record.
    first_record: usize,
}

/// Streams fixed-size chunks from a reader and carves them into [`Block`]s
/// of complete records at quote-aware boundaries. Quote parity persists
/// across chunk reads, so structural characters split between two reads
/// are classified exactly as in a whole-input scan.
struct BlockStream<R: Read> {
    reader: R,
    chunk_size: usize,
    carry: Vec<u8>,
    /// Quote parity at `carry[scanned]`.
    in_quotes: bool,
    /// Prefix of `carry` already boundary-scanned.
    scanned: usize,
    /// Offset just past the last record terminator found in `carry`.
    last_end: usize,
    /// Record terminators found in `carry[..last_end]`.
    pending_records: usize,
    records_emitted: usize,
    eof: bool,
}

impl<R: Read> BlockStream<R> {
    fn new(reader: R, chunk_size: usize) -> Self {
        BlockStream {
            reader,
            chunk_size: chunk_size.max(1),
            carry: Vec::new(),
            in_quotes: false,
            scanned: 0,
            last_end: 0,
            pending_records: 0,
            records_emitted: 0,
            eof: false,
        }
    }

    /// Read one chunk and boundary-scan the new bytes.
    fn fill(&mut self) -> Result<()> {
        let before = self.carry.len();
        let n = self
            .reader
            .by_ref()
            .take(self.chunk_size as u64)
            .read_to_end(&mut self.carry)
            .map_err(|e| TableError::Csv(e.to_string()))?;
        if n == 0 {
            self.eof = true;
        }
        debug_assert_eq!(self.scanned, before);
        for i in self.scanned..self.carry.len() {
            match self.carry[i] {
                b'"' => self.in_quotes = !self.in_quotes,
                b'\n' if !self.in_quotes => {
                    self.last_end = i + 1;
                    self.pending_records += 1;
                }
                _ => {}
            }
        }
        self.scanned = self.carry.len();
        Ok(())
    }

    /// Next block of complete records, or `None` at end of input. Blocks
    /// split only at record boundaries, so each is valid UTF-8 iff the
    /// input is.
    fn next_block(&mut self) -> Result<Option<Block>> {
        loop {
            if self.last_end > 0 {
                let rest = self.carry.split_off(self.last_end);
                let bytes = std::mem::replace(&mut self.carry, rest);
                let text = String::from_utf8(bytes)
                    .map_err(|_| TableError::Csv("input is not valid UTF-8".into()))?;
                let block = Block {
                    text,
                    first_record: self.records_emitted,
                };
                self.records_emitted += self.pending_records;
                self.scanned -= self.last_end;
                self.last_end = 0;
                self.pending_records = 0;
                return Ok(Some(block));
            }
            if self.eof {
                // A lone `\r` tail is the `\r` of a final `\r\n`-style
                // empty line: the original parser stripped it and popped
                // the resulting empty last line, so it is not a record.
                if self.carry.is_empty() || self.carry == b"\r" {
                    return Ok(None);
                }
                let bytes = std::mem::take(&mut self.carry);
                let text = String::from_utf8(bytes)
                    .map_err(|_| TableError::Csv("input is not valid UTF-8".into()))?;
                let block = Block {
                    text,
                    first_record: self.records_emitted,
                };
                self.records_emitted += 1;
                self.scanned = 0;
                return Ok(Some(block));
            }
            self.fill()?;
        }
    }

    /// Pull up to `n` blocks (one parallel window's worth).
    fn next_window(&mut self, n: usize) -> Result<Vec<Block>> {
        let mut blocks = Vec::new();
        while blocks.len() < n.max(1) {
            match self.next_block()? {
                Some(b) => blocks.push(b),
                None => break,
            }
        }
        Ok(blocks)
    }
}

/// The first record of `block` (terminator and one trailing `\r`
/// stripped), without scanning past it — a block can be the whole input in
/// slurp mode, and the header never needs more than its own bytes.
fn first_record(block: &str) -> &str {
    let bytes = block.as_bytes();
    let mut in_quotes = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                let end = if i > 0 && bytes[i - 1] == b'\r' {
                    i - 1
                } else {
                    i
                };
                return &block[..end];
            }
            _ => {}
        }
    }
    let mut end = bytes.len();
    if end > 0 && bytes[end - 1] == b'\r' {
        end -= 1;
    }
    &block[..end]
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
// Pass 1: header + type inference
// ---------------------------------------------------------------------------

struct InferState {
    names: Vec<String>,
    /// Per-column merged type; `None` = no non-null value seen.
    types: Vec<Option<Inferred>>,
    n_rows: usize,
}

/// Infer per-column types for one block of data records.
fn infer_block(
    block: &str,
    first_record: usize,
    skip_records: usize,
    width: usize,
) -> Result<(Vec<Option<Inferred>>, usize)> {
    let mut types: Vec<Option<Inferred>> = vec![None; width];
    let mut rows = 0usize;
    for_each_record(block, |i, rec| {
        if i < skip_records {
            return Ok(());
        }
        rows += 1;
        if rec.is_empty() {
            return Ok(()); // full-width null row
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
            return Err(ragged(first_record + i, n, width));
        }
        Ok(())
    })?;
    Ok((types, rows))
}

fn infer_pass<R: Read>(reader: R, opts: &CsvReadOptions) -> Result<InferState> {
    let mut stream = BlockStream::new(reader, opts.chunk_size);
    let Some(first) = stream.next_block()? else {
        return Err(TableError::Csv("empty input".into()));
    };

    // The header is the first record of the first block; peel it off
    // inline, then infer the rest of that block sequentially (it is one
    // block's worth of work) and window the remainder in parallel.
    let header = first_record(&first.text);
    if header.trim().is_empty() {
        return Err(TableError::Csv("empty header".into()));
    }
    let names = parse_record(header);
    let width = names.len();

    let (mut types, mut n_rows) = infer_block(&first.text, 0, 1, width)?;
    loop {
        let window = stream.next_window(arda_par::current_budget().width())?;
        if window.is_empty() {
            break;
        }
        let results = arda_par::par_map(&window, |_, block| {
            infer_block(&block.text, block.first_record, 0, width)
        });
        // Fold in block order; `unify` is order-insensitive but the fold
        // order is fixed anyway, and the *earliest* ragged row wins just
        // like a sequential scan.
        for res in results {
            let (block_types, rows) = res?;
            n_rows += rows;
            for (slot, t) in types.iter_mut().zip(block_types) {
                *slot = match (*slot, t) {
                    (prev, None) => prev,
                    (None, got) => got,
                    (Some(prev), Some(got)) => Some(unify(prev, got)),
                };
            }
        }
    }
    Ok(InferState {
        names,
        types,
        n_rows,
    })
}

// ---------------------------------------------------------------------------
// Pass 2: typed columnar build
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

/// Parse `field` into the builder's type. Inference already proved every
/// non-null cell parses; a failure here means the source changed between
/// the two passes.
fn push_field(data: &mut ColumnData, field: &str) -> Result<()> {
    if field.is_empty() {
        push_null(data);
        return Ok(());
    }
    let changed = || TableError::Csv("input changed between streaming passes".into());
    match data {
        ColumnData::Int(v) => v.push(Some(field.parse::<i64>().map_err(|_| changed())?)),
        ColumnData::Timestamp(v) => {
            let tick = field.strip_prefix('@').ok_or_else(changed)?;
            v.push(Some(tick.parse::<i64>().map_err(|_| changed())?))
        }
        ColumnData::Float(v) => {
            let x = field.parse::<f64>().map_err(|_| changed())?;
            if !x.is_finite() {
                // Inference only admits finite literals; a non-finite one
                // here means the source changed between the two passes.
                return Err(changed());
            }
            v.push(Some(x))
        }
        ColumnData::Bool(v) => match field {
            "true" | "TRUE" | "True" => v.push(Some(true)),
            "false" | "FALSE" | "False" => v.push(Some(false)),
            _ => return Err(changed()),
        },
        ColumnData::Str(v) => v.push(Some(field.to_string())),
    }
    Ok(())
}

fn append_data(dst: &mut ColumnData, src: ColumnData) {
    match (dst, src) {
        (ColumnData::Int(d), ColumnData::Int(mut s)) => d.append(&mut s),
        (ColumnData::Float(d), ColumnData::Float(mut s)) => d.append(&mut s),
        (ColumnData::Str(d), ColumnData::Str(mut s)) => d.append(&mut s),
        (ColumnData::Bool(d), ColumnData::Bool(mut s)) => d.append(&mut s),
        (ColumnData::Timestamp(d), ColumnData::Timestamp(mut s)) => d.append(&mut s),
        _ => unreachable!("builders share one inferred type per column"),
    }
}

/// Materialize one block of records into typed partial columns.
fn build_block(
    block: &str,
    first_record: usize,
    skip_records: usize,
    types: &[Inferred],
) -> Result<Vec<ColumnData>> {
    let width = types.len();
    let mut cols: Vec<ColumnData> = types.iter().map(|&t| new_builder(t, 0)).collect();
    for_each_record(block, |i, rec| {
        if i < skip_records {
            return Ok(());
        }
        if rec.is_empty() {
            for col in &mut cols {
                push_null(col);
            }
            return Ok(());
        }
        let mut err: Option<TableError> = None;
        let n = for_each_field(rec, |c, field| {
            if err.is_none() {
                if let Some(col) = cols.get_mut(c) {
                    if let Err(e) = push_field(col, field) {
                        err = Some(e);
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        if n != width {
            return Err(ragged(first_record + i, n, width));
        }
        Ok(())
    })?;
    Ok(cols)
}

fn build_pass<R: Read>(
    reader: R,
    opts: &CsvReadOptions,
    state: &InferState,
) -> Result<Vec<ColumnData>> {
    let types: Vec<Inferred> = state
        .types
        .iter()
        .map(|t| t.unwrap_or(Inferred::Str))
        .collect();
    let mut columns: Vec<ColumnData> = types
        .iter()
        .map(|&t| new_builder(t, state.n_rows))
        .collect();
    let mut stream = BlockStream::new(reader, opts.chunk_size);
    let mut first = true;
    loop {
        let window = stream.next_window(arda_par::current_budget().width())?;
        if window.is_empty() {
            break;
        }
        let skip_header = first;
        first = false;
        let parts = arda_par::par_map(&window, |bi, block| {
            let skip = usize::from(skip_header && bi == 0);
            build_block(&block.text, block.first_record, skip, &types)
        });
        for part in parts {
            for (dst, src) in columns.iter_mut().zip(part?) {
                append_data(dst, src);
            }
        }
    }
    if columns.first().is_some_and(|c| c.len() != state.n_rows) {
        return Err(TableError::Csv(
            "input changed between streaming passes".into(),
        ));
    }
    Ok(columns)
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Run both streaming passes over a re-openable byte source.
fn ingest<R: Read>(
    name: &str,
    open: impl Fn() -> Result<R>,
    opts: &CsvReadOptions,
) -> Result<Table> {
    let state = infer_pass(open()?, opts)?;
    let columns = build_pass(open()?, opts, &state)?;
    let columns: Vec<Column> = state
        .names
        .iter()
        .zip(columns)
        .map(|(n, data)| Column::new(n.clone(), data))
        .collect();
    Table::new(name, columns)
}

/// Read a table from CSV text with explicit options. The first record is
/// the header; an empty record is a row of nulls; quoted fields may span
/// lines.
pub fn read_csv_str_with(name: &str, text: &str, opts: &CsvReadOptions) -> Result<Table> {
    ingest(name, || Ok(text.as_bytes()), opts)
}

/// Read a table from CSV text (default streaming options).
pub fn read_csv_str(name: &str, text: &str) -> Result<Table> {
    read_csv_str_with(name, text, &CsvReadOptions::default())
}

/// Read a table from a CSV file; the table is named after the file stem.
/// The file is streamed twice (infer, then build) so raw text, dynamic
/// cells and columns are never all resident at once.
pub fn read_csv(path: impl AsRef<Path>) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string();
    ingest(
        &name,
        || std::fs::File::open(path).map_err(|e| TableError::Csv(e.to_string())),
        &CsvReadOptions::default(),
    )
}

/// Read only the header record of a CSV file: the column names, in order.
/// This is the manifest-scan primitive behind directory-sharded
/// repositories — it reads at most a few chunks, never the whole file.
pub(crate) fn read_csv_header(path: impl AsRef<Path>) -> Result<Vec<String>> {
    let file = std::fs::File::open(path.as_ref()).map_err(|e| TableError::Csv(e.to_string()))?;
    let mut stream = BlockStream::new(file, CsvReadOptions::default().chunk_size);
    let Some(first) = stream.next_block()? else {
        return Err(TableError::Csv("empty input".into()));
    };
    let header = first_record(&first.text);
    if header.trim().is_empty() {
        return Err(TableError::Csv("empty header".into()));
    }
    Ok(parse_record(header))
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
/// round-trips through the streaming reader.
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

    /// The streaming reader is chunk-size invariant, including chunks far
    /// smaller than a record and chunks that split quotes/CRLF/UTF-8.
    #[test]
    fn chunk_size_invariance() {
        let text = "name,x,note\nαβγ,1,\"line one\nline two\"\nplain,2,\"q\"\"uote\"\nlast,3,\r\n";
        let whole = read_csv_str_with(
            "t",
            text,
            &CsvReadOptions {
                chunk_size: usize::MAX,
            },
        )
        .unwrap();
        for chunk in [1usize, 2, 3, 7, 64, 4096] {
            let got = read_csv_str_with("t", text, &CsvReadOptions { chunk_size: chunk }).unwrap();
            assert_eq!(got, whole, "chunk_size={chunk}");
        }
        assert_eq!(whole.n_rows(), 3);
        assert_eq!(
            whole.column("note").unwrap().get(0),
            Value::Str("line one\nline two".into())
        );
        assert!(whole.column("note").unwrap().get(2).is_null());
    }

    /// A lone `\r` after the final newline (a `\r\n`-style trailing empty
    /// line truncated at the `\r`) is not a record — the seed parser
    /// stripped it to an empty last line and popped it.
    #[test]
    fn lone_cr_tail_is_not_a_record() {
        let t = read_csv_str("t", "a,b\n1,2\n\r").unwrap();
        assert_eq!(t.n_rows(), 1);
        assert!(read_csv_str("t", "\r").is_err(), "empty input");
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
        for chunk_size in [3usize, 64, usize::MAX] {
            let back = read_csv_str_with("t", &text, &CsvReadOptions { chunk_size }).unwrap();
            assert_eq!(back, t, "chunk_size={chunk_size}");
            assert_eq!(back.column("ts").unwrap().dtype(), DataType::Timestamp);
            assert_eq!(back.column("k").unwrap().dtype(), DataType::Int);
        }
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
