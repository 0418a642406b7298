//! CSV property suite for the reader.
//!
//! Three families of properties:
//!
//! 1. **Round-trip**: random tables over all dtypes — with nulls and
//!    hostile strings (embedded `\n`, `\r\n`, bare `\r`, `,`, `"`,
//!    multi-byte UTF-8) — survive `write_csv` → read *exactly*,
//!    **including `Timestamp` columns** (the PR 5 bugfix: `@tick` is now
//!    CSV timestamp syntax, so dtypes and values come back identical).
//! 2. **Seed equivalence**: on every input the original slurping parser
//!    handled, the reader produces a bit-identical table. The original
//!    parser is embedded below as `seed_read_csv_str`, verbatim. Since
//!    PR 5 the equivalence domain excludes tokens the reader now types
//!    more precisely than the seed did: `@<i64>` cells (seed: `Str`, now
//!    `Timestamp`) and non-finite float literals like `inf` / `NaN`
//!    (seed: `Float`, now `Str`) — both have dedicated regression tests
//!    in the `csv` module instead.
//! 3. **Budget invariance**: text of 64 KiB and more is cut into one run
//!    of whole records per budget slot and parsed in parallel; the table
//!    is bit-identical across work budgets because it does not depend on
//!    where the text is cut.
//!
//! Cut placement itself is swept in the `csv` module's unit tests
//! (`every_record_boundary_is_a_cut`), which can choose the run count;
//! nothing outside the crate can. `tests/budget_determinism.rs` at the
//! workspace root additionally drives ingestion through the full pipeline
//! across budgets.

use arda_par::Budget;
use arda_table::{read_csv_str, write_csv, Column, ColumnData, Table, TableError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// The seed parser, kept verbatim as the equivalence oracle
// ---------------------------------------------------------------------------

fn seed_parse_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
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
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SeedInferred {
    Int,
    Float,
    Bool,
    Str,
}

fn seed_infer_one(s: &str) -> SeedInferred {
    if s.parse::<i64>().is_ok() {
        SeedInferred::Int
    } else if s.parse::<f64>().is_ok() {
        SeedInferred::Float
    } else if matches!(s, "true" | "false" | "TRUE" | "FALSE" | "True" | "False") {
        SeedInferred::Bool
    } else {
        SeedInferred::Str
    }
}

fn seed_unify(a: SeedInferred, b: SeedInferred) -> SeedInferred {
    use SeedInferred::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int, Float) | (Float, Int) => Float,
        _ => Str,
    }
}

/// The pre-PR-4 `read_csv_str`: slurp, split on `\n`, quote handling per
/// line. Only meaningful on inputs without embedded newlines or blank
/// interior lines — exactly the domain the equivalence property runs on.
fn seed_read_csv_str(name: &str, text: &str) -> Result<Table, TableError> {
    let mut raw: Vec<&str> = text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .collect();
    if raw.last() == Some(&"") {
        raw.pop();
    }
    let mut lines = raw.into_iter();
    let header = lines
        .next()
        .ok_or_else(|| TableError::Csv("empty input".into()))?;
    if header.trim().is_empty() {
        return Err(TableError::Csv("empty header".into()));
    }
    let names = seed_parse_record(header);
    let width = names.len();

    let mut cells: Vec<Vec<Option<String>>> = vec![Vec::new(); width];
    for (row_no, line) in lines.enumerate() {
        let rec = seed_parse_record(line);
        if rec.len() != width {
            return Err(TableError::Csv(format!(
                "row {} has {} fields, expected {width}",
                row_no + 2,
                rec.len()
            )));
        }
        for (c, field) in rec.into_iter().enumerate() {
            cells[c].push(if field.is_empty() { None } else { Some(field) });
        }
    }

    let mut columns = Vec::with_capacity(width);
    for (c, name) in names.iter().enumerate() {
        let mut ty: Option<SeedInferred> = None;
        for v in cells[c].iter().flatten() {
            let t = seed_infer_one(v);
            ty = Some(match ty {
                None => t,
                Some(prev) => seed_unify(prev, t),
            });
        }
        let data = match ty.unwrap_or(SeedInferred::Str) {
            SeedInferred::Int => ColumnData::Int(
                cells[c]
                    .iter()
                    .map(|v| {
                        v.as_deref()
                            .map(|s| s.parse::<i64>().expect("inferred int"))
                    })
                    .collect(),
            ),
            SeedInferred::Float => ColumnData::Float(
                cells[c]
                    .iter()
                    .map(|v| {
                        v.as_deref()
                            .map(|s| s.parse::<f64>().expect("inferred float"))
                    })
                    .collect(),
            ),
            SeedInferred::Bool => ColumnData::Bool(
                cells[c]
                    .iter()
                    .map(|v| v.as_deref().map(|s| s.eq_ignore_ascii_case("true")))
                    .collect(),
            ),
            SeedInferred::Str => ColumnData::Str(std::mem::take(&mut cells[c])),
        };
        columns.push(Column::new(name.clone(), data));
    }
    Table::new(name, columns)
}

// ---------------------------------------------------------------------------
// Random table generation
// ---------------------------------------------------------------------------

/// Hostile characters for string cells. `allow_newlines = false` keeps the
/// value inside the seed parser's domain (it split on `\n` before quotes).
fn hostile_string(rng: &mut StdRng, allow_newlines: bool) -> String {
    let full = [
        'a', 'Z', '0', '7', ',', '"', '\n', '\r', ' ', '\t', '.', '-', 'é', '日', '🦀',
    ];
    // Without newlines: the same alphabet minus `\n` / `\r`, keeping the
    // value inside the seed parser's domain.
    let seed_safe = [
        'a', 'Z', '0', '7', ',', '"', ' ', '\t', '.', '-', 'é', '日', '🦀',
    ];
    let len = rng.gen_range(1usize..10);
    let mut s = String::new();
    for _ in 0..len {
        if allow_newlines {
            s.push(full[rng.gen_range(0usize..full.len())]);
        } else {
            s.push(seed_safe[rng.gen_range(0usize..seed_safe.len())]);
        }
    }
    // Keep the value unambiguously a string: non-empty and not parseable
    // as int/float/bool (an all-digit value would legitimately read back
    // as an Int column).
    if s.trim().is_empty()
        || s.parse::<i64>().is_ok()
        || s.parse::<f64>().is_ok()
        || matches!(
            s.as_str(),
            "true" | "false" | "TRUE" | "FALSE" | "True" | "False"
        )
    {
        s.insert(0, 's');
        s.push('_');
    }
    s
}

/// A random table that CSV round-trips *identically* — all five dtypes
/// when `allow_timestamps` (Timestamp now has the `@tick` CSV syntax);
/// restrict to the seed parser's type surface with
/// `allow_timestamps = false` for the seed-equivalence properties.
fn random_table(rng: &mut StdRng, allow_newlines: bool, allow_timestamps: bool) -> Table {
    let n_rows = rng.gen_range(1usize..30);
    let n_cols = rng.gen_range(1usize..6);
    let mut cols: Vec<Column> = Vec::new();
    let dtype_kinds = if allow_timestamps { 5u32 } else { 4 };
    for c in 0..n_cols {
        let name = format!("c{c}");
        // Row 0 is always non-null so no column collapses to the all-null
        // `Str` fallback (that case has its own test below).
        let null = |rng: &mut StdRng, i: usize| i > 0 && rng.gen_bool(0.25);
        match rng.gen_range(0u32..dtype_kinds) {
            0 => {
                let v: Vec<Option<i64>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| rng.gen_range(-1_000_000i64..1_000_000)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Int(v)));
            }
            1 => {
                let v: Vec<Option<f64>> = (0..n_rows)
                    .map(|i| {
                        if i == 0 {
                            Some(0.5) // guarantees the column infers Float
                        } else {
                            (!null(rng, i)).then(|| rng.gen_range(-1e6..1e6))
                        }
                    })
                    .collect();
                cols.push(Column::new(&name, ColumnData::Float(v)));
            }
            2 => {
                let v: Vec<Option<bool>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| rng.gen_bool(0.5)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Bool(v)));
            }
            3 => {
                let v: Vec<Option<String>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| hostile_string(rng, allow_newlines)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Str(v)));
            }
            _ => {
                let v: Vec<Option<i64>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| rng.gen_range(-1_000_000i64..1_000_000)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Timestamp(v)));
            }
        }
    }
    Table::new("t", cols).unwrap()
}

fn to_csv(table: &Table) -> String {
    let mut buf = Vec::new();
    write_csv(table, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// `text`'s header followed by its body repeated until the whole exceeds
/// 64 KiB. Generated headers hold no quotes, so the body starts after the
/// first newline.
fn past_64_kib(text: &str) -> String {
    let (header, body) = text.split_at(text.find('\n').unwrap() + 1);
    let mut out = header.to_string();
    while out.len() <= 64 * 1024 {
        out.push_str(body);
    }
    out
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Random tables (all five dtypes — Timestamp included since PR 5 —
/// nulls, hostile strings incl. embedded newlines) round-trip `write_csv`
/// → reader *identically*.
#[test]
fn random_tables_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0x4a5d);
    for case in 0..40 {
        let table = random_table(&mut rng, true, true);
        let text = to_csv(&table);
        let got = read_csv_str("t", &text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text:?}"));
        assert_eq!(got, table, "case {case} round-trip\n{text:?}");
    }
}

/// On seed-parsable inputs (no `@tick` / non-finite tokens — those are
/// typed more precisely now), the reader is bit-identical to the seed
/// parser. (The name predates the one-read parser, which has no chunk
/// size; its cuts are swept by the `csv` module's unit tests.)
#[test]
fn streaming_matches_seed_parser_on_every_chunk_size() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    for case in 0..25 {
        let table = random_table(&mut rng, false, false);
        let text = to_csv(&table);
        let seed = seed_read_csv_str("t", &text)
            .unwrap_or_else(|e| panic!("case {case}: seed parser choked: {e}\n{text:?}"));
        let got = read_csv_str("t", &text).unwrap();
        assert_eq!(got, seed, "case {case}\n{text:?}");
    }
}

/// Hand-written fixtures covering the seed parser's quirks (lenient
/// mid-field quotes, trailing `\r` stripping at EOF, width-1 blank lines,
/// missing trailing newline) stay bit-identical too.
#[test]
fn streaming_matches_seed_parser_on_quirk_fixtures() {
    let fixtures = [
        "a,b\n1,2\n3,4\n",
        "a,b\n1,2\n3,4", // no trailing newline
        "x\n1\n\n2\n",   // width-1 blank line = null (both parsers)
        "a,b\r\n1,x\r\n2,y\r\n",
        "s\nab\"cd,e\"f\n",   // lenient mid-field quotes
        "s\n\"\"\n",          // quoted empty string = null
        "k,v\n1,\n,2\n",      // nulls both sides
        "n\n1\n2.5\n-3\n",    // int widens to float
        "b\ntrue\nFALSE\n",   // bool casings
        "m\n1\nx\n2.5\n",     // mixed to string
        "u,v\nαβ,\"日🦀\"\n", // multi-byte UTF-8
        "t\n@x5\n@\n",        // `@` tokens that are NOT `@<i64>` stay strings
        "a,b\n\"x,y\",\"q\"\"q\"\n",
        "pad\n 1\n",     // leading space defeats int parse in both
        "a,b\n1,2\n\r",  // lone \r tail = popped trailing empty line
        "a,b\n1,2\r",    // \r tail with content = stripped record
        "e\n1e3\n2.5\n", // exponent floats
    ];
    for text in fixtures {
        let seed = seed_read_csv_str("t", text).unwrap();
        let got = read_csv_str("t", text).unwrap();
        assert_eq!(got, seed, "fixture {text:?}");
    }
}

/// Error cases agree with the seed parser on its own domain: same ragged
/// row reported, same empty-input/header errors.
#[test]
fn streaming_matches_seed_parser_errors() {
    let fixtures = ["a,b\n1\n", "", "\n", "  \nx\n", "a,b\n1,2\n1,2,3\n"];
    for text in fixtures {
        let seed = seed_read_csv_str("t", text).unwrap_err();
        let got = read_csv_str("t", text).unwrap_err();
        assert_eq!(got.to_string(), seed.to_string(), "fixture {text:?}");
    }
}

/// An all-null column falls back to `Str` storage in both parsers.
#[test]
fn all_null_column_matches_seed_fallback() {
    let text = "k,empty\n1,\n2,\n";
    let seed = seed_read_csv_str("t", text).unwrap();
    let got = read_csv_str("t", text).unwrap();
    assert_eq!(got, seed);
    assert_eq!(
        got.column("empty").unwrap().data(),
        &ColumnData::Str(vec![None, None])
    );
}

/// Parsing is bit-identical across work budgets {1, 2, 3, 8}: each width
/// cuts the text into its own number of runs, and per-run results merge
/// in run order regardless of how many workers the pool grants. Each
/// budget is installed in scope with its own permit pool, and every width
/// above 1 must have spawned somewhere in the sweep. The parser keeps text
/// under 64 KiB on the calling thread, so each random table's body is
/// repeated past that size.
#[test]
fn ingestion_identical_across_budgets() {
    let mut rng = StdRng::seed_from_u64(0xbadc0de);
    let texts: Vec<String> = (0..6)
        .map(|_| past_64_kib(&to_csv(&random_table(&mut rng, true, true))))
        .collect();
    let budgets = [1usize, 2, 3, 8].map(Budget::isolated);
    for text in &texts {
        let mut reference: Option<Table> = None;
        for budget in &budgets {
            let got = budget.install(|| read_csv_str("t", text).unwrap());
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "budget {}\n{text:?}", budget.width()),
            }
        }
    }
    for budget in &budgets {
        assert_eq!(
            budget.total_spawns() > 0,
            budget.width() > 1,
            "budget {}",
            budget.width()
        );
    }
}
