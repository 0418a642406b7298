//! Property suite for the binary columnar shard store (PR 5).
//!
//! * **Round-trip**: random tables over all five dtypes — nulls, hostile
//!   strings (embedded separators, quotes, newlines, multi-byte UTF-8),
//!   non-finite floats, negative timestamps — encode → decode
//!   **bit-identically** at work budgets {1, 2, 3, 8}. Bit-identity is
//!   checked by re-encoding (NaN defeats `PartialEq`); the encoded byte
//!   stream itself must also be identical at every budget.
//! * **Corruption**: every possible truncation of a valid shard, plus
//!   random single-byte flips, decode to a clean [`TableError::Store`]
//!   (or, for value-byte flips, a well-formed table) — never a panic.
//!
//! The catalog-staleness counterpart (`_catalog.arda` invalidation on
//! mtime/size change) lives with the `Repository` tests in
//! `arda-discovery`.

use arda_par::Budget;
use arda_table::{read_arda_bytes, write_arda, Column, ColumnData, Table, TableError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hostile_string(rng: &mut StdRng) -> String {
    let alphabet = [
        'a', 'Z', '0', '@', ',', '"', '\n', '\r', '\0', ' ', '\t', '.', '-', 'é', '日', '🦀',
    ];
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
        .collect()
}

fn random_table(rng: &mut StdRng) -> Table {
    let n_rows = rng.gen_range(0usize..40);
    let n_cols = rng.gen_range(1usize..7);
    let cols = (0..n_cols)
        .map(|c| {
            let name = format!("c{c}");
            let null = |rng: &mut StdRng| rng.gen_bool(0.2);
            match rng.gen_range(0u32..5) {
                0 => Column::new(
                    &name,
                    ColumnData::Int(
                        (0..n_rows)
                            .map(|_| (!null(rng)).then(|| rng.gen_range(i64::MIN..i64::MAX)))
                            .collect(),
                    ),
                ),
                1 => Column::new(
                    &name,
                    ColumnData::Float(
                        (0..n_rows)
                            .map(|_| {
                                (!null(rng)).then(|| match rng.gen_range(0u32..8) {
                                    0 => f64::NAN,
                                    1 => f64::INFINITY,
                                    2 => f64::NEG_INFINITY,
                                    3 => -0.0,
                                    _ => rng.gen_range(-1e12..1e12),
                                })
                            })
                            .collect(),
                    ),
                ),
                2 => Column::new(
                    &name,
                    ColumnData::Bool(
                        (0..n_rows)
                            .map(|_| (!null(rng)).then(|| rng.gen_bool(0.5)))
                            .collect(),
                    ),
                ),
                3 => Column::new(
                    &name,
                    ColumnData::Str(
                        (0..n_rows)
                            .map(|_| (!null(rng)).then(|| hostile_string(rng)))
                            .collect(),
                    ),
                ),
                _ => Column::new(
                    &name,
                    ColumnData::Timestamp(
                        (0..n_rows)
                            .map(|_| (!null(rng)).then(|| rng.gen_range(i64::MIN..i64::MAX)))
                            .collect(),
                    ),
                ),
            }
        })
        .collect();
    Table::new("t", cols).unwrap()
}

fn to_bytes(t: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    write_arda(t, &mut buf).unwrap();
    buf
}

/// Random tables round-trip bit-identically at every work budget, and the
/// encoded byte stream is budget-invariant too.
#[test]
fn random_tables_round_trip_bit_identically_across_budgets() {
    let mut rng = StdRng::seed_from_u64(0x57a5);
    let budgets = [1usize, 2, 3, 8].map(Budget::isolated);
    for case in 0..60 {
        let table = random_table(&mut rng);
        let mut reference: Option<Vec<u8>> = None;
        for pool in &budgets {
            let budget = pool.width();
            let (bytes, back) = pool.install(|| {
                let bytes = to_bytes(&table);
                let back = read_arda_bytes("t", &bytes)
                    .unwrap_or_else(|e| panic!("case {case} budget {budget}: {e}"));
                (bytes, back)
            });
            match &reference {
                None => reference = Some(bytes.clone()),
                Some(r) => assert_eq!(&bytes, r, "case {case}: encode at budget {budget}"),
            }
            // Dtypes survive exactly (the fix CSV cannot provide) ...
            assert_eq!(back.schema(), table.schema(), "case {case}");
            assert_eq!(back.n_rows(), table.n_rows(), "case {case}");
            // ... and so does every value bit: re-encode and compare.
            assert_eq!(
                to_bytes(&back),
                bytes,
                "case {case} budget {budget}: decode∘encode is the identity"
            );
        }
    }
    // Multi-column tables fan out over columns, so every width above 1
    // must have spawned somewhere in the sweep.
    for pool in &budgets {
        assert_eq!(
            pool.total_spawns() > 0,
            pool.width() > 1,
            "budget {}",
            pool.width()
        );
    }
}

/// Every truncation of a valid shard is a clean `Store` error; random
/// single-byte corruption never panics (flips in value bytes may still
/// decode — to a well-formed table — but structural damage must error).
#[test]
fn corrupted_shards_error_cleanly() {
    let mut rng = StdRng::seed_from_u64(0xdead);
    let table = random_table(&mut rng);
    let bytes = to_bytes(&table);
    assert!(!bytes.is_empty());

    for cut in 0..bytes.len() {
        match read_arda_bytes("t", &bytes[..cut]) {
            Err(TableError::Store(msg)) => assert!(!msg.is_empty()),
            Err(other) => panic!("cut {cut}: wrong error kind {other}"),
            Ok(_) => panic!("cut {cut}: truncated shard decoded"),
        }
    }

    for _ in 0..200 {
        let mut corrupt = bytes.clone();
        let i = rng.gen_range(0usize..corrupt.len());
        corrupt[i] ^= 1 << rng.gen_range(0u32..8);
        // Must not panic; any `Err` must be the Store kind.
        if let Err(e) = read_arda_bytes("t", &corrupt) {
            assert!(
                matches!(e, TableError::Store(_)),
                "flip at byte {i}: wrong error kind {e}"
            );
        }
    }
}
