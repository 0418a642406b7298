//! Decoy-table generation: tables that join cleanly onto the base table but
//! whose columns are pure noise. These reproduce the "highly noisy"
//! candidate collections ARDA is designed for (§2: "the majority of the
//! joins are semantically meaningless and will not improve a predictive
//! model").

use arda_table::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a decoy table named `name` keyed by `key_name` over the keys of
/// `key_domain` (so discovery *will* find it and the join *will* succeed),
/// with `n_cols` random value columns of mixed types.
pub fn decoy_table(
    name: &str,
    key_name: &str,
    key_domain: &Column,
    n_cols: usize,
    seed: u64,
) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    // Random subset (~80%) of the key domain, shuffled — imperfect coverage
    // like real repository tables.
    let mut rows: Vec<usize> = (0..key_domain.len()).collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.gen_range(0..=i));
    }
    let keep = ((rows.len() as f64) * 0.8).ceil() as usize;
    rows.truncate(keep.max(1));
    let n = rows.len();
    let mut key_col = key_domain.take(&rows);
    key_col.set_name(key_name);

    let mut cols = vec![key_col];
    for c in 0..n_cols.max(1) {
        match rng.gen_range(0..3) {
            0 => {
                let scale: f64 = rng.gen_range(0.5..20.0);
                cols.push(Column::from_f64(
                    format!("noise_f{c}"),
                    (0..n).map(|_| rng.gen_range(-scale..scale)).collect(),
                ));
            }
            1 => {
                let hi: i64 = rng.gen_range(2..100);
                cols.push(Column::from_i64(
                    format!("noise_i{c}"),
                    (0..n).map(|_| rng.gen_range(0..hi)).collect(),
                ));
            }
            _ => {
                let cats = ["alpha", "beta", "gamma", "delta"];
                cols.push(Column::from_str(
                    format!("noise_c{c}"),
                    (0..n).map(|_| cats[rng.gen_range(0..cats.len())]).collect(),
                ));
            }
        }
    }
    Table::new(name, cols).expect("decoy construction is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::DataType;

    #[test]
    fn decoy_joins_onto_key_domain() {
        let domain = Column::from_i64("domain", (0..50).collect());
        let d = decoy_table("noise_1", "id", &domain, 3, 0);
        assert_eq!(d.column("id").unwrap().name(), "id");
        assert_eq!(d.n_cols(), 4);
        assert!(d.n_rows() >= 40, "~80% of the domain: {}", d.n_rows());
        // All keys come from the domain.
        let ids = d.column("id").unwrap();
        for i in 0..ids.len() {
            assert!((0.0..50.0).contains(&ids.get_f64(i).unwrap()));
        }
    }

    #[test]
    fn string_and_timestamp_domains() {
        let sdomain = Column::from_str("s", vec!["a", "b", "c"]);
        let d = decoy_table("d", "k", &sdomain, 2, 1);
        assert_eq!(d.column("k").unwrap().dtype(), DataType::Str);
        let tdomain = Column::from_timestamps("t", (0..10).map(|i| i * 3600).collect());
        let d2 = decoy_table("d2", "t", &tdomain, 2, 2);
        assert_eq!(d2.column("t").unwrap().dtype(), DataType::Timestamp);
    }

    #[test]
    fn deterministic_per_seed() {
        let domain = Column::from_i64("k", (0..20).collect());
        assert_eq!(
            decoy_table("d", "k", &domain, 2, 7),
            decoy_table("d", "k", &domain, 2, 7)
        );
        assert_ne!(
            decoy_table("d", "k", &domain, 2, 7),
            decoy_table("d", "k", &domain, 2, 8)
        );
    }
}
