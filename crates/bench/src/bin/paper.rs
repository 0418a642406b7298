//! Prints the paper's tables and figures: `paper <name|all>`, with the
//! names listed in `arda_bench::paper::ARTIFACTS`. `ARDA_BENCH_SCALE=full`
//! runs them at paper size. An unknown name prints the list and exits 2.

use arda_bench::bench_scale;
use arda_bench::paper::{print_table, ARTIFACTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<_> = ARTIFACTS
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: paper <{}|all>", names.join("|"));
        return ExitCode::from(2);
    }
    let scale = bench_scale();
    for (_, build) in chosen {
        print_table(&build(scale));
    }
    ExitCode::SUCCESS
}
