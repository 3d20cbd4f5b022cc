//! The paper's figures and the deterministic count tables are part of
//! the contract. `fig1`, `fig2`, `fig4`–`fig8` and the added-relation
//! `gap` witness, rendered exactly as `experiments fig1 fig2 fig4 fig5
//! fig6 fig7 fig8 gap` prints them, must equal `golden/figures.txt` byte
//! for byte; B1, B4 and B5, as `experiments b1 b4 b5` prints them, must
//! equal `golden/tables.txt`. B1's and B4's counts come from one-worker
//! engine runs and B5 samples with a fixed seed, so all three repeat
//! exactly; B8 and B14 run several workers and stay out. The figures file
//! was written before operation descriptors became values; a change that
//! is meant to alter a figure or a table regenerates its file with
//! `FIGURES_WRITE=$PWD/crates/bench/tests/golden/figures.txt` or
//! `TABLES_WRITE=$PWD/crates/bench/tests/golden/tables.txt` before
//! `cargo test -p oodb-bench --test figures_golden`, and says so.

use oodb_bench::{figures, quant};

/// `parts`, each after a rule, as the `experiments` binary prints them.
fn render(parts: &[fn() -> String]) -> String {
    let mut out = String::new();
    for part in parts {
        out.push_str(&"=".repeat(72));
        out.push('\n');
        out.push_str(&part());
        out.push('\n');
    }
    out
}

/// `out` equals `golden` (the contents of `golden/<file>`); first writes
/// `out` to the path in the environment variable `write`, if it is set.
fn check(out: &str, golden: &str, file: &str, write: &str) {
    if let Ok(path) = std::env::var(write) {
        std::fs::write(&path, out).unwrap();
    }
    if out != golden {
        let line = out
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(golden.lines().count()));
        panic!(
            "output differs from crates/bench/tests/golden/{file} at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            out.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

#[test]
fn figures_equal_the_golden_file() {
    let out = render(&[
        figures::fig1,
        figures::fig2,
        figures::fig4,
        figures::fig5,
        figures::fig6,
        figures::fig7,
        figures::fig8,
        figures::gap,
    ]);
    let golden = include_str!("golden/figures.txt");
    check(&out, golden, "figures.txt", "FIGURES_WRITE");
}

#[test]
fn count_tables_equal_the_golden_file() {
    let out = render(&[quant::b1, quant::b4, quant::b5]);
    let golden = include_str!("golden/tables.txt");
    check(&out, golden, "tables.txt", "TABLES_WRITE");
}
