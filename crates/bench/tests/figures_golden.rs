//! The paper's figures are part of the contract: `fig1`, `fig2`,
//! `fig4`–`fig8` and the added-relation `gap` witness, rendered exactly
//! as `experiments fig1 fig2 fig4 fig5 fig6 fig7 fig8 gap` prints them,
//! must equal `golden/figures.txt` byte for byte. The file was written
//! before operation descriptors became values; a change that is meant to
//! alter a figure regenerates it with
//! `FIGURES_WRITE=$PWD/crates/bench/tests/golden/figures.txt cargo test -p oodb-bench --test figures_golden`
//! and says so.

use oodb_bench::figures;

fn render() -> String {
    let figs: [fn() -> String; 8] = [
        figures::fig1,
        figures::fig2,
        figures::fig4,
        figures::fig5,
        figures::fig6,
        figures::fig7,
        figures::fig8,
        figures::gap,
    ];
    let mut out = String::new();
    for fig in figs {
        out.push_str(&"=".repeat(72));
        out.push('\n');
        out.push_str(&fig());
        out.push('\n');
    }
    out
}

#[test]
fn figures_equal_the_golden_file() {
    let out = render();
    if let Ok(path) = std::env::var("FIGURES_WRITE") {
        std::fs::write(&path, &out).unwrap();
    }
    let golden = include_str!("golden/figures.txt");
    if out != golden {
        let line = out
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(golden.lines().count()));
        panic!(
            "figures differ from crates/bench/tests/golden/figures.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            out.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
