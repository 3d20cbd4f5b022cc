//! Experiment driver: regenerate the paper's figures and the quantitative
//! tables. Usage: `experiments [fig1|fig2|fig4|…|gap|b1|b4|…|b16|all]…`

use oodb_bench::{figures, quant};

/// An experiment's id and the function that prints it.
type Experiment = (&'static str, fn() -> String);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("gap", figures::gap),
    ("b1", quant::b1),
    ("b4", quant::b4),
    ("b5", quant::b5),
    ("b8", quant::b8),
    ("b9", quant::b9),
    ("b10", quant::b10),
    ("b11", quant::b11),
    ("b14", quant::b14),
    ("b16", quant::b16),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|&(id, _)| id).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        match EXPERIMENTS.iter().find(|&&(name, _)| name == id) {
            Some((_, run)) => {
                println!("{}", "=".repeat(72));
                println!("{}", run());
            }
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
                eprintln!("unknown experiment {id:?}; known: {}", known.join(" "));
                std::process::exit(2);
            }
        }
    }
}
