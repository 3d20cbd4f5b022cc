//! Experiment driver: regenerate the paper's figures and the quantitative
//! tables. Usage: `experiments [fig1|fig2|fig4|fig5|fig6|fig7|fig8|gap|b1|b2|b3|b4|b5|…|b16|all]…`

use oodb_bench::{figures, quant};

fn run(id: &str) -> Option<String> {
    Some(match id {
        "fig1" => figures::fig1(),
        "fig2" => figures::fig2(),
        "fig4" => figures::fig4(),
        "fig5" => figures::fig5(),
        "fig6" => figures::fig6(),
        "fig7" => figures::fig7(),
        "fig8" => figures::fig8(),
        "gap" => figures::gap(),
        "b1" => quant::b1(),
        "b2" => quant::b2(),
        "b3" => quant::b3(),
        "b4" => quant::b4(),
        "b5" => quant::b5(),
        "b6" => quant::b6(),
        "b7" => quant::b7(),
        "b8" => quant::b8(),
        "b9" => quant::b9(),
        "b10" => quant::b10(),
        "b11" => quant::b11(),
        "b14" => quant::b14(),
        "b16" => quant::b16(),
        _ => return None,
    })
}

const ALL: [&str; 21] = [
    "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "gap", "b1", "b2", "b3", "b4", "b5",
    "b6", "b7", "b8", "b9", "b10", "b11", "b14", "b16",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        match run(id) {
            Some(out) => {
                println!("{}", "=".repeat(72));
                println!("{out}");
            }
            None => {
                eprintln!("unknown experiment {id:?}; known: {}", ALL.join(" "));
                std::process::exit(2);
            }
        }
    }
}
