//! Prints one of the paper's tables or figures, or all of them:
//!
//! ```sh
//! cargo run --release -p optchain-bench --bin reproduce -- \
//!     <name|all> [--txs N] [--seed N] [--horizon S] [--full]
//! ```
//!
//! The names are the rows of `optchain_bench::figures::FIGURES`, listed
//! in the crate docs.

use optchain_bench::figures::FIGURES;
use optchain_bench::{Lab, Opts};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let mut lab = Lab::new(Opts::from_args(args).unwrap_or_else(|e| usage(&e)));
    if name == "all" {
        for (name, render) in FIGURES {
            println!("=== {name} ===\n{}", render(&mut lab));
        }
    } else if let Some((_, render)) = FIGURES.iter().find(|(n, _)| *n == name) {
        print!("{}", render(&mut lab));
    } else {
        usage(&format!("unknown table {name:?}"));
    }
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("error: {msg}");
    eprintln!("usage: reproduce <name|all> [--txs N] [--seed N] [--horizon S] [--full]");
    eprintln!("names: {}", names.join(" "));
    std::process::exit(2)
}
