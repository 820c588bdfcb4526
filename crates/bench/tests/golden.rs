//! Every `reproduce` table at `--txs 20000 --horizon 1` (default seed),
//! diffed against its copy under `crates/bench/golden/`. One [`Lab`]
//! renders them all in `reproduce all`'s order, so figs 4–10 read fig 3's
//! cells here exactly as they do there.
//!
//! A table that changes on purpose is re-pinned with its own command, e.g.
//!
//! ```sh
//! cargo run --release -p optchain-bench --bin reproduce -- fig5 --txs 20000 --horizon 1 \
//!     > crates/bench/golden/fig5.txt
//! ```
//!
//! `ablation_window`'s "state (MB)" column measures arena layout, so a
//! change to the graph's or the stores' layout re-pins that file.

use std::path::Path;

use optchain_bench::figures::FIGURES;
use optchain_bench::{Lab, Opts};

#[test]
fn every_table_matches_its_golden() {
    let args = ["--txs", "20000", "--horizon", "1"].map(String::from);
    let mut lab = Lab::new(Opts::from_args(args).expect("valid flags"));
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let mut stale = Vec::new();
    for (name, render) in FIGURES {
        let got = render(&mut lab);
        let want = std::fs::read_to_string(dir.join(format!("{name}.txt"))).unwrap_or_default();
        if got != want {
            let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
            let line = line.unwrap_or(got.lines().count().min(want.lines().count()));
            stale.push(format!("{name} (first difference on line {})", line + 1));
        }
    }
    assert!(
        stale.is_empty(),
        "tables differ from their goldens: {}",
        stale.join(", ")
    );
    let pinned = std::fs::read_dir(&dir).expect("golden dir").count();
    assert_eq!(pinned, FIGURES.len(), "a golden file without a FIGURES row");
    // Figs 4–10 add no cell to fig 3's 4 strategies × 7 shard counts × 5 rates.
    assert_eq!(lab.simulations(), 140);
}
