//! The paper-claims ledger: `bench_paper [SECTION...]`.
//!
//! With no argument, runs every analytic section (under a second) — the
//! rows of `BENCH_paper.json`. Given section names, runs exactly those,
//! trained ones included (`ECNN_BENCH_SCALE` multiplies their training
//! steps). Prints the ledger as a table on stderr and as JSON on stdout:
//!
//! ```text
//! cargo run --release -p ecnn-bench --bin bench_paper > BENCH_paper.json
//! ```

use ecnn_bench::paper::{Kind, Ledger, SECTIONS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ledger = if args.is_empty() {
        Ledger::analytic()
    } else {
        let names: Vec<&str> = args.iter().map(String::as_str).collect();
        Ledger::run(&names).unwrap_or_else(|bad| {
            eprintln!("bench_paper: unknown section {bad:?}; sections:");
            for s in SECTIONS {
                let kind = match s.kind {
                    Kind::Analytic(_) => "analytic",
                    Kind::Trained(_) => "trained",
                };
                eprintln!("  {:<26} {kind}", s.name);
            }
            std::process::exit(2);
        })
    };
    eprint!("{}", ledger.table());
    print!("{}", ledger.to_json());
}
