//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick|--medium|--full] [table51 fig51 ... | all]
//! ```
//!
//! Prints each figure as an aligned table (the paper-style rows/series)
//! and writes a CSV per figure, plus each extension's `BENCH_*.json`
//! record, under `$CARGO_TARGET_DIR/experiments/` (default
//! `target/experiments/`).

use std::time::Instant;

use dds_bench::experiments::{all, select};
use dds_bench::output::{default_output_dir, emit};
use dds_bench::Scale;

fn main() {
    let mut scale = Scale::quick();
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(s) = Scale::from_flag(&arg) {
            scale = s;
        } else if arg == "--help" || arg == "-h" {
            print_help();
            return;
        } else {
            ids.push(arg);
        }
    }

    let chosen = select(&ids);
    if chosen.is_empty() {
        eprintln!("no experiment matches {ids:?}; known ids:");
        for e in all() {
            eprintln!("  {:<16} {}", e.id, e.title);
        }
        std::process::exit(2);
    }

    let dir = default_output_dir();
    println!("# Distinct sampling experiments — {}\n", scale.label);
    let t0 = Instant::now();
    for exp in chosen {
        println!("=== {} — {} ===\n", exp.id, exp.title);
        let started = Instant::now();
        let sets = (exp.run)(&scale, &dir);
        for set in &sets {
            if let Err(e) = emit(&dir, set) {
                eprintln!("warning: failed to write CSV: {e}");
            }
        }
        println!("   [{} finished in {:.1?}]\n", exp.id, started.elapsed());
    }
    println!(
        "all done in {:.1?}; CSVs in {}",
        t0.elapsed(),
        dir.display()
    );
}

fn print_help() {
    println!("Usage: experiments [--quick|--medium|--full] [ids... | all]\n");
    println!("Experiments:");
    for e in all() {
        println!("  {:<16} {}", e.id, e.title);
    }
    println!("\nScales:");
    println!("  --quick   1/400 of each dataset, 3 runs per point (default)");
    println!("  --medium  1/40 of each dataset, 10 runs per point");
    println!("  --full    the paper's sizes, 50 runs (sliding: 10)");
}
