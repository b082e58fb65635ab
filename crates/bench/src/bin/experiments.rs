//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick|--medium|--full] [--noop-bin <path>] [table51 fig51 ... | all]
//! ```
//!
//! Prints each figure as an aligned table (the paper-style rows/series)
//! and writes a CSV per figure, plus each extension's `BENCH_*.json`
//! record, under `$CARGO_TARGET_DIR/experiments/` (default
//! `target/experiments/`).

use std::time::Instant;

use dds_bench::experiments::{all, ext_obs_overhead, parse_args};
use dds_bench::output::{default_output_dir, emit};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let (scale, chosen, noop_bin) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(unknown) => {
            eprintln!("unknown argument(s) {unknown:?}; known ids:");
            for e in all() {
                eprintln!("  {:<16} {}", e.id, e.title);
            }
            std::process::exit(2);
        }
    };

    let dir = default_output_dir();
    println!("# Distinct sampling experiments — {}\n", scale.label);
    let t0 = Instant::now();
    for exp in chosen {
        println!("=== {} — {} ===\n", exp.id, exp.title);
        let started = Instant::now();
        let sets = match (&noop_bin, exp.id) {
            (Some(bin), "ext_obs_overhead") => ext_obs_overhead::gate(&scale, &dir, bin),
            _ => (exp.run)(&scale, &dir),
        };
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
    println!("Usage: experiments [--quick|--medium|--full] [--noop-bin <path>] [ids... | all]\n");
    println!("Experiments:");
    for e in all() {
        println!("  {:<16} {}", e.id, e.title);
    }
    println!("\nScales:");
    println!("  --quick   1/400 of each dataset, 3 runs per point (default)");
    println!("  --medium  1/40 of each dataset, 10 runs per point");
    println!("  --full    the paper's sizes, 50 runs (sliding: 10)");
    println!("\nGate:");
    println!("  --noop-bin <path>  the obs-noop build of this binary: ext_obs_overhead");
    println!("                     alternates rounds of both builds and gates the overhead");
}
