//! Shared plumbing for the criterion bench targets.
//!
//! Every bench target does two things: (1) regenerate its figure's series
//! at quick scale and print the paper-style table (so `cargo bench`
//! reproduces the evaluation's *shapes*), then (2) run a criterion timing
//! group on the relevant hot path (so regressions in protocol or data-
//! structure performance are caught).

use std::path::Path;

use crate::experiments::select;
use crate::output::{default_output_dir, write_csv};
use crate::Scale;

/// Regenerate one experiment at quick scale, print its tables, and
/// persist CSVs and records under [`default_output_dir`]. Called at the
/// top of each bench target's `main`.
pub fn print_experiment(id: &str) {
    print_experiment_to(id, &default_output_dir());
}

/// [`print_experiment`] writing into `dir`.
pub fn print_experiment_to(id: &str, dir: &Path) {
    let scale = Scale::quick();
    for exp in select(&[id.to_string()]) {
        println!("=== {} — {} [{}] ===\n", exp.id, exp.title, scale.label);
        for set in (exp.run)(&scale, dir) {
            println!("{}", set.to_table());
            match write_csv(dir, &set) {
                Ok(path) => println!("   (csv: {})\n", path.display()),
                Err(e) => eprintln!("warning: csv write failed: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::test_dir;

    #[test]
    fn print_experiment_smoke_table51() {
        // The cheapest experiment; exercises the full print path.
        let dir = test_dir("print");
        print_experiment_to("table51", &dir);
        assert!(dir.read_dir().expect("csv written").next().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
