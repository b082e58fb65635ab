//! Output plumbing: print figure tables and persist CSVs.

use std::fs;
use std::io::Write as IoWrite;
use std::path::{Path, PathBuf};

use dds_sim::metrics::SeriesSet;

/// Default directory for experiment CSVs and `BENCH_*.json` records:
/// `$CARGO_TARGET_DIR/experiments`, else `target/experiments` relative
/// to the working directory. The `experiments` binary writes here;
/// tests hand experiments a temporary directory.
#[must_use]
pub fn default_output_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("experiments")
}

/// Write one `BENCH_*.json` record into `dir` and print where it went
/// (a write failure is a warning, not an error: the measurement still
/// printed its tables).
pub fn write_record(dir: &Path, name: &str, json: &str) {
    let path = dir.join(name);
    if let Err(e) = fs::create_dir_all(dir).and_then(|()| fs::write(&path, json)) {
        eprintln!("warning: failed to write {}: {e}", path.display());
    } else {
        println!("   (json: {})\n", path.display());
    }
}

/// A directory under the system temp dir for one test's output, unique
/// per process and `name`; the caller removes it.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dds-bench-{name}-{}", std::process::id()))
}

/// Slugify a figure title into a file name.
#[must_use]
pub fn slug(title: &str) -> String {
    let mut out = String::with_capacity(title.len());
    let mut last_dash = true;
    for c in title.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
        if out.len() >= 80 {
            break;
        }
    }
    out.trim_matches('-').to_string()
}

/// Write one figure's CSV under `dir`; returns the path.
///
/// # Errors
/// Propagates filesystem failures.
pub fn write_csv(dir: &Path, set: &SeriesSet) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", slug(&set.title)));
    let mut f = fs::File::create(&path)?;
    f.write_all(set.to_csv().as_bytes())?;
    Ok(path)
}

/// Print a figure as an aligned table to stdout and persist its CSV.
///
/// # Errors
/// Propagates filesystem failures.
pub fn emit(dir: &Path, set: &SeriesSet) -> std::io::Result<()> {
    println!("{}", set.to_table());
    let path = write_csv(dir, set)?;
    println!("   (csv: {})\n", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim::metrics::Series;

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(
            slug("Figure 5.1 (OC48) [quick]: k=5, s=10"),
            "figure-5-1-oc48-quick-k-5-s-10"
        );
        assert_eq!(slug("---"), "");
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let dir = test_dir("csv");
        let mut set = SeriesSet::new("Test Figure", "x", "y");
        let mut s = Series::new("a");
        s.push(1.0, 2.0);
        set.push(s);
        let path = write_csv(&dir, &set).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x,a\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
