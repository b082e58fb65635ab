//! Experiment scaling presets.

use dds_data::TraceProfile;

/// How big to run: divides the dataset profiles and sets the number of
/// independent runs each data point is averaged over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Integer divisor applied to both `total` and `distinct` of each
    /// dataset profile (1 = the paper's full sizes).
    pub divisor: u64,
    /// Independent runs averaged per data point (the paper uses 50 for
    /// infinite-window figures and 10 for sliding windows).
    pub runs: u32,
    /// Human-readable label, shown in output headers.
    pub label: &'static str,
}

impl Scale {
    /// Laptop-speed: 1/400 of each dataset, 3 runs per point. Seconds per
    /// figure; shapes already match.
    #[must_use]
    pub fn quick() -> Self {
        Scale {
            divisor: 400,
            runs: 3,
            label: "quick (1/400 scale, 3 runs)",
        }
    }

    /// 1/40 of each dataset, 10 runs — minutes per figure, tight curves.
    #[must_use]
    pub fn medium() -> Self {
        Scale {
            divisor: 40,
            runs: 10,
            label: "medium (1/40 scale, 10 runs)",
        }
    }

    /// The paper's sizes: full datasets, 50 runs (10 for sliding windows).
    /// Hours of compute; intended for unattended reproduction runs.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            divisor: 1,
            runs: 50,
            label: "full (paper scale, 50 runs)",
        }
    }

    /// Runs used for sliding-window experiments (the paper averages 10
    /// there instead of 50).
    #[must_use]
    pub fn sliding_runs(&self) -> u32 {
        self.runs.min(10)
    }

    /// A dataset profile at this scale.
    #[must_use]
    pub fn apply(&self, profile: TraceProfile) -> TraceProfile {
        profile.scaled_down(self.divisor)
    }

    /// The CLI flag that selects this scale (`None` for a custom one).
    #[must_use]
    pub fn flag(&self) -> Option<&'static str> {
        ["--quick", "--medium", "--full"]
            .into_iter()
            .find(|flag| Scale::from_flag(flag) == Some(*self))
    }

    /// Parse from a CLI flag.
    #[must_use]
    pub fn from_flag(flag: &str) -> Option<Scale> {
        match flag {
            "--quick" => Some(Scale::quick()),
            "--medium" => Some(Scale::medium()),
            "--full" => Some(Scale::full()),
            _ => None,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_data::OC48;

    #[test]
    fn presets_divide_profiles() {
        let q = Scale::quick().apply(OC48);
        assert_eq!(q.total, OC48.total / 400);
        let f = Scale::full().apply(OC48);
        assert_eq!(f.total, OC48.total);
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(Scale::from_flag("--quick"), Some(Scale::quick()));
        assert_eq!(Scale::from_flag("--full"), Some(Scale::full()));
        assert_eq!(Scale::from_flag("--bogus"), None);
    }

    #[test]
    fn sliding_runs_capped_at_ten() {
        assert_eq!(Scale::full().sliding_runs(), 10);
        assert_eq!(Scale::quick().sliding_runs(), 3);
    }
}
