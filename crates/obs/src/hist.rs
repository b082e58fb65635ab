//! Fixed-bucket log-linear histograms.
//!
//! The bucket layout is log-linear with 8 sub-buckets per octave (the
//! HdrHistogram idea at 3 bits of precision): values 0–7 land in exact
//! unit buckets; every larger value lands in a bucket whose width is at
//! most 1/8 of its lower bound. Quantile estimates therefore carry a
//! bounded relative error: for any recorded value `v`,
//! `v <= estimate <= v + v/8` (the estimate is the bucket's upper
//! bound, capped by the exactly-tracked maximum). 496 buckets cover the
//! full `u64` range, so a nanosecond timer saturates only at ~584 years
//! — the top bucket simply keeps counting.
//!
//! Recording is three relaxed `fetch_add`s and one `fetch_max`;
//! snapshots are sparse (only occupied buckets) and mergeable, which is
//! what lets per-shard histograms roll up into engine-wide ones and
//! per-run histograms into experiment aggregates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-buckets per octave, as a bit count (8 sub-buckets).
const SUB_BITS: u32 = 3;

/// Total number of buckets covering `0..=u64::MAX`.
pub const BUCKET_COUNT: usize = 496;

/// The bucket a value lands in.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let bits = 64 - v.leading_zeros(); // >= 4
    let octave = (bits - SUB_BITS) as usize; // >= 1
    let sub = ((v >> (bits - 1 - SUB_BITS)) & 0x7) as usize;
    octave * 8 + sub
}

/// Smallest value that lands in bucket `i`.
///
/// # Panics
/// If `i >= BUCKET_COUNT`.
#[must_use]
pub fn bucket_lower_bound(i: usize) -> u64 {
    assert!(i < BUCKET_COUNT, "bucket index out of range");
    if i < 8 {
        return i as u64;
    }
    let octave = i / 8;
    (8 + (i % 8) as u64) << (octave - 1)
}

/// Largest value that lands in bucket `i`.
///
/// # Panics
/// If `i >= BUCKET_COUNT`.
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        bucket_lower_bound(i + 1) - 1
    }
}

#[derive(Debug)]
struct Cells {
    buckets: Vec<AtomicU64>, // BUCKET_COUNT entries
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A lock-free histogram; cloning shares the underlying cells.
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<Cells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            cells: Arc::new(Cells {
                buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        if crate::IS_NOOP {
            return;
        }
        let c = &*self.cells;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far (0 under `obs-noop`).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Point-in-time sparse copy. Exact once recorders are quiescent;
    /// per-cell consistent always (the same caveat as every relaxed
    /// counter in this workspace).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &*self.cells;
        let mut buckets = Vec::new();
        for (i, cell) in c.buckets.iter().enumerate() {
            let n = cell.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A plain, mergeable copy of a histogram: sparse `(bucket, count)`
/// pairs sorted by bucket index, plus exact count/sum/max.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
    /// Occupied buckets, sorted by index, counts nonzero.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`).
    ///
    /// Returns the upper bound of the bucket holding the rank-`⌈qn⌉`
    /// value, capped at the exact maximum; 0 when empty. For any
    /// recorded value `v` at that rank, `v <= estimate <= v + v/8`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_bound(i as usize).min(self.max);
            }
        }
        self.max
    }

    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another snapshot into this one. Associative and
    /// commutative, so per-shard and per-run histograms roll up in any
    /// order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *merged.entry(i).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact_buckets() {
        for v in 0..16u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_lower_bound(i), v);
            assert_eq!(bucket_upper_bound(i), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        let probes = [
            16u64,
            17,
            100,
            1_000,
            65_535,
            65_536,
            1 << 32,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < BUCKET_COUNT, "index {i} for {v}");
            assert!(bucket_lower_bound(i) <= v, "lower({i}) > {v}");
            assert!(v <= bucket_upper_bound(i), "upper({i}) < {v}");
        }
    }

    #[test]
    fn bucket_boundaries_tile_the_u64_range() {
        // Consecutive buckets meet exactly: upper(i) + 1 == lower(i+1),
        // and every boundary value maps into the bucket it bounds.
        for i in 0..BUCKET_COUNT - 1 {
            assert_eq!(bucket_upper_bound(i) + 1, bucket_lower_bound(i + 1));
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_upper_bound(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn bucket_width_is_bounded_by_an_eighth() {
        for i in 8..BUCKET_COUNT - 1 {
            let lower = bucket_lower_bound(i);
            let width = bucket_upper_bound(i) - lower + 1;
            assert!(
                width <= lower / 8,
                "bucket {i}: width {width} lower {lower}"
            );
        }
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        h.observe(u64::MAX / 2 + 1); // still in the top octave's range
        let s = h.snapshot();
        if crate::IS_NOOP {
            assert_eq!(s.count, 0);
            return;
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets.last().unwrap().0 as usize, BUCKET_COUNT - 1);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantiles_match_an_exact_oracle_within_an_eighth() {
        // Deterministic pseudo-random samples (splitmix64) checked
        // against a sorted oracle; the proptest variant with random
        // sample sets lives in the workspace test suite.
        if crate::IS_NOOP {
            return;
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let h = Histogram::new();
        let mut samples: Vec<u64> = (0..5_000).map(|_| next() % 10_000_000).collect();
        for &v in &samples {
            h.observe(v);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for q in [0.5, 0.9, 0.99, 1.0] {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let est = snap.quantile(q);
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            assert!(
                est - exact <= exact / 8,
                "q={q}: est {est} off exact {exact} by more than 1/8"
            );
        }
        assert_eq!(snap.quantile(1.0), *samples.last().unwrap());
    }

    #[test]
    fn merge_is_associative_on_fixed_samples() {
        if crate::IS_NOOP {
            return;
        }
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(&[1, 5, 900]), mk(&[2, 2, 1 << 40]), mk(&[0, 77]));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.count, 8);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }
}
