//! Exact message and byte accounting.
//!
//! The paper's cost measure is the total number of messages between sites
//! and coordinator (Chapter 2). [`MessageCounters`] tracks that number
//! exactly — split by direction and by site, with encoded bytes alongside —
//! and is the single source of truth every experiment reads.

use crate::model::SiteId;

/// Message direction relative to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Site → coordinator.
    Up,
    /// Coordinator → site.
    Down,
}

/// Per-direction, per-site message and byte tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageCounters {
    up_msgs: Vec<u64>,
    down_msgs: Vec<u64>,
    up_bytes: Vec<u64>,
    down_bytes: Vec<u64>,
}

impl MessageCounters {
    /// Counters for a `k`-site system.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            up_msgs: vec![0; k],
            down_msgs: vec![0; k],
            up_bytes: vec![0; k],
            down_bytes: vec![0; k],
        }
    }

    /// Rebuild a counter set from per-site tallies — the inverse of the
    /// per-site accessors, used by wire codecs that ship counters
    /// between processes (`dds-proto`'s cluster stats).
    ///
    /// # Panics
    /// If the four vectors disagree on length.
    #[must_use]
    pub fn from_parts(
        up_msgs: Vec<u64>,
        down_msgs: Vec<u64>,
        up_bytes: Vec<u64>,
        down_bytes: Vec<u64>,
    ) -> Self {
        assert!(
            up_msgs.len() == down_msgs.len()
                && up_msgs.len() == up_bytes.len()
                && up_msgs.len() == down_bytes.len(),
            "site-count mismatch"
        );
        Self {
            up_msgs,
            down_msgs,
            up_bytes,
            down_bytes,
        }
    }

    /// Number of sites this counter set covers.
    #[must_use]
    pub fn sites(&self) -> usize {
        self.up_msgs.len()
    }

    /// Site → coordinator messages recorded for one site.
    #[must_use]
    pub fn up_messages_for(&self, site: SiteId) -> u64 {
        self.up_msgs[site.0]
    }

    /// Coordinator → site messages recorded for one site.
    #[must_use]
    pub fn down_messages_for(&self, site: SiteId) -> u64 {
        self.down_msgs[site.0]
    }

    /// Site → coordinator bytes recorded for one site.
    #[must_use]
    pub fn up_bytes_for(&self, site: SiteId) -> u64 {
        self.up_bytes[site.0]
    }

    /// Coordinator → site bytes recorded for one site.
    #[must_use]
    pub fn down_bytes_for(&self, site: SiteId) -> u64 {
        self.down_bytes[site.0]
    }

    /// Record one message involving `site` in `dir`, of `bytes` encoded size.
    pub fn record(&mut self, dir: Direction, site: SiteId, bytes: usize) {
        match dir {
            Direction::Up => {
                self.up_msgs[site.0] += 1;
                self.up_bytes[site.0] += bytes as u64;
            }
            Direction::Down => {
                self.down_msgs[site.0] += 1;
                self.down_bytes[site.0] += bytes as u64;
            }
        }
    }

    /// Total messages in both directions — the paper's `Y`.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.up_messages() + self.down_messages()
    }

    /// Total site → coordinator messages.
    #[must_use]
    pub fn up_messages(&self) -> u64 {
        self.up_msgs.iter().sum()
    }

    /// Total coordinator → site messages (a broadcast counts `k`).
    #[must_use]
    pub fn down_messages(&self) -> u64 {
        self.down_msgs.iter().sum()
    }

    /// Total encoded bytes in both directions.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.up_bytes.iter().sum::<u64>() + self.down_bytes.iter().sum::<u64>()
    }

    /// Messages (both directions) involving a given site — the paper's `Yᵢ`.
    #[must_use]
    pub fn site_messages(&self, site: SiteId) -> u64 {
        self.up_msgs[site.0] + self.down_msgs[site.0]
    }

    /// Per-site totals, `Y₀ .. Y_{k-1}`.
    #[must_use]
    pub fn per_site_messages(&self) -> Vec<u64> {
        (0..self.sites())
            .map(|i| self.site_messages(SiteId(i)))
            .collect()
    }

    /// Mean encoded message size in bytes (0 if no messages yet).
    #[must_use]
    pub fn mean_message_bytes(&self) -> f64 {
        let msgs = self.total_messages();
        if msgs == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / msgs as f64
        }
    }

    /// Fold another counter set into this one (e.g. across runs).
    pub fn merge(&mut self, other: &MessageCounters) {
        assert_eq!(self.sites(), other.sites(), "site-count mismatch");
        for i in 0..self.sites() {
            self.up_msgs[i] += other.up_msgs[i];
            self.down_msgs[i] += other.down_msgs[i];
            self.up_bytes[i] += other.up_bytes[i];
            self.down_bytes[i] += other.down_bytes[i];
        }
    }

    /// Reset all tallies to zero, keeping the site count.
    pub fn reset(&mut self) {
        for v in [
            &mut self.up_msgs,
            &mut self.down_msgs,
            &mut self.up_bytes,
            &mut self.down_bytes,
        ] {
            v.iter_mut().for_each(|x| *x = 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_direction_and_site() {
        let mut c = MessageCounters::new(3);
        c.record(Direction::Up, SiteId(0), 24);
        c.record(Direction::Up, SiteId(0), 24);
        c.record(Direction::Down, SiteId(2), 8);
        assert_eq!(c.up_messages(), 2);
        assert_eq!(c.down_messages(), 1);
        assert_eq!(c.total_messages(), 3);
        assert_eq!(c.total_bytes(), 56);
        assert_eq!(c.site_messages(SiteId(0)), 2);
        assert_eq!(c.site_messages(SiteId(1)), 0);
        assert_eq!(c.site_messages(SiteId(2)), 1);
        assert_eq!(c.per_site_messages(), vec![2, 0, 1]);
    }

    #[test]
    fn from_parts_round_trips_per_site_accessors() {
        let mut c = MessageCounters::new(2);
        c.record(Direction::Up, SiteId(0), 8);
        c.record(Direction::Down, SiteId(1), 16);
        let rebuilt = MessageCounters::from_parts(
            (0..2).map(|i| c.up_messages_for(SiteId(i))).collect(),
            (0..2).map(|i| c.down_messages_for(SiteId(i))).collect(),
            (0..2).map(|i| c.up_bytes_for(SiteId(i))).collect(),
            (0..2).map(|i| c.down_bytes_for(SiteId(i))).collect(),
        );
        assert_eq!(rebuilt, c);
        assert_eq!(rebuilt.up_bytes_for(SiteId(0)), 8);
        assert_eq!(rebuilt.down_bytes_for(SiteId(1)), 16);
    }

    #[test]
    #[should_panic(expected = "site-count mismatch")]
    fn from_parts_rejects_mismatched_lengths() {
        let _ = MessageCounters::from_parts(vec![0; 2], vec![0; 3], vec![0; 2], vec![0; 2]);
    }

    #[test]
    fn mean_bytes_and_reset() {
        let mut c = MessageCounters::new(1);
        assert_eq!(c.mean_message_bytes(), 0.0);
        c.record(Direction::Up, SiteId(0), 10);
        c.record(Direction::Down, SiteId(0), 30);
        assert!((c.mean_message_bytes() - 20.0).abs() < 1e-12);
        c.reset();
        assert_eq!(c.total_messages(), 0);
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.sites(), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MessageCounters::new(2);
        let mut b = MessageCounters::new(2);
        a.record(Direction::Up, SiteId(0), 5);
        b.record(Direction::Up, SiteId(0), 5);
        b.record(Direction::Down, SiteId(1), 7);
        a.merge(&b);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(a.total_bytes(), 17);
    }

    #[test]
    #[should_panic(expected = "site-count mismatch")]
    fn merge_rejects_mismatched_sizes() {
        let mut a = MessageCounters::new(2);
        let b = MessageCounters::new(3);
        a.merge(&b);
    }
}
