//! Input generators. Everything a run sends is generated here from the
//! seed, before set-up.
//!
//! A feed is one finite *cycle* of input. A run that outlasts it sends
//! the cycle again with every element XOR-ed by a per-cycle salt: a
//! bijection, so repeats within a cycle stay repeats while the next
//! cycle is fresh data, and element statistics do not drift over a run.

use dds_data::synthetic::{TraceLikeStream, TraceProfile};
use dds_data::Zipf;
use dds_engine::TenantId;
use dds_hash::splitmix::{splitmix64, splitmix64_keyed, SplitMix64};
use dds_sim::{Element, Slot};

/// The XOR salt of cycle `cycle` (0 for the first, so it is sent as
/// generated).
#[must_use]
pub fn cycle_salt(seed: u64, cycle: u64) -> u64 {
    if cycle == 0 {
        0
    } else {
        splitmix64(seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// `(tenant, element)` pairs: tenants drawn from Zipf(1.0) over
/// `1..=tenants`, each tenant's elements drawn from a domain of about
/// 0.6 × its own count, so about half of all elements are repeats of
/// an earlier `(tenant, element)`.
#[must_use]
pub fn zipf_pairs(seed: u64, tenants: u64, len: usize) -> Vec<(TenantId, Element)> {
    let zipf = Zipf::new(tenants, 1.0);
    let mut rng = SplitMix64::new(seed ^ 0x7e4a_17f0_0dd5_eed5);
    let ranks: Vec<u64> = (0..len).map(|_| zipf.sample(&mut rng)).collect();
    let mut counts = vec![0u64; tenants as usize + 1];
    for &r in &ranks {
        counts[r as usize] += 1;
    }
    ranks
        .into_iter()
        .map(|r| {
            let domain = (counts[r as usize] * 3).div_ceil(5).max(1);
            let x = rng.next_below(domain);
            (TenantId(r), Element(splitmix64_keyed(x, seed ^ r)))
        })
        .collect()
}

/// Share of `pairs` that repeat an earlier `(tenant, element)`.
#[must_use]
pub fn repeat_share(pairs: &[(TenantId, Element)]) -> f64 {
    let mut seen = std::collections::HashSet::with_capacity(pairs.len());
    let repeats = pairs.iter().filter(|p| !seen.insert(**p)).count();
    repeats as f64 / pairs.len().max(1) as f64
}

/// A cyclic feed of fixed-size `(tenant, element)` batches.
#[derive(Debug, Clone)]
pub struct BatchFeed {
    seed: u64,
    pairs: Vec<(TenantId, Element)>,
    batch: usize,
}

impl BatchFeed {
    /// `pairs` cut into batches of `batch` (the tail that does not fill
    /// a batch is dropped).
    #[must_use]
    pub fn new(seed: u64, mut pairs: Vec<(TenantId, Element)>, batch: usize) -> BatchFeed {
        pairs.truncate(pairs.len() / batch * batch);
        assert!(!pairs.is_empty(), "feed shorter than one batch");
        BatchFeed { seed, pairs, batch }
    }

    /// Batches per cycle.
    #[must_use]
    pub fn batches_per_cycle(&self) -> u64 {
        (self.pairs.len() / self.batch) as u64
    }

    /// One cycle, as generated.
    #[must_use]
    pub fn cycle(&self) -> &[(TenantId, Element)] {
        &self.pairs
    }

    /// Batch number `b` of the whole (cyclic) sequence.
    pub fn batch(&self, b: u64) -> impl Iterator<Item = (TenantId, Element)> + '_ {
        let per = self.batches_per_cycle();
        let salt = cycle_salt(self.seed, b / per);
        let at = (b % per) as usize * self.batch;
        self.pairs[at..at + self.batch]
            .iter()
            .map(move |&(t, e)| (t, Element(e.0 ^ salt)))
    }
}

/// One step of a slotted send order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendStep {
    /// Slot index within the cycle.
    pub idx: u32,
    /// This step opens an out-of-order window: later slots overtake an
    /// earlier one until the matching `close`.
    pub open: bool,
    /// This step sends the late slot and closes the window.
    pub close: bool,
}

/// A cyclic feed of one `(tenant, element)` batch per slot, sent in an
/// order where some slots arrive late.
#[derive(Debug, Clone)]
pub struct SlotFeed {
    seed: u64,
    pairs: Vec<(TenantId, Element)>,
    per_slot: usize,
    order: Vec<SendStep>,
}

impl SlotFeed {
    /// `pairs` cut into slots of `per_slot`; with probability
    /// `late_p` per step, a slot is held back behind the next 1–4 slots
    /// (`late_p` = 0.057 makes about 5 % of batches late). Out-of-order
    /// windows never overlap and never straddle a cycle boundary.
    #[must_use]
    pub fn new(
        seed: u64,
        mut pairs: Vec<(TenantId, Element)>,
        per_slot: usize,
        late_p: f64,
    ) -> SlotFeed {
        pairs.truncate(pairs.len() / per_slot * per_slot);
        let slots = (pairs.len() / per_slot) as u32;
        assert!(slots > 8, "slot feed needs more than 8 slots");
        let mut rng = SplitMix64::new(seed ^ 0x1a7e_ba7c_4e5a_0001);
        let mut order = Vec::with_capacity(slots as usize);
        let mut i = 0u32;
        while i < slots {
            if i + 5 < slots && rng.next_f64() < late_p {
                let d = 1 + rng.next_below(4) as u32;
                for j in 1..=d {
                    order.push(SendStep {
                        idx: i + j,
                        open: j == 1,
                        close: false,
                    });
                }
                order.push(SendStep {
                    idx: i,
                    open: false,
                    close: true,
                });
                i += d + 1;
            } else {
                order.push(SendStep {
                    idx: i,
                    open: false,
                    close: false,
                });
                i += 1;
            }
        }
        SlotFeed {
            seed,
            pairs,
            per_slot,
            order,
        }
    }

    /// Slots per cycle.
    #[must_use]
    pub fn slots_per_cycle(&self) -> u64 {
        (self.pairs.len() / self.per_slot) as u64
    }

    /// The send step number `n` of the whole (cyclic) sequence, with
    /// its absolute slot.
    #[must_use]
    pub fn step(&self, n: u64) -> (SendStep, Slot) {
        let per = self.order.len() as u64;
        let step = self.order[(n % per) as usize];
        (step, self.slot_of(n / per, step.idx))
    }

    /// The absolute slot of cycle `cycle`'s slot index `idx` (slots
    /// start at 1).
    #[must_use]
    pub fn slot_of(&self, cycle: u64, idx: u32) -> Slot {
        Slot(1 + cycle * self.slots_per_cycle() + u64::from(idx))
    }

    /// Send steps per cycle.
    #[must_use]
    pub fn steps_per_cycle(&self) -> u64 {
        self.order.len() as u64
    }

    /// Share of send steps that deliver a late slot.
    #[must_use]
    pub fn late_share(&self) -> f64 {
        self.order.iter().filter(|s| s.close).count() as f64 / self.order.len() as f64
    }

    /// The batch of absolute slot `slot`.
    pub fn slot_batch(&self, slot: Slot) -> impl Iterator<Item = (TenantId, Element)> + '_ {
        let rel = slot.0 - 1;
        let per = self.slots_per_cycle();
        let salt = cycle_salt(self.seed, rel / per);
        let at = (rel % per) as usize * self.per_slot;
        self.pairs[at..at + self.per_slot]
            .iter()
            .map(move |&(t, e)| (t, Element(e.0 ^ salt)))
    }
}

/// A cyclic single stream of elements with repeats (a
/// [`TraceLikeStream`], four occurrences per distinct element).
#[derive(Debug, Clone)]
pub struct StreamFeed {
    seed: u64,
    elements: Vec<Element>,
}

impl StreamFeed {
    /// `len` elements.
    #[must_use]
    pub fn new(seed: u64, len: u64) -> StreamFeed {
        let profile = TraceProfile {
            name: "perfbench",
            total: len,
            distinct: (len / 4).max(1),
        };
        StreamFeed {
            seed,
            elements: TraceLikeStream::new(profile, seed).collect(),
        }
    }

    /// One cycle, as generated.
    #[must_use]
    pub fn cycle(&self) -> &[Element] {
        &self.elements
    }

    /// Element number `i` of the whole (cyclic) sequence.
    #[must_use]
    pub fn element(&self, i: u64) -> Element {
        let len = self.elements.len() as u64;
        Element(self.elements[(i % len) as usize].0 ^ cycle_salt(self.seed, i / len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_pairs_repeat_about_half_the_time() {
        let pairs = zipf_pairs(7, 2_000, 100_000);
        let share = repeat_share(&pairs);
        assert!((0.4..0.6).contains(&share), "repeat share {share}");
        // Zipf(1.0): the hottest tenant is the most frequent.
        let hot = pairs.iter().filter(|(t, _)| t.0 == 1).count();
        let second = pairs.iter().filter(|(t, _)| t.0 == 2).count();
        assert!(hot > second);
    }

    #[test]
    fn cycles_are_fresh_and_deterministic() {
        let feed = BatchFeed::new(3, zipf_pairs(3, 100, 1_000), 64);
        let per = feed.batches_per_cycle();
        let first: Vec<_> = feed.batch(0).collect();
        let again: Vec<_> = feed.batch(0).collect();
        let next_cycle: Vec<_> = feed.batch(per).collect();
        assert_eq!(first, again);
        assert_eq!(
            first.iter().map(|p| p.0).collect::<Vec<_>>(),
            next_cycle.iter().map(|p| p.0).collect::<Vec<_>>()
        );
        assert!(first.iter().zip(&next_cycle).all(|(a, b)| a.1 != b.1));
    }

    #[test]
    fn slot_order_is_a_permutation_with_bounded_lateness() {
        let feed = SlotFeed::new(11, zipf_pairs(11, 64, 64 * 2_000), 64, 0.057);
        let per = feed.steps_per_cycle();
        let mut seen: Vec<u32> = (0..per).map(|n| feed.step(n).0.idx).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..feed.slots_per_cycle() as u32).collect::<Vec<_>>());
        let late = feed.late_share();
        assert!((0.03..0.07).contains(&late), "late share {late}");
        let mut high = 0u64;
        for n in 0..per {
            let (_, slot) = feed.step(n);
            assert!(slot.0 + 4 >= high, "slot {} behind {high}", slot.0);
            high = high.max(slot.0);
        }
    }
}
