//! Property-based differential tests: the flat staircase ≡ the naive
//! oracle under arbitrary and under protocol-shaped operation sequences,
//! plus skyband(s=1) ≡ flat.
//!
//! Hashes are derived injectively from elements (as in the real protocol,
//! where `h` is a function of the element), so dominance is untied and the
//! implementations must agree *exactly*.

use dds_sim::{Element, Slot};
use dds_treap::{CandidateSet, FlatStaircase, NaiveCandidateSet, SkybandSet};
use proptest::prelude::*;

/// Injective pseudo-hash: odd-constant multiply (a bijection on u64).
fn h(e: u64) -> u64 {
    e.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x1234_5678)
}

#[derive(Debug, Clone)]
enum Op {
    /// Observe element (id) living for (life) slots past now.
    Insert { elem: u64, life: u64 },
    /// Advance time by one slot and expire.
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..48, 1u64..40).prop_map(|(elem, life)| Op::Insert { elem, life }),
        1 => Just(Op::Tick),
    ]
}

/// Window width of the protocol-shaped strategy.
const W: u64 = 16;

/// Protocol-shaped ops: most arrivals live exactly `W` slots, as every
/// local observation does, so they carry the newest expiry and take the
/// flat set's in-order path; the rest are coordinator echoes with an
/// older expiry, which take the general path.
fn windowed_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..48).prop_map(|elem| Op::Insert { elem, life: W }),
        1 => (0u64..48, 1u64..W).prop_map(|(elem, life)| Op::Insert { elem, life }),
        2 => Just(Op::Tick),
    ]
}

/// Apply one op to `s` at slot `now`; returns the slot after it.
fn step<S: CandidateSet>(s: &mut S, op: &Op, now: u64) -> u64 {
    match *op {
        Op::Insert { elem, life } => {
            s.insert_or_refresh(Element(elem), h(elem), Slot(now + life));
            now
        }
        Op::Tick => {
            s.expire(Slot(now + 1));
            now + 1
        }
    }
}

/// Drive the flat set and the oracle through `ops`: after every op they
/// hold the same entries, and the flat set's key order and staircase hold.
fn check_flat_equals_naive(ops: &[Op]) {
    let mut flat = FlatStaircase::new();
    let mut naive = NaiveCandidateSet::new();
    let mut now = 0;
    for op in ops {
        step(&mut naive, op, now);
        now = step(&mut flat, op, now);
        assert_eq!(
            flat.entries_sorted(),
            naive.entries_sorted(),
            "after {op:?}"
        );
        assert_eq!(flat.min_entry(), naive.min_entry());
        flat.validate();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_equals_naive(ops in prop::collection::vec(op_strategy(), 1..120)) {
        check_flat_equals_naive(&ops);
    }

    #[test]
    fn flat_equals_naive_long_runs(ops in prop::collection::vec(op_strategy(), 1..600)) {
        check_flat_equals_naive(&ops);
    }

    #[test]
    fn flat_equals_naive_in_order(ops in prop::collection::vec(windowed_op_strategy(), 1..300)) {
        check_flat_equals_naive(&ops);
    }

    #[test]
    fn skyband_s1_equals_staircase(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut sky = SkybandSet::new(1);
        let mut flat = FlatStaircase::new();
        let mut now = 0;
        for op in &ops {
            if let Op::Insert { elem, life } = *op {
                sky.insert_or_refresh(Element(elem), h(elem), Slot(now + life));
            } else {
                sky.expire(Slot(now + 1));
            }
            now = step(&mut flat, op, now);
            prop_assert_eq!(sky.min_entry(), flat.min_entry());
            prop_assert_eq!(sky.len(), flat.len());
            prop_assert_eq!(sky.entries_sorted(), flat.entries_sorted());
        }
    }

    /// Memory invariant: after any op sequence, entries sorted by expiry
    /// have strictly increasing hashes (the staircase).
    #[test]
    fn staircase_property_always(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut flat = FlatStaircase::new();
        ops.iter().fold(0, |now, op| step(&mut flat, op, now));
        let entries = flat.entries_sorted();
        for w in entries.windows(2) {
            prop_assert!(w[0].expiry <= w[1].expiry);
            prop_assert!(w[0].hash < w[1].hash, "staircase violated");
        }
    }
}
