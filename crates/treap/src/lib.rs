//! # dds-treap — candidate-set structures for sliding-window sampling
//!
//! The sliding-window algorithm (paper, Chapter 4) requires each site to
//! track, inside its current window, every element that "could potentially
//! be included within the random sample of distinct elements either now, or
//! in the future" — the set `Tᵢ` of Algorithm 3. A tuple `(e', t')` is
//! useless once some `(e, t)` **dominates** it: `e` both outlives `e'`
//! *and* has a smaller hash, so `e'` can never again be the minimum.
//!
//! The paper suggests a treap (Seidel–Aragon) for `Tᵢ`, following the
//! priority-sampling-over-sliding-windows idea of Babcock, Datar & Motwani
//! (SODA '02). Its own Lemma 10 bounds the expected size by
//! `E[|Tᵢ|] ≤ H_{|Dᵢ|}` — logarithmic in the number of distinct in-window
//! elements, a few dozen entries even for million-element windows. At that
//! size a balanced search tree buys nothing: one sorted `Vec` answers every
//! query with a binary search and a `memmove`, in one or two cache lines.
//! So the candidate set here is that `Vec`, and the treap is gone. The
//! candidate set is invisible to the protocol — every figure CSV of the
//! paper's evaluation (`experiments table51 … fig57 fig59 ext_ablation`,
//! including the tuple counts of Figures 5.7 and 5.9) came out
//! byte-identical when the treap was replaced.
//!
//! This crate provides:
//!
//! * [`flat`] — the staircase of surviving tuples kept in one sorted `Vec`:
//!   inline `(e, u, t)` tuples, no per-node allocation, no side index. It
//!   backs every sliding-window site: the `dds-sim` clusters, the fused
//!   samplers of the engine and the cluster's site daemons.
//! * [`naive`] — an O(n²) straight-from-the-definition implementation:
//!   the oracle for property-based tests.
//! * [`skyband`] — the s-**skyband** generalisation (keep a tuple unless
//!   ≥ s tuples dominate it), which upgrades the sliding-window protocol
//!   from a single sample to bottom-`s` *without replacement* — the
//!   "straightforward extension to larger sample sizes" of §4.1,
//!   made concrete.
//!
//! [`CandidateSet`] is the contract the conformance suite and the
//! differential property tests hold [`FlatStaircase`] and
//! [`NaiveCandidateSet`] to.
//!
//! ## Dominance convention
//!
//! The paper defines `(e, t)` dominates `(e', t')` iff `t > t'` and
//! `h(e) < h(e')`. We use **non-strict time**: `t ≥ t'` and
//! `h(e) < h(e')` (for distinct elements). A tuple discarded under the
//! non-strict rule but kept under the strict one expires at the same
//! instant as its dominator yet always hashes larger, so it can never be a
//! window minimum while alive — discarding it changes no query answer and
//! only shrinks memory. The equal-expiry case actually occurs whenever a
//! site observes several elements in one slot (as in the paper's §5.3
//! experiments, which deal five elements per timestep).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod flat;
pub mod naive;
pub mod skyband;

pub use candidate::{CandidateEntry, CandidateSet};
pub use flat::FlatStaircase;
pub use naive::NaiveCandidateSet;
pub use skyband::SkybandSet;
