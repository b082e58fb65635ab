//! # dds-core — distinct random sampling from distributed streams
//!
//! The algorithms of *Chung & Tirthapura, "Distinct Random Sampling from a
//! Distributed Stream"* (IPDPS 2015), implemented as site/coordinator state
//! machines over the [`dds_sim`] model:
//!
//! | module | paper source | what it is |
//! |---|---|---|
//! | [`infinite`] | Algorithms 1 & 2 | **the primary contribution**: lazy-threshold bottom-`s` distinct sampling, `O(ks·ln(de/s))` expected messages |
//! | [`broadcast`] | §5.2 | the *Broadcast* baseline (eager threshold sync) |
//! | [`with_replacement`] | §3 "Sampling With Replacement" | `s` parallel independent single-element samplers |
//! | [`sliding`] | Algorithms 3 & 4 | time-based sliding windows, `s = 1`, lazy feedback |
//! | [`sliding_nofeedback`] | §4.1 "Intuition" | the feedback-free sliding sampler, generalised to bottom-`s` via the s-skyband |
//! | [`sliding_multi`] | §3 recipe × §4 | sliding windows with replacement: `s` parallel copies of Algorithms 3 & 4 |
//! | [`centralized`] | §3 basic strategy | single-node bottom-`s` (KMV) sampler — the correctness oracle |
//! | [`drs`] | related work (Cormode et al.) | distributed *random* (non-distinct) sampling baseline for the DDS-vs-DRS comparison |
//! | [`bounds`] | Lemmas 3, 4, 9; Theorem 1 | closed-form message bounds used by tests and benches |
//! | [`messages`] | Chapter 2 footnote | wire formats (constant-size messages, byte-accounted) |
//!
//! ## Fidelity notes (where the pseudocode under-specifies)
//!
//! * **Coordinator threshold at `|P| = s`.** Algorithm 2 lowers `u` only
//!   when `|P|` *exceeds* `s`; but the analysis defines `u(t)` as the
//!   `s`-th smallest hash seen, which is available as soon as `|P| = s`.
//!   We set `u = max(h(P))` whenever `|P| ≥ s`, matching the analysis (the
//!   alternative merely costs a few extra messages).
//! * **Repeats are *not* free.** The paper asserts ("we first observe…")
//!   that repeats never trigger sends because `h(e)` cannot be below
//!   `uᵢ`. That is false for elements currently *inside* the sample: any
//!   sampled element other than the threshold element itself has
//!   `h(e) < u ≤ uᵢ`, so each of its re-occurrences is sent (uselessly —
//!   the coordinator ignores it and replies the unchanged `u`). An
//!   occurrence hits a sampled element with probability `s/d(t)` where
//!   `d(t)` is the distinct count *at that moment*, so the expected extra
//!   cost is `≈ 2(s−1)·(n/d)·(H_d − H_s)` messages
//!   ([`bounds::repeat_overhead`]). That is the *same order* as the
//!   legitimate traffic even at the paper's own figure parameters, and it
//!   went unnoticed because it accrues at rate `∝ 1/t` — the identical
//!   logarithmic flattening as the real cost. On repeat-heavy streams it
//!   is **larger than the Lemma 4 "worst-case" bound itself**: the
//!   quickstart example measures ~5× the bound at `n/d = 20`. On streams
//!   whose distinct
//!   count saturates entirely, cost grows *linearly* in `n` — measured
//!   in `infinite::tests::in_sample_repeat_cost_matches_prediction`. We
//!   implement the pseudocode verbatim and account the cost rather than
//!   silently patching the published algorithm.
//! * **Sliding-window timestamps.** The thesis mixes observation times and
//!   expiry times in its messages ("Send (e, t)"). We consistently ship
//!   *expiry slots*: an element observed at slot `t` with window `w` is
//!   live during `[t, t+w-1]` and its tuples carry `expiry = t + w`.
//! * **Empty-window fallback.** Algorithm 3's "select min of `Tᵢ`" on
//!   sample expiry assumes a non-empty candidate set; with an empty one
//!   the site resets to "no sample" (`uᵢ = 1`) and sends nothing.
//! * **Sliding-window staleness gap.** As published, Algorithm 4 can keep
//!   serving a sample that has left the window while a live element
//!   exists elsewhere (a fallback announcement can install a tuple that
//!   expires *before* the views other sites hold, leaving nobody awake to
//!   correct it). Our differential tests trip this reliably; see
//!   [`sliding`] for the scenario and the zero-message `O(k)`-memory fix
//!   ([`sliding::CoordinatorMode::Registry`], the default).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod broadcast;
pub mod centralized;
pub mod checkpoint;
pub mod drs;
pub mod infinite;
pub mod messages;
pub mod sampler;
pub mod sliding;
pub mod sliding_multi;
pub mod sliding_nofeedback;
pub mod with_replacement;

pub use broadcast::BroadcastConfig;
pub use centralized::{BottomS, CentralizedSampler, SlidingOracle};
pub use checkpoint::{restore_instance, restore_sampler, CheckpointError};
pub use drs::{DrsConfig, HalvingConfig};
pub use infinite::{InfiniteConfig, LazyCoordinator, LazySite};
pub use sampler::{
    AnySampler, DistinctSampler, FusedInfinite, FusedSliding, FusedSlidingMulti, FusedWr,
    SamplerKind, SamplerSpec,
};
pub use sliding::{CoordinatorMode, SlidingConfig, SwCoordinator, SwSite};
pub use sliding_multi::MultiSlidingConfig;
pub use sliding_nofeedback::NfConfig;
pub use with_replacement::WrConfig;
