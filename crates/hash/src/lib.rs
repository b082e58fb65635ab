//! # dds-hash — hashing substrate for distributed distinct sampling
//!
//! The distinct-sampling algorithms of Chung & Tirthapura (IPDPS 2015) are
//! built on one primitive: a hash function `h : U -> [0, 1)` whose outputs
//! behave like mutually independent uniform random variables. The sample of
//! the distinct elements of a stream is *the set of elements with the `s`
//! smallest hash values*, so everything — correctness, message complexity,
//! memory bounds — rides on the quality and determinism of `h`.
//!
//! This crate keeps one implementation per job:
//!
//! * [`murmur2`] — MurmurHash64A, the family the paper's reference
//!   implementation used: the sampling hash every [`SeededHash`] runs,
//!   and the integrity trailer of every wire frame and checkpoint.
//! * [`splitmix`] — the SplitMix64 mixer, which derives the seeds of a
//!   hash family, routes tenants to shards, and drives the workspace's
//!   deterministic generators.
//! * [`fnv`] — FNV-1a 64, the digest that fingerprints a cluster spec.
//! * [`unit`](mod@unit) — the [`unit::UnitHash`] abstraction mapping elements to the
//!   unit interval, in both `f64` form and an exact total-order `u64` form
//!   (the form the protocols actually compare, so ties and precision are
//!   never an issue).
//! * [`family`] — seeded families of mutually independent unit hashes, the
//!   building block for sampling *with replacement* (s parallel copies of
//!   the single-element sampler, each with its own hash function).
//!
//! ## Why `u64` hash values instead of `f64`
//!
//! The paper describes `h : U -> [0,1]` over the reals. A faithful fixed-
//! precision realisation must (a) preserve uniformity and (b) make hash
//! collisions between *distinct* elements negligible, because the bottom-`s`
//! structure breaks ties by element identity. We keep the full 64 bits of
//! the underlying hash and only convert to `f64` at reporting boundaries;
//! with 64-bit values, the collision probability among `d` distinct elements
//! is ≤ d²/2⁶⁵ (< 10⁻⁶ even for d = 10⁸), matching the paper's "outputs are
//! mutually independent random variables" idealisation as closely as a real
//! implementation can.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod family;
pub mod fnv;
pub mod golden;
pub mod murmur2;
pub mod splitmix;
pub mod unit;

pub use family::{HashFamily, SeededHash};
pub use unit::{unit_f64, UnitHash, UnitValue};
