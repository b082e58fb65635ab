//! # dds-hash — hashing substrate for distributed distinct sampling
//!
//! The distinct-sampling algorithms of Chung & Tirthapura (IPDPS 2015) are
//! built on one primitive: a hash function `h : U -> [0, 1)` whose outputs
//! behave like mutually independent uniform random variables. The sample of
//! the distinct elements of a stream is *the set of elements with the `s`
//! smallest hash values*, so everything — correctness, message complexity,
//! memory bounds — rides on the quality and determinism of `h`.
//!
//! This crate provides:
//!
//! * [`murmur2`] — MurmurHash2 (32-bit) and MurmurHash64A, the family the
//!   paper's reference implementation used.
//! * [`murmur3`] — MurmurHash3 x86_32 and x64_128 plus the `fmix` finalizers.
//! * [`splitmix`] — the SplitMix64 mixer, used both as a cheap integer hash
//!   and as the seed-expansion PRNG for hash families.
//! * [`fnv`] — FNV-1a (32/64-bit) for differential testing.
//! * [`sip`] — a compact SipHash-1-3 keyed hash for adversarially robust
//!   families.
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
pub mod murmur3;
pub mod sip;
pub mod splitmix;
pub mod unit;

pub use family::{HashFamily, SeededHash};
pub use unit::{unit_f64, UnitHash, UnitValue};
