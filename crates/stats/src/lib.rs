//! # dds-stats — estimators and statistics over distinct samples
//!
//! The paper motivates distinct sampling by the queries a distinct sample
//! answers: distinct counts, distinct counts under a predicate ("how many
//! distinct visitors … from a particular country?"), and aggregates over
//! the distinct population ("average age of the distinct users"). This
//! crate supplies those estimators plus the statistical machinery the test
//! suite uses to *verify the samples are actually uniform*:
//!
//! * [`kmv`] — the distinct-count estimator `d̂ = (s−1)/u` from the
//!   bottom-`s` threshold (the KMV / order-statistics estimator), with its
//!   relative-error theory.
//! * [`subset`] — predicate-restricted distinct counts and means over the
//!   distinct population, from a bottom-`s` sample.
//! * [`summary`] — running mean/variance/min/max (Welford) for experiment
//!   reporting.
//! * [`tests`] — chi-square goodness-of-fit and Kolmogorov–Smirnov
//!   uniformity tests, with the regularised incomplete gamma function
//!   implemented from scratch (no external math crates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kmv;
pub mod subset;
pub mod summary;
pub mod tests;

pub use kmv::KmvEstimate;
pub use summary::Summary;
