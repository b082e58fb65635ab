//! # dds-bench — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (Chapter 5) plus the extension/ablation studies listed in DESIGN.md.
//! Each experiment is a pure function from a [`Scale`] to one or more
//! [`dds_sim::metrics::SeriesSet`]s. The `experiments` binary
//! (`cargo run -p dds-bench --release --bin experiments -- all`) prints
//! them as paper-style tables and writes CSVs; the `ext_*` experiments
//! also write `BENCH_*.json` records, and a few of them gate CI. Per-layer
//! costs of the serving stack live in the repository benchmark
//! (`perfbench`), not here.
//!
//! Experiment defaults follow the paper exactly — `k = 5, s = 10` for the
//! distribution study, `k = 100, s = 20` for the Broadcast comparison,
//! `k = 10` sites / 5 elements per slot for sliding windows — with the
//! datasets replaced by the calibrated synthetics of `dds-data` (see
//! DESIGN.md for why that preserves every plotted quantity). The
//! [`Scale`] knob shrinks the streams and the run-averaging count for
//! laptop-speed iteration; `--full` reproduces the paper's sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod output;
pub mod scale;

pub use driver::{InfiniteProtocol, InfiniteRun, RunOutcome, SlidingOutcome, SlidingRun};
pub use scale::Scale;
