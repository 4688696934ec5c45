//! Statistical substrate for the `expred` workspace.
//!
//! This crate provides the probabilistic machinery that the paper's
//! algorithms are built on:
//!
//! * [`rng`] — deterministic, forkable random number generation. Every
//!   experiment in the workspace is seeded, so results are reproducible
//!   run-to-run.
//! * [`bounds`] — Hoeffding and Chebyshev concentration thresholds used to
//!   turn probabilistic precision/recall constraints into deterministic
//!   ones (paper §3.2.1 and §3.3.1).
//! * [`estimator`] — selectivity estimates: the mean and variance of the
//!   Beta posterior over a group's selectivity after observing UDF
//!   outcomes (paper §4.1).
//! * [`descriptive`] — streaming descriptive statistics (Welford), Pearson
//!   correlation, quantiles; used to calibrate and verify the synthetic
//!   dataset generators against the paper's Table 3.
//! * [`histogram`] — equi-depth bucketing of probability scores, used to
//!   turn a classifier's output into a *virtual* correlated column
//!   (paper §4.4, §6.3.2).
//! * [`bits`] — reading a 64-row bit-plane word out as row offsets,
//!   [`PAGE_ROWS`], the one page size every paged layer shares, and
//!   [`PagePlanes`], the one page of answers they pass each other.
//! * [`hash`] — deterministic FNV-1a fingerprinting shared by the
//!   table/UDF/engine cache-key layers.
//! * [`json`] — the workspace's one no-serde JSON parser/writer, shared
//!   by the serving tier's request/response bodies, the `/metrics`
//!   endpoint, and the `BENCH_<name>.json` perf artifacts.
//! * [`counters`] — [`counter_set!`], the one declaration behind every
//!   layer's counters, and the [`counters::CounterSet`] walk the metrics
//!   exports read.

pub mod bits;
pub mod bounds;
pub mod counters;
pub mod descriptive;
pub mod estimator;
pub mod hash;
pub mod histogram;
pub mod json;
pub mod rng;

pub use bits::{PagePlanes, PAGE_ROWS};
pub use bounds::{chebyshev_scale, hoeffding_threshold};
pub use descriptive::{pearson, Accumulator};
pub use estimator::SelectivityEstimate;
pub use rng::Prng;
