//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§6), plus the `BENCH_<name>.json` report shared by the
//! mechanism benches in `benches/`.
//!
//! The binary `experiments` (in `src/bin`) exposes one subcommand per
//! table/figure (its module docs list them); each is one function in
//! [`experiments`].
//!
//! The paper's ML baselines, Learning and Multiple ([`baselines`], with
//! their self-training and imputation in [`semisupervised`]), live here
//! rather than in the engine: their training size is tuned against
//! ground truth, which only an experiment has.

pub mod baselines;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod semisupervised;

pub use harness::{HarnessConfig, TextTable};
pub use report::{BenchRecord, BenchReport};
