//! Facade crate for the `expred` workspace. See README.md.
//!
//! Re-exports the public API of every member crate so applications can
//! depend on a single crate:
//!
//! ```
//! use expred::stats::Prng;
//! let mut rng = Prng::seeded(1);
//! assert!(rng.f64() < 1.0);
//! ```

pub mod cli;

pub use expred_core as core;
pub use expred_core::ml;
pub use expred_exec as exec;
pub use expred_solver as solver;
pub use expred_stats as stats;
pub use expred_table as table;
pub use expred_udf as udf;
