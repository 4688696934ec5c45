//! Machine-learning substrate for the `expred` workspace.
//!
//! Two roles in the reproduction:
//!
//! 1. the **virtual correlated column** (paper §4.4 method 2, §6.3.2):
//!    [`features`] + [`logistic`] score every tuple, and the bucketized
//!    scores act as the grouping attribute;
//! 2. the classifier under the paper's **Learning** and **Multiple**
//!    baselines (§6.2), whose self-training and imputation live with the
//!    experiments in `expred-bench`.
//!
//! [`metrics`] provides the precision/recall measurements used across the
//! workspace.

pub mod features;
pub mod logistic;
pub mod metrics;

pub use features::{extract_features, extract_features_cached, FeatureMatrix, FeatureSpec};
pub use logistic::{train, LogisticModel, TrainConfig};
pub use metrics::{precision_recall, PrSummary};
