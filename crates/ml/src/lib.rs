//! Machine-learning substrate for the `expred` workspace.
//!
//! Three roles in the reproduction:
//!
//! 1. the **virtual correlated column** (paper §4.4 method 2, §6.3.2):
//!    [`features`] + [`logistic`] score every tuple, and the bucketized
//!    scores act as the grouping attribute;
//! 2. the **Learning** baseline (§6.2): self-training semi-supervised
//!    classification in [`semisupervised`];
//! 3. the **Multiple** baseline (§6.2): multiple imputations from class
//!    probabilities, also in [`semisupervised`].
//!
//! [`metrics`] provides the precision/recall measurements used across the
//! workspace.

pub mod features;
pub mod logistic;
pub mod metrics;
pub mod semisupervised;

pub use features::{extract_features, extract_features_cached, FeatureMatrix, FeatureSpec};
pub use logistic::{train, LogisticModel, TrainConfig};
pub use metrics::{precision_recall, precision_recall_mask, PrSummary};
pub use semisupervised::{
    impute, learning_returned_set, multiple_imputations, self_train, SelfTrainConfig,
    SelfTrainOutcome,
};
