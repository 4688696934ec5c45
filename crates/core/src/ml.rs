//! The learned predictor: the **virtual correlated column** of paper
//! §4.4 method 2 (§6.3.2). [`features`] encodes every tuple and
//! [`logistic`] scores it; [`crate::column_select`] bucketizes the
//! scores into the grouping attribute. The same classifier sits under
//! the paper's **Learning** and **Multiple** baselines (§6.2), whose
//! self-training and imputation live with the experiments in
//! `expred-bench`.

pub mod features;
pub mod logistic;
