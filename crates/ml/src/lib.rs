//! # sparseopt-ml
//!
//! A from-scratch machine-learning toolkit sufficient for the paper's
//! feature-guided classifier: a multilabel CART decision tree (the
//! scikit-learn substitute), multilabel accuracy metrics (Exact/Partial
//! Match Ratio), Leave-One-Out cross-validation, and exhaustive grid
//! search.

pub mod dataset;
pub mod metrics;
pub mod tree;
pub mod validate;

pub use dataset::Dataset;
pub use metrics::{exact_match_ratio, hamming_loss, partial_match_ratio, LabelScores};
pub use tree::{DecisionTree, TreeParams};
pub use validate::{cartesian2, grid_search, loo_cv, Accuracy};
