//! # sparseopt-matrix
//!
//! Synthetic sparse matrix generators, the paper's evaluation/training
//! suites, Matrix Market I/O, and Table I structural feature extraction.
//!
//! The generators replace the University of Florida Sparse Matrix Collection
//! (which cannot ship with the repository) with structurally equivalent
//! synthetic matrices; see [`suite`] for the per-matrix mapping.

#![warn(missing_docs)]

pub mod features;
pub mod fingerprint;
pub mod generators;
pub mod io;
pub mod shard;
pub mod suite;

pub use features::{FeatureSet, MatrixFeatures, ELEMS_PER_CACHE_LINE};
pub use fingerprint::{MatrixFingerprint, FINGERPRINT_VERSION};
pub use shard::{write_shard_file, ShardError, ShardMeta, ShardStore, SHARD_FORMAT_VERSION};
pub use suite::{
    by_name, paper_suite, spd_suite, streaming_suite, suite_names, training_suite, Category,
    SuiteMatrix,
};
