//! The feature-guided classifier — Section III-D of the paper.
//!
//! A multilabel CART decision tree over cheap structural features (Table I),
//! trained offline on matrices labeled by the profile-guided classifier,
//! queried online after an `O(N)` or `O(NNZ)` feature-extraction pass.
//! A fifth, dummy label ("NONE") marks matrices not worth optimizing, per
//! Section III-D ("we also add a dummy class").

use crate::classes::{Bottleneck, ClassSet};
use sparseopt_matrix::{FeatureSet, MatrixFeatures};
use sparseopt_ml::{loo_cv, Accuracy, Dataset, DecisionTree, TreeParams};

/// One labeled training sample.
#[derive(Clone, Debug)]
pub struct LabeledMatrix {
    /// Display name (provenance only).
    pub name: String,
    /// Extracted Table I features.
    pub features: MatrixFeatures,
    /// Classes assigned by the profile-guided classifier.
    pub classes: ClassSet,
}

/// The trained feature-guided classifier.
pub struct FeatureGuidedClassifier {
    tree: DecisionTree,
    set: FeatureSet,
}

/// Label schema: the four bottleneck classes plus the dummy NONE class.
fn label_names() -> Vec<String> {
    let mut names: Vec<String> = Bottleneck::ALL
        .iter()
        .map(|c| c.label().to_string())
        .collect();
    names.push("NONE".to_string());
    names
}

/// Encodes a class set into the 5-label target (dummy class set when empty).
fn encode_labels(classes: ClassSet) -> Vec<bool> {
    let mut l = classes.to_labels();
    l.push(classes.is_empty());
    l
}

/// Decodes a 5-label prediction; real classes win over the dummy.
fn decode_labels(labels: &[bool]) -> ClassSet {
    ClassSet::from_labels(&labels[..4])
}

/// Builds the ML dataset for a feature set.
pub fn build_dataset(samples: &[LabeledMatrix], set: FeatureSet) -> Dataset {
    let fnames: Vec<String> = set.names().iter().map(|s| s.to_string()).collect();
    let mut d = Dataset::new(fnames, label_names());
    for s in samples {
        d.push(s.features.vector(set), encode_labels(s.classes));
    }
    d
}

impl FeatureGuidedClassifier {
    /// Trains on profile-guided-labeled samples with the given feature set
    /// and tree hyperparameters.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn train(samples: &[LabeledMatrix], set: FeatureSet, params: TreeParams) -> Self {
        let data = build_dataset(samples, set);
        Self {
            tree: DecisionTree::fit(&data, params),
            set,
        }
    }

    /// Classifies a matrix from its extracted features. This is the entire
    /// online cost of the classifier beyond feature extraction: one
    /// `O(log N_samples)` tree walk.
    pub fn classify(&self, features: &MatrixFeatures) -> ClassSet {
        decode_labels(&self.tree.predict(&features.vector(self.set)))
    }

    /// The underlying tree (introspection, rule dumps).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Human-readable decision rules.
    pub fn dump_rules(&self) -> String {
        let fnames: Vec<String> = self.set.names().iter().map(|s| s.to_string()).collect();
        self.tree.dump(&fnames, &label_names())
    }

    /// Leave-One-Out cross-validation accuracy on a labeled sample set — the
    /// protocol behind Table IV.
    pub fn loo_accuracy(
        samples: &[LabeledMatrix],
        set: FeatureSet,
        params: TreeParams,
    ) -> Accuracy {
        loo_cv(&build_dataset(samples, set), params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseopt_core::csr::CsrMatrix;
    use sparseopt_matrix::generators as g;

    const LLC: usize = 32 * 1024 * 1024;

    /// Synthetic labeled corpus whose labels follow simple structural rules,
    /// so a correct tree must recover them.
    fn corpus() -> Vec<LabeledMatrix> {
        let mut out = Vec::new();
        for k in 0..8 {
            // Banded: MB.
            let m = CsrMatrix::from_coo(&g::banded(2000 + k * 500, 1 + k % 4));
            out.push(LabeledMatrix {
                name: format!("band{k}"),
                features: MatrixFeatures::extract(&m, LLC),
                classes: ClassSet::from_classes(&[Bottleneck::Mb]),
            });
            // Random: ML.
            let m = CsrMatrix::from_coo(&g::random_uniform(2000 + k * 500, 6, k as u64));
            out.push(LabeledMatrix {
                name: format!("rand{k}"),
                features: MatrixFeatures::extract(&m, LLC),
                classes: ClassSet::from_classes(&[Bottleneck::Ml]),
            });
            // Few dense rows: IMB + CMP.
            let m = CsrMatrix::from_coo(&g::few_dense_rows(2000 + k * 500, 2, 2 + k % 3, k as u64));
            out.push(LabeledMatrix {
                name: format!("skew{k}"),
                features: MatrixFeatures::extract(&m, LLC),
                classes: ClassSet::from_classes(&[Bottleneck::Imb, Bottleneck::Cmp]),
            });
            // Diagonal: nothing worth optimizing (dummy class).
            let m = CsrMatrix::from_coo(&g::diagonal(2000 + k * 500));
            out.push(LabeledMatrix {
                name: format!("diag{k}"),
                features: MatrixFeatures::extract(&m, LLC),
                classes: ClassSet::EMPTY,
            });
        }
        out
    }

    #[test]
    fn learns_structural_rules() {
        let samples = corpus();
        for set in [FeatureSet::LinearInRows, FeatureSet::LinearInNnz] {
            let clf = FeatureGuidedClassifier::train(&samples, set, TreeParams::default());
            let mut correct = 0;
            for s in &samples {
                if clf.classify(&s.features) == s.classes {
                    correct += 1;
                }
            }
            assert!(
                correct as f64 >= 0.9 * samples.len() as f64,
                "{set:?}: only {correct}/{} training samples reproduced",
                samples.len()
            );
        }
    }

    #[test]
    fn loo_accuracy_reasonable_on_separable_corpus() {
        let samples = corpus();
        let acc = FeatureGuidedClassifier::loo_accuracy(
            &samples,
            FeatureSet::LinearInNnz,
            TreeParams::default(),
        );
        assert!(acc.exact >= 0.6, "exact {}", acc.exact);
        assert!(acc.partial >= acc.exact);
    }

    #[test]
    fn dummy_class_encodes_empty_set() {
        assert_eq!(
            encode_labels(ClassSet::EMPTY),
            vec![false, false, false, false, true]
        );
        let full = ClassSet::from_classes(&Bottleneck::ALL);
        assert_eq!(encode_labels(full), vec![true, true, true, true, false]);
        assert_eq!(
            decode_labels(&[false, true, false, false, false]).to_string(),
            "{ML}"
        );
    }

    #[test]
    fn rules_dump_uses_table1_names() {
        let samples = corpus();
        let clf = FeatureGuidedClassifier::train(
            &samples,
            FeatureSet::LinearInRows,
            TreeParams::default(),
        );
        let rules = clf.dump_rules();
        assert!(rules.contains("if "), "rules: {rules}");
    }
}
