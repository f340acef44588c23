//! Tabular dataset container for the decision-tree learner.

/// A supervised multilabel dataset: one row of real-valued features and one
/// binary label vector per sample.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// `samples × features` matrix, row major.
    pub features: Vec<Vec<f64>>,
    /// `samples × labels` binary targets.
    pub labels: Vec<Vec<bool>>,
    /// Column names (for introspection / tree dumps).
    pub feature_names: Vec<String>,
    /// Label names.
    pub label_names: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset with the given schema.
    pub fn new(feature_names: Vec<String>, label_names: Vec<String>) -> Self {
        Self {
            features: Vec::new(),
            labels: Vec::new(),
            feature_names,
            label_names,
        }
    }

    /// Appends one sample.
    ///
    /// # Panics
    /// Panics when the row widths disagree with the schema.
    pub fn push(&mut self, features: Vec<f64>, labels: Vec<bool>) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "feature width mismatch"
        );
        assert_eq!(labels.len(), self.label_names.len(), "label width mismatch");
        self.features.push(features);
        self.labels.push(labels);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of feature columns.
    pub fn nfeatures(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of label columns.
    pub fn nlabels(&self) -> usize {
        self.label_names.len()
    }

    /// Returns the dataset restricted to `idx` (used by cross-validation).
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        Dataset {
            features: idx.iter().map(|&i| self.features[i].clone()).collect(),
            labels: idx.iter().map(|&i| self.labels[i].clone()).collect(),
            feature_names: self.feature_names.clone(),
            label_names: self.label_names.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], vec!["l0".into(), "l1".into()]);
        d.push(vec![1.0, 2.0], vec![true, false]);
        d.push(vec![3.0, 4.0], vec![false, true]);
        d.push(vec![5.0, 6.0], vec![true, true]);
        d
    }

    #[test]
    fn push_and_dims() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.nfeatures(), 2);
        assert_eq!(d.nlabels(), 2);
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy().subset(&[2, 0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.features[0], vec![5.0, 6.0]);
        assert_eq!(d.labels[1], vec![true, false]);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn push_validates_width() {
        toy().push(vec![1.0], vec![true, false]);
    }
}
