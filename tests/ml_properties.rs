//! Property-based invariants of the ML toolkit: tree construction, metric
//! bounds, and fit/predict determinism on arbitrary datasets.

use proptest::prelude::*;
use sparseopt::ml::{
    exact_match_ratio, hamming_loss, partial_match_ratio, Dataset, DecisionTree, TreeParams,
};

/// Arbitrary dataset: 2–4 features, 1–3 labels, 4–60 samples.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (2usize..5, 1usize..4, 4usize..60).prop_flat_map(|(nf, nl, n)| {
        let row = (
            proptest::collection::vec(-100.0f64..100.0, nf),
            proptest::collection::vec(any::<bool>(), nl),
        );
        proptest::collection::vec(row, n).prop_map(move |rows| {
            let mut d = Dataset::new(
                (0..nf).map(|i| format!("f{i}")).collect(),
                (0..nl).map(|i| format!("l{i}")).collect(),
            );
            for (f, l) in rows {
                d.push(f, l);
            }
            d
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unbounded_tree_fits_training_data_when_consistent(d in arb_dataset()) {
        // If no two samples share features with different labels, a depth-
        // unbounded tree must reproduce the training set exactly.
        let mut seen: std::collections::HashMap<String, Vec<bool>> =
            std::collections::HashMap::new();
        let mut consistent = true;
        for (f, l) in d.features.iter().zip(&d.labels) {
            let key = format!("{f:?}");
            match seen.get(&key) {
                Some(prev) if prev != l => {
                    consistent = false;
                    break;
                }
                _ => {
                    seen.insert(key, l.clone());
                }
            }
        }
        prop_assume!(consistent);

        let tree = DecisionTree::fit(
            &d,
            TreeParams { max_depth: usize::MAX, min_samples_split: 2, min_samples_leaf: 1 },
        );
        for (f, l) in d.features.iter().zip(&d.labels) {
            prop_assert_eq!(&tree.predict(f), l);
        }
    }

    #[test]
    fn probabilities_lie_in_unit_interval(d in arb_dataset()) {
        let tree = DecisionTree::fit(&d, TreeParams::default());
        for f in &d.features {
            for p in tree.predict_proba(f) {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn metric_bounds_and_ordering(d in arb_dataset()) {
        let tree = DecisionTree::fit(&d, TreeParams::default());
        let preds: Vec<Vec<bool>> = d.features.iter().map(|f| tree.predict(f)).collect();
        let exact = exact_match_ratio(&preds, &d.labels);
        let partial = partial_match_ratio(&preds, &d.labels);
        let ham = hamming_loss(&preds, &d.labels);
        prop_assert!((0.0..=1.0).contains(&exact));
        prop_assert!((0.0..=1.0).contains(&partial));
        prop_assert!((0.0..=1.0).contains(&ham));
        prop_assert!(partial >= exact - 1e-12, "partial {partial} < exact {exact}");
        // Perfect predictions force zero hamming loss and vice versa.
        if exact == 1.0 {
            prop_assert_eq!(ham, 0.0);
        }
        if ham == 0.0 {
            prop_assert_eq!(exact, 1.0);
        }
    }

    #[test]
    fn tree_depth_respects_bound(d in arb_dataset()) {
        for depth in [0usize, 1, 3] {
            let tree = DecisionTree::fit(
                &d,
                TreeParams { max_depth: depth, ..TreeParams::default() },
            );
            prop_assert!(tree.depth() <= depth, "depth {} > bound {depth}", tree.depth());
            prop_assert!(tree.leaf_count() >= 1);
            prop_assert!(tree.node_count() >= tree.leaf_count());
        }
    }

    #[test]
    fn fit_and_predict_are_deterministic(d in arb_dataset()) {
        let a = DecisionTree::fit(&d, TreeParams::default());
        let b = DecisionTree::fit(&d, TreeParams::default());
        prop_assert_eq!(a.node_count(), b.node_count());
        for f in &d.features {
            prop_assert_eq!(a.predict(f), b.predict(f));
        }
    }
}
