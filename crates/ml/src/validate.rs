//! Model validation: Leave-One-Out cross-validation, and the
//! grid search used to tune both the tree hyperparameters and the
//! profile-guided classifier's thresholds (`T_ML`, `T_IMB`).

use crate::dataset::Dataset;
use crate::metrics::{exact_match_ratio, partial_match_ratio};
use crate::tree::{DecisionTree, TreeParams};

/// Accuracy pair reported by Table IV.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Accuracy {
    /// Exact Match Ratio in [0, 1].
    pub exact: f64,
    /// Partial Match Ratio in [0, 1].
    pub partial: f64,
}

/// Leave-One-Out cross-validation of a decision tree on `data` — the paper's
/// evaluation protocol for Table IV ("for a training set of k matrices,
/// k experiments are performed").
pub fn loo_cv(data: &Dataset, params: TreeParams) -> Accuracy {
    assert!(data.len() >= 2, "LOO needs at least two samples");
    let preds: Vec<Vec<bool>> = (0..data.len())
        .map(|i| {
            let train: Vec<usize> = (0..data.len()).filter(|&j| j != i).collect();
            DecisionTree::fit(&data.subset(&train), params).predict(&data.features[i])
        })
        .collect();
    Accuracy {
        exact: exact_match_ratio(&preds, &data.labels),
        partial: partial_match_ratio(&preds, &data.labels),
    }
}

/// Exhaustive grid search: evaluates `score` on every point of `grid` and
/// returns the best `(point, score)`. Ties break toward the earlier point,
/// making the search deterministic.
pub fn grid_search<P: Clone, F: FnMut(&P) -> f64>(grid: &[P], mut score: F) -> (P, f64) {
    assert!(!grid.is_empty(), "empty grid");
    let mut best_idx = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (i, p) in grid.iter().enumerate() {
        let s = score(p);
        if s > best_score {
            best_score = s;
            best_idx = i;
        }
    }
    (grid[best_idx].clone(), best_score)
}

/// Cartesian product helper for two-axis grids (e.g. `T_ML × T_IMB`).
pub fn cartesian2(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &x in a {
        for &y in b {
            out.push((x, y));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Well-separated two-label dataset the tree should nail under LOO.
    fn separable(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()], vec!["big".into(), "huge".into()]);
        for i in 0..n {
            let x = i as f64;
            d.push(vec![x], vec![x >= n as f64 / 2.0, x >= n as f64 * 0.75]);
        }
        d
    }

    #[test]
    fn loo_on_separable_data_is_high() {
        let d = separable(24);
        let acc = loo_cv(&d, TreeParams::default());
        assert!(acc.exact >= 0.8, "exact {}", acc.exact);
        assert!(acc.partial >= acc.exact);
    }

    #[test]
    fn grid_search_finds_max() {
        let grid: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let (best, score) = grid_search(&grid, |&x| -(x - 2.5) * (x - 2.5));
        assert!((best - 2.5).abs() < 1e-9);
        assert!(score.abs() < 1e-9);
    }

    #[test]
    fn grid_search_tie_breaks_to_first() {
        let grid = vec![1, 2, 3];
        let (best, _) = grid_search(&grid, |_| 7.0);
        assert_eq!(best, 1);
    }

    #[test]
    fn cartesian_product_shape() {
        let g = cartesian2(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], (1.0, 3.0));
        assert_eq!(g[5], (2.0, 5.0));
    }
}
