//! Gradient boosting over regression trees.

use crate::data::Matrix;
use crate::tree::{RegressionTree, TreeParams, TreeWorkspace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Boosting hyper-parameters. Defaults follow AutoTVM's XGBoost cost-model
/// settings (shallow trees, moderate shrinkage).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Learning rate (shrinkage).
    pub eta: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Minimum split gain.
    pub gamma: f64,
    /// Minimum hessian mass per child.
    pub min_child_weight: f64,
    /// Row subsampling fraction per round, in `(0, 1]`.
    pub subsample: f64,
    /// Column subsampling fraction per round, in `(0, 1]`.
    pub colsample: f64,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_rounds: 60,
            eta: 0.25,
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample: 1.0,
        }
    }
}

impl GbtParams {
    fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: self.max_depth,
            lambda: self.lambda,
            gamma: self.gamma,
            min_child_weight: self.min_child_weight,
        }
    }
}

/// A fitted gradient-boosted model for squared-error regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbt {
    base_score: f64,
    eta: f64,
    trees: Vec<RegressionTree>,
    num_features: usize,
}

impl Gbt {
    /// Fits a model to `(x, y)` with the given seed for subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `y.len() != x.rows()`.
    #[must_use]
    pub fn fit(params: &GbtParams, x: &Matrix, y: &[f64], seed: u64) -> Self {
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert_eq!(x.rows(), y.len(), "label count mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = x.rows();
        let d = x.cols();
        let base_score = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base_score; n];
        let mut trees = Vec::with_capacity(params.n_rounds);
        let tree_params = params.tree_params();
        let all_cols: Vec<usize> = (0..d).collect();
        let mut columns = Vec::with_capacity(d);
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        // One pre-sort of every feature column and one set of node-partition
        // buffers serve all boosting rounds.
        let order = crate::tree::FeatureOrder::new(x);
        let mut workspace = TreeWorkspace::new(x, &order);

        for _ in 0..params.n_rounds {
            // Squared loss: grad = pred - y, hess = 1 (only on sampled rows;
            // off-sample rows get zero weight so the arena code stays simple).
            for i in 0..n {
                if params.subsample >= 1.0 || rng.gen::<f64>() < params.subsample {
                    grad[i] = pred[i] - y[i];
                    hess[i] = 1.0;
                } else {
                    grad[i] = 0.0;
                    hess[i] = 0.0;
                }
            }
            columns.clear();
            columns.extend_from_slice(&all_cols);
            let all_columns = params.colsample >= 1.0; // NaN subsamples too
            if !all_columns {
                let k = ((d as f64 * params.colsample).ceil() as usize).clamp(1, d);
                columns.shuffle(&mut rng);
                columns.truncate(k);
            }
            let tree = workspace.grow(&tree_params, &grad, &hess, &columns);
            // Every training row's leaf is known from the partition: this is
            // the weight `tree.predict_row(x.row(i))` would return.
            for (p, &w) in pred.iter_mut().zip(workspace.leaf_weights()) {
                *p += params.eta * w;
            }
            trees.push(tree);
        }
        Gbt { base_score, eta: params.eta, trees, num_features: d }
    }

    /// Predicts one feature row.
    #[must_use]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base_score + self.eta * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Predicts every row of `x`.
    #[must_use]
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Number of trees in the ensemble.
    #[must_use]
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Split-count feature importance (length = feature count).
    #[must_use]
    pub fn feature_importance(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_features];
        for t in &self.trees {
            t.add_split_counts(&mut counts);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};

    fn grid_xy(f: impl Fn(f64, f64) -> f64) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> =
            (0..400).map(|i| vec![(i % 20) as f64, (i / 20) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| f(r[0], r[1])).collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn fits_additive_function() {
        let (x, y) = grid_xy(|a, b| 3.0 * a - b);
        let m = Gbt::fit(&GbtParams::default(), &x, &y, 0);
        let pred = m.predict(&x);
        assert!(r2(&y, &pred) > 0.98, "r2 = {}", r2(&y, &pred));
    }

    #[test]
    fn fits_interaction() {
        let (x, y) = grid_xy(|a, b| if a > 10.0 && b > 10.0 { 50.0 } else { 0.0 });
        let m = Gbt::fit(&GbtParams::default(), &x, &y, 0);
        assert!(m.predict_row(&[15.0, 15.0]) > 30.0);
        assert!(m.predict_row(&[2.0, 15.0]) < 15.0);
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let (x, y) = grid_xy(|a, b| (a * 0.7).sin() * 10.0 + b);
        let short = Gbt::fit(&GbtParams { n_rounds: 5, ..GbtParams::default() }, &x, &y, 0);
        let long = Gbt::fit(&GbtParams { n_rounds: 80, ..GbtParams::default() }, &x, &y, 0);
        assert!(rmse(&y, &long.predict(&x)) < rmse(&y, &short.predict(&x)));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = grid_xy(|a, b| a + b);
        let p = GbtParams { subsample: 0.7, colsample: 0.5, ..GbtParams::default() };
        let a = Gbt::fit(&p, &x, &y, 9);
        let b = Gbt::fit(&p, &x, &y, 9);
        assert_eq!(a.predict_row(&[3.0, 4.0]), b.predict_row(&[3.0, 4.0]));
    }

    #[test]
    fn subsampling_changes_the_model() {
        let (x, y) = grid_xy(|a, b| a * b);
        let p = GbtParams { subsample: 0.5, ..GbtParams::default() };
        let a = Gbt::fit(&p, &x, &y, 1);
        let b = Gbt::fit(&p, &x, &y, 2);
        assert_ne!(a.predict_row(&[7.0, 7.0]), b.predict_row(&[7.0, 7.0]));
    }

    #[test]
    fn importance_finds_informative_feature() {
        let rows: Vec<Vec<f64>> =
            (0..300).map(|i| vec![(i % 17) as f64, ((i * 7) % 5) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let x = Matrix::from_rows(&rows);
        let m = Gbt::fit(&GbtParams::default(), &x, &ys, 0);
        let imp = m.feature_importance();
        assert!(imp[0] > imp[1]);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let (x, _) = grid_xy(|_, _| 0.0);
        let y = vec![7.5; x.rows()];
        let m = Gbt::fit(&GbtParams::default(), &x, &y, 0);
        assert!((m.predict_row(&[1.0, 1.0]) - 7.5).abs() < 1e-9);
    }
}
