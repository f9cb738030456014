//! Bit-exact oracle for the node-partitioned tree grower.
//!
//! The reference below is the straightforward mask-based exact-greedy
//! grower: every node carries a `Vec<bool>` over all rows, sums its
//! gradients in ascending row order and rescans every feature's full
//! presorted order, skipping rows outside the node. The production grower
//! (`gbt::tree`) must perform the same floating-point operations in the
//! same order, so trees, boosted models and bagged models agree with this
//! reference to the last bit.

use gbt::tree::TreeParams;
use gbt::{BaggedGbt, Gbt, GbtParams, Matrix, RegressionTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

enum RefNode {
    Leaf { weight: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

struct RefTree {
    nodes: Vec<RefNode>,
}

fn ref_order(x: &Matrix) -> Vec<Vec<u32>> {
    (0..x.cols())
        .map(|f| {
            let mut idx: Vec<u32> = (0..x.rows() as u32).collect();
            idx.sort_by(|&a, &b| x.get(a as usize, f).total_cmp(&x.get(b as usize, f)));
            idx
        })
        .collect()
}

impl RefTree {
    fn fit(
        p: &TreeParams,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        order: &[Vec<u32>],
    ) -> Self {
        let mut tree = RefTree { nodes: Vec::new() };
        tree.grow(p, x, grad, hess, columns, order, vec![true; x.rows()], x.rows(), 0);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &mut self,
        p: &TreeParams,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        order: &[Vec<u32>],
        in_node: Vec<bool>,
        n_rows: usize,
        depth: usize,
    ) -> usize {
        let mut g = 0.0;
        let mut h = 0.0;
        for (i, &inside) in in_node.iter().enumerate() {
            if inside {
                g += grad[i];
                h += hess[i];
            }
        }
        let split = if depth >= p.max_depth || n_rows < 2 {
            None
        } else {
            best_split(p, x, grad, hess, columns, order, &in_node, g, h)
        };
        let Some((feature, threshold)) = split else {
            self.nodes.push(RefNode::Leaf { weight: -g / (h + p.lambda) });
            return self.nodes.len() - 1;
        };
        let mut left_mask = vec![false; in_node.len()];
        let mut right_mask = vec![false; in_node.len()];
        let (mut n_left, mut n_right) = (0, 0);
        for (i, &inside) in in_node.iter().enumerate() {
            if !inside {
                continue;
            }
            if x.get(i, feature) < threshold {
                left_mask[i] = true;
                n_left += 1;
            } else {
                right_mask[i] = true;
                n_right += 1;
            }
        }
        let id = self.nodes.len();
        self.nodes.push(RefNode::Leaf { weight: 0.0 });
        let left = self.grow(p, x, grad, hess, columns, order, left_mask, n_left, depth + 1);
        let right = self.grow(p, x, grad, hess, columns, order, right_mask, n_right, depth + 1);
        self.nodes[id] = RefNode::Split { feature, threshold, left, right };
        id
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                RefNode::Leaf { weight } => return *weight,
                RefNode::Split { feature, threshold, left, right } => {
                    id = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn best_split(
    p: &TreeParams,
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    columns: &[usize],
    order: &[Vec<u32>],
    in_node: &[bool],
    g_total: f64,
    h_total: f64,
) -> Option<(usize, f64)> {
    let score = |g: f64, h: f64| g * g / (h + p.lambda);
    let parent = score(g_total, h_total);
    let mut best: Option<(f64, usize, f64)> = None;
    for &feature in columns {
        let mut gl = 0.0;
        let mut hl = 0.0;
        let mut prev: Option<f64> = None;
        for &ri in &order[feature] {
            let i = ri as usize;
            if !in_node[i] {
                continue;
            }
            let v = x.get(i, feature);
            if let Some(pv) = prev {
                if v > pv {
                    let hr = h_total - hl;
                    if hl >= p.min_child_weight && hr >= p.min_child_weight {
                        let gain =
                            0.5 * (score(gl, hl) + score(g_total - gl, hr) - parent) - p.gamma;
                        if gain > 0.0 && best.is_none_or(|b| gain > b.0) {
                            best = Some((gain, feature, 0.5 * (pv + v)));
                        }
                    }
                }
            }
            gl += grad[i];
            hl += hess[i];
            prev = Some(v);
        }
    }
    best.map(|(_, f, t)| (f, t))
}

struct RefGbt {
    base_score: f64,
    eta: f64,
    trees: Vec<RefTree>,
}

impl RefGbt {
    fn fit(params: &GbtParams, x: &Matrix, y: &[f64], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = x.rows();
        let d = x.cols();
        let base_score = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base_score; n];
        let tp = TreeParams {
            max_depth: params.max_depth,
            lambda: params.lambda,
            gamma: params.gamma,
            min_child_weight: params.min_child_weight,
        };
        let all_cols: Vec<usize> = (0..d).collect();
        let order = ref_order(x);
        let mut trees = Vec::new();
        for _ in 0..params.n_rounds {
            let mut grad = vec![0.0; n];
            let mut hess = vec![0.0; n];
            for i in 0..n {
                if params.subsample >= 1.0 || rng.gen::<f64>() < params.subsample {
                    grad[i] = pred[i] - y[i];
                    hess[i] = 1.0;
                }
            }
            let columns: Vec<usize> = if params.colsample >= 1.0 {
                all_cols.clone()
            } else {
                let k = ((d as f64 * params.colsample).ceil() as usize).clamp(1, d);
                let mut cols = all_cols.clone();
                cols.shuffle(&mut rng);
                cols.truncate(k);
                cols
            };
            let tree = RefTree::fit(&tp, x, &grad, &hess, &columns, &order);
            for (i, p) in pred.iter_mut().enumerate() {
                *p += params.eta * tree.predict_row(x.row(i));
            }
            trees.push(tree);
        }
        RefGbt { base_score, eta: params.eta, trees }
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.base_score + self.eta * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }
}

fn ref_bagged(params: &GbtParams, x: &Matrix, y: &[f64], gamma: usize, seed: u64) -> Vec<RefGbt> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = x.rows();
    (0..gamma)
        .map(|g| {
            let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let xg = x.select_rows(&indices);
            let yg: Vec<f64> = indices.iter().map(|&i| y[i]).collect();
            RefGbt::fit(params, &xg, &yg, seed.wrapping_add(g as u64 + 1))
        })
        .collect()
}

/// A seeded dataset whose columns mix continuous values, heavy ties
/// (small integers) and constants, with some rows duplicated outright.
fn dataset(seed: u64, n: usize, d: usize) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let kinds: Vec<u8> = (0..d).map(|_| rng.gen_range(0..3u8)).collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_range(0..5) == 0 {
            let j = rng.gen_range(0..i);
            rows.push(rows[j].clone());
            continue;
        }
        let row = kinds
            .iter()
            .map(|k| match k {
                0 => rng.gen_range(-100.0..100.0),
                1 => f64::from(rng.gen_range(0..4u8)),
                _ => 2.5,
            })
            .collect();
        rows.push(row);
    }
    let ys = rows
        .iter()
        .map(|r| {
            r.iter().enumerate().map(|(f, v)| v * (f as f64 - 1.5)).sum::<f64>()
                + rng.gen_range(-5.0..5.0)
        })
        .collect();
    (Matrix::from_rows(&rows), ys)
}

/// Training rows plus off-grid probes (between and beyond training values).
fn probes(x: &Matrix, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut out: Vec<Vec<f64>> = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
    for _ in 0..16 {
        out.push((0..x.cols()).map(|_| rng.gen_range(-150.0..150.0)).collect());
    }
    out
}

fn params_from(choice: u64) -> GbtParams {
    let pick = |k: u64, opts: &[f64]| opts[(choice / k % opts.len() as u64) as usize];
    GbtParams {
        n_rounds: 1 + (choice % 12) as usize,
        eta: pick(3, &[0.25, 0.1, 1.0]),
        max_depth: 1 + (choice / 7 % 5) as usize,
        lambda: pick(11, &[1.0, 0.0, 5.0]),
        gamma: pick(13, &[0.0, 0.5]),
        min_child_weight: pick(17, &[1.0, 0.0, 3.0]),
        subsample: pick(19, &[1.0, 0.7, 0.4]),
        colsample: pick(23, &[1.0, 0.6, 0.3]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trees_match_the_mask_based_grower(
        seed in 0u64..1 << 40,
        n in 2usize..70,
        d in 1usize..7,
        choice in 0u64..1 << 20,
    ) {
        let (x, ys) = dataset(seed, n, d);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
        // Zero-hessian rows stand in for rows a subsample left out.
        let hess: Vec<f64> =
            (0..n).map(|_| if rng.gen_range(0..4) == 0 { 0.0 } else { 1.0 }).collect();
        let grad: Vec<f64> = ys.iter().zip(&hess).map(|(y, h)| -y * h).collect();
        let p = params_from(choice);
        let tp = TreeParams {
            max_depth: p.max_depth,
            lambda: p.lambda,
            gamma: p.gamma,
            min_child_weight: p.min_child_weight,
        };
        let mut columns: Vec<usize> = (0..d).collect();
        columns.shuffle(&mut rng);
        columns.truncate(rng.gen_range(1..=d));
        let tree = RegressionTree::fit(&tp, &x, &grad, &hess, &columns);
        let reference = RefTree::fit(&tp, &x, &grad, &hess, &columns, &ref_order(&x));
        prop_assert_eq!(tree.num_nodes(), reference.nodes.len());
        for row in probes(&x, seed) {
            prop_assert_eq!(tree.predict_row(&row).to_bits(), reference.predict_row(&row).to_bits());
        }
    }

    #[test]
    fn boosted_models_match_the_reference(
        seed in 0u64..1 << 40,
        n in 2usize..70,
        d in 1usize..7,
        choice in 0u64..1 << 20,
    ) {
        let (x, ys) = dataset(seed, n, d);
        let p = params_from(choice);
        let model = Gbt::fit(&p, &x, &ys, seed);
        let reference = RefGbt::fit(&p, &x, &ys, seed);
        prop_assert_eq!(model.num_trees(), reference.trees.len());
        for row in probes(&x, seed) {
            prop_assert_eq!(model.predict_row(&row).to_bits(), reference.predict_row(&row).to_bits());
        }
    }

    #[test]
    fn bagged_models_match_the_reference(
        seed in 0u64..1 << 40,
        n in 2usize..70,
        d in 1usize..7,
        gamma in 1usize..4,
        choice in 0u64..1 << 20,
    ) {
        // Bootstrap resamples duplicate rows, so every bag exercises ties
        // between identical rows.
        let (x, ys) = dataset(seed, n, d);
        let p = params_from(choice);
        let bag = BaggedGbt::fit(&p, &x, &ys, gamma, seed);
        let reference = ref_bagged(&p, &x, &ys, gamma, seed);
        let rows = probes(&x, seed);
        for row in &rows {
            let sum: f64 = reference.iter().map(|m| m.predict_row(row)).sum();
            prop_assert_eq!(bag.predict_sum_row(row).to_bits(), sum.to_bits());
        }
        let m = Matrix::from_rows(&rows);
        let means = bag.predict_mean(&m);
        let inv = 1.0 / gamma as f64;
        for (i, row) in rows.iter().enumerate() {
            let mut s = 0.0;
            for model in &reference {
                s += model.predict_row(row);
            }
            prop_assert_eq!(means[i].to_bits(), (s * inv).to_bits());
        }
    }
}

#[test]
fn default_params_on_a_tuning_sized_dataset_match() {
    // The shape BAO refits: about 110 rows, 20 features, Γ = 2.
    let (x, ys) = dataset(42, 110, 20);
    for p in
        [GbtParams::default(), GbtParams { n_rounds: 35, colsample: 0.6, ..GbtParams::default() }]
    {
        let bag = BaggedGbt::fit(&p, &x, &ys, 2, 7);
        let reference = ref_bagged(&p, &x, &ys, 2, 7);
        for row in probes(&x, 42) {
            let sum: f64 = reference.iter().map(|m| m.predict_row(&row)).sum();
            assert_eq!(bag.predict_sum_row(&row).to_bits(), sum.to_bits());
        }
    }
}
