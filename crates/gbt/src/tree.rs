//! A single regression tree with XGBoost-style regularized splits.
//!
//! Split search is exact greedy over pre-sorted feature orders, laid out
//! node-partitioned: the rows of a node are a contiguous segment of one
//! ascending row list and of one pre-sorted list per candidate column, and
//! a split stable-partitions those segments in place (see
//! `TreeWorkspace`). A node therefore scans only its own rows, and a whole
//! tree level costs one pass over the lists rather than one per node.
//!
//! The layout changes how much work is done, never which floating-point
//! operations are done or in what order: node totals are summed in
//! ascending row order and split statistics in pre-sorted order, exactly
//! as a grower that masks a full scan down to the node would. Trees, and so
//! every trial log downstream, are bit-identical to that simpler grower,
//! which `tests/oracle.rs` keeps as the reference.

use crate::data::Matrix;
use serde::{Deserialize, Serialize};

/// Tree-growing hyper-parameters (a subset of [`crate::GbtParams`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularization on leaf weights (XGBoost `lambda`).
    pub lambda: f64,
    /// Minimum gain to split (XGBoost `gamma`).
    pub gamma: f64,
    /// Minimum hessian mass per child (XGBoost `min_child_weight`).
    pub min_child_weight: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 4, lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 }
    }
}

/// Node arena entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child (values `< threshold`).
        left: usize,
        /// Index of the right child.
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

/// Per-feature row orderings, computed once per dataset and shared by every
/// tree of a boosting run (the classic pre-sorted GBT layout — split search
/// then costs one linear scan per feature instead of a sort per node).
#[derive(Debug, Clone)]
pub struct FeatureOrder {
    per_feature: Vec<Vec<u32>>,
}

impl FeatureOrder {
    /// Sorts every feature column of `x`.
    #[must_use]
    pub fn new(x: &Matrix) -> Self {
        let per_feature = (0..x.cols())
            .map(|f| {
                let mut idx: Vec<u32> = (0..x.rows() as u32).collect();
                idx.sort_by(|&a, &b| x.get(a as usize, f).total_cmp(&x.get(b as usize, f)));
                idx
            })
            .collect();
        FeatureOrder { per_feature }
    }
}

/// Reusable buffers for growing trees over one dataset.
///
/// Each node owns the segment `[lo, hi)` of two kinds of index lists:
/// `rows`, the node's rows in ascending order, and one list per candidate
/// column holding the node's rows in that column's pre-sorted order. A split
/// stable-partitions every list's segment in place, so each child again owns
/// a contiguous segment and both orders survive. Gradient totals are summed
/// over `rows` and split gains over the sorted lists, visiting rows in
/// exactly the order a full scan filtered to the node would: the
/// floating-point operations, and hence the tree, are the same as a
/// mask-based grower's, without rescanning every row at every node.
pub(crate) struct TreeWorkspace<'a> {
    order: &'a FeatureOrder,
    n: usize,
    x: &'a Matrix,
    rows: Vec<u32>,
    /// Candidate column `c`'s sorted list at `c * n .. (c + 1) * n`.
    sorted: Vec<u32>,
    scratch: Vec<u32>,
    goes_left: Vec<bool>,
    /// Leaf weight of each row in the last grown tree.
    leaf_weight: Vec<f64>,
}

impl<'a> TreeWorkspace<'a> {
    pub(crate) fn new(x: &'a Matrix, order: &'a FeatureOrder) -> Self {
        let n = x.rows();
        TreeWorkspace {
            order,
            n,
            x,
            rows: Vec::with_capacity(n),
            sorted: Vec::new(),
            scratch: vec![0; n],
            goes_left: vec![false; n],
            leaf_weight: vec![0.0; n],
        }
    }

    /// Leaf weight of every row in the last grown tree — what
    /// [`RegressionTree::predict_row`] returns for that training row.
    pub(crate) fn leaf_weights(&self) -> &[f64] {
        &self.leaf_weight
    }

    /// Fits one tree (see [`RegressionTree::fit_presorted`]).
    pub(crate) fn grow(
        &mut self,
        params: &TreeParams,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
    ) -> RegressionTree {
        let n = self.n;
        assert_eq!(n, grad.len(), "gradient length mismatch");
        assert_eq!(n, hess.len(), "hessian length mismatch");
        self.rows.clear();
        self.rows.extend(0..n as u32);
        self.sorted.clear();
        for &f in columns {
            self.sorted.extend_from_slice(&self.order.per_feature[f]);
        }
        let mut tree = RegressionTree { nodes: Vec::new() };
        self.grow_node(&mut tree.nodes, params, grad, hess, columns, 0, n, 0);
        tree
    }

    /// Grows the subtree over segment `[lo, hi)`; returns its node index.
    #[allow(clippy::too_many_arguments)]
    fn grow_node(
        &mut self,
        nodes: &mut Vec<Node>,
        params: &TreeParams,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> usize {
        let mut g = 0.0;
        let mut h = 0.0;
        for &r in &self.rows[lo..hi] {
            g += grad[r as usize];
            h += hess[r as usize];
        }
        let split = if depth >= params.max_depth || hi - lo < 2 {
            None
        } else {
            self.best_split(params, grad, hess, columns, lo, hi, g, h)
        };
        let Some(split) = split else {
            let weight = -g / (h + params.lambda);
            for &r in &self.rows[lo..hi] {
                self.leaf_weight[r as usize] = weight;
            }
            nodes.push(Node::Leaf { weight });
            return nodes.len() - 1;
        };

        // Children at the depth limit are leaves: they need only `rows`.
        let lists = if depth + 1 < params.max_depth { columns.len() } else { 0 };
        let mid = self.partition(lo, hi, &split, lists);
        // Reserve this node's slot before the children claim indices.
        let id = nodes.len();
        nodes.push(Node::Leaf { weight: 0.0 });
        let left = self.grow_node(nodes, params, grad, hess, columns, lo, mid, depth + 1);
        let right = self.grow_node(nodes, params, grad, hess, columns, mid, hi, depth + 1);
        nodes[id] = Node::Split { feature: split.feature, threshold: split.threshold, left, right };
        id
    }

    /// Exact greedy split search: one linear scan of each candidate
    /// column's sorted segment.
    #[allow(clippy::too_many_arguments)]
    fn best_split(
        &self,
        params: &TreeParams,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        lo: usize,
        hi: usize,
        g_total: f64,
        h_total: f64,
    ) -> Option<SplitCandidate> {
        let (n, d, data) = (self.n, self.x.cols(), self.x.data());
        let score = |g: f64, h: f64| g * g / (h + params.lambda);
        let parent = score(g_total, h_total);
        let mut best: Option<SplitCandidate> = None;
        let mut best_gain = 0.0;
        for (c, &feature) in columns.iter().enumerate() {
            let seg = &self.sorted[c * n + lo..c * n + hi];
            let first = seg[0] as usize;
            let mut gl = 0.0;
            let mut hl = 0.0;
            gl += grad[first];
            hl += hess[first];
            // Pending boundary: value of the last row scanned.
            let mut prev = data[first * d + feature];
            for &r in &seg[1..] {
                let i = r as usize;
                let v = data[i * d + feature];
                if v > prev {
                    let hr = h_total - hl;
                    if hl >= params.min_child_weight && hr >= params.min_child_weight {
                        let gain =
                            0.5 * (score(gl, hl) + score(g_total - gl, hr) - parent) - params.gamma;
                        if gain > best_gain {
                            best_gain = gain;
                            best = Some(SplitCandidate { feature, threshold: 0.5 * (prev + v) });
                        }
                    }
                }
                gl += grad[i];
                hl += hess[i];
                prev = v;
            }
        }
        best
    }

    /// Stable-partitions `rows[lo..hi]` and the first `lists` sorted lists'
    /// segments into left (`value < threshold`) then right rows; returns the
    /// boundary.
    fn partition(&mut self, lo: usize, hi: usize, split: &SplitCandidate, lists: usize) -> usize {
        let (n, d, data) = (self.n, self.x.cols(), self.x.data());
        for &r in &self.rows[lo..hi] {
            self.goes_left[r as usize] = data[r as usize * d + split.feature] < split.threshold;
        }
        let mid = stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.scratch);
        for c in 0..lists {
            stable_partition(
                &mut self.sorted[c * n + lo..c * n + hi],
                &self.goes_left,
                &mut self.scratch,
            );
        }
        lo + mid
    }
}

/// Moves the entries flagged in `goes_left` to the front of `list`, keeping
/// the relative order on both sides; returns the left count. Branch-free:
/// every entry is written to both destinations and only the cursors move.
fn stable_partition(list: &mut [u32], goes_left: &[bool], scratch: &mut [u32]) -> usize {
    let mut l = 0;
    let mut r = 0;
    for k in 0..list.len() {
        let i = list[k];
        let left = goes_left[i as usize];
        list[l] = i;
        scratch[r] = i;
        l += usize::from(left);
        r += usize::from(!left);
    }
    list[l..].copy_from_slice(&scratch[..r]);
    l
}

struct SplitCandidate {
    feature: usize,
    threshold: f64,
}

impl RegressionTree {
    /// Fits a tree to gradient/hessian statistics (second-order boosting).
    ///
    /// `columns` restricts split search to a feature subset (column
    /// subsampling); pass all indices for no subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `grad`, `hess` and the matrix disagree on sample count.
    #[must_use]
    pub fn fit(
        params: &TreeParams,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
    ) -> Self {
        let order = FeatureOrder::new(x);
        Self::fit_presorted(params, x, grad, hess, columns, &order)
    }

    /// Like [`RegressionTree::fit`] but reusing pre-sorted feature orders
    /// (one [`FeatureOrder`] serves every tree in a boosting run).
    ///
    /// # Panics
    ///
    /// Panics if `grad`, `hess` and the matrix disagree on sample count.
    #[must_use]
    pub fn fit_presorted(
        params: &TreeParams,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        columns: &[usize],
        order: &FeatureOrder,
    ) -> Self {
        TreeWorkspace::new(x, order).grow(params, grad, hess, columns)
    }

    /// Predicts the leaf weight for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than a split feature index (i.e. the row
    /// does not come from the training feature layout).
    #[must_use]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf { weight } => return *weight,
                Node::Split { feature, threshold, left, right } => {
                    id = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Accumulates split counts per feature into `counts` (a crude feature
    /// importance).
    pub fn add_split_counts(&self, counts: &mut [usize]) {
        for n in &self.nodes {
            if let Node::Split { feature, .. } = n {
                counts[*feature] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-loss stats for boosting from zero: grad = -y, hess = 1.
    fn stats(ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (ys.iter().map(|y| -y).collect(), vec![1.0; ys.len()])
    }

    #[test]
    fn single_leaf_when_no_split_improves() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let (g, h) = stats(&[5.0, 5.0, 5.0]);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[0]);
        assert_eq!(t.num_nodes(), 1);
        // weight = sum(y)/(n + lambda) = 15/4.
        assert!((t.predict_row(&[1.0]) - 3.75).abs() < 1e-12);
    }

    #[test]
    fn splits_a_step_function() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 10.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[0]);
        assert!(t.predict_row(&[2.0]) < 1.0);
        assert!(t.predict_row(&[15.0]) > 8.0);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let p = TreeParams { max_depth: 1, ..TreeParams::default() };
        let t = RegressionTree::fit(&p, &x, &g, &h, &[0]);
        // Depth-1 tree: one split, two leaves.
        assert_eq!(t.num_nodes(), 3);
    }

    #[test]
    fn column_subset_ignores_other_features() {
        // Feature 0 is informative, feature 1 is allowed: tree must not use 0.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[1]);
        assert_eq!(t.num_nodes(), 1, "constant allowed feature cannot split");
    }

    #[test]
    fn split_counts_track_used_features() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 2) as f64]).collect();
        let ys: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows);
        let (g, h) = stats(&ys);
        let t = RegressionTree::fit(&TreeParams::default(), &x, &g, &h, &[0, 1]);
        let mut counts = vec![0, 0];
        t.add_split_counts(&mut counts);
        assert!(counts[0] > 0);
    }
}
