//! Transductive experimental design (Algorithm 1).
//!
//! Greedy selection of the `m` most *representative* candidates: pick the
//! point whose kernel column has the largest deflated norm, then project its
//! contribution out of the kernel matrix. The paper computes the kernel
//! entries as Euclidean distances between configuration feature vectors
//! (Section III-A); the classic RBF kernel of Yu et al. (ICML 2006) is also
//! provided.
//!
//! The greedy loop is the cost that matters (`m` picks over an `n × n`
//! kernel). It caches every row's squared norm and re-sums a row only when
//! a deflation changes it, inside the deflation pass, four rows at a time:
//! one sweep of the matrix per pick instead of two. Each norm is still the
//! same left-to-right sum over the same entries, so selections are exactly
//! those of the textbook two-pass loop that `tests/ted_oracle.rs` keeps as
//! the reference.

use serde::{Deserialize, Serialize};

/// Kernel used to build `K_VV`.
///
/// The paper states the kernel entries are "computed as Euclidean distance".
/// A raw distance matrix is not positive semi-definite and makes the
/// deflation of Algorithm 1 degenerate (after the first rank-1 subtraction
/// the largest column norms belong to points *near* the previous selection,
/// inverting the diversity objective). [`TedKernel::Euclidean`] therefore
/// uses the standard distance-induced Laplacian kernel
/// `k(u, v) = exp(-||u - v|| / ℓ)` with a self-tuning length scale ℓ (the
/// mean pairwise distance), which preserves the paper's intent — similarity
/// derived purely from Euclidean distance — while keeping the algorithm
/// well-posed. [`TedKernel::Rbf`] is the classic Gaussian variant of
/// Yu et al.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum TedKernel {
    /// Laplacian kernel of the Euclidean distance with a self-tuning
    /// length scale — the paper-faithful default.
    #[default]
    Euclidean,
    /// `k(u, v) = exp(-||u - v||² / (2σ²))` — classic TED.
    Rbf {
        /// Bandwidth σ.
        sigma: f64,
    },
}

fn kernel_matrix(features: &[Vec<f64>], kernel: TedKernel) -> Vec<f64> {
    let n = features.len();
    let mut d = vec![0.0; n * n];
    let mut sum = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            let d2: f64 =
                features[i].iter().zip(&features[j]).map(|(a, b)| (a - b) * (a - b)).sum();
            d[i * n + j] = d2;
            sum += d2.sqrt();
        }
    }
    let pairs = (n * (n - 1) / 2).max(1);
    let scale = (sum / pairs as f64).max(1e-9); // self-tuning length scale
    let k = |v: f64| match kernel {
        TedKernel::Euclidean => (-v.sqrt() / scale).exp(),
        TedKernel::Rbf { sigma } => (-v / (2.0 * sigma * sigma)).exp(),
    };
    // One `exp` per unordered pair, mirrored: both halves hold the same
    // distance, so they would get the same kernel value anyway.
    for i in 0..n {
        d[i * n + i] = k(0.0);
        for j in i + 1..n {
            let v = k(d[i * n + j]);
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
    }
    d
}

/// Runs TED over `features`, returning the indices of the `m` selected
/// candidates in selection order (Algorithm 1: `TED(V, µ, m)`).
///
/// If `m >= features.len()` every index is returned.
///
/// # Example
///
/// ```
/// use active_learning::ted::{ted, TedKernel};
///
/// // Three clusters; TED's first picks spread across them.
/// let feats = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0],
///     vec![10.0, 0.0], vec![10.1, 0.0],
///     vec![0.0, 10.0], vec![0.1, 10.0],
/// ];
/// let picks = ted(&feats, 0.1, 3, TedKernel::Euclidean);
/// let cluster = |i: usize| i / 2;
/// let mut clusters: Vec<_> = picks.iter().map(|&i| cluster(i)).collect();
/// clusters.sort_unstable();
/// clusters.dedup();
/// assert_eq!(clusters.len(), 3, "one pick per cluster");
/// ```
///
/// # Panics
///
/// Panics if `features` is empty, rows are ragged, or `mu <= 0`.
#[must_use]
pub fn ted(features: &[Vec<f64>], mu: f64, m: usize, kernel: TedKernel) -> Vec<usize> {
    assert!(!features.is_empty(), "TED needs at least one candidate");
    assert!(mu > 0.0, "normalization coefficient must be positive");
    let n = features.len();
    let dim = features[0].len();
    assert!(features.iter().all(|f| f.len() == dim), "ragged feature rows");
    if m >= n {
        return (0..n).collect();
    }

    let tel = telemetry::global();
    let mut k = {
        let _span = tel.span("ted.kernel_matrix");
        kernel_matrix(features, kernel)
    };
    tel.observe("ted.candidates", n as f64);
    let _span = tel.span("ted.greedy_select");
    greedy_select(&mut k, n, mu, m)
}

/// Algorithm 1's greedy loop over the row-major `n × n` kernel `k`,
/// deflating it in place. Row norms are cached and re-summed inside the
/// deflation pass (see the module docs).
fn greedy_select(k: &mut [f64], n: usize, mu: f64, m: usize) -> Vec<usize> {
    let sq_norm = |row: &[f64]| row.iter().map(|x| x * x).sum::<f64>();
    let mut norms: Vec<f64> = k.chunks_exact(n).map(sq_norm).collect();
    let mut selected = Vec::with_capacity(m);
    let mut taken = vec![false; n];
    let mut col_x = vec![0.0; n];
    let mut deflated: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..m {
        // Line 3: x = argmax_v ||K_v||² / (k(v,v) + µ).
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if taken[v] {
                continue;
            }
            let score = norms[v] / (k[v * n + v] + mu);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((v, score));
            }
        }
        // aal-lint: allow(unwrap, reason = "the loop runs only while unselected candidates remain")
        let (x, _) = best.expect("at least one unselected candidate");
        taken[x] = true;
        selected.push(x);

        // Line 5: K -= K_x K_xᵀ / (k(x,x) + µ), re-summing the norm of
        // each changed row. Rows with a zero coefficient are untouched and
        // keep their cached norm.
        let denom = k[x * n + x] + mu;
        for (i, c) in col_x.iter_mut().enumerate() {
            *c = k[i * n + x];
        }
        deflated.clear();
        deflated.extend((0..n).filter(|&i| col_x[i] / denom != 0.0));
        let mut quads = deflated.chunks_exact(4);
        for q in &mut quads {
            let q = [q[0], q[1], q[2], q[3]];
            let acc = deflate4(k, n, q, q.map(|i| col_x[i] / denom), &col_x);
            for (&i, a) in q.iter().zip(acc) {
                norms[i] = a;
            }
        }
        for &i in quads.remainder() {
            let ci = col_x[i] / denom;
            let row = &mut k[i * n..(i + 1) * n];
            let mut acc = 0.0;
            for (e, &cj) in row.iter_mut().zip(&col_x) {
                *e -= ci * cj;
                acc += *e * *e;
            }
            norms[i] = acc;
        }
    }
    selected
}

/// Deflates rows `q` (ascending, distinct) of the row-major `n × n` kernel
/// `k` by `c[r] · col`, returning each updated row's squared norm. Four
/// rows side by side keep four independent add chains in flight; each
/// row's own chain still runs in column order.
fn deflate4(k: &mut [f64], n: usize, q: [usize; 4], c: [f64; 4], col: &[f64]) -> [f64; 4] {
    let (head, rest) = k.split_at_mut(q[1] * n);
    let r0 = &mut head[q[0] * n..][..n];
    let (mid, rest) = rest.split_at_mut((q[2] - q[1]) * n);
    let r1 = &mut mid[..n];
    let (mid, rest) = rest.split_at_mut((q[3] - q[2]) * n);
    let r2 = &mut mid[..n];
    let r3 = &mut rest[..n];
    let col = &col[..n];
    let mut acc = [0.0f64; 4];
    for j in 0..n {
        r0[j] -= c[0] * col[j];
        r1[j] -= c[1] * col[j];
        r2[j] -= c[2] * col[j];
        r3[j] -= c[3] * col[j];
        acc[0] += r0[j] * r0[j];
        acc[1] += r1[j] * r1[j];
        acc[2] += r2[j] * r2[j];
        acc[3] += r3[j] * r3[j];
    }
    acc
}

/// Mean pairwise Euclidean distance of the rows `indices` of `features` —
/// the dispersion statistic used to compare initialization strategies.
///
/// # Panics
///
/// Panics if fewer than two indices are given.
#[must_use]
pub fn dispersion(features: &[Vec<f64>], indices: &[usize]) -> f64 {
    assert!(indices.len() >= 2, "dispersion needs at least two points");
    let mut total = 0.0;
    let mut count = 0usize;
    for (a, &i) in indices.iter().enumerate() {
        for &j in &indices[a + 1..] {
            let d2: f64 =
                features[i].iter().zip(&features[j]).map(|(x, y)| (x - y) * (x - y)).sum();
            total += d2.sqrt();
            count += 1;
        }
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cloud(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect()).collect()
    }

    #[test]
    fn selects_m_distinct_indices() {
        let f = cloud(80, 5, 1);
        let sel = ted(&f, 0.1, 16, TedKernel::Euclidean);
        assert_eq!(sel.len(), 16);
        let mut s = sel.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 16, "indices must be distinct");
        assert!(s.iter().all(|&i| i < 80));
    }

    #[test]
    fn m_at_least_n_returns_all() {
        let f = cloud(10, 3, 2);
        assert_eq!(ted(&f, 0.1, 10, TedKernel::Euclidean), (0..10).collect::<Vec<_>>());
        assert_eq!(ted(&f, 0.1, 99, TedKernel::Euclidean).len(), 10);
    }

    /// Tight clusters with well-separated centers: dispersion differences
    /// are structural (between-cluster coverage), not sampling luck.
    fn clustered_cloud(
        per_cluster: usize,
        clusters: usize,
        dim: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(per_cluster * clusters);
        for c in 0..clusters {
            for _ in 0..per_cluster {
                out.push(
                    (0..dim)
                        .map(|d| {
                            let center = if d == c % dim { 20.0 * (1.0 + c as f64) } else { 0.0 };
                            center + rng.gen_range(-0.5..0.5)
                        })
                        .collect(),
                );
            }
        }
        out
    }

    #[test]
    fn ted_beats_random_dispersion() {
        // The whole point of TED: selected points scatter across the space.
        // On clustered data a random subset over-samples some clusters and
        // misses others, while TED's deflation spreads its picks, so TED's
        // mean pairwise distance must come out ahead of the random average.
        let clusters = 6;
        let f = clustered_cloud(50, clusters, 6, 3);
        let n = f.len();
        let m = 12;
        let sel = ted(&f, 0.1, m, TedKernel::Euclidean);
        let covered: std::collections::HashSet<usize> = sel.iter().map(|&i| i / 50).collect();
        assert_eq!(covered.len(), clusters, "TED must cover every cluster: {sel:?}");

        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut random_disp = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..m {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            random_disp += dispersion(&f, &idx[..m]);
        }
        random_disp /= f64::from(reps);
        let ted_disp = dispersion(&f, &sel);
        assert!(
            ted_disp > random_disp,
            "TED dispersion {ted_disp} should beat random {random_disp}"
        );
    }

    #[test]
    fn rbf_kernel_also_selects_diverse_points() {
        let f = cloud(150, 4, 5);
        let sel = ted(&f, 0.1, 12, TedKernel::Rbf { sigma: 3.0 });
        assert_eq!(sel.len(), 12);
        let disp = dispersion(&f, &sel);
        assert!(disp > 0.0);
    }

    #[test]
    fn clustered_data_picks_from_far_clusters_first() {
        // Two tight clusters far apart plus one outlier mid-way: the first
        // two TED picks must not come from the same cluster.
        let mut f = Vec::new();
        for i in 0..20 {
            f.push(vec![0.0 + 0.01 * i as f64, 0.0]);
        }
        for i in 0..20 {
            f.push(vec![100.0 + 0.01 * i as f64, 0.0]);
        }
        let sel = ted(&f, 0.1, 2, TedKernel::Euclidean);
        let cluster = |i: usize| usize::from(i >= 20);
        assert_ne!(cluster(sel[0]), cluster(sel[1]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mu_panics() {
        let f = cloud(5, 2, 6);
        let _ = ted(&f, 0.0, 2, TedKernel::Euclidean);
    }
}
