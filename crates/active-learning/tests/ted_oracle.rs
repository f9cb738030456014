//! Bit-exact oracle for TED's fused greedy selection.
//!
//! The reference below is Algorithm 1 written out directly: a kernel matrix
//! with one `exp` per entry, and a greedy loop that recomputes every
//! candidate's squared row norm from scratch before each pick, then
//! deflates the whole matrix in a second pass. The production loop caches
//! the norms and re-sums only the deflated rows inside the deflation pass;
//! it must pick the same candidates in the same order.

use active_learning::ted::{ted, TedKernel};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn ref_kernel_matrix(features: &[Vec<f64>], kernel: TedKernel) -> Vec<f64> {
    let n = features.len();
    let mut d = vec![0.0; n * n];
    let mut sum = 0.0;
    for i in 0..n {
        for j in i + 1..n {
            let d2: f64 =
                features[i].iter().zip(&features[j]).map(|(a, b)| (a - b) * (a - b)).sum();
            d[i * n + j] = d2;
            d[j * n + i] = d2;
            sum += d2.sqrt();
        }
    }
    let pairs = (n * (n - 1) / 2).max(1);
    let scale = (sum / pairs as f64).max(1e-9);
    for v in &mut d {
        *v = match kernel {
            TedKernel::Euclidean => (-v.sqrt() / scale).exp(),
            TedKernel::Rbf { sigma } => (-*v / (2.0 * sigma * sigma)).exp(),
        };
    }
    d
}

fn ref_ted(features: &[Vec<f64>], mu: f64, m: usize, kernel: TedKernel) -> Vec<usize> {
    let n = features.len();
    if m >= n {
        return (0..n).collect();
    }
    let mut k = ref_kernel_matrix(features, kernel);
    let mut selected = Vec::with_capacity(m);
    let mut taken = vec![false; n];
    for _ in 0..m {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if taken[v] {
                continue;
            }
            let norm2: f64 = k[v * n..(v + 1) * n].iter().map(|x| x * x).sum();
            let score = norm2 / (k[v * n + v] + mu);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((v, score));
            }
        }
        let (x, _) = best.expect("an unselected candidate remains");
        taken[x] = true;
        selected.push(x);
        let denom = k[x * n + x] + mu;
        let col_x: Vec<f64> = (0..n).map(|i| k[i * n + x]).collect();
        for i in 0..n {
            let ci = col_x[i] / denom;
            if ci == 0.0 {
                continue;
            }
            for j in 0..n {
                k[i * n + j] -= ci * col_x[j];
            }
        }
    }
    selected
}

/// Seeded candidates: log-scale tile-like coordinates on a small grid (so
/// distances tie), with some candidates duplicated outright and, when
/// `spread` is large, far-apart clusters whose cross kernel entries
/// underflow to zero (exercising the zero-coefficient rows).
fn candidates(seed: u64, n: usize, dim: usize, spread: f64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.gen_range(0..6) == 0 {
            let j = rng.gen_range(0..i);
            out.push(out[j].clone());
            continue;
        }
        let cluster = f64::from(rng.gen_range(0..3u8)) * spread;
        out.push((0..dim).map(|_| cluster + f64::from(rng.gen_range(0..6u8))).collect());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selection_order_matches_the_two_pass_reference(
        seed in 0u64..1 << 40,
        n in 1usize..90,
        dim in 1usize..6,
        m_frac in 0.0f64..1.2,
        rbf in 0u8..3,
        far in 0u8..2,
        mu_pick in 0u8..3,
    ) {
        let spread = if far == 1 { 1e3 } else { 1.0 };
        let feats = candidates(seed, n, dim, spread);
        let m = ((n as f64 * m_frac) as usize).max(1);
        let kernel = match rbf {
            0 => TedKernel::Euclidean,
            1 => TedKernel::Rbf { sigma: 1.5 },
            _ => TedKernel::Rbf { sigma: 0.2 },
        };
        let mu = [0.1, 1e-3, 2.0][usize::from(mu_pick)];
        prop_assert_eq!(ted(&feats, mu, m, kernel), ref_ted(&feats, mu, m, kernel));
    }
}

#[test]
fn paper_scale_batch_matches_the_reference() {
    // BTED's batch shape: 500 candidates, 64 picks (500 is a multiple of 4,
    // so also check a ragged 501).
    for n in [500, 501] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let feats: Vec<Vec<f64>> =
            (0..n).map(|_| (0..20).map(|_| f64::from(rng.gen_range(0..8u8))).collect()).collect();
        for kernel in [TedKernel::Euclidean, TedKernel::Rbf { sigma: 3.0 }] {
            assert_eq!(ted(&feats, 0.1, 64, kernel), ref_ted(&feats, 0.1, 64, kernel));
        }
    }
}
