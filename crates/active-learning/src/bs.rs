//! Bootstrap-guided sampling (Algorithm 3).
//!
//! `BS(X, Y, C, Γ)`: resample Γ sets of cardinality `|X|` from the measured
//! configurations, fit one evaluation function per resample, and return the
//! candidate in the search scope `C` maximizing the **sum** of the Γ
//! functions. Generic over the evaluation-function family via
//! [`crate::Evaluator`].

use crate::evaluator::Evaluator;
use crate::model_quality::ProposalDiag;
use gbt::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schedule::feature::{feature_len, features_into};
use schedule::{Config, ConfigSpace};

/// Selects the next configuration from `candidates`.
///
/// `measured` is the already-sampled set `(X, Y)` (configurations with their
/// measured GFLOPS). Returns `None` when `candidates` is empty.
///
/// # Example
///
/// ```
/// use active_learning::bs::bootstrap_select;
/// use active_learning::evaluator::RidgeEvaluator;
/// use schedule::{ConfigSpace, Knob};
///
/// let space = ConfigSpace::new("demo", vec![Knob::split("t", 64, 2)]);
/// // Measured set: larger inner factors performed better.
/// let measured: Vec<_> = (0..space.len())
///     .map(|i| {
///         let c = space.config(i).unwrap();
///         let inner = space.values(&c)[0].as_split().unwrap()[1] as f64;
///         (c, inner.log2())
///     })
///     .collect();
/// let candidates: Vec<_> = (0..space.len()).map(|i| space.config(i).unwrap()).collect();
/// let pick = bootstrap_select(&space, &measured, &candidates, 2, RidgeEvaluator::default, 1)
///     .expect("candidates are non-empty");
/// let inner = space.values(&pick)[0].as_split().unwrap()[1];
/// assert!(inner >= 32, "should pick a large inner factor, got {inner}");
/// ```
///
/// # Panics
///
/// Panics if `measured` is empty or `gamma == 0` — callers must seed the
/// loop with an initial measurement set (that is BTED's job).
pub fn bootstrap_select<E, F>(
    space: &ConfigSpace,
    measured: &[(Config, f64)],
    candidates: &[Config],
    gamma: usize,
    make_evaluator: F,
    seed: u64,
) -> Option<Config>
where
    E: Evaluator,
    F: Fn() -> E,
{
    bootstrap_select_diag(space, measured, candidates, gamma, make_evaluator, seed)
        .map(|(cfg, _)| cfg)
}

/// [`bootstrap_select`] also returning the winner's model diagnostics.
///
/// The Γ per-candidate predictions are already computed for the argmax;
/// accumulating their sum-of-squares alongside the sum yields the winner's
/// bagged mean and disagreement (std) with zero extra model evaluations —
/// which is what keeps introspection capture from perturbing the search.
///
/// # Panics
///
/// Same contract as [`bootstrap_select`].
pub fn bootstrap_select_diag<E, F>(
    space: &ConfigSpace,
    measured: &[(Config, f64)],
    candidates: &[Config],
    gamma: usize,
    make_evaluator: F,
    seed: u64,
) -> Option<(Config, ProposalDiag)>
where
    E: Evaluator,
    F: Fn() -> E,
{
    assert!(!measured.is_empty(), "BS needs an initial measured set");
    assert!(gamma > 0, "need at least one bootstrap resample");
    if candidates.is_empty() {
        return None;
    }

    let n = measured.len();
    let x = flat_features(space, measured.iter().map(|(c, _)| c));
    let ys: Vec<f64> = measured.iter().map(|&(_, y)| y).collect();
    let cand = flat_features(space, candidates.iter());

    let tel = telemetry::global();
    let _span = tel.span("bs.select");
    tel.event("bs.start", || {
        telemetry::json!({
            "measured": n as u64,
            "candidates": candidates.len() as u64,
            "gamma": gamma as u64,
        })
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scores = vec![0.0f64; candidates.len()];
    let mut sq_scores = vec![0.0f64; candidates.len()];
    for g in 0..gamma {
        // Lines 2-3: bootstrap resample with |X_γ| = |X|.
        let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let xg = x.select_rows(&indices);
        let yg: Vec<f64> = indices.iter().map(|&i| ys[i]).collect();
        // Line 4: build the evaluation function f_γ.
        let mut eval = make_evaluator();
        {
            let _fit = tel.span("bs.fit");
            eval.fit(&xg, &yg, seed.wrapping_add(g as u64));
        }
        // Line 6 accumulation: Σ_γ f_γ(x), plus Σ_γ f_γ(x)² so the winner's
        // bagged mean/std fall out without a second prediction pass.
        let _predict = tel.span("bs.predict");
        for i in 0..cand.rows() {
            let p = eval.predict_row(cand.row(i));
            scores[i] += p;
            sq_scores[i] += p * p;
        }
    }

    let best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        // aal-lint: allow(unwrap, reason = "bootstrap resampling requires the non-empty candidate set checked by the caller")
        .expect("candidates is non-empty");
    #[allow(clippy::cast_precision_loss)]
    let g = gamma as f64;
    let mean = scores[best] / g;
    let std = (sq_scores[best] / g - mean * mean).max(0.0).sqrt();
    let diag = ProposalDiag {
        config_index: candidates[best].index,
        predicted_mean: Some(mean),
        predicted_std: Some(std),
        acquisition: Some(scores[best]),
    };
    Some((candidates[best].clone(), diag))
}

/// Featurizes `configs` into one flat row-major matrix.
pub(crate) fn flat_features<'a>(
    space: &ConfigSpace,
    configs: impl ExactSizeIterator<Item = &'a Config>,
) -> Matrix {
    let (rows, cols) = (configs.len(), feature_len(space));
    let mut flat = Vec::with_capacity(rows * cols);
    for c in configs {
        features_into(space, c, &mut flat);
    }
    Matrix::new(flat, rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{GbtEvaluator, RidgeEvaluator};
    use rand_chacha::ChaCha8Rng;
    use schedule::Knob;

    /// A space whose "performance" is a simple function of the choices, so
    /// BS should find the candidate with the highest value.
    fn toy() -> (ConfigSpace, impl Fn(&Config) -> f64) {
        let space =
            ConfigSpace::new("toy", vec![Knob::split("a", 256, 2), Knob::split("b", 256, 2)]);
        let f = |c: &Config| (c.choices[0] as f64) - 0.5 * (c.choices[1] as f64);
        (space, f)
    }

    fn measured_set(
        space: &ConfigSpace,
        truth: impl Fn(&Config) -> f64,
        n: usize,
    ) -> Vec<(Config, f64)> {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        space
            .sample_distinct(&mut rng, n)
            .into_iter()
            .map(|c| {
                let y = truth(&c);
                (c, y)
            })
            .collect()
    }

    #[test]
    fn picks_a_high_value_candidate() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 60);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let candidates = space.sample_distinct(&mut rng, 40);
        let chosen = bootstrap_select(&space, &measured, &candidates, 2, GbtEvaluator::default, 7)
            .expect("candidates non-empty");
        let best_truth = candidates.iter().map(&truth).fold(f64::NEG_INFINITY, f64::max);
        // The chosen candidate should be near the top of the candidate set.
        assert!(truth(&chosen) > 0.6 * best_truth, "chose {}", truth(&chosen));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 10);
        let r = bootstrap_select(&space, &measured, &[], 2, GbtEvaluator::default, 0);
        assert!(r.is_none());
    }

    #[test]
    fn works_with_ridge_evaluator_too() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 60);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let candidates = space.sample_distinct(&mut rng, 30);
        let chosen =
            bootstrap_select(&space, &measured, &candidates, 3, || RidgeEvaluator::new(0.1), 7)
                .expect("candidates non-empty");
        // Linear truth, linear model: should pick (nearly) the argmax.
        let best_truth = candidates.iter().map(&truth).fold(f64::NEG_INFINITY, f64::max);
        assert!(truth(&chosen) > 0.8 * best_truth);
    }

    #[test]
    fn deterministic_given_seed() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 40);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let candidates = space.sample_distinct(&mut rng, 20);
        let a = bootstrap_select(&space, &measured, &candidates, 2, GbtEvaluator::default, 9);
        let b = bootstrap_select(&space, &measured, &candidates, 2, GbtEvaluator::default, 9);
        assert_eq!(a.map(|c| c.index), b.map(|c| c.index));
    }

    #[test]
    fn diag_variant_matches_plain_selection() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 40);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let candidates = space.sample_distinct(&mut rng, 20);
        let plain = bootstrap_select(&space, &measured, &candidates, 3, GbtEvaluator::default, 11)
            .expect("candidates non-empty");
        let (cfg, diag) =
            bootstrap_select_diag(&space, &measured, &candidates, 3, GbtEvaluator::default, 11)
                .expect("candidates non-empty");
        assert_eq!(cfg.index, plain.index, "diag variant must not change the pick");
        assert_eq!(diag.config_index, cfg.index);
        // acquisition is the Γ-sum, predicted_mean its average.
        let acq = diag.acquisition.unwrap();
        let mean = diag.predicted_mean.unwrap();
        assert!((acq - 3.0 * mean).abs() < 1e-9);
        assert!(diag.predicted_std.unwrap() >= 0.0);
    }

    #[test]
    fn single_resample_diag_has_zero_std() {
        let (space, truth) = toy();
        let measured = measured_set(&space, &truth, 30);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let candidates = space.sample_distinct(&mut rng, 10);
        let (_, diag) =
            bootstrap_select_diag(&space, &measured, &candidates, 1, GbtEvaluator::default, 3)
                .expect("candidates non-empty");
        assert_eq!(diag.predicted_std.unwrap(), 0.0, "one model cannot disagree with itself");
    }

    #[test]
    #[should_panic(expected = "initial measured set")]
    fn empty_measured_panics() {
        let (space, _) = toy();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let candidates = space.sample_distinct(&mut rng, 5);
        let _ = bootstrap_select(&space, &[], &candidates, 2, GbtEvaluator::default, 0);
    }
}
