//! Radius-based neighborhoods over configurations.
//!
//! BAO (Algorithm 4) restricts each optimization step to the neighborhood of
//! the incumbent with radius `R` (Euclidean, the paper sets `R = 3`), and
//! widens it when the relative improvement stalls. Two distance notions are
//! provided:
//!
//! * **Feature space** ([`feature_distance`], [`sample_feature_neighborhood`])
//!   — Euclidean distance between the log-scaled feature embeddings of
//!   Definition 1 ("deployment settings … encoded as the attributes of a
//!   feature vector"). One factor-of-2 tiling change moves a configuration
//!   √2 away, so `R = 3` spans one-to-two elementary schedule edits. This is
//!   the neighborhood BAO searches.
//! * **Choice coordinates** ([`distance`], [`sample_neighborhood`],
//!   [`enumerate_neighborhood`]) — distance between per-knob candidate
//!   indices; cheap, enumerable, used for diagnostics and tests.

use crate::feature::{features, features_into, sq_distance};
use crate::knob::Knob;
use crate::space::{Config, ConfigSpace};
use rand::Rng;
use std::collections::HashSet;

/// Euclidean distance between two configurations in choice coordinates.
///
/// # Panics
///
/// Panics if the configurations come from spaces with different knob counts.
#[must_use]
pub fn distance(a: &Config, b: &Config) -> f64 {
    assert_eq!(a.choices.len(), b.choices.len(), "knob count mismatch");
    a.choices
        .iter()
        .zip(&b.choices)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Enumerates every configuration within `radius` of `center` (excluding
/// `center` itself). Exact but exponential in the knob count — intended for
/// small radii and for validating the sampler.
#[must_use]
pub fn enumerate_neighborhood(space: &ConfigSpace, center: &Config, radius: f64) -> Vec<Config> {
    let r2 = radius * radius;
    let dims: Vec<usize> = space.knobs().iter().map(|k| k.cardinality()).collect();
    let mut out = Vec::new();
    let mut cur = vec![0usize; dims.len()];
    fn rec(
        dim: usize,
        budget: f64,
        center: &[usize],
        dims: &[usize],
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if dim == dims.len() {
            out.push(cur.clone());
            return;
        }
        let c = center[dim] as i64;
        let max_off = budget.sqrt().floor() as i64;
        for off in -max_off..=max_off {
            let v = c + off;
            if v < 0 || v >= dims[dim] as i64 {
                continue;
            }
            let used = (off * off) as f64;
            cur[dim] = v as usize;
            rec(dim + 1, budget - used, center, dims, cur, out);
        }
        cur[dim] = center[dim];
    }
    let mut raw = Vec::new();
    rec(0, r2, &center.choices, &dims, &mut cur, &mut raw);
    for choices in raw {
        if choices == center.choices {
            continue;
        }
        let index = space.index_of(&choices);
        out.push(Config { index, choices });
    }
    out
}

/// Samples up to `n` distinct configurations within `radius` of `center`
/// (excluding `center`) by rejection sampling.
///
/// Attempts are capped, so for tiny neighborhoods fewer than `n`
/// configurations may be returned; callers treat the result as the search
/// scope `C` of Algorithm 3.
pub fn sample_neighborhood<R: Rng + ?Sized>(
    space: &ConfigSpace,
    center: &Config,
    radius: f64,
    n: usize,
    rng: &mut R,
) -> Vec<Config> {
    let r2 = radius * radius;
    let reach = radius.floor() as i64;
    let dims: Vec<i64> = space.knobs().iter().map(|k| k.cardinality() as i64).collect();
    let mut seen: HashSet<u64> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    // Rejection sampling from the bounding box; the acceptance rate of an
    // L2 ball in <=8 dims is >1%, so the attempt cap is generous.
    let max_attempts = n.saturating_mul(200).max(20_000);
    let mut choices = vec![0usize; dims.len()];
    for _ in 0..max_attempts {
        if out.len() >= n {
            break;
        }
        let mut norm2 = 0.0;
        let mut in_bounds = true;
        let mut all_zero = true;
        for (d, &card) in dims.iter().enumerate() {
            let off = rng.gen_range(-reach..=reach);
            let v = center.choices[d] as i64 + off;
            if v < 0 || v >= card {
                in_bounds = false;
                break;
            }
            if off != 0 {
                all_zero = false;
            }
            norm2 += (off * off) as f64;
            choices[d] = v as usize;
        }
        if !in_bounds || all_zero || norm2 > r2 {
            continue;
        }
        let index = space.index_of(&choices);
        if seen.insert(index) {
            out.push(Config { index, choices: choices.clone() });
        }
    }
    out
}

/// Euclidean distance between two configurations **in feature space** (the
/// log-scaled embedding of [`crate::feature::features`]) — the paper's
/// Definition 1 treats a configuration as its feature vector, so this is
/// the distance its radius `R = 3` refers to.
#[must_use]
pub fn feature_distance(space: &ConfigSpace, a: &Config, b: &Config) -> f64 {
    sq_distance(&features(space, a), &features(space, b)).sqrt()
}

/// One elementary schedule move applied in place to `choices`. Returns
/// `false` if the chosen knob admits no move.
///
/// * Split knobs: move one prime factor between two output slots — the
///   smallest semantically meaningful schedule change (`√2·log2(p)` apart
///   in feature space for a factor `p`).
/// * Choice knobs: step to an adjacent candidate.
///
/// `factors` is scratch space for the moved split, reused across calls.
fn elementary_move<R: Rng + ?Sized>(
    space: &ConfigSpace,
    choices: &mut [usize],
    factors: &mut Vec<usize>,
    rng: &mut R,
) -> bool {
    let k = rng.gen_range(0..choices.len());
    match &space.knobs()[k] {
        Knob::Split { candidates, num_outputs, .. } => {
            factors.clear();
            factors.extend_from_slice(&candidates[choices[k]]);
            let n = *num_outputs;
            // Pick a donor slot with a divisible factor and a receiver slot.
            let from = rng.gen_range(0..n);
            let to = (from + rng.gen_range(1..n)) % n;
            let f = factors[from];
            if f == 1 {
                return false;
            }
            // Smallest prime factor keeps the move minimal.
            // aal-lint: allow(unwrap, reason = "every integer greater than 1 has a prime factor")
            let p = (2..).find(|&d| f.is_multiple_of(d)).expect("f > 1 has a prime factor");
            factors[from] /= p;
            factors[to] *= p;
            // Candidates are enumerated in lexicographic order, so the
            // mutated factor tuple is found by binary search.
            let Ok(pos) = candidates.binary_search(factors) else {
                return false;
            };
            choices[k] = pos;
            true
        }
        Knob::Choice { values, .. } => {
            if values.len() < 2 {
                return false;
            }
            let c = choices[k];
            let next = if c == 0 {
                1
            } else if c == values.len() - 1 || rng.gen_bool(0.5) {
                c - 1
            } else {
                c + 1
            };
            choices[k] = next;
            true
        }
    }
}

/// Samples up to `n` distinct configurations within feature-space `radius`
/// of `center` (excluding `center`), by composing elementary schedule moves
/// and rejecting compositions that leave the radius.
///
/// This is the search-scope generator BAO uses: it yields *semantically*
/// local schedules (nearby tilings, one-step unroll changes) rather than
/// nearby candidate indices.
pub fn sample_feature_neighborhood<R: Rng + ?Sized>(
    space: &ConfigSpace,
    center: &Config,
    radius: f64,
    n: usize,
    rng: &mut R,
) -> Vec<Config> {
    let center_feat = features(space, center);
    let r2 = radius * radius;
    // Each factor-of-2 move displaces about sqrt(2); allow some slack so
    // move chains can cancel.
    let max_moves = ((radius / std::f64::consts::SQRT_2).ceil() as usize + 1).max(2);
    let mut seen: HashSet<u64> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    // Small radii induce small neighborhoods; a modest attempt cap keeps
    // the per-step cost bounded (BS works fine on a partial scope).
    let max_attempts = n.saturating_mul(8).max(1024);
    let mut feat = Vec::with_capacity(center_feat.len());
    let mut factors = Vec::new();
    for _ in 0..max_attempts {
        if out.len() >= n {
            break;
        }
        let mut choices = center.choices.clone();
        let moves = rng.gen_range(1..=max_moves);
        let mut moved = false;
        for _ in 0..moves {
            moved |= elementary_move(space, &mut choices, &mut factors, rng);
        }
        if !moved || choices == center.choices {
            continue;
        }
        let index = space.index_of(&choices);
        if seen.contains(&index) {
            continue;
        }
        let cand = Config { index, choices };
        feat.clear();
        features_into(space, &cand, &mut feat);
        if sq_distance(&center_feat, &feat) > r2 {
            continue;
        }
        seen.insert(index);
        out.push(cand);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knob::Knob;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space() -> ConfigSpace {
        ConfigSpace::new(
            "t",
            vec![
                Knob::split("a", 64, 2), // 7 candidates
                Knob::split("b", 64, 2), // 7 candidates
                Knob::choice("c", vec![0, 1, 2, 3, 4]),
            ],
        )
    }

    #[test]
    fn distance_is_euclidean_in_choice_space() {
        let s = space();
        let a = s.config(0).unwrap();
        let b = s.config(1).unwrap(); // differs by 1 in knob 0
        assert!((distance(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(distance(&a, &a), 0.0);
    }

    #[test]
    fn enumeration_respects_radius_and_excludes_center() {
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let hood = enumerate_neighborhood(&s, &center, 2.0);
        assert!(!hood.is_empty());
        for cfg in &hood {
            assert!(distance(&center, cfg) <= 2.0 + 1e-12);
            assert_ne!(cfg.index, center.index);
        }
    }

    #[test]
    fn sampler_is_subset_of_enumeration() {
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let exact: HashSet<u64> =
            enumerate_neighborhood(&s, &center, 3.0).iter().map(|c| c.index).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sampled = sample_neighborhood(&s, &center, 3.0, 500, &mut rng);
        assert!(!sampled.is_empty());
        for cfg in &sampled {
            assert!(exact.contains(&cfg.index), "sampled {} not in ball", cfg.index);
        }
    }

    #[test]
    fn sampler_saturates_small_neighborhoods() {
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let exact = enumerate_neighborhood(&s, &center, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let sampled = sample_neighborhood(&s, &center, 1.0, 500, &mut rng);
        // Radius-1 ball = one step along each axis; the sampler should find
        // every member.
        assert_eq!(sampled.len(), exact.len());
    }

    #[test]
    fn feature_neighborhood_respects_radius() {
        let s = space();
        let center = s.config(s.len() / 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let hood = sample_feature_neighborhood(&s, &center, 3.0, 200, &mut rng);
        assert!(!hood.is_empty());
        for cfg in &hood {
            let d = feature_distance(&s, &center, cfg);
            assert!(d <= 3.0 + 1e-9, "distance {d} exceeds radius");
            assert_ne!(cfg.index, center.index);
        }
    }

    #[test]
    fn feature_neighborhood_members_are_semantically_close() {
        // A single factor-of-2 shift is sqrt(2) away, so two split-knob
        // changes (2*sqrt(2) ≈ 2.83) cannot fit inside radius 1.5; cheap
        // choice-knob steps may ride along.
        let s = space();
        let center = s.config(s.len() / 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for cfg in sample_feature_neighborhood(&s, &center, 1.5, 100, &mut rng) {
            let split_diffs = cfg
                .choices
                .iter()
                .zip(&center.choices)
                .zip(s.knobs())
                .filter(|((a, b), k)| a != b && matches!(k, Knob::Split { .. }))
                .count();
            assert!(split_diffs <= 1, "radius-1.5 member changed {split_diffs} split knobs");
        }
    }

    #[test]
    fn elementary_move_preserves_split_products() {
        let s = space();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let center = s.config(s.len() / 2).unwrap();
        for _ in 0..100 {
            let mut choices = center.choices.clone();
            if elementary_move(&s, &mut choices, &mut Vec::new(), &mut rng) {
                // Decoding must succeed: product invariant held.
                let idx = s.index_of(&choices);
                assert!(s.config(idx).is_ok());
            }
        }
    }

    #[test]
    fn corner_center_clips_to_bounds() {
        let s = space();
        let center = s.config(0).unwrap(); // all-zero choices
        let hood = enumerate_neighborhood(&s, &center, 3.0);
        for cfg in &hood {
            for (&c, k) in cfg.choices.iter().zip(s.knobs()) {
                assert!(c < k.cardinality());
            }
        }
    }
}
