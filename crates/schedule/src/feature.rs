//! Feature vectors for configurations.
//!
//! Both the evaluation function (GBT regression) and TED's kernel matrix
//! consume a numeric embedding of each configuration. We use AutoTVM's
//! *knob features*: every split factor contributes its log2, every
//! categorical knob contributes a scaled value. Log-scaling makes Euclidean
//! distance meaningful — doubling a tile size is one unit apart regardless
//! of magnitude — which is what the paper's distance-based TED (Algorithm 1)
//! and radius-based neighborhoods rely on.

use crate::knob::Knob;
use crate::space::{Config, ConfigSpace};

/// Dimensionality of the feature vector produced for `space`.
#[must_use]
pub fn feature_len(space: &ConfigSpace) -> usize {
    space
        .knobs()
        .iter()
        .map(|k| match k {
            Knob::Split { num_outputs, .. } => *num_outputs,
            Knob::Choice { .. } => 1,
        })
        .sum()
}

/// Embeds one configuration as a feature vector of [`feature_len`] entries.
#[must_use]
pub fn features(space: &ConfigSpace, config: &Config) -> Vec<f64> {
    let mut out = Vec::with_capacity(feature_len(space));
    features_into(space, config, &mut out);
    out
}

/// Appends the feature vector of `config` to `out` — lets hot scoring loops
/// reuse one flat buffer across rows instead of allocating a `Vec` per
/// configuration.
pub fn features_into(space: &ConfigSpace, config: &Config, out: &mut Vec<f64>) {
    // Reads each knob's candidate in place: `ConfigSpace::values` would
    // clone every split's factor list, and this runs thousands of times
    // per BAO step.
    for (&c, knob) in config.choices.iter().zip(space.knobs()) {
        match knob {
            Knob::Split { candidates, .. } => {
                out.extend(candidates[c].iter().map(|&f| (f as f64).log2()));
            }
            Knob::Choice { values, .. } => {
                // Signed log1p keeps large step values (1500) commensurate
                // with log2 tile factors and stays finite for any integer.
                let x = values[c] as f64;
                out.push(x.signum() * x.abs().ln_1p());
            }
        }
    }
}

/// Embeds many configurations at once (row-major).
#[must_use]
pub fn feature_matrix(space: &ConfigSpace, configs: &[Config]) -> Vec<Vec<f64>> {
    configs.iter().map(|c| features(space, c)).collect()
}

/// Squared Euclidean distance between two feature vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn sq_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "feature length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ConfigSpace {
        ConfigSpace::new("t", vec![Knob::split("a", 8, 2), Knob::choice("u", vec![0, 512])])
    }

    #[test]
    fn feature_len_counts_split_outputs() {
        assert_eq!(feature_len(&space()), 3);
    }

    #[test]
    fn split_features_are_log2() {
        let s = space();
        // index 1 -> a = (2, 4), u = 0.
        let cfg = s.config(1).unwrap();
        let f = features(&s, &cfg);
        assert_eq!(f, vec![1.0, 2.0, 0.0]);
    }

    #[test]
    fn choice_feature_is_log1p() {
        let s = space();
        let n = s.len();
        let cfg = s.config(n - 1).unwrap(); // u = 512
        let f = features(&s, &cfg);
        assert!((f[2] - (513.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn distances_are_symmetric_and_zero_on_self() {
        let s = space();
        let a = features(&s, &s.config(0).unwrap());
        let b = features(&s, &s.config(3).unwrap());
        assert_eq!(sq_distance(&a, &a), 0.0);
        assert_eq!(sq_distance(&a, &b), sq_distance(&b, &a));
    }

    #[test]
    fn features_into_appends_and_matches_features() {
        let s = space();
        let a = s.config(1).unwrap();
        let b = s.config(3).unwrap();
        let mut buf = Vec::new();
        features_into(&s, &a, &mut buf);
        features_into(&s, &b, &mut buf);
        assert_eq!(buf.len(), 2 * feature_len(&s));
        assert_eq!(&buf[..3], features(&s, &a).as_slice());
        assert_eq!(&buf[3..], features(&s, &b).as_slice());
    }

    #[test]
    fn features_read_the_same_values_as_the_space() {
        use crate::knob::KnobValue;
        let s = ConfigSpace::new(
            "t",
            vec![
                Knob::split("a", 12, 3),
                Knob::choice("u", vec![-3, 0, 1500]),
                Knob::split("b", 8, 2),
            ],
        );
        for i in 0..s.len() {
            let cfg = s.config(i).unwrap();
            let mut expect = Vec::new();
            for v in s.values(&cfg) {
                match v {
                    KnobValue::Split(fs) => expect.extend(fs.iter().map(|&f| (f as f64).log2())),
                    KnobValue::Choice(c) => {
                        let x = c as f64;
                        expect.push(x.signum() * x.abs().ln_1p());
                    }
                }
            }
            let got = features(&s, &cfg);
            assert_eq!(got.len(), expect.len());
            assert!(got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn matrix_shape() {
        let s = space();
        let cfgs: Vec<_> = (0..4).map(|i| s.config(i).unwrap()).collect();
        let m = feature_matrix(&s, &cfgs);
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|r| r.len() == 3));
    }
}
