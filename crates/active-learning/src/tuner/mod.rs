//! Tuning strategies behind a common interface.
//!
//! Every strategy implements [`Tuner`]: propose a batch, receive measured
//! results, repeat. The shared measurement loop in
//! [`crate::task_tuning::tune_task`] owns the budget, early stopping and
//! record keeping, so strategies stay pure.

mod random;
mod xgb;

pub use random::RandomTuner;
pub use xgb::XgbTuner;

use crate::model_quality::ProposalDiag;
use schedule::Config;

/// A batch-oriented tuning strategy.
pub trait Tuner {
    /// Proposes up to `n` configurations to measure next. May return fewer
    /// (or none, which ends the run) when the strategy is exhausted.
    fn next_batch(&mut self, n: usize) -> Vec<Config>;

    /// Feeds back measured `(configuration, GFLOPS)` pairs; failed launches
    /// report 0.0 GFLOPS.
    fn update(&mut self, results: &[(Config, f64)]);

    /// The batch size this strategy prefers (the loop may clamp it to the
    /// remaining budget).
    fn preferred_batch(&self) -> usize {
        64
    }

    /// Marks configuration indices as off-limits for future proposals —
    /// the measurement layer's crash quarantine feeds known-bad configs
    /// here so they are never re-proposed. Strategies without an
    /// exclusion mechanism may ignore it (they will just re-measure a
    /// zero-GFLOPS penalty).
    fn exclude(&mut self, _indices: &[u64]) {}

    /// Enables (or disables) model-introspection capture. When enabled, the
    /// strategy records a [`ProposalDiag`] per proposal in `next_batch`,
    /// retrievable via [`Tuner::take_diagnostics`]. Capture must be pure:
    /// it may read fitted models but must not touch RNG streams or change
    /// which configurations are proposed. Model-free strategies ignore it.
    fn set_capture(&mut self, _enabled: bool) {}

    /// Drains the diagnostics recorded for the *most recent* `next_batch`
    /// call, positionally aligned with its returned configurations. Empty
    /// when capture is disabled or the strategy is model-free.
    fn take_diagnostics(&mut self) -> Vec<ProposalDiag> {
        Vec::new()
    }
}
