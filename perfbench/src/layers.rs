//! Timing wrappers for the traced runs, and the per-layer metrics read
//! back from the trace they write.
//!
//! The wrappers sit around the crates' public interfaces — the `Tuner`
//! a loop drives, the `Evaluator` BAO fits, the `Measurer` stack below the
//! loop — so nothing inside the program is instrumented. Calls on the
//! tuning thread become spans (named `bench.*`); work done on other
//! threads or per row (simulated measurement, predictions) is summed into
//! counters, which the pass writes into the trace before it flushes.

use crate::stats::quantile;
use active_learning::tuner::Tuner;
use active_learning::{Evaluator, ProposalDiag};
use dnn_graph::task::TuningTask;
use gbt::Matrix;
use gpu_sim::{MeasureResult, Measurer};
use schedule::{Config, ConfigSpace};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{Record, Telemetry, TraceSummary};

/// Span names written by the wrappers.
pub const TASK: &str = "bench.task";
pub const BTED: &str = "bench.bted";
pub const INIT: &str = "bench.init";
pub const BAO_PROPOSE: &str = "bench.bao.propose";
pub const AUTOTVM_PROPOSE: &str = "bench.autotvm.propose";
pub const UPDATE: &str = "bench.update";
pub const MEASURE: &str = "bench.measure";
pub const GBT_FIT: &str = "bench.gbt.fit";

/// Cross-thread accumulators, written into the trace as counters.
#[derive(Debug, Default)]
pub struct Counters {
    measure_configs: AtomicU64,
    measure_valid: AtomicU64,
    gpusim_ns: AtomicU64,
    gbt_fit_rows: AtomicU64,
    gbt_predict_rows: AtomicU64,
    gbt_predict_ns: AtomicU64,
}

impl Counters {
    /// Adds the accumulated totals to `tel`'s counters and resets them.
    pub fn drain_into(&self, tel: &Telemetry) {
        for (name, cell) in [
            ("bench.measure.configs", &self.measure_configs),
            ("bench.measure.valid", &self.measure_valid),
            ("bench.gpusim_ns", &self.gpusim_ns),
            ("bench.gbt.fit_rows", &self.gbt_fit_rows),
            ("bench.gbt.predict_rows", &self.gbt_predict_rows),
            ("bench.gbt.predict_ns", &self.gbt_predict_ns),
        ] {
            tel.count(name, cell.swap(0, Ordering::Relaxed));
        }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn add(cell: &AtomicU64, v: u64) {
    cell.fetch_add(v, Ordering::Relaxed);
}

/// A [`Tuner`] whose proposals and updates are spans.
pub struct TimedTuner<'a> {
    pub inner: Box<dyn Tuner + 'a>,
    pub tel: Telemetry,
    pub propose: &'static str,
}

impl Tuner for TimedTuner<'_> {
    fn next_batch(&mut self, n: usize) -> Vec<Config> {
        let _span = self.tel.span(self.propose);
        self.inner.next_batch(n)
    }

    fn update(&mut self, results: &[(Config, f64)]) {
        let _span = self.tel.span(UPDATE);
        self.inner.update(results);
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn exclude(&mut self, indices: &[u64]) {
        self.inner.exclude(indices);
    }

    fn set_capture(&mut self, enabled: bool) {
        self.inner.set_capture(enabled);
    }

    fn take_diagnostics(&mut self) -> Vec<ProposalDiag> {
        self.inner.take_diagnostics()
    }
}

/// An [`Evaluator`] whose fits are spans and whose predictions are summed.
pub struct TimedEval<E> {
    pub inner: E,
    pub tel: Telemetry,
    pub counters: Arc<Counters>,
}

impl<E: Evaluator> Evaluator for TimedEval<E> {
    fn fit(&mut self, x: &Matrix, y: &[f64], seed: u64) {
        let _span = self.tel.span(GBT_FIT);
        add(&self.counters.gbt_fit_rows, x.rows() as u64);
        self.inner.fit(x, y, seed);
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let t = Instant::now();
        let p = self.inner.predict_row(row);
        add(&self.counters.gbt_predict_ns, elapsed_ns(t));
        add(&self.counters.gbt_predict_rows, 1);
        p
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let t = Instant::now();
        let p = self.inner.predict(x);
        add(&self.counters.gbt_predict_ns, elapsed_ns(t));
        add(&self.counters.gbt_predict_rows, x.rows() as u64);
        p
    }
}

/// The outermost [`Measurer`]: the loop's view of a measurement batch.
pub struct OuterMeasurer<M> {
    pub inner: M,
    pub tel: Telemetry,
    pub counters: Arc<Counters>,
}

impl<M: Measurer> OuterMeasurer<M> {
    fn account(&self, results: &[MeasureResult]) {
        add(&self.counters.measure_configs, results.len() as u64);
        add(&self.counters.measure_valid, results.iter().filter(|r| r.gflops > 0.0).count() as u64);
    }
}

impl<M: Measurer> Measurer for OuterMeasurer<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        let _span = self.tel.span(MEASURE);
        let r = self.inner.measure(task, space, config);
        self.account(std::slice::from_ref(&r));
        r
    }

    fn measure_batch(
        &self,
        task: &TuningTask,
        space: &ConfigSpace,
        configs: &[Config],
    ) -> Vec<MeasureResult> {
        let _span = self.tel.span(MEASURE);
        let r = self.inner.measure_batch(task, space, configs);
        self.account(&r);
        r
    }

    fn repeats(&self) -> usize {
        self.inner.repeats()
    }

    fn quarantined(&self, task: &TuningTask) -> Vec<u64> {
        self.inner.quarantined(task)
    }
}

/// The innermost [`Measurer`], around the simulator itself. It runs on
/// the executor's worker threads, so its time is a counter, not a span.
pub struct InnerMeasurer<M> {
    pub inner: M,
    pub counters: Arc<Counters>,
}

impl<M: Measurer> Measurer for InnerMeasurer<M> {
    fn measure(&self, task: &TuningTask, space: &ConfigSpace, config: &Config) -> MeasureResult {
        let t = Instant::now();
        let r = self.inner.measure(task, space, config);
        add(&self.counters.gpusim_ns, elapsed_ns(t));
        r
    }

    fn repeats(&self) -> usize {
        self.inner.repeats()
    }

    fn quarantined(&self, task: &TuningTask) -> Vec<u64> {
        self.inner.quarantined(task)
    }
}

/// Per-layer metrics of the tuning loop, per traced pass, from the trace
/// file the traced passes appended to.
///
/// On a workload whose own telemetry pipeline records the program's spans
/// (AutoTVM's `XgbTuner` fits its cost model internally, out of reach of
/// an `Evaluator` wrapper), GBT fits and predictions come from the
/// program's existing `gbt.fit`/`gbt.predict` spans, `gbt.fit_rows`
/// histogram and SA proposal counters instead of the `bench.gbt.*`
/// wrappers; exactly one of the two sources is present in a trace.
///
/// # Errors
///
/// Returns a diagnostic when the trace cannot be read.
pub fn tuning_layers(
    trace: &Path,
    passes: usize,
    sa_parallel_size: usize,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let text =
        std::fs::read_to_string(trace).map_err(|e| format!("read {}: {e}", trace.display()))?;
    let records: Vec<Record> = text.lines().filter_map(|l| serde_json::from_str(l).ok()).collect();
    let summary = TraceSummary::from_records(&records);
    #[allow(clippy::cast_precision_loss)]
    let per_pass = 1.0 / passes.max(1) as f64;
    let span = |name: &str| summary.spans.get(name).copied().unwrap_or_default();
    #[allow(clippy::cast_precision_loss)]
    let calls = |name: &str| span(name).count as f64 * per_pass;
    #[allow(clippy::cast_precision_loss)]
    let busy_ms = |name: &str| span(name).total_us as f64 / 1e3 * per_pass;
    #[allow(clippy::cast_precision_loss)]
    let counter = |name: &str| summary.counters.get(name).copied().unwrap_or(0) as f64 * per_pass;
    let batch_us: Vec<f64> = records
        .iter()
        .filter_map(|r| match r {
            #[allow(clippy::cast_precision_loss)]
            Record::SpanEnd { name, dur_us, .. } if name == MEASURE => Some(*dur_us as f64),
            _ => None,
        })
        .collect();

    let fit_calls = calls(GBT_FIT) + calls("gbt.fit");
    let fit_rows = counter("bench.gbt.fit_rows")
        + summary.histograms.get("gbt.fit_rows").map_or(0.0, |h| h.sum() * per_pass);
    let predict_rows = counter("bench.gbt.predict_rows")
        + if calls("sa.search") > 0.0 {
            // Each SA run scores its start points, then one batch of
            // proposals per iteration; every proposal is accepted or
            // rejected exactly once.
            #[allow(clippy::cast_precision_loss)]
            let starts = calls("sa.search") * sa_parallel_size as f64;
            counter("sa.proposals.accepted") + counter("sa.proposals.rejected") + starts
        } else {
            0.0
        };
    let predict_ms = counter("bench.gbt.predict_ns") / 1e6 + busy_ms("gbt.predict");
    let gbt_ms = busy_ms(GBT_FIT) + counter("bench.gbt.predict_ns") / 1e6;
    let measure_ms = busy_ms(MEASURE);
    let gpusim_ms = counter("bench.gpusim_ns") / 1e6;
    let configs = counter("bench.measure.configs");
    let init_ms = busy_ms(BTED) + busy_ms(INIT);
    let propose_ms = busy_ms(BAO_PROPOSE) + busy_ms(AUTOTVM_PROPOSE);

    let mut m = BTreeMap::new();
    m.insert("bted.busy_ms", busy_ms(BTED));
    m.insert("bao.propose.calls", calls(BAO_PROPOSE));
    m.insert("bao.propose.busy_ms", busy_ms(BAO_PROPOSE));
    m.insert(
        "bao.propose.self_ms",
        if calls(BAO_PROPOSE) > 0.0 { busy_ms(BAO_PROPOSE) - gbt_ms } else { 0.0 },
    );
    m.insert("gbt.fit.calls", fit_calls);
    m.insert("gbt.fit.busy_ms", busy_ms(GBT_FIT) + busy_ms("gbt.fit"));
    m.insert("gbt.fit.rows_mean", if fit_calls > 0.0 { fit_rows / fit_calls } else { 0.0 });
    m.insert("gbt.predict.rows", predict_rows);
    m.insert("gbt.predict.busy_ms", predict_ms);
    m.insert("autotvm.propose.calls", calls(AUTOTVM_PROPOSE));
    m.insert("autotvm.propose.busy_ms", busy_ms(AUTOTVM_PROPOSE));
    m.insert("tuner.update.busy_ms", busy_ms(UPDATE));
    m.insert("loop.self_ms", busy_ms(TASK) - init_ms - propose_ms - busy_ms(UPDATE) - measure_ms);
    m.insert("measure.batches", calls(MEASURE));
    m.insert("measure.configs", configs);
    m.insert("measure.busy_ms", measure_ms);
    m.insert("measure.batch_us_p50", quantile(&batch_us, 0.5));
    m.insert("gpusim.busy_ms", gpusim_ms);
    m.insert("executor.overhead_ms", measure_ms - gpusim_ms);
    m.insert(
        "measure.valid_ratio",
        if configs > 0.0 { counter("bench.measure.valid") / configs } else { 0.0 },
    );
    Ok(m)
}
