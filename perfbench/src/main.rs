//! The repository benchmark: tuning throughput and quality per arm, the
//! `/best` read path beside tuning jobs, and per-layer traced runs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bao-mobilenet|autotvm-squeezenet|serve-mixed> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. README.md defines
//! every metric and what each layer is expected to move.

mod layers;
mod reads;
mod stats;
mod tuning;

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Throughput and set-up are measured in reference CPU seconds (CPU time,
/// which the host's stolen time does not inflate, scaled by the host's
/// momentary speed; see `stats::Speedometer`); the wall-clock figures are
/// per-layer metrics (see README.md).
const END_METRICS: [(&str, &str); 6] = [
    ("trials_per_cpu_s", "1/s"),
    ("tuned_gflops_geomean", "GFLOPS"),
    ("model_latency_ms", "ms"),
    ("best_lookups_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 40] = [
    ("trials_per_s", "1/s"),
    ("job.wall_p50_s", "s"),
    ("bted.busy_ms", "ms"),
    ("bao.propose.calls", "count"),
    ("bao.propose.busy_ms", "ms"),
    ("bao.propose.self_ms", "ms"),
    ("gbt.fit.calls", "count"),
    ("gbt.fit.busy_ms", "ms"),
    ("gbt.fit.rows_mean", "rows"),
    ("gbt.predict.rows", "rows"),
    ("gbt.predict.busy_ms", "ms"),
    ("autotvm.propose.calls", "count"),
    ("autotvm.propose.busy_ms", "ms"),
    ("tuner.update.busy_ms", "ms"),
    ("loop.self_ms", "ms"),
    ("measure.batches", "count"),
    ("measure.configs", "count"),
    ("measure.busy_ms", "ms"),
    ("measure.batch_us_p50", "us"),
    ("gpusim.busy_ms", "ms"),
    ("executor.overhead_ms", "ms"),
    ("measure.valid_ratio", "ratio"),
    ("telemetry.trace_bytes_per_trial", "bytes"),
    ("telemetry.records_per_trial", "count"),
    ("trace.overhead_pct", "%"),
    ("best.p50_ms", "ms"),
    ("best.p99_ms", "ms"),
    ("best.samples", "count"),
    ("best.max_qps", "1/s"),
    ("gen.lag_p99_ms", "ms"),
    ("serve.handler_us_p50", "us"),
    ("serve.handler_us_p99", "us"),
    ("serve.handler.samples", "count"),
    ("http.overhead_us_p50", "us"),
    ("db.records", "count"),
    ("db.upserts", "count"),
    ("job.queue_wait_ms_p50", "ms"),
    ("job.samples", "count"),
    ("failed_share", "ratio"),
    ("setup.wall_s", "s"),
];

/// Command-line arguments of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run leaves its span trace (`aaltune trace FILE`).
    pub trace_file: PathBuf,
}

impl RunArgs {
    fn parse() -> Result<RunArgs, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(k) = it.next() {
            let name = k.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
            flags.insert(name.to_string(), v);
        }
        let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
        let workload = get("workload")?.clone();
        let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        };
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        let trace_file = work_root().join(format!("{workload}.trace.jsonl"));
        Ok(RunArgs { workload, seed, seconds, trace, trace_file })
    }
}

/// Scratch space of the benchmark, inside the checkout it runs from.
fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Operations attempted and failed; any failure makes the run incorrect.
#[derive(Default)]
pub struct Check {
    attempted: u64,
    failed: u64,
}

impl Check {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("perfbench: check failed: {why}");
        }
    }
}

/// The metrics of a run, end-to-end and per-layer.
#[derive(Default)]
pub struct Metrics {
    end: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn end(&mut self, name: &'static str, value: f64) {
        assert!(END_METRICS.iter().any(|(n, _)| *n == name), "undeclared metric {name}");
        self.end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "undeclared metric {name}");
        self.layer.insert(name, value);
    }
}

fn run(args: &RunArgs, check: &mut Check) -> Result<Metrics, String> {
    let work = work_root().join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let out = match args.workload.as_str() {
        "bao-mobilenet" => {
            tuning::run(&tuning::Workload::bao_mobilenet(args.seed), args, &work, check)
        }
        "autotvm-squeezenet" => {
            tuning::run(&tuning::Workload::autotvm_squeezenet(), args, &work, check)
        }
        "serve-mixed" => reads::serve_mixed(args, &work, check),
        other => Err(format!(
            "unknown workload `{other}` (bao-mobilenet, autotvm-squeezenet, serve-mixed)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    if !args.trace {
        let _ = std::fs::remove_file(&args.trace_file);
    }
    out
}

fn main() {
    let args = match RunArgs::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut check = Check::default();
    let mut metrics = match run(&args, &mut check) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let attempted = check.attempted.max(check.failed).max(1);
    #[allow(clippy::cast_precision_loss)]
    let failed_share = check.failed as f64 / attempted as f64;
    metrics.layer("failed_share", failed_share);

    let (declared, got): (&[(&str, &str)], _) =
        if args.trace { (&LAYER_METRICS, &metrics.layer) } else { (&END_METRICS, &metrics.end) };
    let mut out = Map::new();
    for (name, unit) in declared {
        let value = match got.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            std::process::exit(1);
        }
        out.insert((*name).to_string(), json!({ "value": value, "unit": unit }));
    }
    if args.trace {
        eprintln!("perfbench: span trace in {} (`aaltune trace FILE`)", args.trace_file.display());
    }
    let correct = check.failed == 0;
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": check.failed,
        "metrics": Value::Object(out),
    });
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
