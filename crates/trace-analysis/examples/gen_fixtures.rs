//! Regenerates the committed miniature run directories under
//! `tests/fixtures/` that the golden `compare` tests pin against:
//!
//! ```text
//! cargo run -p trace-analysis --example gen_fixtures
//! ```
//!
//! Four runs over the same two tasks, fully deterministic:
//! - `base`      — the reference run, with a well-calibrated model capture
//!   (`model_quality.jsonl`: predictions track the measurements).
//! - `noise`     — the same per-task measurement multisets, reordered:
//!   identical means, so every task must classify as noise.
//! - `regressed` — `m.T1` slowed down by 20%, `m.T2` untouched: `m.T1`
//!   must classify as regressed (and gate the exit code), `m.T2` as noise.
//! - `model_regressed` — byte-identical logs to `base` (no perf delta at
//!   all) but an *inverted* model capture: only the rank-correlation gate
//!   of `compare --fail-on-regress` can flag this run.

use active_learning::{
    write_model_quality, ModelPredRecord, RunDir, RunManifest, TrialRecord, TuneOptions, TuningLog,
    MANIFEST_SCHEMA_VERSION, MODEL_QUALITY_FILE,
};
use std::path::Path;

const N: usize = 24;

fn base_gflops(task: usize, i: usize) -> f64 {
    let level = if task == 0 { 100.0 } else { 50.0 };
    level + ((i * 13 + task * 5) % 7) as f64
}

fn log_from(task: usize, name: &str, f: impl Fn(usize) -> f64) -> TuningLog {
    let mut log = TuningLog::new(name, "bted+bao");
    for i in 0..N {
        log.records.push(TrialRecord {
            config_index: (task * 1000 + i * 17) as u64,
            gflops: f(i),
            latency_s: 1e-4,
        });
    }
    log
}

/// Model capture for `logs`: 3 rounds of 8 proposals per task, with the
/// predicted mean derived from the measurement through `predict` (identity
/// for a trustworthy model, an inversion for a broken one).
fn capture_from(logs: &[TuningLog], predict: impl Fn(f64) -> f64) -> Vec<ModelPredRecord> {
    let mut records = Vec::new();
    for log in logs {
        for (trial, rec) in log.records.iter().enumerate() {
            let mean = predict(rec.gflops);
            records.push(ModelPredRecord {
                task: log.task_name.clone(),
                round: trial / 8,
                trial,
                config_index: rec.config_index,
                predicted_mean: Some(mean),
                predicted_std: Some(0.05 * mean.abs().max(1.0)),
                acquisition: Some(mean),
                measured_gflops: rec.gflops,
            });
        }
    }
    records
}

fn write_run(root: &Path, name: &str, logs: &[TuningLog]) {
    let dir = RunDir::create(root.join(name)).expect("create fixture dir");
    dir.write_manifest(&RunManifest {
        model: "mobilenet_v1".into(),
        method: "bted+bao".into(),
        tasks: logs.iter().map(|l| l.task_name.clone()).collect(),
        seed: 0,
        options: TuneOptions { n_trial: N, ..TuneOptions::smoke() },
        schema_version: Some(MANIFEST_SCHEMA_VERSION),
        git_describe: None,
        wall_time_s: Some(0.5),
        device: None,
        fault: None,
        resumed: None,
        workers: None,
        devices: None,
        db: None,
    })
    .expect("write manifest");
    for log in logs {
        dir.write_log(log).expect("write log");
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let base_logs =
        [log_from(0, "m.T1", |i| base_gflops(0, i)), log_from(1, "m.T2", |i| base_gflops(1, i))];
    write_run(&root, "base", &base_logs);
    write_model_quality(
        &root.join("base").join(MODEL_QUALITY_FILE),
        &capture_from(&base_logs, |g| g),
    )
    .expect("write base capture");
    // Same measurements as base, but the model ranked them upside down.
    write_run(&root, "model_regressed", &base_logs);
    write_model_quality(
        &root.join("model_regressed").join(MODEL_QUALITY_FILE),
        &capture_from(&base_logs, |g| 200.0 - g),
    )
    .expect("write inverted capture");
    write_run(
        &root,
        "noise",
        &[
            log_from(0, "m.T1", |i| base_gflops(0, (i + 7) % N)),
            log_from(1, "m.T2", |i| base_gflops(1, (i + 11) % N)),
        ],
    );
    write_run(
        &root,
        "regressed",
        &[
            log_from(0, "m.T1", |i| 0.8 * base_gflops(0, i)),
            log_from(1, "m.T2", |i| base_gflops(1, i)),
        ],
    );
    println!("wrote fixtures under {}", root.display());
}
