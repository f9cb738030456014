//! Executes one tuning job inside its per-job run directory.
//!
//! A job is a [`TuneSession`], so it gets what `aaltune tune --out` gets:
//! the full measurement stack (retry, timeout, quarantine; no injected
//! faults), durable logs, checkpoints that carry the quarantine, and
//! replay-based resume. A server killed mid-job continues where each log
//! ends, with logs byte-identical to an uninterrupted run. Its settings:
//!
//! * the server-wide device pool under the *tenant* tag, so fair share
//!   and quotas apply across every concurrent job;
//! * **cold** tuning ([`DbPolicy::UpsertOnly`]): the trial stream is a
//!   pure function of the spec, whatever other tenants upserted, which is
//!   what makes the kill -9 twin comparison in CI byte-exact. Finished
//!   tasks still fold into the database the `/best` read path serves;
//! * each live trial streams as a `job.trial` event.

use crate::job::JobSpec;
use crate::session::{DbPolicy, SessionDir, SessionSpec, TuneSession};
use active_learning::records::{RunDir, MANIFEST_SCHEMA_VERSION};
use active_learning::{Method, RunManifest, TuneOptions};
use dnn_graph::task::extract_tasks;
use executor::DevicePool;
use gpu_sim::FaultConfig;
use serde_json::{json, Value};
use std::path::Path;
use std::sync::{Arc, Mutex};
use tuning_db::TuningDb;

/// Tuning options for a job: the smoke profile (small models, fast
/// surrogates) with the job's budget and seed applied.
#[must_use]
pub fn job_options(spec: &JobSpec) -> TuneOptions {
    TuneOptions {
        n_trial: spec.n_trial,
        early_stopping: spec.n_trial,
        seed: spec.seed,
        capture_model: Some(false),
        ..TuneOptions::smoke()
    }
}

/// Runs (or resumes) job `id` to completion. `emit` receives progress
/// events (`job.trial`, one per live trial) already scoped to this job.
///
/// # Errors
///
/// Returns a diagnostic; the caller marks the job failed and journals it.
pub fn run_job(
    jobs_root: &Path,
    id: &str,
    spec: &JobSpec,
    pool: &Arc<DevicePool>,
    workers: usize,
    db: Option<&Mutex<TuningDb>>,
    emit: &(dyn Fn(&str, Value) + Sync),
) -> Result<Value, String> {
    spec.validate()?;
    let model = dnn_graph::models::by_name(&spec.model)?;
    let method = Method::by_name(&spec.method)?;
    let opts = job_options(spec);

    let dir = RunDir::create(jobs_root.join(id))
        .map_err(|e| format!("cannot create run dir for {id}: {e}"))?;
    let mut tasks = extract_tasks(&model);
    if let Some(i) = spec.task {
        // In range: `validate` checked it against the same model.
        tasks = vec![tasks.swap_remove(i)];
    }
    // Resume iff a checkpoint exists (correctness rests on the logs
    // themselves; the checkpoint adds completed tasks and quarantine).
    let resume = dir.read_checkpoint().map_err(|e| format!("bad checkpoint for {id}: {e}"))?;
    let manifest = RunManifest {
        model: spec.model.clone(),
        method: method.label().to_string(),
        tasks: tasks.iter().map(|t| t.name.clone()).collect(),
        seed: spec.seed,
        options: opts,
        schema_version: Some(MANIFEST_SCHEMA_VERSION),
        device: Some(spec.device.clone()),
        workers: Some(workers),
        ..RunManifest::default()
    };
    let session = TuneSession::open(SessionSpec {
        tasks,
        method,
        opts,
        device: spec.device.clone(),
        fault: FaultConfig::off(),
        workers,
        pool: Arc::clone(pool),
        lease_tag: Some(spec.tenant.clone()),
        run_dir: Some(SessionDir { dir: dir.clone(), manifest, resume }),
        db: db.map(|store| (store, DbPolicy::UpsertOnly)),
    })?;
    let on_trial = |task: &str, trial: usize, rec: &active_learning::TrialRecord, best: f64| {
        emit(
            "job.trial",
            json!({ "task": task, "trial": trial, "gflops": rec.gflops, "best_gflops": best }),
        );
    };
    let logs = session.run(1, Some(&on_trial))?;

    let summaries: Vec<Value> = logs
        .iter()
        .map(|log| {
            json!({
                "task": log.task_name.clone(),
                "trials": log.records.len() as u64,
                "best_gflops": log.best_gflops(),
            })
        })
        .collect();
    let result = json!({
        "schema_version": 1u64,
        "job": id,
        "model": spec.model.clone(),
        "method": method.label(),
        "seed": spec.seed,
        "tasks": summaries,
    });
    // Atomic, wall-clock-free: the twin comparison may diff result files
    // too, and a torn result must never be served.
    telemetry::stream::write_atomic(
        &dir.path().join("result.json"),
        // aal-lint: allow(unwrap, reason = "result is plain JSON built above; serialization cannot fail")
        serde_json::to_string_pretty(&result).expect("result serializes").as_bytes(),
    )
    .map_err(|e| format!("cannot write result for {id}: {e}"))?;
    Ok(result)
}
