//! Executes one tuning job inside its per-job run directory.
//!
//! This is the CLI `tune` loop reduced to its durable core: per-task
//! crash-safe trial logs, checkpoint every 16 trials, and replay-based
//! resume — so a server killed mid-job continues exactly where the log
//! ends, and the finished logs are byte-identical to an uninterrupted
//! run. Two deliberate simplifications keep that guarantee simple:
//!
//! * jobs tune **cold** (no database warm start), so the trial stream
//!   is a pure function of the spec — independent of what other tenants
//!   upserted meanwhile, which is what makes the kill -9 twin
//!   comparison in CI byte-exact;
//! * the measurement stack is a plain [`SimMeasurer`] behind the shared
//!   executor (no fault injection, no quarantine) — chaos testing
//!   belongs to the `tune` CLI, not the service.
//!
//! Results are folded into the shared tuning database after each task
//! (append-before-apply, under the server's writer lock), which is what
//! the high-QPS `/best` read path serves from.

use crate::job::{device_by_name, method_by_name, model_by_name, JobSpec};
use active_learning::records::{Checkpoint, RunDir, TuningLog, CHECKPOINT_SCHEMA_VERSION};
use active_learning::{tune_task_with, RunManifest, TrialRecord, TuneHooks, TuneOptions};
use dnn_graph::task::{extract_tasks, TuningTask};
use executor::{DevicePool, Executor, ExecutorConfig};
use gpu_sim::SimMeasurer;
use schedule::template::space_for_task;
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use telemetry::sync::lock_or_recover;
use tuning_db::{
    decimate_curve, DbRecord, TaskSpec, TopConfig, TuningDb, DB_SCHEMA_VERSION, TOP_K,
};

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
    emit: &dyn Fn(&str, Value),
) -> Result<Value, String> {
    spec.validate()?;
    let model = model_by_name(&spec.model)?;
    let method = method_by_name(&spec.method)?;
    let device = device_by_name(&spec.device)?;
    let device_name = spec.device.clone();
    let opts = job_options(spec);

    let dir = RunDir::create(jobs_root.join(id))
        .map_err(|e| format!("cannot create run dir for {id}: {e}"))?;
    let tasks = extract_tasks(&model);
    let selected: Vec<usize> = match spec.task {
        Some(i) if i < tasks.len() => vec![i],
        Some(i) => return Err(format!("task index {i} out of range (model has {})", tasks.len())),
        None => (0..tasks.len()).collect(),
    };
    let task_names: Vec<String> = selected.iter().map(|&i| tasks[i].name.clone()).collect();

    // Resume iff a checkpoint exists; its `completed_tasks` list is the
    // same advisory state `tune --resume` uses (correctness rests on the
    // logs themselves).
    let checkpoint = dir.read_checkpoint().map_err(|e| format!("bad checkpoint for {id}: {e}"))?;
    let resume = checkpoint.is_some();
    let mut completed: Vec<String> = checkpoint.map(|c| c.completed_tasks).unwrap_or_default();
    if !resume {
        dir.write_manifest(&RunManifest {
            model: spec.model.clone(),
            method: method.label().to_string(),
            tasks: task_names.clone(),
            seed: spec.seed,
            options: opts,
            schema_version: Some(active_learning::records::MANIFEST_SCHEMA_VERSION),
            git_describe: None,
            wall_time_s: None,
            device: Some(device_name.clone()),
            fault: None,
            resumed: None,
            workers: Some(workers),
            devices: None,
            db: None,
        })
        .map_err(|e| format!("cannot write manifest for {id}: {e}"))?;
    }

    // The executor leases from the server-wide pool under the *tenant*
    // tag, so fair share and hard quotas apply across every concurrent
    // job, not per task name.
    let exec = Executor::with_pool(
        SimMeasurer::new(device),
        ExecutorConfig::for_workers(workers.max(1)),
        Arc::clone(pool),
        Some(spec.tenant.clone()),
    );

    let write_ckpt = |completed: &[String], in_flight: Option<&str>, trials: Option<u64>| {
        dir.write_checkpoint(&Checkpoint {
            schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
            completed_tasks: completed.to_vec(),
            in_flight: in_flight.map(str::to_string),
            trials_logged: trials,
            quarantine: None,
        })
        .map_err(|e| format!("cannot write checkpoint for {id}: {e}"))
    };
    if !resume {
        write_ckpt(&completed, None, None)?;
    }

    let mut summaries = Vec::new();
    for &ti in &selected {
        let task = &tasks[ti];
        let log = if completed.contains(&task.name) {
            let f = std::fs::File::open(dir.log_path(&task.name))
                .map_err(|e| format!("cannot reopen log of {}: {e}", task.name))?;
            TuningLog::read_jsonl(std::io::BufReader::new(f))
                .map_err(|e| format!("bad log for completed task {}: {e}", task.name))?
        } else {
            let log = tune_one(&dir, task, &exec, method, &opts, resume, id, emit)?;
            upsert_result(db, task, &device_name, method.label(), spec.seed, &log)?;
            completed.push(task.name.clone());
            write_ckpt(&completed, None, None)?;
            log
        };
        let best = log.best_gflops();
        summaries.push(json!({
            "task": task.name.clone(),
            "trials": log.records.len() as u64,
            "best_gflops": best,
        }));
    }

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

/// Tunes one task with durable logging + replay resume (the crash-safe
/// core of the CLI's `run_task`).
#[allow(clippy::too_many_arguments)]
fn tune_one(
    dir: &RunDir,
    task: &TuningTask,
    exec: &Executor<SimMeasurer>,
    method: active_learning::Method,
    opts: &TuneOptions,
    resume: bool,
    id: &str,
    emit: &dyn Fn(&str, Value),
) -> Result<TuningLog, String> {
    let (replay, mut writer) = {
        let recovered = if resume {
            dir.recover_log(&task.name)
                .map_err(|e| format!("cannot recover log of {}: {e}", task.name))?
        } else {
            None
        };
        match recovered {
            Some((rec, w)) => (rec.log.records, w),
            None => (
                Vec::new(),
                dir.create_log(&task.name, method.label())
                    .map_err(|e| format!("cannot create log of {}: {e}", task.name))?,
            ),
        }
    };
    dir.write_checkpoint(&Checkpoint {
        schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
        completed_tasks: completed_of(dir),
        in_flight: Some(task.name.clone()),
        trials_logged: Some(replay.len() as u64),
        quarantine: None,
    })
    .map_err(|e| format!("cannot write checkpoint for {id}: {e}"))?;

    let trials_logged = std::cell::Cell::new(replay.len() as u64);
    let write_err: std::cell::RefCell<Option<String>> = std::cell::RefCell::new(None);
    let mut sink = |rec: &TrialRecord| {
        let trial = writer.trials();
        if let Err(e) = writer.append(rec) {
            write_err.borrow_mut().get_or_insert(e.to_string());
        }
        trials_logged.set(trials_logged.get() + 1);
        if trials_logged.get().is_multiple_of(16) {
            let _ = dir.write_checkpoint(&Checkpoint {
                schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
                completed_tasks: completed_of(dir),
                in_flight: Some(task.name.clone()),
                trials_logged: Some(trials_logged.get()),
                quarantine: None,
            });
        }
        emit(
            "job.trial",
            json!({
                "task": task.name.clone(),
                "trial": trial,
                "gflops": rec.gflops,
                "best_gflops": writer.best_gflops(),
            }),
        );
    };
    let r = tune_task_with(
        task,
        exec,
        method,
        opts,
        TuneHooks { on_trial: Some(&mut sink), replay: Some(&replay), ..TuneHooks::default() },
    );
    if let Some(e) = write_err.into_inner() {
        return Err(format!("trial log of {} failed to write: {e}", task.name));
    }
    if let Some(diag) = &r.aborted {
        return Err(format!("{} aborted: {diag}", task.name));
    }
    Ok(r.log)
}

/// Reads the completed-task list back from the current checkpoint (the
/// per-trial sink can't borrow the caller's mutable list while the tuner
/// holds the closure).
fn completed_of(dir: &RunDir) -> Vec<String> {
    dir.read_checkpoint().ok().flatten().map(|c| c.completed_tasks).unwrap_or_default()
}

/// Folds a finished task's log into the tuning database (same top-k
/// ranking the CLI's `upsert_result` uses).
fn upsert_result(
    db: Option<&Mutex<TuningDb>>,
    task: &TuningTask,
    device_name: &str,
    method_label: &str,
    seed: u64,
    log: &TuningLog,
) -> Result<(), String> {
    let Some(store) = db else { return Ok(()) };
    let space = space_for_task(task);
    let mut ranked: Vec<&TrialRecord> = log.records.iter().filter(|r| r.gflops > 0.0).collect();
    ranked.sort_by(|a, b| b.gflops.total_cmp(&a.gflops).then(a.config_index.cmp(&b.config_index)));
    let mut seen = BTreeSet::new();
    let mut top_k = Vec::new();
    for r in ranked {
        if top_k.len() >= TOP_K {
            break;
        }
        if !seen.insert(r.config_index) {
            continue;
        }
        let cfg = space.config(r.config_index).map_err(|e| {
            format!("bad config index {} in log of {}: {e}", r.config_index, task.name)
        })?;
        top_k.push(TopConfig {
            config_index: r.config_index,
            choices: cfg.choices,
            gflops: r.gflops,
            latency_s: r.latency_s,
        });
    }
    if top_k.is_empty() {
        return Ok(());
    }
    let rec = DbRecord {
        schema_version: DB_SCHEMA_VERSION,
        spec: TaskSpec::of(task, &space, device_name),
        feature: TaskSpec::features(task),
        method: method_label.to_string(),
        seed,
        n_trials: log.records.len() as u64,
        best_gflops: top_k[0].gflops,
        top_k,
        curve: decimate_curve(&log.convergence_curve(), 64),
    };
    lock_or_recover(store)
        .upsert(rec)
        .map_err(|e| format!("cannot upsert {} into tuning database: {e}", task.name))
}
