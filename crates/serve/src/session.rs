//! One durable tuning session: the per-task pipeline under `aaltune
//! tune`, `tune --resume` and serve jobs. A [`TuneSession`] owns:
//!
//! * **the measurement stack**: a [`SimMeasurer`] under a
//!   [`FaultInjectingMeasurer`] (transparent at rate 0) under a
//!   [`RobustMeasurer`] (retry, timeout, quarantine), over an [`Executor`];
//! * **the run directory**: the manifest of a fresh run, trials appended
//!   to each task's log before the tuner consumes them, `checkpoint.json`
//!   at task boundaries and every 16 trials, and replay-based resume that
//!   restores the checkpointed quarantine;
//! * **model capture** into `model_quality.jsonl`, if the options ask;
//! * **the tuning database**: consultation under a [`DbPolicy`], and one
//!   upsert of each finished task's top-k.
//!
//! Callers differ only in settings. The CLI passes a per-run pool shared
//! between task names, its fault stream and `serve`/`warm`; a serve job
//! passes the server's pool tagged with its tenant, no faults and
//! [`DbPolicy::UpsertOnly`], since jobs tune cold.

use active_learning::records::LogWriter;
use active_learning::{
    read_model_quality, tune_task_with, write_model_quality, Checkpoint, Method, ModelPredRecord,
    RunDir, RunManifest, TrialRecord, TuneHooks, TuneOptions, TuningLog, WarmSeed,
    CHECKPOINT_SCHEMA_VERSION, MODEL_QUALITY_FILE,
};
use dnn_graph::task::TuningTask;
use executor::{run_ordered, DevicePool, Executor, ExecutorConfig};
use gpu_sim::{
    FaultConfig, FaultInjectingMeasurer, GpuDevice, Measurer, RetryPolicy, RobustMeasurer,
    SimMeasurer,
};
use schedule::template::space_for_task;
use schedule::Config;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use telemetry::sync::lock_or_recover;
use tuning_db::{
    decimate_curve, DbRecord, TaskSpec, TopConfig, TuningDb, DB_SCHEMA_VERSION,
    DB_WARM_START_COUNTER, TOP_K,
};

/// How a session uses its tuning database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbPolicy {
    /// Serve an exact hit: one verifying measurement, no tuning loop.
    Serve,
    /// Warm-start the initial measurement set from an exact hit (or the
    /// nearest tasks on a miss) and tune normally.
    Warm,
    /// Never consult; only fold finished tasks in.
    UpsertOnly,
}

impl DbPolicy {
    /// Label recorded in run manifests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DbPolicy::Serve => "serve",
            DbPolicy::Warm => "warm",
            DbPolicy::UpsertOnly => "upsert-only",
        }
    }

    /// Parses a `--db-policy` value.
    ///
    /// # Errors
    ///
    /// Returns an error naming the accepted values.
    pub fn parse(s: &str) -> Result<DbPolicy, String> {
        match s {
            "serve" => Ok(DbPolicy::Serve),
            "warm" => Ok(DbPolicy::Warm),
            other => Err(format!("unknown --db-policy `{other}` (serve, warm)")),
        }
    }
}

/// The run directory a session makes durable.
pub struct SessionDir {
    /// The directory.
    pub dir: RunDir,
    /// Written when the session starts fresh, so a killed run is always
    /// resumable. A resumed run keeps the manifest it has.
    pub manifest: RunManifest,
    /// The checkpoint of the killed run being continued (the default
    /// when it never wrote one); `None` starts fresh.
    pub resume: Option<Checkpoint>,
}

/// Everything a [`TuneSession`] is opened with.
pub struct SessionSpec<'a> {
    /// Tasks to tune, in result order.
    pub tasks: Vec<TuningTask>,
    /// Tuning method.
    pub method: Method,
    /// Tuning options; they also set the retry policy and model capture.
    pub opts: TuneOptions,
    /// Device preset name (resolved by [`GpuDevice::by_name`]; it also
    /// keys database records).
    pub device: String,
    /// Injected fault stream ([`FaultConfig::off`] for none).
    pub fault: FaultConfig,
    /// Measurement worker threads.
    pub workers: usize,
    /// The device pool measurements lease from.
    pub pool: Arc<DevicePool>,
    /// The tag every lease carries; `None` tags each with its task name,
    /// which fair-shares the pool between tasks.
    pub lease_tag: Option<String>,
    /// Durable run directory; `None` keeps the logs in memory only.
    pub run_dir: Option<SessionDir>,
    /// Tuning database and how to use it.
    pub db: Option<(&'a Mutex<TuningDb>, DbPolicy)>,
}

/// Called after each live trial reaches the run directory, with the task
/// name, the trial number, the record and the best GFLOPS so far.
pub type TrialObserver<'o> = &'o (dyn Fn(&str, usize, &TrialRecord, f64) + Sync);

/// Crash-safety bookkeeping shared by the tasks in flight.
struct CkptState {
    /// Tasks whose logs are complete and durable.
    completed: Vec<String>,
    /// Per in-flight task: config indices already appended to its durable
    /// log. Checkpoints restrict each in-flight task's quarantine to this
    /// set: a batch can quarantine a config before its record is durable,
    /// and a resume that excluded such a config would diverge from the
    /// uninterrupted run.
    appended: BTreeMap<String, BTreeSet<u64>>,
}

/// A durable tuning session over a fixed task list (see the module doc).
pub struct TuneSession<'a> {
    tasks: Vec<TuningTask>,
    method: Method,
    opts: TuneOptions,
    /// Whether the options ask for model capture.
    capture: bool,
    device: String,
    measurer: Executor<RobustMeasurer<FaultInjectingMeasurer<SimMeasurer>>>,
    dir: Option<RunDir>,
    resume: bool,
    db: Option<(&'a Mutex<TuningDb>, DbPolicy)>,
    state: Mutex<CkptState>,
    /// Capture records per task.
    model_records: Mutex<BTreeMap<String, Vec<ModelPredRecord>>>,
}

impl<'a> TuneSession<'a> {
    /// Opens a session. A fresh run directory gets its manifest and a
    /// first checkpoint; a resumed one restores the quarantine and the
    /// capture records of completed tasks.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for an unknown device or a run directory that
    /// cannot be written or read back.
    pub fn open(spec: SessionSpec<'a>) -> Result<Self, String> {
        let device = GpuDevice::by_name(&spec.device)?;
        let capture = spec.opts.capture_model_or_default();
        let (dir, checkpoint) = match spec.run_dir {
            Some(SessionDir { dir, manifest, resume }) => {
                if resume.is_none() {
                    dir.write_manifest(&manifest)
                        .map_err(|e| format!("cannot write manifest: {e}"))?;
                }
                (Some(dir), resume)
            }
            None => (None, None),
        };
        let resume = checkpoint.is_some();
        let checkpoint = checkpoint.unwrap_or_default();
        // A resumed run keeps the capture of the tasks that completed
        // before the kill; a replayed task replaces its own records.
        let mut model_records: BTreeMap<String, Vec<ModelPredRecord>> = BTreeMap::new();
        let file = dir.as_ref().map(RunDir::model_quality_path).filter(|f| f.is_file());
        if let Some(file) = file.filter(|_| resume && capture) {
            for rec in read_model_quality(&file)? {
                model_records.entry(rec.task.clone()).or_default().push(rec);
            }
        }
        let policy = RetryPolicy {
            max_retries: spec.opts.max_retries_or_default(),
            trial_timeout_ms: spec.opts.trial_timeout_ms.unwrap_or(0.0),
            ..RetryPolicy::default()
        };
        let robust = RobustMeasurer::new(
            FaultInjectingMeasurer::new(SimMeasurer::new(device), spec.fault),
            policy,
        );
        if let Some(q) = checkpoint.quarantine {
            robust.restore_quarantine(q);
        }
        let workers = ExecutorConfig::for_workers(spec.workers);
        let measurer = Executor::with_pool(robust, workers, spec.pool, spec.lease_tag);
        let session = TuneSession {
            tasks: spec.tasks,
            method: spec.method,
            opts: spec.opts,
            capture,
            device: spec.device,
            measurer,
            dir,
            resume,
            db: spec.db,
            state: Mutex::new(CkptState {
                completed: checkpoint.completed_tasks,
                appended: BTreeMap::new(),
            }),
            model_records: Mutex::new(model_records),
        };
        if !resume {
            session.checkpoint(&lock_or_recover(&session.state), None, None)?;
        }
        Ok(session)
    }

    /// Tunes every task, up to `concurrency` at a time sharing the
    /// executor, and returns the logs in task order. `on_trial` sees each
    /// live trial once it is durable.
    ///
    /// # Errors
    ///
    /// Returns the first task's diagnostic (every task still runs).
    pub fn run(
        &self,
        concurrency: usize,
        on_trial: Option<TrialObserver<'_>>,
    ) -> Result<Vec<TuningLog>, String> {
        let outcomes =
            run_ordered(self.tasks.iter().collect(), concurrency, |_, t| self.task(t, on_trial));
        let logs = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Once more with every task in: the file exists even when no task
        // tuned live (all served from the database or read back).
        self.write_model_capture()?;
        Ok(logs)
    }

    fn task(
        &self,
        task: &TuningTask,
        on_trial: Option<TrialObserver<'_>>,
    ) -> Result<TuningLog, String> {
        let tel = telemetry::global();
        if let Some(dir) = &self.dir {
            if lock_or_recover(&self.state).completed.contains(&task.name) {
                return self.read_back(dir, task);
            }
        }
        let seed = self.db_seed(task)?;
        // Serve policy on an exact hit: one verifying measurement of the
        // cached best replaces the whole tuning loop. A failed
        // verification (the config no longer launches) falls through to
        // full tuning warm-started from the same seed.
        if let Some(seed) = seed.as_ref().filter(|s| s.mode == "serve") {
            if let Some(log) = self.serve_cached(task, &seed.configs[0])? {
                return Ok(log);
            }
            tel.report(|| format!("{}: cached best failed verification — retuning", task.name));
        }
        let warm = seed.map(|s| s.configs);
        let (replay, mut writer) = self.open_log(task)?;
        let mut write_err: Option<String> = None;
        // Capture sink: the loop recomputes diagnostics for replayed
        // trials too, so a resumed task rebuilds its full record set.
        let mut task_records: Vec<ModelPredRecord> = Vec::new();
        let mut model_sink = |rec: &ModelPredRecord| task_records.push(rec.clone());
        let mut sink = |rec: &TrialRecord| {
            let Some(writer) = writer.as_mut() else { return };
            let trial = writer.trials();
            if let Err(e) = writer.append(rec) {
                write_err.get_or_insert(e.to_string());
            }
            {
                let mut st = lock_or_recover(&self.state);
                st.appended.entry(task.name.clone()).or_default().insert(rec.config_index);
                if writer.trials().is_multiple_of(16) {
                    let _ = self.checkpoint(&st, Some(&task.name), Some(writer.trials()));
                }
            }
            if let Some(observe) = on_trial {
                observe(&task.name, trial, rec, writer.best_gflops());
            }
        };
        let r = tune_task_with(
            task,
            &self.measurer,
            self.method,
            &self.opts,
            TuneHooks {
                on_trial: Some(&mut sink),
                on_model: Some(&mut model_sink),
                replay: Some(&replay),
                warm_start: warm.as_deref(),
            },
        );
        if let Some(e) = write_err {
            return Err(format!("trial log of {} failed to write: {e}", task.name));
        }
        // Upsert before the completion checkpoint: a kill between the two
        // redoes the task on resume (an idempotent merge) instead of
        // losing the database write.
        self.upsert(task, &r.log)?;
        self.complete(task)?;
        if self.dir.is_some() {
            lock_or_recover(&self.model_records).insert(task.name.clone(), task_records);
            self.write_model_capture()?;
        }
        if let Some(diag) = &r.aborted {
            tel.report(|| format!("{:<18} ABORTED: {diag}", r.task_name));
        }
        tel.report(|| {
            format!(
                "{:<18} {:>9.1} GFLOPS in {:>4} measurements ({})",
                r.task_name, r.best_gflops, r.num_measured, self.method
            )
        });
        Ok(r.log)
    }

    /// A task that finished before the kill: its durable log. Its
    /// database upsert was durable before the completion checkpoint, so
    /// nothing is consulted or upserted again.
    fn read_back(&self, dir: &RunDir, task: &TuningTask) -> Result<TuningLog, String> {
        let f = std::fs::File::open(dir.log_path(&task.name))
            .map_err(|e| format!("cannot reopen log of {}: {e}", task.name))?;
        let log = TuningLog::read_jsonl(std::io::BufReader::new(f))
            .map_err(|e| format!("bad log for completed task {}: {e}", task.name))?;
        let trials = log.records.len();
        telemetry::global().report(|| {
            format!("{:<18} already complete ({trials} trials) — skipped", log.task_name)
        });
        Ok(log)
    }

    /// The records to replay and the log to append to: a resumed task
    /// recovers its partial log, a fresh one starts empty. Without a run
    /// directory there is neither.
    fn open_log(&self, task: &TuningTask) -> Result<(Vec<TrialRecord>, Option<LogWriter>), String> {
        let Some(dir) = &self.dir else { return Ok((Vec::new(), None)) };
        let recovered = if self.resume {
            dir.recover_log(&task.name)
                .map_err(|e| format!("cannot recover log of {}: {e}", task.name))?
        } else {
            None
        };
        let (replay, writer) = match recovered {
            Some((rec, writer)) => {
                if rec.dropped_tail {
                    telemetry::global()
                        .report(|| format!("{}: dropped a half-written trial line", task.name));
                }
                (rec.log.records, writer)
            }
            None => (Vec::new(), self.create_log(dir, task)?),
        };
        let mut st = lock_or_recover(&self.state);
        st.appended.insert(task.name.clone(), replay.iter().map(|r| r.config_index).collect());
        self.checkpoint(&st, Some(&task.name), Some(replay.len()))?;
        Ok((replay, Some(writer)))
    }

    fn create_log(&self, dir: &RunDir, task: &TuningTask) -> Result<LogWriter, String> {
        dir.create_log(&task.name, self.method.label())
            .map_err(|e| format!("cannot create log of {}: {e}", task.name))
    }

    /// Marks `task` complete in the checkpoint.
    fn complete(&self, task: &TuningTask) -> Result<(), String> {
        let mut st = lock_or_recover(&self.state);
        st.appended.remove(&task.name);
        st.completed.push(task.name.clone());
        self.checkpoint(&st, None, None)
    }

    /// Writes `checkpoint.json` (if the session has a run directory),
    /// restricting the quarantine of every in-flight task to its durably
    /// logged configs. Callers hold the state lock, which serializes the
    /// writes.
    fn checkpoint(
        &self,
        st: &CkptState,
        in_flight: Option<&str>,
        trials: Option<usize>,
    ) -> Result<(), String> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let mut quarantine = self.measurer.inner().quarantine_snapshot();
        for (task, allowed) in &st.appended {
            quarantine.restrict(task, allowed);
        }
        dir.write_checkpoint(&Checkpoint {
            schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
            completed_tasks: st.completed.clone(),
            in_flight: in_flight.map(str::to_string),
            trials_logged: trials.map(|n| n as u64),
            quarantine: Some(quarantine),
        })
        .map_err(|e| format!("cannot write checkpoint: {e}"))
    }

    /// The database seed for `task`, consulted before any measurement. A
    /// resumed task replays the seed pinned in the run directory, since
    /// re-deriving it from a store that moved on since the kill would
    /// diverge. A fresh task derives one (exact hit, or the nearest tasks
    /// on a miss) and pins it before its first trial.
    fn db_seed(&self, task: &TuningTask) -> Result<Option<WarmSeed>, String> {
        let Some((store, policy)) = self.db.filter(|(_, p)| *p != DbPolicy::UpsertOnly) else {
            return Ok(None);
        };
        let pinned = match &self.dir {
            Some(dir) if self.resume => dir
                .read_warm_start(&task.name)
                .map_err(|e| format!("bad warm-start seed for {}: {e}", task.name))?,
            _ => None,
        };
        let seed = match pinned {
            Some(s) => s,
            None => {
                let space = space_for_task(task);
                let spec = TaskSpec::of(task, &space, &self.device);
                let init = self.opts.init_points.max(1);
                let store = lock_or_recover(store);
                let derived = match store.lookup(&spec) {
                    Some(rec) if policy == DbPolicy::Serve => {
                        WarmSeed { mode: "serve".into(), configs: rec.configs_for(&space, 1) }
                    }
                    Some(rec) => {
                        WarmSeed { mode: "warm".into(), configs: rec.configs_for(&space, init) }
                    }
                    None => {
                        let mut seen = BTreeSet::new();
                        let configs = store
                            .nearest(&spec, &TaskSpec::features(task), 3)
                            .iter()
                            .flat_map(|n| n.configs_for(&space, TOP_K))
                            .filter(|cfg| seen.insert(cfg.index))
                            .take(init)
                            .collect::<Vec<_>>();
                        if configs.is_empty() {
                            return Ok(None);
                        }
                        WarmSeed { mode: "warm".into(), configs }
                    }
                };
                drop(store);
                if let Some(dir) = &self.dir {
                    dir.write_warm_start(&task.name, &derived).map_err(|e| {
                        format!("cannot pin warm-start seed for {}: {e}", task.name)
                    })?;
                }
                derived
            }
        };
        if seed.configs.is_empty() {
            return Ok(None);
        }
        let tel = telemetry::global();
        tel.count(DB_WARM_START_COUNTER, 1);
        tel.report(|| {
            format!("{:<18} {} seed from db ({} configs)", task.name, seed.mode, seed.configs.len())
        });
        Ok(Some(seed))
    }

    /// Measures the cached best once. A valid measurement becomes the
    /// task's whole (durable, upserted, completed) log; `None` means the
    /// verification failed.
    fn serve_cached(&self, task: &TuningTask, cfg: &Config) -> Result<Option<TuningLog>, String> {
        let space = space_for_task(task);
        let res = &self.measurer.measure_batch(task, &space, std::slice::from_ref(cfg))[0];
        if res.gflops <= 0.0 {
            return Ok(None);
        }
        let rec =
            TrialRecord { config_index: cfg.index, gflops: res.gflops, latency_s: res.latency_s };
        if let Some(dir) = &self.dir {
            self.create_log(dir, task)?
                .append(&rec)
                .map_err(|e| format!("trial log of {} failed to write: {e}", task.name))?;
        }
        let mut log = TuningLog::new(task.name.clone(), self.method.label());
        log.records.push(rec);
        self.upsert(task, &log)?;
        self.complete(task)?;
        telemetry::global().report(|| {
            format!(
                "{:<18} {:>9.1} GFLOPS served from db (1 verifying measurement)",
                task.name, res.gflops
            )
        });
        Ok(Some(log))
    }

    /// Folds a finished task's log into the database: its top-k measured
    /// configurations plus the decimated convergence curve, merged under
    /// the store's writer lock (append, then apply, so a kill between the
    /// segment write and the in-memory update loses nothing).
    fn upsert(&self, task: &TuningTask, log: &TuningLog) -> Result<(), String> {
        let Some((store, _)) = self.db else { return Ok(()) };
        let space = space_for_task(task);
        let mut ranked: Vec<&TrialRecord> = log.records.iter().filter(|r| r.gflops > 0.0).collect();
        ranked.sort_by(|a, b| {
            b.gflops.total_cmp(&a.gflops).then(a.config_index.cmp(&b.config_index))
        });
        let mut seen = BTreeSet::new();
        let top_k = ranked
            .into_iter()
            .filter(|r| seen.insert(r.config_index))
            .take(TOP_K)
            .map(|r| {
                let cfg = space.config(r.config_index).map_err(|e| {
                    format!("bad config index {} in log of {}: {e}", r.config_index, task.name)
                })?;
                let (gflops, latency_s) = (r.gflops, r.latency_s);
                Ok(TopConfig {
                    config_index: r.config_index,
                    choices: cfg.choices,
                    gflops,
                    latency_s,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if top_k.is_empty() {
            // Every measurement failed; nothing worth remembering.
            return Ok(());
        }
        let rec = DbRecord {
            schema_version: DB_SCHEMA_VERSION,
            spec: TaskSpec::of(task, &space, &self.device),
            feature: TaskSpec::features(task),
            method: self.method.label().to_string(),
            seed: self.opts.seed,
            n_trials: log.records.len() as u64,
            best_gflops: top_k[0].gflops,
            top_k,
            curve: decimate_curve(&log.convergence_curve(), 64),
        };
        lock_or_recover(store)
            .upsert(rec)
            .map_err(|e| format!("cannot upsert {} into tuning database: {e}", task.name))
    }

    /// Rewrites `model_quality.jsonl` (atomically) from the records of
    /// every task done so far, in task order, when the session captures
    /// into a run directory.
    fn write_model_capture(&self) -> Result<(), String> {
        let Some(dir) = self.dir.as_ref().filter(|_| self.capture) else { return Ok(()) };
        let by_task = lock_or_recover(&self.model_records);
        let all: Vec<ModelPredRecord> = self
            .tasks
            .iter()
            .filter_map(|t| by_task.get(&t.name))
            .flat_map(|recs| recs.iter().cloned())
            .collect();
        write_model_quality(&dir.model_quality_path(), &all)
            .map_err(|e| format!("cannot write {MODEL_QUALITY_FILE}: {e}"))
    }
}
