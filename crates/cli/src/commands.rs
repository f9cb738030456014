//! CLI subcommands.

use crate::opts::Cli;
use active_learning::{
    read_model_quality, tune_model_parallel, Checkpoint, DbProvenance, Method, RunDir, RunManifest,
    TuneOptions, MANIFEST_SCHEMA_VERSION, MODEL_QUALITY_FILE,
};
use dnn_graph::task::extract_tasks;
use executor::DevicePool;
use gpu_sim::{FaultConfig, GpuDevice, SimMeasurer};
use schedule::template::space_for_task;
use serve::{DbPolicy, SessionDir, SessionSpec, TuneSession};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use trace_analysis::{
    compare_logs, compare_run_dirs, render_report, CompareOptions, LoadedRun, Registry, RunEntry,
    Verdict,
};
use tuning_db::{LockOptions, TuningDb};

/// Exit code for a gated regression (`compare --fail-on-regress`): distinct
/// from 1, which `main` uses for usage/runtime errors.
pub const EXIT_REGRESSED: u8 = 2;

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage:
  aaltune tasks   <model>
  aaltune dot     <model> [--fused true]
  aaltune devices
  aaltune tune    <model> [--task N] [--method M] [--n-trial N] [--seed S]
                          [--device D] [--log FILE] [--out DIR]
                          [--workers N] [--devices M] [--batch-size K]
                          [--device-ms T]
                          [--fault-rate P] [--fault-seed S] [--max-retries R]
                          [--trial-timeout-ms T] [--max-fail-rate F]
                          [--snapshot-interval-ms T] [--no-capture-model]
                          [--db DIR] [--db-policy serve|warm]
                          [--trace FILE] [--quiet] [--json]
  aaltune tune    --resume RUN_DIR [--workers N] [--devices M] [--quiet] [--json]
  aaltune db      <stats|fsck|export> <DB> [--repair]
  aaltune top     RUN_DIR [--refresh-ms T] [--once] [--check]
  aaltune explain RUN_DIR
  aaltune deploy  <model> [--method M] [--n-trial N] [--runs R] [--seed S]
                          [--workers N] [--device D] [--trace FILE]
                          [--quiet] [--json]
  aaltune trace   <trace.jsonl>
  aaltune runs    [DIR] [--model M] [--method M] [--kind K]
  aaltune compare <BASE_RUN> <CAND_RUN> [--alpha A] [--resamples N]
                          [--min-effect PCT] [--boot-seed S] [--fail-on-regress]
  aaltune report  <RUN> [BASELINE] [--html FILE] [--alpha A] [--resamples N]
                          [--min-effect PCT] [--boot-seed S]
  aaltune serve   [--root DIR] [--addr H:P] [--http-workers N] [--job-workers N]
                          [--devices M] [--exec-workers N] [--device-ms T]
                          [--backlog B] [--tenant-devices Q]
                          [--db DIR] [--snapshot-interval-ms T] [--quiet]
  aaltune client  <submit|status|result|events|best|shutdown> [ID]
                          [--root DIR | --addr H:P] [--tenant T] [--model M]
                          [--task N] [--method M] [--n-trial N] [--seed S]
                          [--device D] [--priority P] [--wait]
models:  alexnet resnet18 resnet34 vgg16 vgg19 mobilenet_v1 squeezenet_v1.1
methods: random autotvm bted bted+bao (default)
devices: gtx1080ti (default) v100 jetson
tracing: --trace writes a JSONL telemetry trace (`aaltune trace` summarizes
         it); --out creates a per-run results dir with manifest, logs, and
         trace, and registers the run in DIR/index.jsonl
faults:  --fault-rate injects deterministic measurement faults (seeded by
         --fault-seed); transient faults are retried up to --max-retries,
         persistent crashers are quarantined, and a task aborts once more
         than --max-fail-rate of its trials fail. Runs with --out are
         crash-safe: kill the process and continue with `tune --resume`
parallel: --workers runs measurements on N worker threads over M simulated
         device slots (--devices, default N) with --batch-size proposals per
         round; results are re-sequenced by submission index, so trial logs
         are byte-identical to --workers 1 for the same seed. --device-ms
         emulates per-measurement device occupancy (real time per lease)
analysis: `runs` lists the registry (DIR defaults to ./runs); `compare`
         bootstraps per-task deltas between two run dirs and exits 2 on a
         gated regression; `report` writes a self-contained HTML report
live:    a run with --out publishes metrics.snapshot.json and metrics.prom
         into its run dir every --snapshot-interval-ms (default 1000; 0
         disables) — `top` renders them as a refreshing dashboard (--once
         for a single plain frame, --check to validate the files in CI).
         Snapshots never change trial logs: byte-identical on or off
database: --db opens a crash-safe on-disk store of the best configurations
         per task (keyed by op, shapes, knob space, and device). An exact
         hit is served with one verifying measurement (--db-policy serve,
         default) or warm-starts the initial set (warm); a miss warm-starts
         from nearest-neighbor tasks. Completed tasks are folded back in.
         `db stats` summarizes a store, `db fsck` checks every record
         (exit 1 when committed data is unreadable; --repair quarantines
         corrupt lines and rebuilds the index), `db export` dumps records
         as JSONL
insight: `tune` records the surrogate's per-proposal predictions into
         RUN_DIR/model_quality.jsonl (off with --no-capture-model; capture
         never changes trial logs). `explain RUN_DIR` prints per-round rank
         correlation, top-k recall, calibration error, and regret, with a
         trust verdict; `report` adds a Model quality panel; `compare
         --fail-on-regress` also gates on rank-correlation drops when both
         runs captured
serving: `serve` runs a long-lived tuning server: POST /jobs queues tuning
         jobs per tenant (fair-share scheduling, per-tenant --backlog and
         --tenant-devices quotas), GET /best answers from the tuning
         database without touching the tuning loop, and GET /jobs/ID/events
         streams progress. Jobs are journaled and checkpointed: kill the
         server and restart it on the same --root, and the queue resumes
         with byte-identical trial logs. `top ROOT` watches a live server;
         `client` is the matching command-line client (--root reads the
         published address from ROOT/serve.addr; submit --wait polls the
         job to completion and prints its result)";

/// Parses and runs one invocation, returning the process exit code
/// (0 = success, [`EXIT_REGRESSED`] = gated regression).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, names, or values.
pub fn dispatch(args: &[String]) -> Result<u8, String> {
    let cli = Cli::parse(args)?;
    match cli.positional.first().map(String::as_str) {
        Some("tasks") => tasks(&cli).map(|()| 0),
        Some("dot") => dot(&cli).map(|()| 0),
        Some("devices") => {
            devices();
            Ok(0)
        }
        Some("tune") => tune(&cli).map(|()| 0),
        Some("db") => db_cmd(&cli),
        Some("top") => crate::top::top(&cli).map(|()| 0),
        Some("explain") => explain(&cli).map(|()| 0),
        Some("deploy") => deploy(&cli).map(|()| 0),
        Some("trace") => trace(&cli).map(|()| 0),
        Some("runs") => runs(&cli).map(|()| 0),
        Some("compare") => compare(&cli),
        Some("report") => report(&cli).map(|()| 0),
        Some("serve") => serve_cmd(&cli).map(|()| 0),
        Some("client") => client_cmd(&cli),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("no command given".to_string()),
    }
}

/// Installs the global telemetry pipeline from `--trace`/`--quiet`/`--json`,
/// preferring an explicit `--trace` path over the run directory's default.
/// A resumed run `append`s to its trace; the fresh schema header marks the
/// segment boundary for counter summing.
fn install_telemetry(
    cli: &Cli,
    run_dir: Option<&RunDir>,
    append: bool,
    live: Option<Arc<telemetry::MetricsRegistry>>,
) -> Result<telemetry::Telemetry, String> {
    let trace: Option<PathBuf> =
        cli.flag_str("trace").map(PathBuf::from).or_else(|| run_dir.map(RunDir::trace_path));
    let (quiet, json) = (cli.flag_present("quiet"), cli.flag_present("json"));
    telemetry::install_pipeline_live(trace.as_deref(), quiet, json, append, live)
        .map_err(|e| format!("cannot create trace file: {e}"))
}

/// Flushes counters and histograms into the trace and uninstalls the
/// global pipeline when dropped, so a command leaves telemetry off on
/// every exit path, errors included.
struct Uninstall(telemetry::Telemetry);

impl Drop for Uninstall {
    fn drop(&mut self) {
        self.0.flush();
        telemetry::set_global(telemetry::Telemetry::disabled());
    }
}

fn model_arg(cli: &Cli) -> Result<dnn_graph::Graph, String> {
    let name = cli.positional.get(1).ok_or("missing <model> argument")?;
    dnn_graph::models::by_name(name)
}

/// Optional typed flag: absent flags stay `None` instead of defaulting.
fn opt_flag<T: std::str::FromStr>(cli: &Cli, name: &str) -> Result<Option<T>, String> {
    cli.flag_str(name)
        .map(|v| v.parse().map_err(|_| format!("invalid value for --{name}: `{v}`")))
        .transpose()
}

fn options(cli: &Cli) -> Result<TuneOptions, String> {
    let n_trial: usize = cli.flag("n-trial", 512)?;
    Ok(TuneOptions {
        n_trial,
        early_stopping: 400.min(n_trial),
        seed: cli.flag("seed", 0)?,
        batch_size: cli.flag("batch-size", TuneOptions::default().batch_size)?,
        max_retries: opt_flag(cli, "max-retries")?,
        trial_timeout_ms: opt_flag(cli, "trial-timeout-ms")?,
        fail_rate_cap: opt_flag(cli, "max-fail-rate")?,
        ..TuneOptions::default()
    })
}

fn tasks(cli: &Cli) -> Result<(), String> {
    let model = model_arg(cli)?;
    let tasks = extract_tasks(&model);
    println!("{}: {} tuning tasks", model.name, tasks.len());
    for t in &tasks {
        let space = space_for_task(t);
        println!("  {:<18} {:>14} configs   {}", t.name, space.len(), t.workload);
    }
    Ok(())
}

fn dot(cli: &Cli) -> Result<(), String> {
    let model = model_arg(cli)?;
    let fused: bool = cli.flag("fused", false)?;
    if fused {
        let groups = dnn_graph::fusion::fuse(&model);
        print!("{}", dnn_graph::dot::to_dot_fused(&model, &groups));
    } else {
        print!("{}", dnn_graph::dot::to_dot(&model));
    }
    Ok(())
}

fn devices() {
    for d in [
        gpu_sim::GpuDevice::gtx_1080_ti(),
        gpu_sim::GpuDevice::tesla_v100(),
        gpu_sim::GpuDevice::jetson_tx2(),
    ] {
        println!(
            "{:<14} {:>3} SMs  {:>6.1} GB/s  {:>5.1} TFLOPS",
            d.name,
            d.num_sms,
            d.dram_bw_gbps,
            d.peak_flops() / 1e12
        );
    }
}

/// Everything `tune` needs to run, resolved either from the command line
/// (fresh run) or from a run directory's manifest (`--resume`).
struct TunePlan {
    model: dnn_graph::Graph,
    method: Method,
    opts: TuneOptions,
    fault: FaultConfig,
    device_name: String,
    /// The run directory; the run registry lives in its parent.
    run_dir: Option<RunDir>,
    /// The checkpoint of the killed run being resumed (the default when
    /// it never wrote one); `None` for a fresh run.
    resume: Option<Checkpoint>,
    /// Exact task set pinned by the original manifest on resume.
    task_names: Option<Vec<String>>,
    /// Measurement worker threads (free to change on resume: worker count
    /// never changes results, only wall time).
    workers: usize,
    /// Simulated device slots in the executor pool.
    devices: usize,
    /// Tuning database path and policy, if any. On resume this comes from
    /// the manifest's provenance, so the continued run consults the same
    /// store under the same policy.
    db: Option<(PathBuf, DbPolicy)>,
}

impl TunePlan {
    fn fresh(cli: &Cli) -> Result<TunePlan, String> {
        let model = model_arg(cli)?;
        let method = Method::by_name(cli.flag_str("method").unwrap_or("bted+bao"))?;
        // Capture is on by default for `tune`: it is pure (trial logs stay
        // byte-identical) and it is what `explain` and the report's model
        // panel feed on. The manifest pins the choice, so resume inherits it.
        let opts = TuneOptions {
            capture_model: Some(!cli.flag_present("no-capture-model")),
            ..options(cli)?
        };
        let fault =
            FaultConfig { rate: cli.flag("fault-rate", 0.0)?, seed: cli.flag("fault-seed", 0)? };
        if !(0.0..=1.0).contains(&fault.rate) {
            return Err(format!("--fault-rate {} out of range [0, 1]", fault.rate));
        }
        let run_dir = cli
            .flag_str("out")
            .map(|base| {
                let name = format!("{}-{method}-seed{}", model.name, opts.seed);
                RunDir::create(Path::new(base).join(name))
                    .map_err(|e| format!("cannot create run directory: {e}"))
            })
            .transpose()?;
        let db = match cli.flag_str("db") {
            Some(p) => Some((
                PathBuf::from(p),
                DbPolicy::parse(cli.flag_str("db-policy").unwrap_or("serve"))?,
            )),
            None if cli.flag_str("db-policy").is_some() => {
                return Err("--db-policy requires --db".to_string())
            }
            None => None,
        };
        Ok(TunePlan {
            model,
            method,
            opts,
            fault,
            device_name: cli.flag_str("device").unwrap_or("gtx1080ti").to_string(),
            run_dir,
            resume: None,
            task_names: None,
            workers: 1,
            devices: 1,
            db,
        })
    }

    /// Rebuilds the plan of a killed run from its manifest: model, method,
    /// options, device, and fault stream all come from the directory, so
    /// the continued run is the same experiment.
    fn resume(path: &Path) -> Result<TunePlan, String> {
        if !path.is_dir() {
            return Err(format!("{} is not a run directory", path.display()));
        }
        let dir =
            RunDir::create(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let manifest =
            dir.read_manifest().map_err(|e| format!("cannot resume {}: {e}", path.display()))?;
        if let Some(w) = manifest.schema_warning() {
            return Err(format!("cannot resume {}: {w}", path.display()));
        }
        let checkpoint = dir
            .read_checkpoint()
            .map_err(|e| format!("bad checkpoint in {}: {e}", path.display()))?
            .unwrap_or_default();
        let db = manifest
            .db
            .as_ref()
            .map(|p| Ok::<_, String>((PathBuf::from(&p.path), DbPolicy::parse(&p.policy)?)))
            .transpose()?;
        Ok(TunePlan {
            model: dnn_graph::models::by_name(&manifest.model)?,
            method: Method::by_name(&manifest.method)?,
            opts: manifest.options,
            fault: manifest.fault.unwrap_or_else(FaultConfig::off),
            device_name: manifest.device.clone().unwrap_or_else(|| "gtx1080ti".to_string()),
            run_dir: Some(dir),
            resume: Some(checkpoint),
            task_names: Some(manifest.tasks),
            workers: manifest.workers.unwrap_or(1),
            devices: manifest.devices.unwrap_or(1),
            db,
        })
    }

    fn manifest(&self, task_names: Vec<String>, wall_time_s: Option<f64>) -> RunManifest {
        RunManifest {
            model: self.model.name.clone(),
            method: self.method.to_string(),
            tasks: task_names,
            seed: self.opts.seed,
            options: self.opts,
            schema_version: Some(MANIFEST_SCHEMA_VERSION),
            git_describe: trace_analysis::git_describe(Path::new(".")),
            wall_time_s,
            device: Some(self.device_name.clone()),
            fault: (!self.fault.is_off()).then_some(self.fault),
            resumed: self.resume.is_some().then_some(true),
            workers: Some(self.workers),
            devices: Some(self.devices),
            db: self.db.as_ref().map(|(path, policy)| DbProvenance {
                path: path.display().to_string(),
                policy: policy.label().to_string(),
            }),
        }
    }
}

fn tune(cli: &Cli) -> Result<(), String> {
    // aal-lint: allow(wall-clock, reason = "elapsed time reported to the user and run registry; not a tuning input")
    let started = std::time::Instant::now();
    let mut plan = match cli.flag_str("resume") {
        Some(p) => TunePlan::resume(Path::new(p))?,
        None => TunePlan::fresh(cli)?,
    };
    if let Some(w) = opt_flag::<usize>(cli, "workers")? {
        plan.workers = w;
    }
    if let Some(d) = opt_flag::<usize>(cli, "devices")? {
        plan.devices = d;
    } else if plan.resume.is_none() {
        plan.devices = plan.devices.max(plan.workers);
    }
    if plan.workers == 0 || plan.devices == 0 {
        return Err("--workers and --devices must be at least 1".to_string());
    }
    let device_ms: f64 = cli.flag("device-ms", 0.0)?;
    if device_ms < 0.0 {
        return Err(format!("--device-ms {device_ms} must be non-negative"));
    }

    // Live observability: with a run dir and a non-zero interval, attach a
    // metrics registry so every probe publishes live, and snapshot it into
    // the run dir periodically. The registry and the snapshot thread only
    // write side files (metrics.snapshot.json / metrics.prom) and append
    // heartbeat events to the trace — trial logs stay byte-identical
    // whether or not snapshots are enabled.
    let snapshot_ms: u64 = cli.flag("snapshot-interval-ms", 1000)?;
    let live = plan.run_dir.is_some() && snapshot_ms > 0;
    let live_registry = live.then(|| Arc::new(telemetry::MetricsRegistry::new()));
    let tel = install_telemetry(
        cli,
        plan.run_dir.as_ref(),
        plan.resume.is_some(),
        live_registry.clone(),
    )?;
    let _uninstall = Uninstall(tel.clone());
    let mut snapshot_writer = match (&plan.run_dir, &live_registry) {
        (Some(dir), Some(reg)) => Some(telemetry::SnapshotWriter::start(
            dir.path().to_path_buf(),
            Arc::clone(reg),
            Duration::from_millis(snapshot_ms),
            tel.clone(),
        )),
        _ => None,
    };

    let mut tasks = extract_tasks(&plan.model);
    if let Some(names) = &plan.task_names {
        tasks.retain(|t| names.contains(&t.name));
    } else if let Some(s) = cli.flag_str("task") {
        let i: usize = s.parse().map_err(|_| format!("invalid --task index `{s}`"))?;
        if i >= tasks.len() {
            return Err(format!("--task {i} out of range (model has {})", tasks.len()));
        }
        tasks = vec![tasks.swap_remove(i)];
    }
    let task_names: Vec<String> = tasks.iter().map(|t| t.name.clone()).collect();

    // The tuning database opens after the telemetry pipeline so its
    // lock-takeover counter and task gauge land in this run's trace. The
    // advisory writer lock is held for the whole run; a concurrent live
    // writer makes this open back off and fail cleanly.
    let db: Option<(Mutex<TuningDb>, DbPolicy)> = plan
        .db
        .as_ref()
        .map(|(path, policy)| {
            TuningDb::open(path, &LockOptions::default())
                .map(|store| (Mutex::new(store), *policy))
                .map_err(|e| format!("cannot open tuning database {}: {e}", path.display()))
        })
        .transpose()?;
    // Tasks run up to --workers at a time, sharing the executor's worker
    // pool and devices (fair-shared per task name). The session writes
    // the manifest of a fresh run dir first, so a killed run is always
    // resumable.
    let session = TuneSession::open(SessionSpec {
        tasks,
        method: plan.method,
        opts: plan.opts,
        device: plan.device_name.clone(),
        fault: plan.fault,
        workers: plan.workers,
        pool: DevicePool::with_hold(plan.devices, Duration::from_secs_f64(device_ms / 1000.0)),
        lease_tag: None,
        run_dir: plan.run_dir.clone().map(|dir| SessionDir {
            dir,
            manifest: plan.manifest(task_names.clone(), None),
            resume: plan.resume.clone(),
        }),
        db: db.as_ref().map(|(store, policy)| (store, *policy)),
    })?;
    // Register the run up front (no wall time yet), so `aaltune runs`
    // lists it as live/stale while it executes; the completion append
    // below shadows this entry (the registry keeps the last per id).
    // Best-effort: a killed run's logs can be torn mid-line until the
    // resume repairs them, and observability must never block tuning.
    let registry = plan.run_dir.as_ref().and_then(|d| d.path().parent()).map(Registry::at);
    if let (Some(dir), Some(registry)) = (&plan.run_dir, &registry) {
        if let Ok(entry) = RunEntry::from_run_dir(dir.path()) {
            let _ = registry.append(&entry);
        }
    }
    let logs = session.run(plan.workers, None)?;

    if let Some(dir) = &plan.run_dir {
        // Stop the snapshot thread first: its final publish lands before
        // the manifest gains a wall time, so `top` never sees a "done" run
        // with a half-stale snapshot.
        if let Some(writer) = snapshot_writer.take() {
            writer.finish();
        }
        // Rewrite the manifest with the final wall time (and the resumed
        // marker) now that the run is complete.
        dir.write_manifest(&plan.manifest(task_names, Some(started.elapsed().as_secs_f64())))
            .map_err(|e| format!("cannot write manifest: {e}"))?;
        // Flush counters into the trace before the registry reads it for
        // the health columns.
        tel.flush();
        if let Some(registry) = &registry {
            let entry = RunEntry::from_run_dir(dir.path())?;
            registry.append(&entry).map_err(|e| format!("cannot update run registry: {e}"))?;
        }
        tel.report(|| format!("wrote run artifacts to {}", dir.path().display()));
    }
    if let Some(path) = cli.flag_str("log") {
        let mut f =
            // aal-lint: allow(raw-artifact-write, reason = "explicit --log export requested by the user; regenerable from the run directory")
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        for log in &logs {
            log.write_jsonl(&mut f).map_err(|e| format!("write failed: {e}"))?;
        }
        tel.report(|| format!("wrote {} logs to {path}", logs.len()));
    }
    Ok(())
}

/// `aaltune db <stats|fsck|export> <DB> [--repair]` — inspect, check, or
/// dump a tuning database. `fsck` exits 1 when committed data is
/// unreadable (and was not repaired), so CI can gate on store health.
fn db_cmd(cli: &Cli) -> Result<u8, String> {
    let sub = cli
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("missing db subcommand (stats, fsck, export)")?;
    let root = PathBuf::from(cli.positional.get(2).ok_or("missing <DB> directory")?);
    match sub {
        "stats" => {
            let store = TuningDb::open(&root, &LockOptions::default())
                .map_err(|e| format!("cannot open {}: {e}", root.display()))?;
            let s = store.stats();
            println!("tasks:         {}", s.tasks);
            println!("configs:       {}", s.configs);
            println!("segments:      {}", s.segments);
            println!("covered seq:   {}", s.covered_seq);
            println!("corrupt lines: {}", s.corrupt_lines);
            println!("best:          {:.1} GFLOPS", s.best_gflops);
            Ok(0)
        }
        "fsck" => {
            let repair = cli.flag_present("repair");
            let report = TuningDb::fsck(&root, repair, &LockOptions::default())
                .map_err(|e| format!("cannot fsck {}: {e}", root.display()))?;
            println!("segments:      {}", report.segments);
            println!("records:       {}", report.records);
            println!("corrupt lines: {}", report.corrupt_lines);
            println!("torn tails:    {}", report.torn_tails);
            println!("index damaged: {}", report.index_damaged);
            if repair {
                println!("quarantined:   {}", report.quarantined);
            }
            if report.healthy() {
                println!("status:        healthy");
                Ok(0)
            } else {
                println!("status:        UNHEALTHY (run fsck --repair to quarantine and rebuild)");
                Ok(1)
            }
        }
        "export" => {
            let store = TuningDb::open(&root, &LockOptions::default())
                .map_err(|e| format!("cannot open {}: {e}", root.display()))?;
            for rec in store.records() {
                let line =
                    serde_json::to_string(&rec).map_err(|e| format!("serialize failed: {e}"))?;
                println!("{line}");
            }
            Ok(0)
        }
        other => Err(format!("unknown db subcommand `{other}` (stats, fsck, export)")),
    }
}

fn deploy(cli: &Cli) -> Result<(), String> {
    let model = model_arg(cli)?;
    let method = Method::by_name(cli.flag_str("method").unwrap_or("bted+bao"))?;
    let opts = options(cli)?;
    let runs: usize = cli.flag("runs", 600)?;
    let workers: usize = cli.flag("workers", 1)?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    let m = SimMeasurer::new(GpuDevice::by_name(cli.flag_str("device").unwrap_or("gtx1080ti"))?);
    let tel = install_telemetry(cli, None, false, None)?;
    let _uninstall = Uninstall(tel.clone());
    let r = tune_model_parallel(&model, &m, method, &opts, runs, workers);
    tel.report(|| {
        format!(
            "{} ({method}): latency {:.4} ms  variance {:.4}  min {:.4}  max {:.4}  \
             ({} measurements)",
            r.model_name,
            r.latency.mean_ms,
            r.latency.variance,
            r.latency.min_ms,
            r.latency.max_ms,
            r.total_measurements
        )
    });
    Ok(())
}

fn trace(cli: &Cli) -> Result<(), String> {
    let path = cli.positional.get(1).ok_or("missing <trace.jsonl> argument")?;
    let f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let summary = telemetry::TraceSummary::from_reader(std::io::BufReader::new(f))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    print!("{}", summary.render());
    Ok(())
}

fn runs(cli: &Cli) -> Result<(), String> {
    let root = cli.positional.get(1).map_or("runs", String::as_str);
    let reg = Registry::at(root);
    let idx = reg.load().map_err(|e| format!("cannot read {}: {e}", reg.index_path().display()))?;
    let filtered =
        idx.filtered(cli.flag_str("model"), cli.flag_str("method"), cli.flag_str("kind"));
    if filtered.is_empty() {
        println!("no matching runs in {}", reg.index_path().display());
    } else {
        print!("{}", idx.render(&filtered));
    }
    Ok(())
}

fn compare_options(cli: &Cli) -> Result<CompareOptions, String> {
    let defaults = CompareOptions::default();
    Ok(CompareOptions {
        alpha: cli.flag("alpha", defaults.alpha)?,
        resamples: cli.flag("resamples", defaults.resamples)?,
        min_effect_pct: cli.flag("min-effect", defaults.min_effect_pct)?,
        seed: cli.flag("boot-seed", defaults.seed)?,
    })
}

fn compare(cli: &Cli) -> Result<u8, String> {
    let base = cli.positional.get(1).ok_or("missing <BASE_RUN> directory")?;
    let cand = cli.positional.get(2).ok_or("missing <CAND_RUN> directory")?;
    let cmp = compare_run_dirs(Path::new(base), Path::new(cand), compare_options(cli)?)?;
    print!("{}", cmp.render());
    if cli.flag_present("fail-on-regress") && cmp.has_regressions() {
        let model = cmp.model_quality.iter().filter(|m| m.regressed).count();
        eprintln!(
            "FAIL: {} task(s) regressed, {model} model rank-correlation drop(s)",
            cmp.count(Verdict::Regressed)
        );
        return Ok(EXIT_REGRESSED);
    }
    Ok(0)
}

fn report(cli: &Cli) -> Result<(), String> {
    let run_path = cli.positional.get(1).ok_or("missing <RUN> directory")?;
    let run = LoadedRun::load(Path::new(run_path))?;
    let baseline = cli.positional.get(2).map(|p| LoadedRun::load(Path::new(p))).transpose()?;
    let comparison = baseline
        .as_ref()
        .map(|b| -> Result<_, String> {
            Ok(compare_logs(
                b.id.clone(),
                run.id.clone(),
                &b.logs,
                &run.logs,
                compare_options(cli)?,
                Vec::new(),
            ))
        })
        .transpose()?;
    let html = render_report(&run, baseline.as_ref(), comparison.as_ref());
    let out =
        cli.flag_str("html").map_or_else(|| Path::new(run_path).join("report.html"), PathBuf::from);
    // aal-lint: allow(raw-artifact-write, reason = "HTML report is a derived view; regenerable from the trace")
    std::fs::write(&out, html).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

fn explain(cli: &Cli) -> Result<(), String> {
    let path = Path::new(cli.positional.get(1).ok_or("missing RUN_DIR argument")?);
    if !path.is_dir() {
        return Err(format!("{} is not a run directory", path.display()));
    }
    let file = path.join(MODEL_QUALITY_FILE);
    if !file.is_file() {
        return Err(format!(
            "{} has no {MODEL_QUALITY_FILE} — the run was tuned without model capture \
             (capture is on by default; drop --no-capture-model and re-tune to record \
             the surrogate's predictions)",
            path.display()
        ));
    }
    let records = read_model_quality(&file)?;
    print!("{}", trace_analysis::render_explain(&trace_analysis::analyze(&records)));
    Ok(())
}

/// `aaltune serve` — run the tuning server until `POST /shutdown` (or a
/// signal; queued jobs resume on the next start from the same --root).
fn serve_cmd(cli: &Cli) -> Result<(), String> {
    let quiet = cli.flag_present("quiet");
    let cfg = serve::ServeConfig {
        root: PathBuf::from(cli.flag_str("root").unwrap_or("serve-root")),
        addr: cli.flag_str("addr").unwrap_or("127.0.0.1:7411").to_string(),
        http_workers: cli.flag("http-workers", 4)?,
        job_workers: cli.flag("job-workers", 2)?,
        devices: cli.flag("devices", 4)?,
        exec_workers: cli.flag("exec-workers", 2)?,
        device_hold: Duration::from_millis(cli.flag("device-ms", 0)?),
        backlog: cli.flag("backlog", 16)?,
        tenant_devices: cli.flag_str("tenant-devices").map(str::parse).transpose().map_err(
            |_| "invalid value for --tenant-devices (expected a device count)".to_string(),
        )?,
        db: cli.flag_str("db").map(PathBuf::from),
        snapshot_interval: Duration::from_millis(cli.flag("snapshot-interval-ms", 1000)?),
        quiet,
    };
    let root = cfg.root.clone();
    let server = serve::Server::start(cfg)?;
    if !quiet {
        eprintln!(
            "serving on {} (root {}; POST /shutdown to drain)",
            server.addr(),
            root.display()
        );
    }
    server.wait();
    Ok(())
}

/// Resolves the server address for `aaltune client`: explicit `--addr`,
/// else the address the server published into `<--root>/serve.addr`.
fn client_addr(cli: &Cli) -> Result<String, String> {
    if let Some(addr) = cli.flag_str("addr") {
        return Ok(addr.to_string());
    }
    let root = cli.flag_str("root").unwrap_or("serve-root");
    let path = Path::new(root).join("serve.addr");
    std::fs::read_to_string(&path).map(|s| s.trim().to_string()).map_err(|e| {
        format!("no --addr and cannot read {} ({e}); is the server running?", path.display())
    })
}

/// `aaltune client <submit|status|result|events|best|shutdown>`.
fn client_cmd(cli: &Cli) -> Result<u8, String> {
    let addr = client_addr(cli)?;
    let sub = cli
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("missing client subcommand (submit, status, result, events, best, shutdown)")?;
    let job_id = || -> Result<&str, String> {
        cli.positional.get(2).map(String::as_str).ok_or_else(|| "missing job id".to_string())
    };
    match sub {
        "submit" => {
            let mut body = serde_json::json!({
                "model": cli.flag_str("model").ok_or("submit requires --model")?,
                "tenant": cli.flag_str("tenant").unwrap_or("default"),
                "method": cli.flag_str("method").unwrap_or("bted+bao"),
                "device": cli.flag_str("device").unwrap_or("gtx1080ti"),
                "n_trial": cli.flag("n-trial", 64u64)?,
                "seed": cli.flag("seed", 0u64)?,
                "priority": cli.flag("priority", 0u64)?,
            });
            if let (serde_json::Value::Object(obj), Some(task)) = (&mut body, cli.flag_str("task"))
            {
                let task: u64 = task
                    .parse()
                    .map_err(|_| "invalid value for --task (expected an index)".to_string())?;
                obj.insert("task".into(), serde_json::Value::from(task));
            }
            let (code, resp) = serve::client::request(&addr, "POST", "/jobs", Some(&body))?;
            println!("{resp}");
            if code != 202 {
                return Ok(1);
            }
            if !cli.flag_present("wait") {
                return Ok(0);
            }
            let id = resp["id"].as_str().ok_or("server response has no job id")?.to_string();
            loop {
                let (_, status) =
                    serve::client::request(&addr, "GET", &format!("/jobs/{id}"), None)?;
                match status["state"].as_str() {
                    Some("done") => {
                        let (_, result) = serve::client::request(
                            &addr,
                            "GET",
                            &format!("/jobs/{id}/result"),
                            None,
                        )?;
                        println!("{result}");
                        return Ok(0);
                    }
                    Some("failed") => {
                        println!("{status}");
                        return Ok(1);
                    }
                    _ => std::thread::sleep(Duration::from_millis(200)),
                }
            }
        }
        "status" => {
            let (code, resp) =
                serve::client::request(&addr, "GET", &format!("/jobs/{}", job_id()?), None)?;
            println!("{resp}");
            Ok(u8::from(code != 200))
        }
        "result" => {
            let (code, resp) =
                serve::client::request(&addr, "GET", &format!("/jobs/{}/result", job_id()?), None)?;
            println!("{resp}");
            Ok(u8::from(code != 200))
        }
        "events" => {
            serve::client::stream_events(&addr, &format!("/jobs/{}/events", job_id()?), |v| {
                println!("{v}");
                true
            })?;
            Ok(0)
        }
        "best" => {
            let model = cli.flag_str("model").ok_or("best requires --model")?;
            let task: u64 = cli.flag("task", 0)?;
            let device = cli.flag_str("device").unwrap_or("gtx1080ti");
            let (code, resp) = serve::client::request(
                &addr,
                "GET",
                &format!("/best?model={model}&task={task}&device={device}"),
                None,
            )?;
            println!("{resp}");
            Ok(u8::from(code != 200))
        }
        "shutdown" => {
            let (code, resp) = serve::client::request(&addr, "POST", "/shutdown", None)?;
            println!("{resp}");
            Ok(u8::from(code != 202))
        }
        other => Err(format!(
            "unknown client subcommand `{other}` (submit, status, result, events, best, shutdown)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use active_learning::TuningLog;

    /// Held by every command a test runs: `tune` installs the process-wide
    /// telemetry handle, so a tune on another test thread would publish its
    /// trials into this test's live registry (and vice versa).
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Runs one command at a time (see [`SERIAL`]).
    fn dispatch(args: &[String]) -> Result<u8, String> {
        let _one_at_a_time = telemetry::sync::lock_or_recover(&SERIAL);
        super::dispatch(args)
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
        assert!(dispatch(&sv(&[])).is_err());
    }

    #[test]
    fn tasks_lists_mobilenet() {
        dispatch(&sv(&["tasks", "mobilenet_v1"])).unwrap();
    }

    #[test]
    fn dot_export_runs() {
        dispatch(&sv(&["dot", "alexnet"])).unwrap();
        dispatch(&sv(&["dot", "resnet18", "--fused", "true"])).unwrap();
    }

    #[test]
    fn devices_prints() {
        dispatch(&sv(&["devices"])).unwrap();
    }

    #[test]
    fn tune_single_task_smoke() {
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
        ]))
        .unwrap();
    }

    #[test]
    fn tune_task_out_of_range_errors() {
        let e = dispatch(&sv(&["tune", "alexnet", "--task", "99"])).unwrap_err();
        assert!(e.contains("out of range"));
    }

    #[test]
    fn tune_writes_run_dir_and_trace_summarizes() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-run-{}", std::process::id()));
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
            "--quiet",
            "--out",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        let run = base.join("squeezenet_v1.1-autotvm-seed0");
        assert!(run.join("manifest.json").is_file());
        assert!(run.join("trace.jsonl").is_file());
        assert!(base.join("index.jsonl").is_file(), "tune --out must register the run");
        let logs: Vec<_> = std::fs::read_dir(run.join("logs")).unwrap().collect();
        assert_eq!(logs.len(), 1);
        // The recorded trace must summarize via the `trace` subcommand.
        dispatch(&sv(&["trace", run.join("trace.jsonl").to_str().unwrap()])).unwrap();
        // The registry must list it.
        dispatch(&sv(&["runs", base.to_str().unwrap()])).unwrap();
        dispatch(&sv(&["runs", base.to_str().unwrap(), "--model", "squeezenet"])).unwrap();
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn truncated_chaos_run_resumes_to_the_identical_log() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args = |out: &Path| {
            sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "40",
                "--method",
                "autotvm",
                "--quiet",
                "--fault-rate",
                "0.15",
                "--fault-seed",
                "7",
                "--out",
                out.to_str().unwrap(),
            ])
        };
        dispatch(&args(&base.join("full"))).unwrap();
        dispatch(&args(&base.join("cut"))).unwrap();
        let run = "squeezenet_v1.1-autotvm-seed0";
        let log_of = |sub: &str| {
            std::fs::read_dir(base.join(sub).join(run).join("logs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .expect("task log exists")
        };
        let full = std::fs::read(log_of("full")).unwrap();
        assert_eq!(full, std::fs::read(log_of("cut")).unwrap(), "same seed ⇒ same log");

        // Simulate a mid-task kill: keep the header plus 12 trials and a
        // half-written 13th line, and forget the end-of-task checkpoint.
        let cut_path = log_of("cut");
        let keep = full
            .split_inclusive(|&b| b == b'\n')
            .take(13)
            .flatten()
            .copied()
            .chain(*br#"{"trial":12,"config_ind"#)
            .collect::<Vec<u8>>();
        assert!(keep.len() < full.len(), "the cut must drop real trials");
        std::fs::write(&cut_path, keep).unwrap();
        let cut_run = base.join("cut").join(run);
        let _ = std::fs::remove_file(cut_run.join("checkpoint.json"));

        dispatch(&sv(&["tune", "--resume", cut_run.to_str().unwrap(), "--quiet"])).unwrap();
        assert_eq!(
            full,
            std::fs::read(log_of("cut")).unwrap(),
            "resumed log must be byte-identical to the uninterrupted run"
        );
        // The replay recomputes the model's opinions, so the capture file
        // also converges to the uninterrupted run's bytes.
        let mq = |sub: &str| {
            std::fs::read(base.join(sub).join(run).join(MODEL_QUALITY_FILE)).expect("capture file")
        };
        assert_eq!(mq("full"), mq("cut"), "resumed capture must match the uninterrupted run");
        let manifest = std::fs::read_to_string(cut_run.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"resumed\""), "{manifest}");

        // The two run dirs must also read as statistically identical.
        let code = dispatch(&sv(&[
            "compare",
            base.join("full").join(run).to_str().unwrap(),
            cut_run.to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "200",
        ]))
        .unwrap();
        assert_eq!(code, 0);
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn tune_publishes_snapshots_and_top_reads_them() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-top-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
            "--quiet",
            "--snapshot-interval-ms",
            "50",
            "--out",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        let run = base.join("squeezenet_v1.1-autotvm-seed0");
        // The final snapshot reflects the completed run.
        let snap: telemetry::MetricsSnapshot = serde_json::from_str(
            &std::fs::read_to_string(run.join(telemetry::SNAPSHOT_FILE)).unwrap(),
        )
        .unwrap();
        assert_eq!(snap.counter(telemetry::stream::TRIALS_COUNTER), 40);
        assert_eq!(snap.counter(telemetry::stream::TASKS_DONE_COUNTER), 1);
        assert!(snap.counter("measure.attempts") >= 40);
        assert!(snap.gauges.keys().any(|k| k.ends_with(".best_gflops")), "{:?}", snap.gauges);
        let prom = std::fs::read_to_string(run.join(telemetry::PROM_FILE)).unwrap();
        assert!(!telemetry::parse_prometheus(&prom).unwrap().is_empty());
        // Both `top` probe modes accept the finished run.
        dispatch(&sv(&["top", run.to_str().unwrap(), "--once"])).unwrap();
        dispatch(&sv(&["top", run.to_str().unwrap(), "--check"])).unwrap();
        // The registry was appended at start and at completion; the load
        // dedupes to one (done) entry.
        let idx = Registry::at(&base).load().unwrap();
        assert_eq!(idx.entries.len(), 1);
        assert!(idx.entries[0].wall_time_s.is_some());
        assert!(idx.entries[0].last_heartbeat_unix_ms.is_some());
        // --check rejects a corrupted snapshot.
        std::fs::write(run.join(telemetry::SNAPSHOT_FILE), "not json").unwrap();
        let e = dispatch(&sv(&["top", run.to_str().unwrap(), "--check"])).unwrap_err();
        assert!(e.contains("malformed"), "{e}");
        assert!(dispatch(&sv(&["top", "/nonexistent/run"])).is_err());
        assert!(dispatch(&sv(&["top"])).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn snapshots_never_change_trial_logs() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args = |out: &Path, interval: &str| {
            sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "30",
                "--method",
                "autotvm",
                "--quiet",
                "--workers",
                "2",
                "--snapshot-interval-ms",
                interval,
                "--out",
                out.to_str().unwrap(),
            ])
        };
        dispatch(&args(&base.join("on"), "25")).unwrap();
        dispatch(&args(&base.join("off"), "0")).unwrap();
        let run = "squeezenet_v1.1-autotvm-seed0";
        let log_of = |sub: &str| {
            std::fs::read_dir(base.join(sub).join(run).join("logs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .expect("task log exists")
        };
        assert_eq!(
            std::fs::read(log_of("on")).unwrap(),
            std::fs::read(log_of("off")).unwrap(),
            "trial logs must be byte-identical with snapshots on or off"
        );
        // Interval 0 disables the live layer entirely: no side files.
        assert!(base.join("on").join(run).join(telemetry::SNAPSHOT_FILE).is_file());
        assert!(!base.join("off").join(run).join(telemetry::SNAPSHOT_FILE).exists());
        assert!(!base.join("off").join(run).join(telemetry::PROM_FILE).exists());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn failed_resume_uninstalls_telemetry() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-badmq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let _one_at_a_time = telemetry::sync::lock_or_recover(&SERIAL);
        super::dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "20",
            "--method",
            "autotvm",
            "--quiet",
            "--out",
            base.to_str().unwrap(),
        ]))
        .unwrap();
        let run = base.join("squeezenet_v1.1-autotvm-seed0");
        std::fs::write(run.join(MODEL_QUALITY_FILE), "not a header\n").unwrap();
        let e = super::dispatch(&sv(&["tune", "--resume", run.to_str().unwrap(), "--quiet"]))
            .unwrap_err();
        assert!(e.contains("bad header"), "{e}");
        assert!(
            !telemetry::global().is_enabled(),
            "a failed tune must flush and uninstall its telemetry pipeline"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn resume_on_a_directory_without_manifest_errors() {
        let base =
            std::env::temp_dir().join(format!("aaltune-cli-nomanifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let e = dispatch(&sv(&["tune", "--resume", base.to_str().unwrap()])).unwrap_err();
        assert!(e.contains("cannot resume"), "{e}");
        assert!(dispatch(&sv(&["tune", "--resume", "/nonexistent/run"])).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn fault_flags_parse_and_gate() {
        let e =
            dispatch(&sv(&["tune", "alexnet", "--task", "0", "--fault-rate", "1.5"])).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        // A high fault rate with a tight cap aborts the task but exits 0
        // (the diagnostic is reported, not fatal).
        dispatch(&sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "80",
            "--method",
            "random",
            "--quiet",
            "--fault-rate",
            "0.9",
            "--max-retries",
            "0",
            "--max-fail-rate",
            "0.5",
        ]))
        .unwrap();
    }

    #[test]
    fn trace_on_missing_file_errors() {
        assert!(dispatch(&sv(&["trace", "/nonexistent/trace.jsonl"])).is_err());
    }

    #[test]
    fn compare_and_report_on_identical_seeds_pass_the_gate() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        for sub in ["a", "b"] {
            dispatch(&sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "30",
                "--method",
                "autotvm",
                "--quiet",
                "--out",
                base.join(sub).to_str().unwrap(),
            ]))
            .unwrap();
        }
        let run_a = base.join("a/squeezenet_v1.1-autotvm-seed0");
        let run_b = base.join("b/squeezenet_v1.1-autotvm-seed0");
        // Same seed + same config ⇒ identical trials ⇒ noise everywhere,
        // and the gate must not fire.
        let code = dispatch(&sv(&[
            "compare",
            run_a.to_str().unwrap(),
            run_b.to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "300",
        ]))
        .unwrap();
        assert_eq!(code, 0, "identical runs must not be flagged as regressions");
        // The report (with baseline) must land as one self-contained file.
        dispatch(&sv(&[
            "report",
            run_b.to_str().unwrap(),
            run_a.to_str().unwrap(),
            "--resamples",
            "300",
        ]))
        .unwrap();
        let html = std::fs::read_to_string(run_b.join("report.html")).unwrap();
        assert!(html.contains("<svg"));
        assert!(!html.contains("http://") && !html.contains("https://"));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn compare_on_missing_dirs_errors() {
        assert!(dispatch(&sv(&["compare", "/nonexistent/a"])).is_err());
        assert!(dispatch(&sv(&["report"])).is_err());
    }

    #[test]
    fn tune_captures_model_quality_and_explain_renders() {
        let base = std::env::temp_dir().join(format!("aaltune-cli-explain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let args = |out: &Path, extra: &[&str]| {
            let mut v = sv(&[
                "tune",
                "squeezenet",
                "--task",
                "0",
                "--n-trial",
                "80",
                "--method",
                "bted+bao",
                "--quiet",
                "--out",
                out.to_str().unwrap(),
            ]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            v
        };
        dispatch(&args(&base.join("cap"), &[])).unwrap();
        let run_name = "squeezenet_v1.1-bted+bao-seed0";
        let cap_run = base.join("cap").join(run_name);
        let records = read_model_quality(&cap_run.join(MODEL_QUALITY_FILE))
            .expect("capture is on by default and must leave a model_quality.jsonl");
        assert!(!records.is_empty());
        assert!(
            records.iter().any(|r| r.predicted_mean.is_some()),
            "the surrogate must have scored at least one proposal"
        );
        dispatch(&sv(&["explain", cap_run.to_str().unwrap()])).unwrap();

        // Opting out leaves no file, and `explain` says why.
        dispatch(&args(&base.join("blind"), &["--no-capture-model"])).unwrap();
        let blind_run = base.join("blind").join(run_name);
        assert!(!blind_run.join(MODEL_QUALITY_FILE).exists());
        let e = dispatch(&sv(&["explain", blind_run.to_str().unwrap()])).unwrap_err();
        assert!(e.contains(MODEL_QUALITY_FILE), "{e}");
        assert!(dispatch(&sv(&["explain", "/nonexistent/run"])).is_err());
        assert!(dispatch(&sv(&["explain"])).is_err());

        // Capture never perturbs the tuning loop: trial logs byte-identical.
        let log_of = |run: &Path| {
            std::fs::read_dir(run.join("logs"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .expect("task log exists")
        };
        assert_eq!(
            std::fs::read(log_of(&cap_run)).unwrap(),
            std::fs::read(log_of(&blind_run)).unwrap(),
            "trial logs must be byte-identical with capture on or off"
        );
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn model_rank_corr_regression_gates_with_exit_code_2() {
        let fixtures =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace-analysis/tests/fixtures");
        // Identical trial logs, inverted model capture: only the
        // rank-correlation gate can flag this pair.
        let gated = dispatch(&sv(&[
            "compare",
            fixtures.join("base").to_str().unwrap(),
            fixtures.join("model_regressed").to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "500",
        ]))
        .unwrap();
        assert_eq!(gated, EXIT_REGRESSED);
    }

    #[test]
    fn fail_on_regress_gates_with_exit_code_2() {
        // Pinned against the committed golden fixtures (regenerate with
        // `cargo run -p trace-analysis --example gen_fixtures`).
        let fixtures =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace-analysis/tests/fixtures");
        let base = fixtures.join("base");
        let regressed = fixtures.join("regressed");
        let gated = dispatch(&sv(&[
            "compare",
            base.to_str().unwrap(),
            regressed.to_str().unwrap(),
            "--fail-on-regress",
            "--resamples",
            "500",
        ]))
        .unwrap();
        assert_eq!(gated, EXIT_REGRESSED);
        // Without the gate the regression is still reported, but exits 0.
        let ungated = dispatch(&sv(&[
            "compare",
            base.to_str().unwrap(),
            regressed.to_str().unwrap(),
            "--resamples",
            "500",
        ]))
        .unwrap();
        assert_eq!(ungated, 0);
    }

    /// Reads back the single task log of a run directory.
    fn only_log(run: &Path) -> TuningLog {
        let mut entries: Vec<_> =
            std::fs::read_dir(run.join("logs")).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(entries.len(), 1);
        let f = std::fs::File::open(entries.remove(0)).unwrap();
        TuningLog::read_jsonl(std::io::BufReader::new(f)).unwrap()
    }

    fn tune_with_db(base: &Path, db: &Path, extra: &[&str]) {
        let mut args = sv(&[
            "tune",
            "squeezenet",
            "--task",
            "0",
            "--n-trial",
            "40",
            "--method",
            "autotvm",
            "--quiet",
            "--out",
            base.to_str().unwrap(),
            "--db",
            db.to_str().unwrap(),
        ]);
        args.extend(sv(extra));
        assert_eq!(dispatch(&args).unwrap(), 0);
    }

    #[test]
    fn db_warm_reruns_reach_the_cold_best_in_at_most_half_the_trials() {
        let root = std::env::temp_dir().join(format!("aaltune-cli-db-{}", std::process::id()));
        let db = root.join("db");
        let cold_base = root.join("cold");
        tune_with_db(&cold_base, &db, &[]);
        let cold = only_log(&cold_base.join("squeezenet_v1.1-autotvm-seed0"));
        let cold_best = cold.best_gflops();
        assert!(cold.records.len() >= 2 && cold_best > 0.0);

        // Serve policy (default): an exact hit is one verifying measurement
        // that reproduces the cold best exactly (the simulator is
        // deterministic per config).
        let serve_base = root.join("serve");
        tune_with_db(&serve_base, &db, &[]);
        let serve_run = serve_base.join("squeezenet_v1.1-autotvm-seed0");
        let served = only_log(&serve_run);
        assert_eq!(served.records.len(), 1, "serve = one verifying measurement");
        assert!((served.best_gflops() - cold_best).abs() < 1e-9);
        assert!(served.records.len() <= cold.records.len() / 2);
        // The hit and warm-start counters land in the run's trace.
        let trace = std::fs::read_to_string(serve_run.join("trace.jsonl")).unwrap();
        assert!(trace.contains("db.hit"), "db.hit counter must be flushed into the trace");
        assert!(trace.contains("db.warm_start"));

        // Warm policy: the cached best joins the initial set, so the rerun
        // reaches the cold best within far fewer trials than the cold run.
        let warm_base = root.join("warm");
        tune_with_db(&warm_base, &db, &["--db-policy", "warm"]);
        let warm = only_log(&warm_base.join("squeezenet_v1.1-autotvm-seed0"));
        let to_best = warm
            .records
            .iter()
            .position(|r| r.gflops >= cold_best - 1e-9)
            .expect("warm rerun must reach the cold best")
            + 1;
        assert!(
            to_best <= cold.records.len() / 2,
            "warm rerun took {to_best} trials to reach the cold best; cold took {}",
            cold.records.len()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn db_subcommands_stats_fsck_export_and_repair_cycle() {
        let root = std::env::temp_dir().join(format!("aaltune-cli-dbcmd-{}", std::process::id()));
        let db = root.join("db");
        tune_with_db(&root.join("run"), &db, &[]);
        let db_s = db.to_str().unwrap();
        assert_eq!(dispatch(&sv(&["db", "stats", db_s])).unwrap(), 0);
        assert_eq!(dispatch(&sv(&["db", "export", db_s])).unwrap(), 0);
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s])).unwrap(), 0);

        // A corrupt committed line makes fsck exit 1; --repair quarantines
        // it and rebuilds, after which the store checks healthy again.
        let seg = std::fs::read_dir(db.join("segments")).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(b"deadbeef {\"not\":\"a record\"}\n");
        bytes.extend_from_slice(b"00000000 {\"torn\"");
        std::fs::write(&seg, &bytes).unwrap();
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s])).unwrap(), 1);
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s, "--repair"])).unwrap(), 0);
        assert_eq!(dispatch(&sv(&["db", "fsck", db_s])).unwrap(), 0);
        assert!(db.join("quarantine.jsonl").is_file());

        assert!(dispatch(&sv(&["db", "vacuum", db_s])).is_err());
        assert!(dispatch(&sv(&["db", "stats"])).is_err(), "missing path is a usage error");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn db_policy_without_db_is_a_usage_error() {
        let e = dispatch(&sv(&["tune", "squeezenet", "--db-policy", "warm"])).unwrap_err();
        assert!(e.contains("--db-policy requires --db"), "{e}");
        let bad = dispatch(&sv(&["tune", "squeezenet", "--db", "/tmp/x", "--db-policy", "nope"]))
            .unwrap_err();
        assert!(bad.contains("unknown --db-policy"), "{bad}");
    }
}
