//! The `/best` read path of an in-process `aaltune serve`: an open-loop
//! phase at a fixed offered rate, a phase that saturates the read path,
//! and — on `serve-mixed` — two tenants' tuning jobs running beside the
//! reads.
//!
//! Load comes from two threads, each owning one keep-alive connection.
//! At the fixed rate, requests go out on a schedule and are timed from
//! when they were due, so a stall is charged to every request it delays.
//! Job control (submit, poll) rides on the second connection between its
//! reads.

use crate::stats::{
    geomean, median, peak_rss_mb, process_cpu_s, quantile, reset_peak_rss, thread_cpu_s, CpuSet,
    Speedometer, ThreadSet, REFERENCE_S,
};
use crate::{Check, Metrics, RunArgs, SETUP_REPS};
use active_learning::{RunDir, TrialRecord, TuningLog};
use dnn_graph::task::{extract_tasks, TaskKind, TuningTask};
use dnn_graph::{models, Graph};
use gpu_sim::{measure_model, GpuDevice, KernelPerf, ModelDeployment, SimMeasurer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use schedule::template::space_for_task;
use schedule::ConfigSpace;
use serde_json::{json, Value};
use serve::client::ClientConn;
use serve::{ServeConfig, Server};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use telemetry::TraceSummary;
use tuning_db::{decimate_curve, DbRecord, LockOptions, TaskSpec, TopConfig, TuningDb, TOP_K};

/// The fixed offered rate `best.p50_ms` and `best.p99_ms` are measured at.
const FIXED_RATE: f64 = 1_000.0;
/// Pause between phases, so the fixed-rate phase's tail does not leak on.
const PHASE_DRAIN: Duration = Duration::from_millis(100);
/// Shortest fixed-rate and saturation phases, in seconds.
const MIN_PHASE_S: f64 = 2.0;
/// A saturation batch requests every key this many times (20–40 ms of
/// CPU time).
const BATCH_REPEATS: usize = 2;
/// The server's threads that serve reads (and nothing else): their CPU
/// time, with the load threads', is the read path's.
const READ_THREADS: [&str; 3] = ["serve-http", "serve-accept", "metrics-snapshot"];
/// Share of a read window at the fixed rate; saturation takes the rest.
/// `serve-mixed` gives the fixed rate more, so its jobs run beside it.
const FIXED_SHARE_MIXED: f64 = 0.6;
const FIXED_SHARE_TUNED: f64 = 0.4;
/// The device every key and job is tuned for, as `/best` names it.
const DEVICE: &str = "gtx1080ti";

/// Synthetic records seeded into every read database beside the
/// exact-hit ones, so the O(N) `nearest` scan costs something (about
/// 0.5 ms a lookup, a hundred exact hits).
const SYNTHETIC_RECORDS: usize = 600;
/// Drawn keys of each kind. Three lookups in four are exact hits, so the
/// median sits inside the exact-hit mode and the tail inside the
/// nearest-scan mode, not on the boundary between the two. Exact keys
/// name the other devices; nearest keys are convolutions on `DEVICE`, the
/// group every synthetic record belongs to, so each nearest lookup scans
/// and ranks the same number of candidates.
const EXACT_KEYS: usize = 48;
const NEAREST_KEYS: usize = 16;
const EXACT_DEVICES: [&str; 2] = ["v100", "jetson"];
/// `serve-mixed` jobs: budget, and emulated device hold per measurement.
const JOB_TRIALS: u64 = 192;
const JOB_DEVICE_HOLD: Duration = Duration::from_millis(5);
/// How often the job submitter polls an in-flight job.
const JOB_POLL: Duration = Duration::from_millis(10);
/// `serve-mixed` submits `JOB_ROUNDS` rounds of jobs over the SqueezeNet
/// tasks — a fixed amount of writing, sized to span most of the
/// fixed-rate phase; the quality metrics take each task's best job.
const JOB_ROUNDS: usize = 3;

/// One `/best` request with the `source` its reply must carry.
#[derive(Clone)]
struct Key {
    path: String,
    expected: &'static str,
}

/// A model task as `/best` addresses it.
struct ModelTask {
    model: &'static str,
    index: usize,
    task: TuningTask,
}

/// A model `/best` accepts, by its query name.
type NamedModel = (&'static str, fn() -> Graph);

fn model_tasks() -> Vec<ModelTask> {
    let models: [NamedModel; 5] = [
        ("alexnet", || models::alexnet(1)),
        ("resnet18", || models::resnet18(1)),
        ("vgg16", || models::vgg16(1)),
        ("mobilenet_v1", || models::mobilenet_v1(1)),
        ("squeezenet", || models::squeezenet_v1_1(1)),
    ];
    let mut out = Vec::new();
    for (model, graph) in models {
        for (index, task) in extract_tasks(&graph()).into_iter().enumerate() {
            out.push(ModelTask { model, index, task });
        }
    }
    out
}

fn key_path(model: &str, index: usize, device: &str) -> String {
    format!("/best?model={model}&task={index}&device={device}")
}

/// A tuning-database record of a finished task: the same top-k ranking
/// `aaltune tune --db` upserts.
#[must_use]
pub fn record_from_log(
    task: &TuningTask,
    method: &str,
    seed: u64,
    log: &TuningLog,
) -> Option<DbRecord> {
    let space = space_for_task(task);
    let mut ranked: Vec<&TrialRecord> = log.records.iter().filter(|r| r.gflops > 0.0).collect();
    ranked.sort_by(|a, b| b.gflops.total_cmp(&a.gflops).then(a.config_index.cmp(&b.config_index)));
    let mut seen = BTreeSet::new();
    let top_k: Vec<TopConfig> = ranked
        .into_iter()
        .filter(|r| seen.insert(r.config_index))
        .take(TOP_K)
        .filter_map(|r| {
            let cfg = space.config(r.config_index).ok()?;
            Some(TopConfig {
                config_index: r.config_index,
                choices: cfg.choices,
                gflops: r.gflops,
                latency_s: r.latency_s,
            })
        })
        .collect();
    let best_gflops = top_k.first()?.gflops;
    Some(DbRecord {
        schema_version: tuning_db::DB_SCHEMA_VERSION,
        spec: TaskSpec::of(task, &space, DEVICE),
        feature: TaskSpec::features(task),
        method: method.to_string(),
        seed,
        n_trials: log.records.len() as u64,
        best_gflops,
        top_k,
        curve: decimate_curve(&log.convergence_curve(), 64),
    })
}

/// A record with made-up measurements over real configurations of `space`.
fn synthetic_record(
    spec: TaskSpec,
    feature: Vec<f64>,
    space: &ConfigSpace,
    rng: &mut ChaCha8Rng,
) -> DbRecord {
    let top_k: Vec<TopConfig> = (0..TOP_K)
        .filter_map(|i| {
            let cfg = space.config(rng.gen_range(0..space.len())).ok()?;
            #[allow(clippy::cast_precision_loss)]
            let gflops = 500.0 - 10.0 * i as f64;
            Some(TopConfig {
                config_index: cfg.index,
                choices: cfg.choices,
                gflops,
                latency_s: 1e-3,
            })
        })
        .collect();
    DbRecord {
        schema_version: tuning_db::DB_SCHEMA_VERSION,
        spec,
        feature,
        method: "random".to_string(),
        seed: 0,
        n_trials: 64,
        best_gflops: 500.0,
        top_k,
        curve: decimate_curve(&[250.0, 400.0, 500.0], 64),
    }
}

/// The server, sized for two cores: one HTTP worker per load connection,
/// two job workers sharing two devices.
fn start_server(root: &Path) -> Result<Server, String> {
    Server::start(ServeConfig {
        root: root.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        http_workers: 2,
        job_workers: 2,
        devices: 2,
        exec_workers: 1,
        device_hold: JOB_DEVICE_HOLD,
        backlog: 4,
        tenant_devices: None,
        db: None,
        snapshot_interval: Duration::from_secs(1),
        quiet: true,
    })
}

/// A started server with its two load connections and request keys.
struct Target {
    root: PathBuf,
    server: Server,
    conns: [ClientConn; 2],
    keys: Vec<Key>,
}

impl Target {
    /// Opens the connections and requests every key once, so the spec
    /// cache is full before anything is timed.
    fn open(root: PathBuf, keys: Vec<Key>, check: &mut Check) -> Result<Target, String> {
        let server = start_server(&root)?;
        let addr = server.addr().to_string();
        let mut conns = [ClientConn::connect(&addr)?, ClientConn::connect(&addr)?];
        for k in &keys {
            let reply = conns[0].roundtrip("GET", &k.path, None);
            verify(&reply, k, check);
        }
        Ok(Target { root, server, conns, keys })
    }

    /// Shuts the server down and drops its root.
    fn close(self) {
        let Target { root, server, conns, .. } = self;
        drop(conns);
        server.shutdown();
        server.wait();
        let _ = std::fs::remove_dir_all(root);
    }
}

/// Whether a `/best` reply is a 200 with the source `key` must get.
fn reply_ok(reply: &Result<(u16, Value), String>, key: &Key) -> bool {
    matches!(reply, Ok((200, body)) if body["source"].as_str() == Some(key.expected))
}

/// Checks one `/best` reply against its key.
fn verify(reply: &Result<(u16, Value), String>, key: &Key, check: &mut Check) {
    check.attempt();
    if !reply_ok(reply, key) {
        check.fail(format!(
            "{}: expected {} got {:?}",
            key.path,
            key.expected,
            reply.as_ref().map(|r| r.0)
        ));
    }
}

/// Latencies of one phase, all in microseconds.
#[derive(Default)]
struct Step {
    /// Completion minus due time.
    from_due: Vec<f64>,
    /// Completion minus send time.
    service: Vec<f64>,
    /// Send minus due time: how late the generator ran.
    lag: Vec<f64>,
    /// Seconds from the first due time to the last completion.
    elapsed_s: f64,
    /// CPU seconds of the load threads.
    cpu_s: f64,
}

impl Step {
    fn merge(&mut self, o: Step) {
        self.from_due.extend(o.from_due);
        self.service.extend(o.service);
        self.lag.extend(o.lag);
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
        self.cpu_s += o.cpu_s;
    }
}

/// Runs the fixed-rate phase for `seconds` over the two connections:
/// request `j` is due `j / rate` after the start (lanes take alternate
/// requests).
fn run_phase(
    t: &mut Target,
    order: &[usize],
    rate: f64,
    seconds: f64,
    mut jobs: Option<&mut JobSubmitter>,
    check: &mut Check,
) -> Step {
    let keys = &t.keys;
    let t0 = Instant::now() + Duration::from_millis(2);
    let end = t0 + Duration::from_secs_f64(seconds);
    let [c0, c1] = &mut t.conns;
    let lanes: Vec<(Step, Vec<usize>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = [(0usize, c0, None), (1, c1, jobs.take())]
            .into_iter()
            .map(|(lane, conn, mut jobs)| {
                scope.spawn(move || {
                    let cpu0 = thread_cpu_s();
                    let mut step = Step::default();
                    let mut wrong = Vec::new();
                    let mut j = lane;
                    loop {
                        if let Some(d) = jobs.as_mut() {
                            d.tick(conn);
                        }
                        #[allow(clippy::cast_precision_loss)]
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        if due >= end {
                            break;
                        }
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let k = order[j % order.len()];
                        let sent = Instant::now();
                        let reply = conn.roundtrip("GET", &keys[k].path, None);
                        let done = Instant::now();
                        if !reply_ok(&reply, &keys[k]) {
                            wrong.push(k);
                        }
                        step.from_due.push((done - due).as_secs_f64() * 1e6);
                        step.service.push((done - sent).as_secs_f64() * 1e6);
                        step.lag.push((sent - due).as_secs_f64() * 1e6);
                        step.elapsed_s = (done - t0).as_secs_f64();
                        j += 2;
                    }
                    step.cpu_s = thread_cpu_s() - cpu0;
                    (step, wrong)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread")).collect()
    });
    let mut step = Step::default();
    for (s, wrong) in lanes {
        record_wrong(keys, &wrong, check);
        step.merge(s);
    }
    for _ in 0..step.from_due.len() {
        check.attempt();
    }
    step
}

fn record_wrong(keys: &[Key], wrong: &[usize], check: &mut Check) {
    for &k in wrong {
        check.fail(format!(
            "{}: reply was not a 200 with source {}",
            keys[k].path, keys[k].expected
        ));
    }
}

/// The saturation phase: one fixed batch of lookups, repeated until `end`
/// (and at least `MIN_BATCHES` times) by two load threads, one per
/// connection, which take alternate keys of each batch and send each
/// request as soon as the previous reply is in; that saturates the read
/// path. Between batches this thread samples the host's speed, and the
/// second load thread polls the jobs before it starts its half. Returns
/// the phase's latencies and its read-path CPU time in reference seconds
/// (see [`Speedometer`]): the load threads' and the server's
/// `READ_THREADS`', so the jobs of `serve-mixed` are not charged to it,
/// each batch scaled by the speed samples on either side of it.
fn saturate(
    t: &mut Target,
    batch: &[usize],
    end: Instant,
    jobs: Option<&mut JobSubmitter>,
    check: &mut Check,
) -> (Step, f64) {
    /// Fewest batches a phase runs, however short it is.
    const MIN_BATCHES: usize = 50;
    /// Batches run on one CPU before the read path moves to the next.
    const SWITCH_EVERY: usize = 16;
    let server = ThreadSet::named(&READ_THREADS);
    if server.is_empty() {
        check.fail("no server threads to charge the reads to".to_string());
    }
    // Every thread of the read path, this one (which samples the speed)
    // included, runs on one CPU, and the CPU changes every `SWITCH_EVERY`
    // batches: where the scheduler would place the four threads is a coin
    // toss per run that moves the CPU cost of a lookup by a quarter (a
    // reply handed to a thread on the same CPU costs a context switch, on
    // the other one a cross-CPU wake-up), and one vCPU alone ran 10%
    // slower or faster than the other from run to run.
    let main_affinity = CpuSet::of(0);
    let cpus: Vec<CpuSet> = main_affinity.map(|s| s.singles()).unwrap_or_default();
    let pinned = cpus.first().map(|c| server.pin(c)).unwrap_or_default();
    let speed = Speedometer::default();
    let keys = &t.keys;
    let t0 = Instant::now();
    let mut step = Step::default();
    let mut wrong = Vec::new();
    let mut reference_cpu_s = 0.0;
    std::thread::scope(|scope| {
        let (done_tx, done) = mpsc::channel::<(Step, Vec<usize>)>();
        let [c0, c1] = &mut t.conns;
        let go: Vec<mpsc::Sender<Option<CpuSet>>> = [(0usize, c0, None), (1, c1, jobs)]
            .into_iter()
            .map(|(lane, conn, mut jobs)| {
                let (go, start) = mpsc::channel::<Option<CpuSet>>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    while let Ok(cpu) = start.recv() {
                        if let Some(c) = cpu {
                            c.apply(0);
                        }
                        if let Some(d) = jobs.as_mut() {
                            d.tick(conn);
                        }
                        let cpu0 = thread_cpu_s();
                        let mut step = Step::default();
                        let mut wrong = Vec::new();
                        for &k in batch.iter().skip(lane).step_by(2) {
                            let sent = Instant::now();
                            let reply = conn.roundtrip("GET", &keys[k].path, None);
                            let done = Instant::now();
                            if !reply_ok(&reply, &keys[k]) {
                                wrong.push(k);
                            }
                            step.service.push((done - sent).as_secs_f64() * 1e6);
                        }
                        step.cpu_s = thread_cpu_s() - cpu0;
                        if done_tx.send((step, wrong)).is_err() {
                            break;
                        }
                    }
                });
                go
            })
            .collect();
        let mut batches = 0usize;
        let mut last_sample = speed.sample(thread_cpu_s);
        while batches < MIN_BATCHES || Instant::now() < end {
            let cpu = (!cpus.is_empty() && batches.is_multiple_of(SWITCH_EVERY))
                .then(|| cpus[batches / SWITCH_EVERY % cpus.len()]);
            if let Some(c) = cpu {
                let _ = server.pin(&c);
                c.apply(0);
            }
            let server0 = server.cpu_s();
            for g in &go {
                g.send(cpu).expect("load thread");
            }
            let mut cpu_s = 0.0;
            for _ in &go {
                let (s, w) = done.recv().expect("load thread");
                cpu_s += s.cpu_s;
                step.merge(s);
                wrong.extend(w);
            }
            cpu_s += server.cpu_s() - server0;
            let sample = speed.sample(thread_cpu_s);
            reference_cpu_s += cpu_s * REFERENCE_S / (0.5 * (last_sample + sample));
            last_sample = sample;
            batches += 1;
        }
        // Dropping the senders ends the load threads.
    });
    ThreadSet::restore(&pinned);
    if let Some(m) = main_affinity {
        m.apply(0);
    }
    step.elapsed_s = t0.elapsed().as_secs_f64();
    record_wrong(keys, &wrong, check);
    for _ in 0..step.service.len() {
        check.attempt();
    }
    (step, reference_cpu_s)
}

/// What a read window measured.
#[derive(Default)]
pub struct ReadReport {
    pub setup: Setup,
    best_p50_ms: f64,
    best_p99_ms: f64,
    best_samples: usize,
    lag_p99_ms: f64,
    max_qps: f64,
    lookups_per_cpu_s: f64,
    /// CPU seconds of the load threads over the whole window.
    load_cpu_s: f64,
    service_p50_us: f64,
    handler_p50_us: f64,
    handler_p99_us: f64,
    handler_samples: u64,
    db_records: usize,
    db_upserts: u64,
}

impl ReadReport {
    pub fn end_metrics(&self, m: &mut Metrics) {
        m.end("best_lookups_per_cpu_s", self.lookups_per_cpu_s);
    }

    #[allow(clippy::cast_precision_loss)]
    pub fn layer_metrics(&self, m: &mut Metrics) {
        m.layer("serve.handler_us_p50", self.handler_p50_us);
        m.layer("serve.handler_us_p99", self.handler_p99_us);
        m.layer("serve.handler.samples", self.handler_samples as f64);
        m.layer("http.overhead_us_p50", self.service_p50_us - self.handler_p50_us);
        m.layer("gen.lag_p99_ms", self.lag_p99_ms);
        m.layer("best.p50_ms", self.best_p50_ms);
        m.layer("best.p99_ms", self.best_p99_ms);
        m.layer("best.max_qps", self.max_qps);
        m.layer("best.samples", self.best_samples as f64);
        m.layer("db.records", self.db_records as f64);
        m.layer("db.upserts", self.db_upserts as f64);
    }
}

/// Runs the fixed-rate phase until `fixed_end`, then saturates the read
/// path with repeats of `batch` until `end`. The completion rate there is
/// the highest offered rate the two connections carry on one CPU without
/// a growing backlog (`best.max_qps`); per reference CPU second of the
/// read path it is `best_lookups_per_cpu_s`.
fn read_window(
    t: &mut Target,
    order: &[usize],
    batch: &[usize],
    fixed_end: Instant,
    end: Instant,
    mut jobs: Option<&mut JobSubmitter>,
    check: &mut Check,
) -> ReadReport {
    let fixed_s =
        fixed_end.saturating_duration_since(Instant::now()).as_secs_f64().max(MIN_PHASE_S);
    let mut all = run_phase(t, order, FIXED_RATE, fixed_s, jobs.as_deref_mut(), check);
    let mut r = ReadReport {
        best_p50_ms: quantile(&all.from_due, 0.5) / 1e3,
        best_p99_ms: quantile(&all.from_due, 0.99) / 1e3,
        best_samples: all.from_due.len(),
        lag_p99_ms: quantile(&all.lag, 0.99) / 1e3,
        ..ReadReport::default()
    };
    std::thread::sleep(PHASE_DRAIN);
    let end = end.max(Instant::now() + Duration::from_secs_f64(MIN_PHASE_S));
    let (sat, reference_cpu_s) = saturate(t, batch, end, jobs, check);
    #[allow(clippy::cast_precision_loss)]
    let completed = sat.service.len() as f64;
    r.max_qps = completed / sat.elapsed_s.max(1e-9);
    r.lookups_per_cpu_s = completed / reference_cpu_s.max(1e-9);
    all.merge(sat);
    r.load_cpu_s = all.cpu_s;
    r.service_p50_us = quantile(&all.service, 0.5);
    r
}

/// Shuts the server down and reads its own figures back: the handler
/// latency histogram and upsert counter from its trace, and the database
/// size. The root stays for the caller to inspect.
fn close_and_read(t: Target, r: &mut ReadReport) -> Result<PathBuf, String> {
    let Target { root, server, conns, .. } = t;
    drop(conns);
    server.shutdown();
    server.wait();
    let trace =
        std::fs::File::open(root.join("trace.jsonl")).map_err(|e| format!("server trace: {e}"))?;
    let summary =
        TraceSummary::from_reader(std::io::BufReader::new(trace)).map_err(|e| e.to_string())?;
    if let Some(h) = summary.histograms.get("serve.read.us") {
        r.handler_p50_us = h.quantile(0.5);
        r.handler_p99_us = h.quantile(0.99);
        r.handler_samples = h.count();
    }
    r.db_upserts = summary.counters.get(tuning_db::DB_UPSERT_COUNTER).copied().unwrap_or(0);
    r.db_records = TuningDb::open(&root.join("db"), &LockOptions::default())
        .map_err(|e| format!("reopen db: {e}"))?
        .len();
    Ok(root)
}

fn shuffle<T>(v: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A seeded request order over `keys`, long enough never to repeat a
/// pattern within a phase.
fn request_order(n_keys: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0BE5);
    (0..1 << 16).map(|_| rng.gen_range(0..n_keys)).collect()
}

/// The saturation batch: every key `BATCH_REPEATS` times in a seeded
/// order, so the mix of exact and nearest lookups (and with it the
/// batch's cost) is the same under every seed.
fn batch_order(n_keys: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBA7C);
    let mut batch: Vec<usize> = (0..BATCH_REPEATS).flat_map(|_| 0..n_keys).collect();
    shuffle(&mut batch, &mut rng);
    batch
}

/// Sets up `SETUP_REPS` times with `build` (which lays out the database
/// and draws the keys), keeping the last target.
fn repeated_setup(
    work: &Path,
    check: &mut Check,
    build: &dyn Fn(&Path) -> Result<Vec<Key>, String>,
) -> Result<(Target, Setup), String> {
    let speed = Speedometer::default();
    let mut cpu = Vec::new();
    let mut wall = Vec::new();
    let mut kept: Option<Target> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.close();
        }
        let t0 = Instant::now();
        let root = work.join(format!("serve-{rep}"));
        let (target, cpu_s) =
            speed.reference_cpu(|| Target::open(root.clone(), build(&root)?, check));
        kept = Some(target?);
        cpu.push(cpu_s);
        wall.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.ok_or("no setup")?, Setup { cpu_s: median(&cpu), wall_s: median(&wall) }))
}

/// Median set-up cost, in reference CPU seconds and in wall seconds.
#[derive(Clone, Copy, Default)]
pub struct Setup {
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Everything `/best` can name, with the spaces the records draw from.
struct Universe {
    tasks: Vec<ModelTask>,
    spaces: Vec<ConfigSpace>,
    /// Indices of the plain (non-depthwise) convolutions.
    convolutions: Vec<usize>,
}

impl Universe {
    fn new() -> Universe {
        let tasks = model_tasks();
        let spaces = tasks.iter().map(|mt| space_for_task(&mt.task)).collect();
        let convolutions =
            (0..tasks.len()).filter(|&i| tasks[i].task.kind == TaskKind::Conv2d).collect();
        Universe { tasks, spaces, convolutions }
    }

    fn spec(&self, i: usize, device: &str) -> TaskSpec {
        TaskSpec::of(&self.tasks[i].task, &self.spaces[i], device)
    }

    fn path(&self, i: usize, device: &str) -> String {
        key_path(self.tasks[i].model, self.tasks[i].index, device)
    }

    /// Seeds the database under `root` and draws the request keys:
    /// `EXACT_KEYS` records of distinct specs on the other devices,
    /// `SYNTHETIC_RECORDS` convolutions on `DEVICE`, then `NEAREST_KEYS`
    /// absent convolutions on `DEVICE` outside `exclude` (specs a writer
    /// may add). `extra` records become exact keys too.
    fn build(
        &self,
        root: &Path,
        seed: u64,
        extra: &[(Key, DbRecord)],
        exclude: &BTreeSet<String>,
    ) -> Result<Vec<Key>, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDB5E);
        let mut db =
            TuningDb::open(&root.join("db"), &LockOptions::default()).map_err(|e| e.to_string())?;
        let mut keys = Vec::new();
        for (key, rec) in extra {
            db.upsert(rec.clone()).map_err(|e| e.to_string())?;
            keys.push(key.clone());
        }
        let mut others: Vec<(usize, &str)> = (0..self.tasks.len())
            .flat_map(|i| EXACT_DEVICES.iter().map(move |d| (i, *d)))
            .collect();
        shuffle(&mut others, &mut rng);
        let mut exact = BTreeSet::new();
        for (i, d) in others {
            if exact.len() == EXACT_KEYS {
                break;
            }
            let spec = self.spec(i, d);
            if exact.insert(spec.key()) {
                let feature = TaskSpec::features(&self.tasks[i].task);
                db.upsert(synthetic_record(spec, feature, &self.spaces[i], &mut rng))
                    .map_err(|e| e.to_string())?;
                keys.push(Key { path: self.path(i, d), expected: "exact" });
            }
        }
        for n in 0..SYNTHETIC_RECORDS {
            let i = self.convolutions[rng.gen_range(0..self.convolutions.len())];
            let base = self.spec(i, DEVICE);
            let spec = TaskSpec { workload: format!("{}:synthetic{n}", base.workload), ..base };
            let feature: Vec<f64> = TaskSpec::features(&self.tasks[i].task)
                .iter()
                .map(|f| f + rng.gen_range(-0.7..0.7))
                .collect();
            db.upsert(synthetic_record(spec, feature, &self.spaces[i], &mut rng))
                .map_err(|e| e.to_string())?;
        }
        let mut near = self.convolutions.clone();
        shuffle(&mut near, &mut rng);
        let mut near_specs = BTreeSet::new();
        for i in near {
            if near_specs.len() == NEAREST_KEYS {
                break;
            }
            let spec = self.spec(i, DEVICE);
            let absent = db.lookup(&spec).is_none() && !exclude.contains(&spec.key());
            let transferable =
                !db.nearest(&spec, &TaskSpec::features(&self.tasks[i].task), 1).is_empty();
            if absent && transferable && near_specs.insert(spec.key()) {
                keys.push(Key { path: self.path(i, DEVICE), expected: "nearest" });
            }
        }
        Ok(keys)
    }
}

/// The tuning workloads' read window: `serve-mixed`'s database plus the
/// tuned records as exact hits, with no writers beside the reads.
///
/// # Errors
///
/// Returns a diagnostic when the server cannot be set up.
pub fn serve_tuned(
    model: &str,
    tuned: &[(usize, DbRecord)],
    args: &RunArgs,
    work: &Path,
    window_s: f64,
    check: &mut Check,
) -> Result<ReadReport, String> {
    let extra: Vec<(Key, DbRecord)> = tuned
        .iter()
        .map(|(i, rec)| (Key { path: key_path(model, *i, DEVICE), expected: "exact" }, rec.clone()))
        .collect();
    let build = |root: &Path| Universe::new().build(root, args.seed, &extra, &BTreeSet::new());
    let (mut t, setup) = repeated_setup(work, check, &build)?;
    let order = request_order(t.keys.len(), args.seed);
    let batch = batch_order(t.keys.len(), args.seed);
    let now = Instant::now();
    let fixed_end = now + Duration::from_secs_f64(window_s * FIXED_SHARE_TUNED);
    let end = now + Duration::from_secs_f64(window_s);
    let mut r = read_window(&mut t, &order, &batch, fixed_end, end, None, check);
    close_and_read(t, &mut r)?;
    r.setup = setup;
    Ok(r)
}

/// One submitted job.
struct Job {
    k: usize,
    id: String,
    task: usize,
    submitted: Instant,
    started: Option<Instant>,
    done: Option<Instant>,
}

/// Two tenants, each keeping one `random` job in flight until `limit`
/// jobs were submitted. Job `k` tunes SqueezeNet task `perm[k % 18]`
/// with a seed derived from `k`, so every job's result is a pure function
/// of the run seed.
struct JobSubmitter {
    seed: u64,
    perm: Vec<usize>,
    limit: usize,
    next_k: usize,
    in_flight: [Option<Job>; 2],
    finished: Vec<Job>,
    submitting: bool,
    last_poll: Instant,
    errors: Vec<String>,
    /// The host's speed, sampled at every poll (see [`Speedometer`]).
    speed: Speedometer,
    speed_samples: Vec<f64>,
}

impl JobSubmitter {
    fn new(seed: u64, n_tasks: usize) -> JobSubmitter {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x70B5);
        let mut perm: Vec<usize> = (0..n_tasks).collect();
        shuffle(&mut perm, &mut rng);
        JobSubmitter {
            seed,
            limit: JOB_ROUNDS * perm.len(),
            perm,
            next_k: 0,
            in_flight: [None, None],
            finished: Vec::new(),
            submitting: true,
            last_poll: Instant::now(),
            errors: Vec::new(),
            speed: Speedometer::default(),
            speed_samples: Vec::new(),
        }
    }

    fn job_seed(&self, k: usize) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
    }

    /// One round of job control, when a poll is due.
    fn tick(&mut self, conn: &mut ClientConn) {
        if self.last_poll.elapsed() < JOB_POLL {
            return;
        }
        self.last_poll = Instant::now();
        self.speed_samples.push(self.speed.sample(thread_cpu_s));
        for lane in 0..2 {
            match self.in_flight[lane].take() {
                None if self.submitting && self.next_k < self.limit => {
                    let k = self.next_k;
                    let task = self.perm[k % self.perm.len()];
                    let body = json!({
                        "tenant": ["tenant-a", "tenant-b"][lane],
                        "model": "squeezenet",
                        "task": task as u64,
                        "method": "random",
                        "n_trial": JOB_TRIALS,
                        "seed": self.job_seed(k),
                    });
                    let submitted = Instant::now();
                    match conn.roundtrip("POST", "/jobs", Some(&body)) {
                        Ok((202, v)) => {
                            let id = v["id"].as_str().unwrap_or_default().to_string();
                            self.next_k += 1;
                            self.in_flight[lane] =
                                Some(Job { k, id, task, submitted, started: None, done: None });
                        }
                        other => self.errors.push(format!("submit job {k}: {other:?}")),
                    }
                }
                None => {}
                Some(mut job) => match conn.roundtrip("GET", &format!("/jobs/{}", job.id), None) {
                    Ok((200, v)) => {
                        let now = Instant::now();
                        match v["state"].as_str() {
                            Some("running") => {
                                job.started.get_or_insert(now);
                                self.in_flight[lane] = Some(job);
                            }
                            Some("done") => {
                                job.started.get_or_insert(now);
                                job.done = Some(now);
                                self.finished.push(job);
                            }
                            Some("queued") => self.in_flight[lane] = Some(job),
                            other => self.errors.push(format!("job {}: state {other:?}", job.id)),
                        }
                    }
                    other => self.errors.push(format!("poll job {}: {other:?}", job.id)),
                },
            }
        }
    }

    fn busy(&self) -> bool {
        self.in_flight.iter().any(Option::is_some)
    }
}

/// `serve-mixed`: reads over a large database while two tenants tune.
///
/// # Errors
///
/// Returns a diagnostic when set-up or the job results cannot be read.
pub fn serve_mixed(args: &RunArgs, work: &Path, check: &mut Check) -> Result<Metrics, String> {
    let squeeze = models::squeezenet_v1_1(1);
    let squeeze_tasks = extract_tasks(&squeeze);
    let job_specs: BTreeSet<String> =
        squeeze_tasks.iter().map(|t| TaskSpec::of(t, &space_for_task(t), DEVICE).key()).collect();
    let build = |root: &Path| Universe::new().build(root, args.seed, &[], &job_specs);
    let (mut t, setup) = repeated_setup(work, check, &build)?;
    let order = request_order(t.keys.len(), args.seed);
    let batch = batch_order(t.keys.len(), args.seed);

    // The jobs' CPU time is the process's minus the read path's (load
    // threads, the server's `READ_THREADS`) and this thread's; the speed
    // samples of the job polls turn it into reference seconds.
    let read_threads = ThreadSet::named(&READ_THREADS);
    reset_peak_rss();
    let start = Instant::now();
    let (cpu0, read0, main0) = (process_cpu_s(), read_threads.cpu_s(), thread_cpu_s());
    let fixed_end = start + Duration::from_secs_f64(args.seconds * FIXED_SHARE_MIXED);
    let end = start + Duration::from_secs_f64(args.seconds);
    let mut jobs = JobSubmitter::new(args.seed, squeeze_tasks.len());
    let mut r = read_window(&mut t, &order, &batch, fixed_end, end, Some(&mut jobs), check);
    // Jobs still in flight when the reads end run to completion.
    jobs.submitting = false;
    let give_up = Instant::now() + Duration::from_secs(60);
    while jobs.busy() && Instant::now() < give_up {
        jobs.tick(&mut t.conns[1]);
        std::thread::sleep(Duration::from_millis(2));
    }
    if jobs.busy() {
        check.fail("jobs still running 60s after the read window".to_string());
    }
    let job_cpu_s = (process_cpu_s() - cpu0)
        - (read_threads.cpu_s() - read0)
        - (thread_cpu_s() - main0)
        - r.load_cpu_s;
    #[allow(clippy::cast_precision_loss)]
    let mean_sample =
        jobs.speed_samples.iter().sum::<f64>() / jobs.speed_samples.len().max(1) as f64;
    let job_reference_cpu_s = job_cpu_s * REFERENCE_S / mean_sample.max(1e-12);
    let peak_rss = peak_rss_mb();
    let root = close_and_read(t, &mut r)?;
    for e in &jobs.errors {
        check.fail(e.clone());
    }

    // Job outcomes, from the run directories the jobs wrote.
    let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let mut trials = 0usize;
    // Per task: (best GFLOPS, its configuration index) over its quality jobs.
    let quality_jobs = jobs.limit;
    let mut best: Vec<Option<(f64, u64)>> = vec![None; squeeze_tasks.len()];
    let mut quality_done = 0usize;
    for job in &jobs.finished {
        check.attempt();
        let logs = RunDir::create(root.join("jobs").join(&job.id))
            .and_then(|d| d.read_logs().map_err(|e| std::io::Error::other(e.to_string())))
            .map_err(|e| format!("job {} logs: {e}", job.id))?;
        let Some(log) = logs.first() else {
            check.fail(format!("job {} wrote no log", job.id));
            continue;
        };
        let curve = log.convergence_curve();
        if log.records.is_empty() || !curve.windows(2).all(|w| w[1] >= w[0]) {
            check.fail(format!("job {}: empty or non-monotone log", job.id));
        }
        trials += log.records.len();
        if job.k < quality_jobs {
            quality_done += 1;
            for r in log.records.iter().filter(|r| r.gflops > 0.0) {
                let slot = &mut best[job.task];
                if slot.is_none_or(|(g, i)| r.gflops > g || (r.gflops == g && r.config_index < i)) {
                    *slot = Some((r.gflops, r.config_index));
                }
            }
        }
    }
    if quality_done < quality_jobs {
        check.fail(format!("only {quality_done} of the first {quality_jobs} jobs finished"));
    }
    let mut tuned: Vec<(TuningTask, KernelPerf)> = Vec::new();
    let mut bests = Vec::new();
    for (task, b) in squeeze_tasks.iter().zip(&best) {
        let space = space_for_task(task);
        let perf = b
            .and_then(|(_, i)| space.config(i).ok())
            .and_then(|c| sim.true_perf(task, &space, &c).ok());
        match (b, perf) {
            (Some((g, _)), Some(perf)) => {
                bests.push(*g);
                tuned.push((task.clone(), perf));
            }
            _ => check.fail(format!("{}: no valid best configuration", task.name)),
        }
    }
    let walls: Vec<f64> =
        jobs.finished.iter().filter_map(|j| Some((j.done? - j.submitted).as_secs_f64())).collect();
    let waits: Vec<f64> = jobs
        .finished
        .iter()
        .filter_map(|j| Some((j.started? - j.submitted).as_secs_f64() * 1e3))
        .collect();
    if args.trace {
        let _ = std::fs::copy(root.join("trace.jsonl"), &args.trace_file);
    }

    let mut m = Metrics::default();
    #[allow(clippy::cast_precision_loss)]
    let last_done = jobs.finished.iter().filter_map(|j| j.done).max().unwrap_or(start);
    m.end("trials_per_cpu_s", trials as f64 / job_reference_cpu_s.max(1e-9));
    m.layer("trials_per_s", trials as f64 / (last_done - start).as_secs_f64().max(1e-9));
    m.end("tuned_gflops_geomean", geomean(&bests));
    let deployment = ModelDeployment::assemble(&squeeze, &tuned, sim.device());
    m.end("model_latency_ms", measure_model(&deployment, 600, args.seed).mean_ms);
    m.layer("job.wall_p50_s", median(&walls));
    m.end("setup_s", setup.cpu_s);
    m.end("peak_rss_mb", peak_rss);
    m.layer("setup.wall_s", setup.wall_s);
    r.end_metrics(&mut m);
    r.layer_metrics(&mut m);
    m.layer("job.queue_wait_ms_p50", median(&waits));
    #[allow(clippy::cast_precision_loss)]
    m.layer("job.samples", walls.len() as f64);
    Ok(m)
}
