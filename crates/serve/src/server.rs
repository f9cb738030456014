//! The `aaltune serve` server: accept loop, HTTP workers, job workers,
//! and the wiring between them.
//!
//! Thread layout (all plain OS threads; the build is offline, so no
//! async runtime):
//!
//! ```text
//! accept ──> BoundedQueue<TcpStream> ──> http workers (keep-alive loop)
//!                                          │ POST /jobs ─> Admission ─> journal
//!                                          └ GET  /best ─> ReadHandle (no locks held long)
//! Admission ──> job workers ──> runner::run_job ──> shared DevicePool
//!                                          └──────> TuningDb upserts
//! ```
//!
//! Every layer reports through one [`MetricsRegistry`]; a
//! [`SnapshotWriter`] publishes it into the serve root so `aaltune top
//! ROOT` works against a live server. Graceful shutdown (`POST
//! /shutdown`) drains: in-flight jobs finish through their checkpoint
//! machinery, queued jobs stay journaled for the next start. A kill -9
//! skips all of that and relies on journal + checkpoint replay alone.

use crate::admission::{Admission, SubmitError};
use crate::http::{Conn, ReadOutcome, Request, IDLE_POLL};
use crate::job::{JobSpec, JobState, JournalLine};
use crate::runner::run_job;
use dnn_graph::task::extract_tasks;
use executor::{BoundedQueue, DevicePool};
use schedule::template::space_for_task;
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::sync::{lock_or_recover, read_or_recover, write_or_recover};
use telemetry::{
    FileSink, MetricsRegistry, Record, ReporterSink, SnapshotWriter, TeeSink, Telemetry,
};
use tuning_db::{LockOptions, ReadHandle, TaskSpec, TuningDb};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Serve root: journal, job run dirs, metrics snapshots, db default.
    pub root: PathBuf,
    /// Bind address; port 0 picks a free port (the bound address is
    /// written to `<root>/serve.addr` either way).
    pub addr: String,
    /// HTTP worker threads (each owns one connection at a time).
    pub http_workers: usize,
    /// Job worker threads (max concurrently-running jobs).
    pub job_workers: usize,
    /// Simulated devices in the shared pool.
    pub devices: usize,
    /// Measurement worker threads per running job (device leases per job
    /// never exceed this).
    pub exec_workers: usize,
    /// Emulated device occupancy per measurement (real time per lease);
    /// zero means leases release immediately.
    pub device_hold: Duration,
    /// Max queued jobs per tenant before 429.
    pub backlog: usize,
    /// Hard device quota per tenant (`None` = soft fair share only).
    pub tenant_devices: Option<usize>,
    /// Tuning-database directory (`None` = `<root>/db`).
    pub db: Option<PathBuf>,
    /// Metrics snapshot cadence.
    pub snapshot_interval: Duration,
    /// Suppress human-readable event logging on stderr.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            root: PathBuf::from("serve-root"),
            addr: "127.0.0.1:0".to_string(),
            http_workers: 4,
            job_workers: 2,
            devices: 4,
            exec_workers: 2,
            device_hold: Duration::ZERO,
            backlog: 16,
            tenant_devices: None,
            db: None,
            snapshot_interval: Duration::from_millis(500),
            quiet: false,
        }
    }
}

/// Entries kept in [`Shared::spec_cache`]. The key space is finite once
/// model/task/device are validated, but a cap keeps a misbehaving churn
/// of valid keys from mattering either.
const SPEC_CACHE_CAP: usize = 512;

/// Distinct tenants that get their own metric names; later tenants are
/// aggregated under `other` so unauthenticated submissions cannot grow
/// the registry without bound.
const TENANT_LABEL_CAP: usize = 64;

/// State shared by every server thread.
struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    admission: Admission,
    journal: Mutex<std::fs::File>,
    pool: Arc<DevicePool>,
    db: Mutex<TuningDb>,
    read: ReadHandle,
    bus: telemetry::EventBus,
    tel: Telemetry,
    shutdown: Arc<AtomicBool>,
    conns: BoundedQueue<TcpStream>,
    /// `model/task/device` → (spec, feature): `/best` rebuilds neither
    /// the graph nor the task features on the hot path.
    spec_cache: RwLock<BTreeMap<String, (TaskSpec, Vec<f64>)>>,
    /// Tenants granted per-tenant metric names (bounded; see
    /// [`TENANT_LABEL_CAP`]).
    tenant_labels: Mutex<BTreeSet<String>>,
}

impl Shared {
    /// Starts the drain exactly once: no new work, close the connection
    /// queue, and poke the accept loop awake.
    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.admission.drain();
        self.conns.close();
        let _ = TcpStream::connect(self.addr);
    }

    /// Appends one journal line and flushes it before returning — the
    /// durability point for every lifecycle transition.
    fn journal_append(&self, line: &JournalLine) -> Result<(), String> {
        let payload = serde_json::to_string(line).map_err(|e| format!("journal encode: {e}"))?;
        let mut f = lock_or_recover(&self.journal);
        writeln!(f, "{payload}").and_then(|()| f.flush()).map_err(|e| format!("journal write: {e}"))
    }

    /// The metric label for `tenant`: its own name for the first
    /// [`TENANT_LABEL_CAP`] distinct tenants, `other` afterwards —
    /// client-chosen strings must not grow the registry unboundedly.
    fn tenant_label(&self, tenant: &str) -> String {
        let mut labels = lock_or_recover(&self.tenant_labels);
        if labels.contains(tenant) {
            return tenant.to_string();
        }
        if labels.len() < TENANT_LABEL_CAP {
            labels.insert(tenant.to_string());
            return tenant.to_string();
        }
        "other".to_string()
    }
}

/// A running server; dropping it does **not** stop the threads — call
/// [`Server::shutdown`] then [`Server::wait`] (or hit `POST /shutdown`).
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    snapshots: Option<SnapshotWriter>,
}

impl Server {
    /// Binds, replays the journal, and spawns the worker threads.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the root, database, journal, or socket
    /// cannot be set up.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        std::fs::create_dir_all(cfg.root.join("jobs"))
            .map_err(|e| format!("cannot create serve root: {e}"))?;

        let registry = Arc::new(MetricsRegistry::new());
        // The bus instance inside the tee is what subscribers must attach
        // to, so build it first and clone it into the tee.
        let bus = telemetry::EventBus::default();
        let tee = TeeSink::new()
            .with(
                FileSink::append(cfg.root.join("trace.jsonl"))
                    .map_err(|e| format!("cannot open trace log: {e}"))?,
            )
            .with(bus.clone());
        let tee = if cfg.quiet { tee } else { tee.with(ReporterSink::human()) };
        let tel = Telemetry::with_registry(tee, Arc::clone(&registry));
        telemetry::set_global(tel.clone());

        let db_root = cfg.db.clone().unwrap_or_else(|| cfg.root.join("db"));
        let db = TuningDb::open(&db_root, &LockOptions::default())
            .map_err(|e| format!("cannot open tuning database: {e}"))?;
        let read = db.read_handle();
        let pool = DevicePool::with_hold(cfg.devices.max(1), cfg.device_hold);

        let admission = Admission::new(cfg.backlog);
        let journal_path = cfg.root.join("journal.jsonl");
        let replayed = replay_journal(&journal_path)?;
        for (id, spec, state, error) in replayed {
            if let Some(q) = cfg.tenant_devices {
                pool.set_tag_cap(&spec.tenant, Some(q));
            }
            admission.restore(&id, spec, state, error);
        }
        let journal = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| format!("cannot open journal: {e}"))?;

        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        telemetry::stream::write_atomic(&cfg.root.join("serve.addr"), addr.to_string().as_bytes())
            .map_err(|e| format!("cannot record serve.addr: {e}"))?;

        let snapshots = SnapshotWriter::start(
            cfg.root.clone(),
            Arc::clone(&registry),
            cfg.snapshot_interval,
            tel.clone(),
        );

        let shared = Arc::new(Shared {
            addr,
            admission,
            journal: Mutex::new(journal),
            pool,
            db: Mutex::new(db),
            read,
            bus,
            tel,
            shutdown: Arc::new(AtomicBool::new(false)),
            conns: BoundedQueue::new(64, "serve.conns.depth"),
            spec_cache: RwLock::new(BTreeMap::new()),
            tenant_labels: Mutex::new(BTreeSet::new()),
            cfg,
        });
        shared.tel.gauge("serve.queue.depth", to_f64(shared.admission.queue_depth()));

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(spawn_named("serve-accept", move || accept_loop(&shared, &listener)));
        }
        for i in 0..shared.cfg.http_workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(spawn_named(&format!("serve-http-{i}"), move || http_worker(&shared)));
        }
        for i in 0..shared.cfg.job_workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(spawn_named(&format!("serve-job-{i}"), move || job_worker(&shared)));
        }
        Ok(Server { shared, threads, snapshots: Some(snapshots) })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates a graceful drain (idempotent; `POST /shutdown` does the
    /// same thing).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Blocks until every worker thread exits (i.e. until someone calls
    /// [`Server::shutdown`] or hits `POST /shutdown`), then flushes
    /// metrics and telemetry.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(s) = self.snapshots.take() {
            s.finish();
        }
        self.shared.tel.flush();
    }
}

/// Spawns a named worker thread.
fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        // aal-lint: allow(unwrap, reason = "thread spawn fails only on OS resource exhaustion; no recovery at this layer")
        .expect("spawn server thread")
}

/// One journal entry replayed at startup: `(id, spec, final state, error)`.
type ReplayedJob = (String, JobSpec, JobState, Option<String>);

/// Reads the journal back into replayed jobs in submission order. A torn
/// final line (kill -9 mid-append) is skipped; its job was never
/// acknowledged, so dropping it is correct.
fn replay_journal(path: &std::path::Path) -> Result<Vec<ReplayedJob>, String> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read journal: {e}")),
    };
    let mut order: Vec<String> = Vec::new();
    let mut jobs: BTreeMap<String, (JobSpec, JobState, Option<String>)> = BTreeMap::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("cannot read journal: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(entry) = serde_json::from_str::<JournalLine>(&line) else {
            continue; // torn tail from a crash mid-append
        };
        match entry.entry.as_str() {
            "submitted" => {
                if let Some(spec) = entry.spec {
                    order.push(entry.id.clone());
                    jobs.insert(entry.id, (spec, JobState::Queued, None));
                }
            }
            "done" => {
                if let Some(j) = jobs.get_mut(&entry.id) {
                    j.1 = JobState::Done;
                }
            }
            "failed" => {
                if let Some(j) = jobs.get_mut(&entry.id) {
                    j.1 = JobState::Failed;
                    j.2 = entry.error;
                }
            }
            _ => {}
        }
    }
    Ok(order
        .into_iter()
        .filter_map(|id| jobs.remove(&id).map(|(spec, state, err)| (id, spec, state, err)))
        .collect())
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if shared.conns.push(stream).is_err() {
                    return; // queue closed by shutdown
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // A persistent failure (e.g. EMFILE) would otherwise
                // busy-spin this thread at 100% CPU; back off briefly.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn http_worker(shared: &Arc<Shared>) {
    while let Some(stream) = shared.conns.pop() {
        serve_conn(shared, stream);
    }
}

fn serve_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(conn) = Conn::new(stream) else { return };
    let mut conn = conn.with_shutdown(Arc::clone(&shared.shutdown));
    loop {
        match conn.read_request() {
            Ok(ReadOutcome::Request(req)) => {
                shared.tel.count("serve.http.requests", 1);
                match handle(shared, &mut conn, &req) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => return,
                }
            }
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Ok(ReadOutcome::Bad(msg)) => {
                let _ = conn.respond_json(400, &json!({ "error": msg }));
                return;
            }
            Ok(ReadOutcome::TooLarge) => {
                let _ = conn.respond_json(413, &json!({ "error": "body too large" }));
                return;
            }
            Ok(ReadOutcome::Eof | ReadOutcome::Shutdown) | Err(_) => return,
        }
    }
}

/// Routes one request. Returns `Ok(true)` to keep the connection alive.
fn handle(shared: &Arc<Shared>, conn: &mut Conn, req: &Request) -> std::io::Result<bool> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(shared, conn, req).map(|()| true),
        ("GET", "/best") => get_best(shared, conn, req).map(|()| true),
        ("GET", "/healthz") => conn
            .respond_json(
                200,
                &json!({
                    "status": if shared.admission.draining() { "draining" } else { "ok" },
                    "queued": to_f64(shared.admission.queue_depth()),
                }),
            )
            .map(|()| true),
        ("POST", "/shutdown") => {
            conn.respond_json(202, &json!({ "status": "draining" }))?;
            shared.trigger_shutdown();
            Ok(false)
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            match rest.split('/').collect::<Vec<_>>().as_slice() {
                [id] => job_status(shared, conn, id).map(|()| true),
                [id, "result"] => job_result(shared, conn, id).map(|()| true),
                [id, "events"] => job_events(shared, conn, id),
                _ => conn.respond_json(404, &json!({ "error": "not found" })).map(|()| true),
            }
        }
        (_, "/jobs" | "/best" | "/healthz" | "/shutdown") => {
            conn.respond_json(405, &json!({ "error": "method not allowed" })).map(|()| true)
        }
        _ => conn.respond_json(404, &json!({ "error": "not found" })).map(|()| true),
    }
}

fn post_job(shared: &Arc<Shared>, conn: &mut Conn, req: &Request) -> std::io::Result<()> {
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|s| serde_json::from_str::<Value>(s).map_err(|e| format!("bad JSON: {e}")))
        .and_then(|v| JobSpec::from_value(&v));
    let spec = match parsed {
        Ok(s) => s,
        Err(e) => return conn.respond_json(400, &json!({ "error": e })),
    };
    let tenant = spec.tenant.clone();
    let label = shared.tenant_label(&tenant);
    if let Some(q) = shared.cfg.tenant_devices {
        shared.pool.set_tag_cap(&tenant, Some(q));
    }
    let outcome = shared.admission.submit(spec, |id, spec| {
        shared.journal_append(&JournalLine {
            entry: "submitted".to_string(),
            id: id.to_string(),
            spec: Some(spec.clone()),
            error: None,
        })
    });
    match outcome {
        Ok(id) => {
            shared.tel.count("serve.admitted", 1);
            shared.tel.count(&format!("serve.tenant.{label}.admitted"), 1);
            shared.tel.gauge("serve.queue.depth", to_f64(shared.admission.queue_depth()));
            conn.respond_json(202, &json!({ "id": id, "status": "queued" }))
        }
        Err(SubmitError::Rejected(reject)) => {
            shared.tel.count("serve.rejected", 1);
            shared.tel.count(&format!("serve.tenant.{label}.rejected"), 1);
            let (status, body) = reject.to_http(&tenant);
            conn.respond_json(status, &body)
        }
        Err(SubmitError::Persist(e)) => conn.respond_json(500, &json!({ "error": e })),
    }
}

fn get_best(shared: &Arc<Shared>, conn: &mut Conn, req: &Request) -> std::io::Result<()> {
    let start = Instant::now(); // latency histogram only; never a tuning input
    let Some(model) = req.query.get("model") else {
        return conn.respond_json(400, &json!({ "error": "query parameter `model` is required" }));
    };
    let task_idx: usize = match req.query.get("task").map(|s| s.parse()) {
        None => 0,
        Some(Ok(i)) => i,
        Some(Err(_)) => {
            return conn.respond_json(
                400,
                &json!({ "error": "query parameter `task` must be an integer" }),
            )
        }
    };
    let device = req.query.get("device").map_or("gtx1080ti", String::as_str);
    if let Err(e) = gpu_sim::GpuDevice::by_name(device) {
        return conn.respond_json(400, &json!({ "error": e }));
    }
    let key = format!("{model}/{task_idx}/{device}");
    let cached = read_or_recover(&shared.spec_cache).get(&key).cloned();
    let (spec, feature) = match cached {
        Some(hit) => hit,
        None => {
            let graph = match dnn_graph::models::by_name(model) {
                Ok(g) => g,
                Err(e) => return conn.respond_json(400, &json!({ "error": e })),
            };
            let tasks = extract_tasks(&graph);
            let Some(task) = tasks.get(task_idx) else {
                return conn.respond_json(
                    400,
                    &json!({ "error": format!("task index {task_idx} out of range (model has {})", tasks.len()) }),
                );
            };
            let space = space_for_task(task);
            let built = (TaskSpec::of(task, &space, device), TaskSpec::features(task));
            let mut cache = write_or_recover(&shared.spec_cache);
            // Every key component is validated above, so the key space is
            // already finite; the cap is a backstop, and dropping the
            // whole map on overflow is fine at this hit rate.
            if cache.len() >= SPEC_CACHE_CAP {
                cache.clear();
            }
            cache.insert(key, built.clone());
            built
        }
    };
    let result = if let Some(rec) = shared.read.lookup(&spec) {
        shared.tel.count("serve.read.hit", 1);
        Some(("exact", rec))
    } else if let Some(rec) = shared.read.nearest(&spec, &feature, 1).into_iter().next() {
        shared.tel.count("serve.read.nearest", 1);
        Some(("nearest", rec))
    } else {
        shared.tel.count("serve.read.miss", 1);
        None
    };
    let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
    shared.tel.observe("serve.read.us", elapsed_us);
    match result {
        Some((source, rec)) => conn
            .respond_json(200, &json!({ "source": source, "record": serde_json::to_value(&rec) })),
        None => conn.respond_json(404, &json!({ "error": "no record for this task" })),
    }
}

fn job_status(shared: &Arc<Shared>, conn: &mut Conn, id: &str) -> std::io::Result<()> {
    match shared.admission.status(id) {
        Some((body, _)) => conn.respond_json(200, &body),
        None => conn.respond_json(404, &json!({ "error": "unknown job" })),
    }
}

fn job_result(shared: &Arc<Shared>, conn: &mut Conn, id: &str) -> std::io::Result<()> {
    match shared.admission.status(id) {
        Some((_, JobState::Done)) => {
            match std::fs::read(shared.cfg.root.join("jobs").join(id).join("result.json")) {
                Ok(bytes) => conn.respond_bytes(200, "application/json", &bytes),
                Err(e) => {
                    conn.respond_json(500, &json!({ "error": format!("result unreadable: {e}") }))
                }
            }
        }
        Some((body, JobState::Failed)) => conn.respond_json(409, &body),
        Some((body, _)) => {
            let mut body = body;
            if let Value::Object(obj) = &mut body {
                obj.insert("error".into(), Value::String("not finished".into()));
            }
            conn.respond_json(409, &body)
        }
        None => conn.respond_json(404, &json!({ "error": "unknown job" })),
    }
}

/// Streams a job's progress events as chunked JSONL: first the replay
/// ring, then live bus events, until a terminal event or client
/// disconnect. Always closes the connection afterwards.
fn job_events(shared: &Arc<Shared>, conn: &mut Conn, id: &str) -> std::io::Result<bool> {
    // Subscribe before snapshotting the ring so nothing falls between;
    // overlap is deduped by seq.
    let sub = shared.bus.subscribe();
    let Some((ring, state)) = shared.admission.events_snapshot(id) else {
        return conn.respond_json(404, &json!({ "error": "unknown job" })).map(|()| true);
    };
    conn.start_chunked(200, "application/jsonl")?;
    let mut last_seq: i64 = -1;
    let mut terminal = false;
    for v in &ring {
        conn.write_chunk(format!("{v}\n").as_bytes())?;
        if let Some(s) = v["seq"].as_u64() {
            last_seq = cast_seq(s);
        }
        terminal = terminal || is_terminal(v);
    }
    // A job restored terminal from the journal has an empty ring: no
    // terminal event will ever arrive on the bus, so synthesize one and
    // finish instead of polling until server shutdown.
    if !terminal && matches!(state, JobState::Done | JobState::Failed) {
        let name = if state == JobState::Done { "job.done" } else { "job.failed" };
        let line = json!({ "event": name, "job": id, "replayed": true });
        conn.write_chunk(format!("{line}\n").as_bytes())?;
        terminal = true;
    }
    while !terminal && !shared.shutdown.load(Ordering::Acquire) {
        match sub.recv_timeout(IDLE_POLL) {
            telemetry::BusRecv::Event(Record::Event { fields, .. }) => {
                if fields["job"].as_str() != Some(id) {
                    continue;
                }
                let seq = fields["seq"].as_u64().map_or(-1, cast_seq);
                if seq <= last_seq {
                    continue;
                }
                conn.write_chunk(format!("{fields}\n").as_bytes())?;
                last_seq = seq;
                terminal = is_terminal(&fields);
            }
            telemetry::BusRecv::Event(_) | telemetry::BusRecv::Timeout => {}
            telemetry::BusRecv::Closed => break,
        }
    }
    conn.finish_chunked()?;
    Ok(false)
}

fn is_terminal(fields: &Value) -> bool {
    matches!(fields["event"].as_str(), Some("job.done" | "job.failed"))
}

#[allow(clippy::cast_possible_wrap)]
fn cast_seq(s: u64) -> i64 {
    s.min(i64::MAX as u64) as i64
}

#[allow(clippy::cast_precision_loss)]
fn to_f64(n: usize) -> f64 {
    n as f64
}

fn job_worker(shared: &Arc<Shared>) {
    while let Some((id, spec)) = shared.admission.next_job() {
        shared.tel.gauge("serve.queue.depth", to_f64(shared.admission.queue_depth()));
        shared.tel.gauge_add("serve.jobs.running", 1.0);
        emit_event(
            shared,
            &id,
            "job.start",
            json!({ "tenant": spec.tenant.clone(), "model": spec.model.clone() }),
        );
        let emit = |name: &str, fields: Value| emit_event(shared, &id, name, fields);
        let outcome = run_job(
            &shared.cfg.root.join("jobs"),
            &id,
            &spec,
            &shared.pool,
            shared.cfg.exec_workers.max(1),
            Some(&shared.db),
            &emit,
        );
        shared.tel.gauge_add("serve.jobs.running", -1.0);
        let terminal = match &outcome {
            Ok(_) => {
                shared.tel.count("serve.jobs.completed", 1);
                JournalLine { entry: "done".into(), id: id.clone(), spec: None, error: None }
            }
            Err(e) => {
                shared.tel.count("serve.jobs.failed", 1);
                JournalLine {
                    entry: "failed".into(),
                    id: id.clone(),
                    spec: None,
                    error: Some(e.clone()),
                }
            }
        };
        // Journal the terminal state before anything observes it; a crash
        // right here simply re-runs the job, which is idempotent (the run
        // dir is complete, so the rerun just re-reads its logs).
        if let Err(e) = shared.journal_append(&terminal) {
            shared.tel.count("serve.journal.errors", 1);
            if !shared.cfg.quiet {
                eprintln!("serve: journal append failed for {id}: {e}");
            }
        }
        match &outcome {
            Ok(_) => emit_event(shared, &id, "job.done", json!({})),
            Err(e) => emit_event(shared, &id, "job.failed", json!({ "error": e.clone() })),
        }
        shared.admission.complete(&id, outcome.map(|_| ()));
    }
}

/// Stamps `event`/`job`/`seq` into `fields`, records it in the job's
/// replay ring, and publishes it to the live bus + trace.
fn emit_event(shared: &Shared, id: &str, name: &str, mut fields: Value) {
    if let Value::Object(obj) = &mut fields {
        obj.insert("event".into(), Value::String(name.to_string()));
    }
    if let Some(stamped) = shared.admission.push_event(id, fields) {
        shared.tel.event(name, || stamped);
    }
}
