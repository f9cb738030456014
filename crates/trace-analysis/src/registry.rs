//! The run registry: an append-only `index.jsonl` over run directories.
//!
//! Every producer of tuning results — `aaltune tune --out`, the `fig4` /
//! `table1` experiment binaries — appends one [`RunEntry`] per run, so ad-hoc
//! runs and paper experiments live in one queryable index. Entries carry the
//! manifest facts (model, arm, seed, budget, git-describe, wall time) plus
//! the headline metrics extracted from the run's logs, which makes listing
//! and filtering possible without re-reading every run directory.
//!
//! The index is *append-only*: re-running a configuration appends a fresh
//! entry, and [`Registry::load`] keeps the last entry per run id, so the
//! index doubles as a history while reads see current state.

use crate::stats::mean;
use active_learning::{RunDir, TuningLog};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};

/// Version of the registry entry format. Readers warn on newer entries
/// instead of silently misreading them; entries with no version read as 1.
///
/// v2 added the measurement-health fields (`faults`, `retries`,
/// `quarantined`, `resumed`), all optional so v1 entries still parse.
///
/// v3 added the liveness fields (`last_heartbeat_unix_ms`, `trials_done`),
/// read from the run's `metrics.snapshot.json` / `run.heartbeat` events, so
/// `aaltune runs` can tell a live run from a stale/crashed one. Also
/// optional; older entries simply render no status.
///
/// v4 added the tuning-database provenance (`db_path`, `db_policy`, from
/// the manifest) and consumption counters (`db_hits`, `db_warm_starts`,
/// from the trace), so `aaltune runs` shows which results were served or
/// seeded from a store. All optional; database-less runs leave them unset.
pub const REGISTRY_SCHEMA_VERSION: u32 = 4;

/// A run whose last heartbeat is older than this, and which never recorded
/// a wall time, renders as `stale` — its process is presumed crashed or
/// wedged. Heartbeats default to 1 Hz, so 30 s is ~30 missed beats.
pub const STALE_AFTER_MS: u64 = 30_000;

/// One run in the registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunEntry {
    /// Entry format version ([`REGISTRY_SCHEMA_VERSION`] at write time).
    pub schema_version: Option<u32>,
    /// Registry key. Later entries with the same id shadow earlier ones.
    pub run_id: String,
    /// Run directory (relative to the registry root when possible); `None`
    /// for experiment entries that only produced aggregate JSON.
    pub path: Option<String>,
    /// Producer: `"tune"`, `"fig4"`, `"table1"`, ...
    pub kind: String,
    /// Model name.
    pub model: String,
    /// Method / experiment arm label.
    pub method: String,
    /// Master seed.
    pub seed: u64,
    /// Trial budget per task.
    pub n_trial: u64,
    /// `git describe --always --dirty` at run time, when available.
    pub git_describe: Option<String>,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: Option<f64>,
    /// Final best GFLOPS per task.
    pub task_best_gflops: BTreeMap<String, f64>,
    /// End-to-end mean latency (ms), for runs that deployed a model.
    pub latency_mean_ms: Option<f64>,
    /// End-to-end latency variance, for runs that deployed a model.
    pub latency_variance: Option<f64>,
    /// Measurement faults observed (injected or real), from the trace.
    pub faults: Option<u64>,
    /// Transient-fault retries performed, from the trace.
    pub retries: Option<u64>,
    /// Configurations quarantined as persistently crashing, from the trace.
    pub quarantined: Option<u64>,
    /// Whether the run directory was continued by `tune --resume`.
    pub resumed: Option<bool>,
    /// Wall-clock ms (Unix epoch) of the run's last observed heartbeat —
    /// from `metrics.snapshot.json` or the trace's `run.heartbeat` events.
    pub last_heartbeat_unix_ms: Option<u64>,
    /// Live trials measured as of the last heartbeat.
    pub trials_done: Option<u64>,
    /// Tuning database the run consulted, from the manifest provenance.
    pub db_path: Option<String>,
    /// Database consultation policy (`"serve"` or `"warm"`).
    pub db_policy: Option<String>,
    /// Exact-hit lookups during the run, from the trace's `db.hit` counter.
    pub db_hits: Option<u64>,
    /// Tasks whose initial set was database-seeded (`db.warm_start`).
    pub db_warm_starts: Option<u64>,
}

/// Liveness classification of a registry entry, derived from its recorded
/// wall time and last heartbeat. See [`RunEntry::status_at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The run recorded a final wall time: it finished.
    Done,
    /// Heartbeats are recent — the run is executing right now.
    Live,
    /// The run never finished and heartbeats stopped this many ms ago:
    /// presumed crashed or wedged.
    Stale(u64),
    /// No wall time and no heartbeat data (pre-v3 entry or snapshotting
    /// disabled): liveness is unknown.
    Unknown,
}

impl std::fmt::Display for RunStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunStatus::Done => write!(f, "done"),
            RunStatus::Live => write!(f, "live"),
            RunStatus::Stale(age_ms) => write!(f, "stale {}s", age_ms / 1000),
            RunStatus::Unknown => write!(f, "-"),
        }
    }
}

impl RunEntry {
    /// The declared format version, defaulting pre-versioning entries to 1.
    #[must_use]
    pub fn schema_version(&self) -> u32 {
        self.schema_version.unwrap_or(1)
    }

    /// Mean of the per-task best GFLOPS (0.0 with no tasks).
    #[must_use]
    pub fn mean_best_gflops(&self) -> f64 {
        let xs: Vec<f64> = self.task_best_gflops.values().copied().collect();
        mean(&xs)
    }

    /// Classifies the run's liveness as of wall-clock `now_ms` (Unix epoch
    /// milliseconds): a recorded wall time means done; otherwise recent
    /// heartbeats mean live, old ones mean stale, none means unknown.
    #[must_use]
    pub fn status_at(&self, now_ms: u64) -> RunStatus {
        if self.wall_time_s.is_some() {
            return RunStatus::Done;
        }
        match self.last_heartbeat_unix_ms {
            None => RunStatus::Unknown,
            Some(hb) => {
                let age = now_ms.saturating_sub(hb);
                if age <= STALE_AFTER_MS {
                    RunStatus::Live
                } else {
                    RunStatus::Stale(age)
                }
            }
        }
    }

    /// Builds an entry from a `tune --out` run directory: manifest facts
    /// plus per-task best GFLOPS from the logs. `run_id` is the directory
    /// name.
    ///
    /// # Errors
    ///
    /// Returns a message when the manifest or a log cannot be read.
    pub fn from_run_dir(path: &Path) -> Result<RunEntry, String> {
        if !path.is_dir() {
            return Err(format!("{} is not a run directory", path.display()));
        }
        let dir =
            RunDir::create(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let manifest =
            dir.read_manifest().map_err(|e| format!("bad manifest in {}: {e}", path.display()))?;
        let logs: Vec<TuningLog> =
            dir.read_logs().map_err(|e| format!("bad logs in {}: {e}", path.display()))?;
        let run_id = path
            .file_name()
            .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned());
        // Health counters come from the trace when the run wrote one;
        // trace-less (or unreadable-trace) runs leave them unset.
        let trace = crate::trace::TraceData::load(&dir.trace_path()).ok().flatten();
        let health = trace.as_ref().map(|t| telemetry::TraceSummary::from_records(&t.records));
        let counter =
            |name: &str| health.as_ref().map(|s| s.counters.get(name).copied().unwrap_or(0));
        // Liveness: prefer the (atomically rewritten, hence freshest)
        // metrics snapshot; fall back to the trace's heartbeat events.
        let snapshot: Option<telemetry::MetricsSnapshot> =
            std::fs::read_to_string(dir.snapshot_path())
                .ok()
                .and_then(|s| serde_json::from_str(&s).ok());
        let trace_heartbeat = trace
            .as_ref()
            .and_then(|t| t.records.iter().rev().find_map(telemetry::HeartbeatEvent::from_record));
        let (last_heartbeat_unix_ms, trials_done) = match (&snapshot, &trace_heartbeat) {
            (Some(s), hb) => (
                Some(s.unix_ms.max(hb.as_ref().map_or(0, |h| h.unix_ms))),
                Some(s.counter(telemetry::stream::TRIALS_COUNTER)),
            ),
            (None, Some(h)) => (Some(h.unix_ms), Some(h.trials)),
            (None, None) => (None, None),
        };
        Ok(RunEntry {
            schema_version: Some(REGISTRY_SCHEMA_VERSION),
            run_id,
            path: Some(path.display().to_string()),
            kind: "tune".to_string(),
            model: manifest.model.clone(),
            method: manifest.method.clone(),
            seed: manifest.seed,
            n_trial: manifest.options.n_trial as u64,
            git_describe: manifest.git_describe.clone(),
            wall_time_s: manifest.wall_time_s,
            task_best_gflops: logs.iter().map(|l| (l.task_name.clone(), l.best_gflops())).collect(),
            latency_mean_ms: None,
            latency_variance: None,
            faults: counter("measure.fault"),
            retries: counter("measure.retry"),
            quarantined: counter("measure.quarantine"),
            resumed: manifest.resumed,
            last_heartbeat_unix_ms,
            trials_done,
            db_path: manifest.db.as_ref().map(|d| d.path.clone()),
            db_policy: manifest.db.as_ref().map(|d| d.policy.clone()),
            db_hits: counter("db.hit"),
            db_warm_starts: counter("db.warm_start"),
        })
    }
}

/// Handle on one registry index file.
#[derive(Debug, Clone)]
pub struct Registry {
    index: PathBuf,
}

/// Result of reading an index: current entries plus hygiene counters.
#[derive(Debug, Default)]
pub struct RegistryIndex {
    /// Last entry per run id, in first-seen order.
    pub entries: Vec<RunEntry>,
    /// Lines that failed to parse (corrupt or truncated appends).
    pub malformed_lines: u64,
    /// Entries declaring a schema version newer than supported.
    pub newer_schema_entries: u64,
}

impl Registry {
    /// The registry rooted at `root`: its index is `<root>/index.jsonl`.
    #[must_use]
    pub fn at(root: impl Into<PathBuf>) -> Registry {
        Registry { index: root.into().join("index.jsonl") }
    }

    /// Path of the index file.
    #[must_use]
    pub fn index_path(&self) -> &Path {
        &self.index
    }

    /// Appends one entry (creating the root directory and index on first
    /// use).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn append(&self, entry: &RunEntry) -> std::io::Result<()> {
        if let Some(parent) = self.index.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&self.index)?;
        // aal-lint: allow(unwrap, reason = "RunEntry is a plain data struct; serialization cannot fail")
        writeln!(f, "{}", serde_json::to_string(entry).expect("entry serializes"))
    }

    /// Reads the index. Corrupt lines are counted, not fatal; duplicate run
    /// ids keep the last (newest) entry. A missing index reads as empty.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the index not existing.
    pub fn load(&self) -> std::io::Result<RegistryIndex> {
        let f = match std::fs::File::open(&self.index) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RegistryIndex::default())
            }
            Err(e) => return Err(e),
        };
        let mut out = RegistryIndex::default();
        let mut by_id: BTreeMap<String, usize> = BTreeMap::new();
        for line in std::io::BufReader::new(f).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<RunEntry>(&line) {
                Ok(e) => {
                    if e.schema_version() > REGISTRY_SCHEMA_VERSION {
                        out.newer_schema_entries += 1;
                    }
                    match by_id.get(&e.run_id) {
                        Some(&i) => out.entries[i] = e,
                        None => {
                            by_id.insert(e.run_id.clone(), out.entries.len());
                            out.entries.push(e);
                        }
                    }
                }
                Err(_) => out.malformed_lines += 1,
            }
        }
        Ok(out)
    }
}

impl RegistryIndex {
    /// Entries whose model/method/kind match the given filters (substring
    /// match on model so `--model mobilenet` finds `mobilenet_v1`).
    #[must_use]
    pub fn filtered(
        &self,
        model: Option<&str>,
        method: Option<&str>,
        kind: Option<&str>,
    ) -> Vec<&RunEntry> {
        self.entries
            .iter()
            .filter(|e| model.is_none_or(|m| e.model.contains(m)))
            .filter(|e| method.is_none_or(|m| e.method == m))
            .filter(|e| kind.is_none_or(|k| e.kind == k))
            .collect()
    }

    /// Renders entries as an aligned text table, classifying liveness
    /// against the current wall clock.
    #[must_use]
    pub fn render(&self, entries: &[&RunEntry]) -> String {
        self.render_at(entries, telemetry::registry::unix_ms_now())
    }

    /// [`RegistryIndex::render`] with an explicit "now" (Unix epoch ms), so
    /// liveness classification is testable.
    #[must_use]
    pub fn render_at(&self, entries: &[&RunEntry], now_ms: u64) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<40} {:<7} {:<16} {:<9} {:>5} {:>7} {:>6} {:>10} {:>12} {:>10} {:>14} {:>12} {:>10}",
            "run",
            "kind",
            "model",
            "method",
            "seed",
            "n-trial",
            "tasks",
            "GFLOPS",
            "latency(ms)",
            "wall(s)",
            "health",
            "status",
            "db"
        );
        for e in entries {
            // "f3 r1 q2 R" = 3 faults, 1 retry, 2 quarantined, resumed;
            // "-" for pre-health (v1) entries with no trace data.
            let health = match (e.faults, e.retries, e.quarantined) {
                (None, None, None) => "-".to_string(),
                (f, r, q) => format!(
                    "f{} r{} q{}{}",
                    f.unwrap_or(0),
                    r.unwrap_or(0),
                    q.unwrap_or(0),
                    if e.resumed == Some(true) { " R" } else { "" }
                ),
            };
            // "serve h3 w2" = serve policy, 3 exact hits, 2 warm-started
            // tasks; "-" for runs that attached no tuning database.
            let db = match &e.db_policy {
                None => "-".to_string(),
                Some(policy) => format!(
                    "{policy} h{} w{}",
                    e.db_hits.unwrap_or(0),
                    e.db_warm_starts.unwrap_or(0)
                ),
            };
            let _ = writeln!(
                s,
                "{:<40} {:<7} {:<16} {:<9} {:>5} {:>7} {:>6} {:>10.1} {:>12} {:>10} {:>14} {:>12} {:>10}",
                e.run_id,
                e.kind,
                e.model,
                e.method,
                e.seed,
                e.n_trial,
                e.task_best_gflops.len(),
                e.mean_best_gflops(),
                e.latency_mean_ms.map_or_else(|| "-".to_string(), |l| format!("{l:.4}")),
                e.wall_time_s.map_or_else(|| "-".to_string(), |w| format!("{w:.1}")),
                health,
                e.status_at(now_ms).to_string(),
                db,
            );
        }
        if self.malformed_lines > 0 {
            let _ = writeln!(s, "({} corrupt index line(s) skipped)", self.malformed_lines);
        }
        if self.newer_schema_entries > 0 {
            let _ = writeln!(
                s,
                "warning: {} entr(ies) declare a registry schema newer than {} — \
                 fields may be misread",
                self.newer_schema_entries, REGISTRY_SCHEMA_VERSION
            );
        }
        s
    }
}

/// `git describe --always --dirty` of the working tree at `dir`, when git
/// and a repository are available. Best-effort: failures yield `None`.
#[must_use]
pub fn git_describe(dir: &Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, seed: u64) -> RunEntry {
        RunEntry {
            schema_version: Some(REGISTRY_SCHEMA_VERSION),
            run_id: id.to_string(),
            path: None,
            kind: "tune".to_string(),
            model: "mobilenet_v1".to_string(),
            method: "bted+bao".to_string(),
            seed,
            n_trial: 64,
            git_describe: Some("abc123".to_string()),
            wall_time_s: Some(2.0),
            task_best_gflops: [("m.T1".to_string(), 100.0), ("m.T2".to_string(), 200.0)]
                .into_iter()
                .collect(),
            latency_mean_ms: None,
            latency_variance: None,
            faults: None,
            retries: None,
            quarantined: None,
            resumed: None,
            last_heartbeat_unix_ms: None,
            trials_done: None,
            db_path: None,
            db_policy: None,
            db_hits: None,
            db_warm_starts: None,
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("aaltune-registry-{tag}-{}", std::process::id()))
    }

    #[test]
    fn append_then_load_round_trips() {
        let root = temp_root("rt");
        let _ = std::fs::remove_dir_all(&root);
        let reg = Registry::at(&root);
        reg.append(&entry("run-a", 0)).unwrap();
        reg.append(&entry("run-b", 1)).unwrap();
        let idx = reg.load().unwrap();
        assert_eq!(idx.entries.len(), 2);
        assert_eq!(idx.entries[0].run_id, "run-a");
        assert!((idx.entries[0].mean_best_gflops() - 150.0).abs() < 1e-9);
        assert_eq!(idx.malformed_lines, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_run_ids_keep_the_newest() {
        let root = temp_root("dup");
        let _ = std::fs::remove_dir_all(&root);
        let reg = Registry::at(&root);
        reg.append(&entry("run-a", 0)).unwrap();
        reg.append(&entry("run-a", 9)).unwrap();
        let idx = reg.load().unwrap();
        assert_eq!(idx.entries.len(), 1);
        assert_eq!(idx.entries[0].seed, 9, "later append must shadow the earlier one");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_lines_and_missing_index_are_tolerated() {
        let root = temp_root("corrupt");
        let _ = std::fs::remove_dir_all(&root);
        let reg = Registry::at(&root);
        assert!(reg.load().unwrap().entries.is_empty(), "missing index reads as empty");
        reg.append(&entry("ok", 0)).unwrap();
        std::fs::write(
            reg.index_path(),
            format!("{}\nnot json\n", serde_json::to_string(&entry("ok", 0)).unwrap()),
        )
        .unwrap();
        let idx = reg.load().unwrap();
        assert_eq!(idx.entries.len(), 1);
        assert_eq!(idx.malformed_lines, 1);
        assert!(idx.render(&idx.filtered(None, None, None)).contains("corrupt"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn filters_match_model_method_kind() {
        let root = temp_root("filter");
        let _ = std::fs::remove_dir_all(&root);
        let reg = Registry::at(&root);
        reg.append(&entry("a", 0)).unwrap();
        let mut other = entry("b", 0);
        other.model = "resnet18".to_string();
        other.method = "autotvm".to_string();
        reg.append(&other).unwrap();
        let idx = reg.load().unwrap();
        assert_eq!(idx.filtered(Some("mobilenet"), None, None).len(), 1);
        assert_eq!(idx.filtered(None, Some("autotvm"), None).len(), 1);
        assert_eq!(idx.filtered(None, None, Some("tune")).len(), 2);
        assert_eq!(idx.filtered(Some("vgg"), None, None).len(), 0);
        let table = idx.render(&idx.filtered(None, None, None));
        assert!(table.contains("resnet18"), "{table}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn status_classifies_done_live_stale_unknown() {
        let now: u64 = 1_700_000_000_000;
        let done = entry("done", 0);
        assert_eq!(done.status_at(now), RunStatus::Done);

        let mut live = entry("live", 0);
        live.wall_time_s = None;
        live.last_heartbeat_unix_ms = Some(now - 2_000);
        assert_eq!(live.status_at(now), RunStatus::Live);

        let mut stale = entry("stale", 0);
        stale.wall_time_s = None;
        stale.last_heartbeat_unix_ms = Some(now - STALE_AFTER_MS - 90_000);
        assert_eq!(stale.status_at(now), RunStatus::Stale(STALE_AFTER_MS + 90_000));
        assert_eq!(stale.status_at(now).to_string(), "stale 120s");

        let mut unknown = entry("unknown", 0);
        unknown.wall_time_s = None;
        assert_eq!(unknown.status_at(now), RunStatus::Unknown);

        // A finished run stays "done" even with an ancient heartbeat.
        let mut finished = entry("finished", 0);
        finished.last_heartbeat_unix_ms = Some(0);
        assert_eq!(finished.status_at(now), RunStatus::Done);

        let idx =
            RegistryIndex { entries: vec![done, live, stale, unknown], ..RegistryIndex::default() };
        let table = idx.render_at(&idx.entries.iter().collect::<Vec<_>>(), now);
        assert!(table.contains("status"), "{table}");
        assert!(table.contains("live"), "{table}");
        assert!(table.contains("stale 120s"), "{table}");
    }

    #[test]
    fn entry_from_run_dir_reads_heartbeat_from_trace_and_snapshot() {
        use active_learning::{RunManifest, TuneOptions, MANIFEST_SCHEMA_VERSION};
        let root = temp_root("hb").join("hb-run");
        let _ = std::fs::remove_dir_all(root.parent().unwrap());
        let dir = RunDir::create(&root).unwrap();
        dir.write_manifest(&RunManifest {
            model: "squeezenet_v1.1".into(),
            method: "autotvm".into(),
            tasks: vec!["sq.T1".into()],
            seed: 4,
            options: TuneOptions::smoke(),
            schema_version: Some(MANIFEST_SCHEMA_VERSION),
            git_describe: None,
            wall_time_s: None, // still running (or crashed)
            device: None,
            fault: None,
            resumed: None,
            workers: None,
            devices: None,
            db: None,
        })
        .unwrap();
        // No heartbeat data at all: liveness unknown.
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.last_heartbeat_unix_ms, None);
        assert_eq!(e.status_at(1_700_000_000_000), RunStatus::Unknown);

        // Heartbeat events in the trace surface as liveness.
        let hb = telemetry::Record::Event {
            name: "run.heartbeat".into(),
            span: None,
            t_us: 10,
            fields: serde_json::json!({
                "unix_ms": 1_700_000_000_000u64, "trials": 12u64,
                "tasks_done": 1u64, "task": "sq.T1",
            }),
        };
        let trace = [
            serde_json::to_string(&telemetry::Record::Schema { version: 2 }).unwrap(),
            serde_json::to_string(&hb).unwrap(),
        ]
        .join("\n");
        std::fs::write(dir.trace_path(), trace).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.last_heartbeat_unix_ms, Some(1_700_000_000_000));
        assert_eq!(e.trials_done, Some(12));
        assert_eq!(e.status_at(1_700_000_005_000), RunStatus::Live);

        // A fresher metrics snapshot wins over the trace heartbeat.
        let reg = telemetry::MetricsRegistry::new();
        reg.inc(telemetry::stream::TRIALS_COUNTER, 40);
        let mut snap = reg.snapshot();
        snap.unix_ms = 1_700_000_060_000;
        std::fs::write(dir.snapshot_path(), serde_json::to_string(&snap).unwrap()).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.last_heartbeat_unix_ms, Some(1_700_000_060_000));
        assert_eq!(e.trials_done, Some(40));
        std::fs::remove_dir_all(root.parent().unwrap()).unwrap();
    }

    #[test]
    fn entry_from_run_dir_extracts_headline_metrics() {
        use active_learning::{RunManifest, TrialRecord, TuneOptions, MANIFEST_SCHEMA_VERSION};
        let root = temp_root("fromdir").join("sq-autotvm-seed0");
        let _ = std::fs::remove_dir_all(root.parent().unwrap());
        let dir = RunDir::create(&root).unwrap();
        dir.write_manifest(&RunManifest {
            model: "squeezenet_v1.1".into(),
            method: "autotvm".into(),
            tasks: vec!["sq.T1".into()],
            seed: 4,
            options: TuneOptions::smoke(),
            schema_version: Some(MANIFEST_SCHEMA_VERSION),
            git_describe: None,
            wall_time_s: Some(0.5),
            device: None,
            fault: None,
            resumed: Some(true),
            workers: None,
            devices: None,
            db: None,
        })
        .unwrap();
        let mut log = TuningLog::new("sq.T1", "autotvm");
        log.records.push(TrialRecord { config_index: 1, gflops: 80.0, latency_s: 1e-4 });
        dir.write_log(&log).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.run_id, "sq-autotvm-seed0");
        assert_eq!(e.model, "squeezenet_v1.1");
        assert_eq!(e.task_best_gflops["sq.T1"], 80.0);
        assert_eq!(e.n_trial, TuneOptions::smoke().n_trial as u64);
        assert_eq!(e.faults, None, "trace-less run leaves health unset");
        assert_eq!(e.resumed, Some(true));

        // With a trace present, the health counters come from it.
        let trace = [
            serde_json::to_string(&telemetry::Record::Schema { version: 2 }).unwrap(),
            serde_json::to_string(&telemetry::Record::Counter {
                name: "measure.fault".into(),
                value: 3,
            })
            .unwrap(),
            serde_json::to_string(&telemetry::Record::Counter {
                name: "measure.retry".into(),
                value: 2,
            })
            .unwrap(),
        ]
        .join("\n");
        std::fs::write(dir.trace_path(), trace).unwrap();
        let e = RunEntry::from_run_dir(&root).unwrap();
        assert_eq!(e.faults, Some(3));
        assert_eq!(e.retries, Some(2));
        assert_eq!(e.quarantined, Some(0));
        let idx = RegistryIndex { entries: vec![e], ..RegistryIndex::default() };
        let table = idx.render(&idx.entries.iter().collect::<Vec<_>>());
        assert!(table.contains("f3 r2 q0 R"), "{table}");
        std::fs::remove_dir_all(root.parent().unwrap()).unwrap();
    }
}
