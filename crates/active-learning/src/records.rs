//! Tuning records — the JSONL log format (AutoTVM keeps an equivalent log
//! for transfer learning and post-hoc analysis) and the self-describing
//! per-run results directory.

use crate::options::TuneOptions;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufRead, Seek, Write};
use std::path::{Path, PathBuf};

/// One measured configuration.
///
/// A record holds only what was measured. Its trial number is its
/// position in the [`TuningLog`] and its best-so-far GFLOPS is the running
/// maximum of the log up to it; the JSONL lines carry both (see
/// [`TuningLog::write_jsonl`]), but a log in memory does not, because
/// callers keep the logs of every task of a model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Flat configuration index in the task's space.
    pub config_index: u64,
    /// Measured GFLOPS (0.0 for a failed launch).
    pub gflops: f64,
    /// Measured kernel latency in seconds.
    pub latency_s: f64,
}

/// One line of a JSONL log: a [`TrialRecord`] with the trial number and
/// best-so-far GFLOPS that its position in the log implies.
#[derive(Serialize, Deserialize)]
struct TrialLine {
    /// 0-based measurement counter within the task.
    trial: usize,
    config_index: u64,
    gflops: f64,
    latency_s: f64,
    /// Best GFLOPS seen up to and including this trial.
    best_gflops: f64,
}

/// The position reached in a log: the trial number of the next record
/// and the best GFLOPS before it. It numbers the lines a log writes, and
/// checks the lines a log reads.
#[derive(Debug, Clone, Copy, Default)]
struct LineCursor {
    trial: usize,
    best_gflops: f64,
}

impl LineCursor {
    /// The cursor after every record of `records`.
    fn after(records: &[TrialRecord]) -> Self {
        let mut cursor = LineCursor::default();
        for rec in records {
            cursor.line(rec);
        }
        cursor
    }

    /// The line of `rec` as the next record of the log. A failed launch
    /// (0.0 GFLOPS) never becomes the best, so the best starts at 0.0.
    fn line(&mut self, rec: &TrialRecord) -> TrialLine {
        if rec.gflops > self.best_gflops {
            self.best_gflops = rec.gflops;
        }
        let line = TrialLine {
            trial: self.trial,
            config_index: rec.config_index,
            gflops: rec.gflops,
            latency_s: rec.latency_s,
            best_gflops: self.best_gflops,
        };
        self.trial += 1;
        line
    }

    /// Parses `text` as the next line of the log. A line whose trial
    /// number or best GFLOPS disagrees with its position is malformed.
    fn read(&mut self, text: &str) -> Result<TrialRecord, serde_json::Error> {
        let line: TrialLine = serde_json::from_str(text)?;
        let rec = TrialRecord {
            config_index: line.config_index,
            gflops: line.gflops,
            latency_s: line.latency_s,
        };
        let expected = self.line(&rec);
        if line.trial != expected.trial
            || line.best_gflops.to_bits() != expected.best_gflops.to_bits()
        {
            return Err(serde::Error::msg(format!(
                "trial {} (best {}) logged at trial {} (best {})",
                line.trial, line.best_gflops, expected.trial, expected.best_gflops
            ))
            .into());
        }
        Ok(rec)
    }
}

/// The full log of one task-tuning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TuningLog {
    /// Task name.
    pub task_name: String,
    /// Method label (e.g. `"autotvm"`, `"bted+bao"`).
    pub method: String,
    /// All trials in measurement order.
    pub records: Vec<TrialRecord>,
}

impl TuningLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new(task_name: impl Into<String>, method: impl Into<String>) -> Self {
        TuningLog { task_name: task_name.into(), method: method.into(), records: Vec::new() }
    }

    /// The best-so-far GFLOPS curve (the y-axis of the paper's Fig. 4).
    #[must_use]
    pub fn convergence_curve(&self) -> Vec<f64> {
        let mut cursor = LineCursor::default();
        self.records.iter().map(|r| cursor.line(r).best_gflops).collect()
    }

    /// Number of measurements (the y-axis of Fig. 5(a)).
    #[must_use]
    pub fn num_measured(&self) -> usize {
        self.records.len()
    }

    /// Final best GFLOPS (0.0 for an empty log).
    #[must_use]
    pub fn best_gflops(&self) -> f64 {
        LineCursor::after(&self.records).best_gflops
    }

    /// Writes the log as JSON lines: one header line, then one line per
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let header = serde_json::json!({
            "task_name": self.task_name,
            "method": self.method,
        });
        writeln!(w, "{header}")?;
        let mut cursor = LineCursor::default();
        for r in &self.records {
            // aal-lint: allow(unwrap, reason = "TrialLine is a plain data struct; serialization cannot fail")
            writeln!(w, "{}", serde_json::to_string(&cursor.line(r)).expect("record serializes"))?;
        }
        Ok(())
    }

    /// Recovers a log from raw bytes that may end mid-line (the writing
    /// process was killed mid-append). Every complete, parsable,
    /// newline-terminated line is kept; the first incomplete or
    /// malformed line and everything after it is dropped.
    /// `valid_bytes` is the byte offset of the recovered prefix, so the
    /// caller can truncate the file there and append seamlessly.
    ///
    /// # Errors
    ///
    /// Returns [`ReadLogError::Empty`] when no complete header line
    /// exists, and a parse error when the header is malformed — with no
    /// header nothing can be recovered.
    pub fn recover_jsonl(data: &[u8]) -> Result<RecoveredLog, ReadLogError> {
        let mut offset = 0usize;
        let mut log: Option<TuningLog> = None;
        let mut cursor = LineCursor::default();
        let mut dropped_tail = false;
        while offset < data.len() {
            let Some(nl) = data[offset..].iter().position(|&b| b == b'\n') else {
                dropped_tail = true; // incomplete final line
                break;
            };
            let line_end = offset + nl + 1;
            let line = &data[offset..line_end];
            let Ok(text) = std::str::from_utf8(line) else {
                dropped_tail = true;
                break;
            };
            if text.trim().is_empty() {
                offset = line_end;
                continue;
            }
            match &mut log {
                None => {
                    let header: serde_json::Value = serde_json::from_str(text)?;
                    log = Some(TuningLog::new(
                        header["task_name"].as_str().unwrap_or_default(),
                        header["method"].as_str().unwrap_or_default(),
                    ));
                }
                Some(log) => match cursor.read(text) {
                    Ok(rec) => log.records.push(rec),
                    Err(_) => {
                        dropped_tail = true;
                        break;
                    }
                },
            }
            offset = line_end;
        }
        let log = log.ok_or(ReadLogError::Empty)?;
        Ok(RecoveredLog { log, valid_bytes: offset as u64, dropped_tail })
    }

    /// Reads a log written by [`TuningLog::write_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or malformed lines.
    pub fn read_jsonl<R: BufRead>(r: R) -> Result<Self, ReadLogError> {
        let mut lines = r.lines();
        let header_line = lines.next().ok_or(ReadLogError::Empty)??;
        let header: serde_json::Value = serde_json::from_str(&header_line)?;
        let mut log = TuningLog::new(
            header["task_name"].as_str().unwrap_or_default(),
            header["method"].as_str().unwrap_or_default(),
        );
        let mut cursor = LineCursor::default();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            log.records.push(cursor.read(&line)?);
        }
        Ok(log)
    }
}

/// A log recovered from a possibly crash-truncated file.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredLog {
    /// The parsed prefix of the log.
    pub log: TuningLog,
    /// Length in bytes of the recovered prefix (truncate the file here
    /// before appending).
    pub valid_bytes: u64,
    /// True when an incomplete or malformed tail was dropped.
    pub dropped_tail: bool,
}

/// An open, crash-safe trial-log writer: the header is written on
/// creation and every [`append`](LogWriter::append) flushes one complete
/// line to the OS before returning, so a killed process loses at most
/// the line it was mid-writing — which [`TuningLog::recover_jsonl`]
/// drops cleanly.
#[derive(Debug)]
pub struct LogWriter {
    file: std::fs::File,
    path: PathBuf,
    cursor: LineCursor,
}

impl LogWriter {
    /// Appends one trial record as a JSON line and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append(&mut self, rec: &TrialRecord) -> std::io::Result<()> {
        // aal-lint: allow(unwrap, reason = "TrialLine is a plain data struct; serialization cannot fail")
        let line = serde_json::to_string(&self.cursor.line(rec)).expect("record serializes");
        writeln!(self.file, "{line}")
    }

    /// Records appended so far, those of a recovered log included.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.cursor.trial
    }

    /// Best GFLOPS over every record appended so far, those of a
    /// recovered log included (0.0 before any valid one).
    #[must_use]
    pub fn best_gflops(&self) -> f64 {
        self.cursor.best_gflops
    }

    /// Where this log lives.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Version of the `checkpoint.json` format.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// Crash-recovery state written alongside the trial logs.
///
/// The checkpoint is advisory: correctness of `tune --resume` rests on
/// the trial logs themselves (the loop state — step counters, BAO
/// radius, RNG cursors — is a deterministic function of the replayed
/// trials). The checkpoint carries what the logs cannot: which tasks
/// already finished, and the measurement layer's quarantine set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_SCHEMA_VERSION`] at write time).
    pub schema_version: Option<u32>,
    /// Tasks whose logs are complete (their loops exited normally).
    pub completed_tasks: Vec<String>,
    /// The task that was mid-tuning when this checkpoint was written.
    pub in_flight: Option<String>,
    /// Trials logged so far for the in-flight task.
    pub trials_logged: Option<u64>,
    /// Crash-quarantined configurations, restored into the robust
    /// measurer on resume.
    pub quarantine: Option<gpu_sim::Quarantine>,
}

/// Version of the run-directory layout and manifest format.
///
/// Consumers (`aaltune runs` / `compare` / `report`) warn when a manifest
/// declares a newer version instead of silently misreading it. Manifests
/// with no `schema_version` field predate versioning and read as version 1.
///
/// Version 2 adds the crash-safety fields (`device`, `fault`, `resumed`)
/// and the convention that the manifest is written at run *start* (and
/// rewritten with `wall_time_s` at the end), so a killed run leaves
/// enough behind for `tune --resume`.
///
/// Version 3 adds `db` — the tuning-database provenance (path and policy)
/// when the run consulted one, so resume reattaches the same database and
/// analysis can tell warm runs from cold ones.
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// How a run used the persistent tuning database, recorded in the
/// manifest so the run is reproducible and `tune --resume` reattaches
/// the same store with the same policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbProvenance {
    /// Database root directory, as given on the command line.
    pub path: String,
    /// Consultation policy label (`"serve"` or `"warm"`).
    pub policy: String,
}

/// A persisted per-task warm-start seed, pinned at task start so a
/// resumed run replays the identical initial behaviour even after the
/// tuning database has moved on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmSeed {
    /// `"serve"` — an exact database hit whose best config is re-verified
    /// with a single measurement — or `"warm"` — configurations prepended
    /// to the tuner's initial set.
    pub mode: String,
    /// The seed configurations, best first.
    pub configs: Vec<schedule::Config>,
}

/// What produced a run — serialized as `manifest.json` so every results
/// directory is self-describing and reproducible.
///
/// The provenance fields (`schema_version`, `git_describe`, `wall_time_s`)
/// are optional so manifests written before they existed still parse.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Model name (or a task label when tuning a single task).
    pub model: String,
    /// Method label (e.g. `"bted+bao"`).
    pub method: String,
    /// Names of the tasks tuned in this run.
    pub tasks: Vec<String>,
    /// Master seed of the run.
    pub seed: u64,
    /// The full option set, so the run can be replayed exactly.
    pub options: TuneOptions,
    /// Manifest format version ([`MANIFEST_SCHEMA_VERSION`] at write time).
    pub schema_version: Option<u32>,
    /// `git describe --always --dirty` of the tree that produced the run.
    pub git_describe: Option<String>,
    /// Wall-clock duration of the whole run in seconds.
    pub wall_time_s: Option<f64>,
    /// Simulated device name, needed to rebuild the measurer on resume.
    pub device: Option<String>,
    /// Fault-injection settings of the run (`None` = no injection); a
    /// resumed run replays the identical fault stream from these.
    pub fault: Option<gpu_sim::FaultConfig>,
    /// Set when this run directory was continued by `tune --resume`.
    pub resumed: Option<bool>,
    /// Measurement worker threads used (`None` = serial / pre-executor).
    /// Advisory: worker count never changes results, only wall time.
    pub workers: Option<usize>,
    /// Simulated device slots in the executor's pool.
    pub devices: Option<usize>,
    /// Tuning-database provenance (`None` = the run used no database).
    pub db: Option<DbProvenance>,
}

impl RunManifest {
    /// The declared format version, defaulting pre-versioning manifests
    /// to 1.
    #[must_use]
    pub fn schema_version(&self) -> u32 {
        self.schema_version.unwrap_or(1)
    }

    /// A warning when this manifest was written by a newer format than this
    /// crate understands, `None` otherwise.
    #[must_use]
    pub fn schema_warning(&self) -> Option<String> {
        let v = self.schema_version();
        (v > MANIFEST_SCHEMA_VERSION).then(|| {
            format!(
                "manifest declares schema version {v}, newer than the supported \
                 {MANIFEST_SCHEMA_VERSION} — fields may be misread"
            )
        })
    }
}

/// A per-run results directory:
///
/// ```text
/// <root>/
///   manifest.json      what produced the run (RunManifest)
///   logs/<task>.jsonl  one TuningLog per tuned task
///   trace.jsonl        telemetry trace (written by the caller)
/// ```
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Creates `root` (and its `logs/` subdirectory), reusing it if present.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("logs"))?;
        Ok(RunDir { root })
    }

    /// The directory itself.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Default location for the run's telemetry trace.
    #[must_use]
    pub fn trace_path(&self) -> PathBuf {
        self.root.join("trace.jsonl")
    }

    /// Location of the live JSON metrics snapshot (`metrics.snapshot.json`),
    /// rewritten atomically by the snapshot writer while the run executes.
    #[must_use]
    pub fn snapshot_path(&self) -> PathBuf {
        self.root.join(telemetry::SNAPSHOT_FILE)
    }

    /// Location of the live Prometheus text snapshot (`metrics.prom`).
    #[must_use]
    pub fn prom_path(&self) -> PathBuf {
        self.root.join(telemetry::PROM_FILE)
    }

    /// Location of the model-introspection capture (`model_quality.jsonl`),
    /// written once after the run when capture is on.
    #[must_use]
    pub fn model_quality_path(&self) -> PathBuf {
        self.root.join(crate::model_quality::MODEL_QUALITY_FILE)
    }

    /// Writes `manifest.json`.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_manifest(&self, manifest: &RunManifest) -> std::io::Result<()> {
        // aal-lint: allow(unwrap, reason = "RunManifest is a plain data struct; serialization cannot fail")
        let body = serde_json::to_string_pretty(manifest).expect("manifest serializes");
        // Temp + fsync + rename: the registry and `aaltune top` read the
        // manifest of live runs, so a torn write must never be visible.
        let tmp = self.root.join("manifest.json.tmp");
        {
            use std::io::Write as _;
            // aal-lint: allow(raw-artifact-write, reason = "temp side of temp+fsync+rename")
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.root.join("manifest.json"))
    }

    /// Where the log of `task_name` lives (task names may contain
    /// path-hostile characters; the file name is a flattened form).
    #[must_use]
    pub fn log_path(&self, task_name: &str) -> PathBuf {
        let stem: String = task_name
            .chars()
            .map(|c| if c.is_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
            .collect();
        self.root.join("logs").join(format!("{stem}.jsonl"))
    }

    /// Writes one task's log as `logs/<task>.jsonl`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn write_log(&self, log: &TuningLog) -> std::io::Result<PathBuf> {
        let path = self.log_path(&log.task_name);
        // aal-lint: allow(raw-artifact-write, reason = "whole-log rewrite of a regenerable view; recovery trims torn tails via valid-prefix parse")
        let f = std::fs::File::create(&path)?;
        log.write_jsonl(std::io::BufWriter::new(f))?;
        Ok(path)
    }

    /// Opens a fresh crash-safe log for `task_name`: truncates any
    /// existing file, writes the header line, and returns a
    /// [`LogWriter`] for per-trial appends.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn create_log(&self, task_name: &str, method: &str) -> std::io::Result<LogWriter> {
        let path = self.log_path(task_name);
        // aal-lint: allow(raw-artifact-write, reason = "opens the crash-safe append-only log; recovery trims torn tails")
        let mut file = std::fs::File::create(&path)?;
        let header = serde_json::json!({ "task_name": task_name, "method": method });
        writeln!(file, "{header}")?;
        Ok(LogWriter { file, path, cursor: LineCursor::default() })
    }

    /// Recovers the crash-truncated log of `task_name` for resumption:
    /// parses the valid prefix, truncates the file to exactly those
    /// bytes (dropping a half-written final line), and reopens it for
    /// appending. Returns `None` when no log file exists yet.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a file so damaged that not even the
    /// header survives is a [`ReadLogError::Empty`]/parse error.
    pub fn recover_log(
        &self,
        task_name: &str,
    ) -> Result<Option<(RecoveredLog, LogWriter)>, ReadLogError> {
        let path = self.log_path(task_name);
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let recovered = TuningLog::recover_jsonl(&data)?;
        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
        file.set_len(recovered.valid_bytes)?;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))?;
        let cursor = LineCursor::after(&recovered.log.records);
        Ok(Some((recovered, LogWriter { file, path, cursor })))
    }

    /// Where the crash-recovery checkpoint lives.
    #[must_use]
    pub fn checkpoint_path(&self) -> PathBuf {
        self.root.join("checkpoint.json")
    }

    /// Writes `checkpoint.json` atomically: write a temp file, fsync it,
    /// rename over the old one. The fsync matters — without it the rename
    /// can land before the data on a power cut, publishing a truncated
    /// checkpoint. A crash at any step leaves either the previous
    /// checkpoint or the complete new one, never a torn in-place write.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_checkpoint(&self, checkpoint: &Checkpoint) -> std::io::Result<()> {
        // aal-lint: allow(unwrap, reason = "checkpoint struct is plain data; serialization cannot fail")
        let body = serde_json::to_string_pretty(checkpoint).expect("checkpoint serializes");
        let tmp = self.root.join("checkpoint.json.tmp");
        {
            // aal-lint: allow(raw-artifact-write, reason = "temp side of temp+fsync+rename")
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.checkpoint_path())
    }

    /// Reads back `checkpoint.json`; `None` when the run never wrote one.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or a parse error for a malformed checkpoint.
    pub fn read_checkpoint(&self) -> Result<Option<Checkpoint>, ReadLogError> {
        let body = match std::fs::read_to_string(self.checkpoint_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(serde_json::from_str(&body)?))
    }

    /// Where the persisted warm-start seed of `task_name` lives.
    ///
    /// Warm-start configurations are derived from the tuning database at
    /// task *start* and persisted here before the first trial, so a
    /// resumed run replays the identical initial set even after the
    /// database has moved on. Re-deriving on resume would diverge.
    #[must_use]
    pub fn warm_start_path(&self, task_name: &str) -> PathBuf {
        let log = self.log_path(task_name);
        // aal-lint: allow(unwrap, reason = "the glob matched *.jsonl, so a file stem always exists")
        let stem = log.file_stem().expect("log paths have stems").to_string_lossy();
        self.root.join("warm").join(format!("{stem}.json"))
    }

    /// Persists the warm-start seed for `task_name` atomically
    /// (write-temp, fsync, rename — same contract as the checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write_warm_start(&self, task_name: &str, seed: &WarmSeed) -> std::io::Result<()> {
        let path = self.warm_start_path(task_name);
        // aal-lint: allow(unwrap, reason = "warm paths are <run>/warm/<file>, so a parent always exists")
        std::fs::create_dir_all(path.parent().expect("warm path has a parent"))?;
        let tmp = path.with_extension("json.tmp");
        // aal-lint: allow(unwrap, reason = "seed record is plain data; serialization cannot fail")
        let body = serde_json::to_string(seed).expect("seed serializes");
        {
            // aal-lint: allow(raw-artifact-write, reason = "temp side of temp+fsync+rename")
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads back the persisted warm-start seed; `None` when the task
    /// started cold.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or a parse error for a damaged file.
    pub fn read_warm_start(&self, task_name: &str) -> Result<Option<WarmSeed>, ReadLogError> {
        let body = match std::fs::read_to_string(self.warm_start_path(task_name)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(Some(serde_json::from_str(&body)?))
    }

    /// Reads back `manifest.json`.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or a parse error for a malformed manifest.
    pub fn read_manifest(&self) -> Result<RunManifest, ReadLogError> {
        let body = std::fs::read_to_string(self.root.join("manifest.json"))?;
        Ok(serde_json::from_str(&body)?)
    }

    /// Reads every task log under `logs/`, sorted by file name so the order
    /// is stable across platforms.
    ///
    /// # Errors
    ///
    /// Returns I/O failures or the first malformed log encountered.
    pub fn read_logs(&self) -> Result<Vec<TuningLog>, ReadLogError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(self.root.join("logs"))?
            .map(|e| e.map(|e| e.path()))
            .collect::<std::io::Result<_>>()?;
        paths.sort();
        paths
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .map(|p| {
                let f = std::fs::File::open(&p)?;
                TuningLog::read_jsonl(std::io::BufReader::new(f))
            })
            .collect()
    }
}

/// Errors from [`TuningLog::read_jsonl`].
#[derive(Debug)]
pub enum ReadLogError {
    /// The stream contained no header line.
    Empty,
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A line was not valid JSON for its position.
    Parse(serde_json::Error),
}

impl fmt::Display for ReadLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadLogError::Empty => write!(f, "log stream is empty"),
            ReadLogError::Io(e) => write!(f, "i/o error reading log: {e}"),
            ReadLogError::Parse(e) => write!(f, "malformed log line: {e}"),
        }
    }
}

impl std::error::Error for ReadLogError {}

impl From<std::io::Error> for ReadLogError {
    fn from(e: std::io::Error) -> Self {
        ReadLogError::Io(e)
    }
}

impl From<serde_json::Error> for ReadLogError {
    fn from(e: serde_json::Error) -> Self {
        ReadLogError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TuningLog {
        let mut log = TuningLog::new("m.T1", "bted+bao");
        for i in 0..5 {
            let g = (i * 100) as f64;
            log.records.push(TrialRecord {
                config_index: i as u64 * 17,
                gflops: g,
                latency_s: 1e-3 / (g + 1.0),
            });
        }
        log
    }

    #[test]
    fn jsonl_round_trip() {
        let log = sample_log();
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let back = TuningLog::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn lines_carry_the_trial_number_and_running_best() {
        let mut log = TuningLog::new("m.T1", "autotvm");
        for (i, g) in [0.0, 50.0, 20.0].into_iter().enumerate() {
            log.records.push(TrialRecord { config_index: i as u64, gflops: g, latency_s: 0.5 });
        }
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "{\"task_name\":\"m.T1\",\"method\":\"autotvm\"}\n\
             {\"trial\":0,\"config_index\":0,\"gflops\":0.0,\"latency_s\":0.5,\"best_gflops\":0.0}\n\
             {\"trial\":1,\"config_index\":1,\"gflops\":50.0,\"latency_s\":0.5,\"best_gflops\":50.0}\n\
             {\"trial\":2,\"config_index\":2,\"gflops\":20.0,\"latency_s\":0.5,\"best_gflops\":50.0}\n"
        );
        assert_eq!(std::mem::size_of::<TrialRecord>(), 24);
    }

    #[test]
    fn line_out_of_place_is_malformed() {
        let header = "{\"task_name\":\"t\",\"method\":\"m\"}\n";
        let first = "{\"trial\":0,\"config_index\":3,\"gflops\":9.0,\"latency_s\":1.0,\"best_gflops\":9.0}\n";
        for bad in [
            "{\"trial\":2,\"config_index\":4,\"gflops\":1.0,\"latency_s\":1.0,\"best_gflops\":9.0}\n",
            "{\"trial\":1,\"config_index\":4,\"gflops\":1.0,\"latency_s\":1.0,\"best_gflops\":1.0}\n",
        ] {
            let data = format!("{header}{first}{bad}");
            assert!(matches!(TuningLog::read_jsonl(data.as_bytes()), Err(ReadLogError::Parse(_))));
            let r = TuningLog::recover_jsonl(data.as_bytes()).unwrap();
            assert_eq!(r.log.records.len(), 1);
            assert_eq!(r.valid_bytes, (header.len() + first.len()) as u64);
            assert!(r.dropped_tail);
        }
    }

    #[test]
    fn convergence_curve_matches_best() {
        let log = sample_log();
        assert_eq!(log.convergence_curve(), vec![0.0, 100.0, 200.0, 300.0, 400.0]);
        assert_eq!(log.best_gflops(), 400.0);
        assert_eq!(log.num_measured(), 5);
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert!(matches!(TuningLog::read_jsonl(&b""[..]), Err(ReadLogError::Empty)));
    }

    #[test]
    fn run_dir_round_trips_manifest_and_logs() {
        let root = std::env::temp_dir().join(format!("aaltune-rundir-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let manifest = RunManifest {
            model: "mobilenet_v1".into(),
            method: "bted+bao".into(),
            tasks: vec!["m.T1".into()],
            seed: 7,
            options: TuneOptions::smoke(),
            schema_version: Some(MANIFEST_SCHEMA_VERSION),
            git_describe: Some("v0-test".into()),
            wall_time_s: Some(1.25),
            device: Some("gtx1080ti".into()),
            fault: Some(gpu_sim::FaultConfig { rate: 0.1, seed: 3 }),
            resumed: None,
            workers: Some(4),
            devices: Some(2),
            db: Some(DbProvenance { path: "db".into(), policy: "warm".into() }),
        };
        dir.write_manifest(&manifest).unwrap();
        assert_eq!(dir.read_manifest().unwrap(), manifest);
        assert!(manifest.schema_warning().is_none());

        let log = sample_log();
        let path = dir.write_log(&log).unwrap();
        assert!(path.starts_with(dir.path().join("logs")));
        let back =
            TuningLog::read_jsonl(std::io::BufReader::new(std::fs::File::open(&path).unwrap()))
                .unwrap();
        assert_eq!(back, log);
        assert_eq!(dir.trace_path(), root.join("trace.jsonl"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pre_versioned_manifest_parses_and_future_versions_warn() {
        // A manifest written before the provenance fields existed.
        let legacy = serde_json::json!({
            "model": "alexnet",
            "method": "autotvm",
            "tasks": ["a.T1"],
            "seed": 3u64,
            "options": TuneOptions::smoke(),
        });
        let m: RunManifest = serde_json::from_str(&legacy.to_string()).unwrap();
        assert_eq!(m.schema_version(), 1);
        assert!(m.schema_warning().is_none());
        assert_eq!(m.git_describe, None);

        let future = RunManifest {
            schema_version: Some(MANIFEST_SCHEMA_VERSION + 1),
            git_describe: None,
            wall_time_s: None,
            ..m
        };
        assert!(future.schema_warning().unwrap().contains("newer"));
    }

    #[test]
    fn recover_drops_incomplete_and_malformed_tails() {
        let log = sample_log();
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();

        // Intact bytes recover fully.
        let whole = TuningLog::recover_jsonl(&buf).unwrap();
        assert_eq!(whole.log, log);
        assert_eq!(whole.valid_bytes, buf.len() as u64);
        assert!(!whole.dropped_tail);

        // Kill mid-line: the partial final line is dropped, the rest kept.
        let cut = buf.len() - 7;
        let r = TuningLog::recover_jsonl(&buf[..cut]).unwrap();
        assert_eq!(r.log.records.len(), log.records.len() - 1);
        assert!(r.dropped_tail);
        assert!(r.valid_bytes < cut as u64);
        assert_eq!(
            &buf[..r.valid_bytes as usize],
            {
                let mut prefix = Vec::new();
                let mut shorter = log.clone();
                shorter.records.pop();
                shorter.write_jsonl(&mut prefix).unwrap();
                prefix
            }
            .as_slice()
        );

        // A malformed middle line also truncates from there.
        let mut garbled = buf.clone();
        let second_line = buf.iter().position(|&b| b == b'\n').unwrap() + 1;
        garbled[second_line] = b'@';
        let g = TuningLog::recover_jsonl(&garbled).unwrap();
        assert_eq!(g.log.records.len(), 0);
        assert!(g.dropped_tail);

        // No complete header at all: nothing recoverable.
        assert!(matches!(TuningLog::recover_jsonl(b"{\"task_na"), Err(ReadLogError::Empty)));
    }

    #[test]
    fn crash_safe_writer_recovers_and_resumes_byte_identically() {
        let root = std::env::temp_dir().join(format!("aaltune-logwriter-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let log = sample_log();

        // Reference: the log written in one piece.
        let mut reference = Vec::new();
        log.write_jsonl(&mut reference).unwrap();

        // Crash-safe path: append 3 records, simulate a kill by writing
        // a partial line, then recover and append the rest.
        let mut w = dir.create_log(&log.task_name, &log.method).unwrap();
        for rec in &log.records[..3] {
            w.append(rec).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.log_path(&log.task_name))
                .unwrap();
            write!(f, "{{\"trial\":3,\"conf").unwrap();
        }
        drop(w);
        let (recovered, mut w) = dir.recover_log(&log.task_name).unwrap().unwrap();
        assert_eq!(recovered.log.records, log.records[..3]);
        assert!(recovered.dropped_tail);
        for rec in &log.records[3..] {
            w.append(rec).unwrap();
        }
        drop(w);
        let final_bytes = std::fs::read(dir.log_path(&log.task_name)).unwrap();
        assert_eq!(final_bytes, reference, "resumed log must be byte-identical");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_round_trips_and_is_optional() {
        let root = std::env::temp_dir().join(format!("aaltune-ckpt-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        assert!(dir.read_checkpoint().unwrap().is_none());
        let mut quarantine = gpu_sim::Quarantine::new();
        quarantine.insert("m.T1", 42);
        let ckpt = Checkpoint {
            schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
            completed_tasks: vec!["m.T0".into()],
            in_flight: Some("m.T1".into()),
            trials_logged: Some(17),
            quarantine: Some(quarantine),
        };
        dir.write_checkpoint(&ckpt).unwrap();
        assert_eq!(dir.read_checkpoint().unwrap().unwrap(), ckpt);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_detected_not_silently_ignored() {
        let root = std::env::temp_dir().join(format!("aaltune-ckpt-trunc-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let ckpt = Checkpoint {
            schema_version: Some(CHECKPOINT_SCHEMA_VERSION),
            completed_tasks: vec!["m.T0".into(), "m.T1".into()],
            in_flight: Some("m.T2".into()),
            trials_logged: Some(9),
            quarantine: None,
        };
        dir.write_checkpoint(&ckpt).unwrap();

        // Simulate torn bytes reaching disk (the failure the atomic
        // write-fsync-rename path exists to prevent): the reader must
        // report a parse error, never mistake the damage for "no
        // checkpoint" and silently restart from scratch.
        let path = dir.checkpoint_path();
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        assert!(
            matches!(dir.read_checkpoint(), Err(ReadLogError::Parse(_))),
            "truncation must surface as a parse error"
        );

        // An interrupted atomic write (temp file present, rename never
        // happened) leaves the previous checkpoint fully intact.
        std::fs::write(&path, &body).unwrap();
        std::fs::write(root.join("checkpoint.json.tmp"), b"{\"partial").unwrap();
        assert_eq!(dir.read_checkpoint().unwrap().unwrap(), ckpt);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn warm_start_seed_round_trips_and_cold_tasks_read_none() {
        let root = std::env::temp_dir().join(format!("aaltune-warm-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        assert!(dir.read_warm_start("m.T1").unwrap().is_none(), "cold task has no seed");
        let seed = WarmSeed {
            mode: "warm".into(),
            configs: vec![
                schedule::Config { index: 7, choices: vec![1, 2] },
                schedule::Config { index: 3, choices: vec![0, 1] },
            ],
        };
        dir.write_warm_start("m.T1", &seed).unwrap();
        assert_eq!(dir.read_warm_start("m.T1").unwrap().unwrap(), seed);
        assert!(dir.warm_start_path("m.T1").starts_with(root.join("warm")));
        // Damage must be loud, not an implicit cold start.
        std::fs::write(dir.warm_start_path("m.T1"), b"[{\"index\":").unwrap();
        assert!(matches!(dir.read_warm_start("m.T1"), Err(ReadLogError::Parse(_))));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn read_logs_returns_all_tasks_sorted() {
        let root = std::env::temp_dir().join(format!("aaltune-readlogs-{}", std::process::id()));
        let dir = RunDir::create(&root).unwrap();
        let mut a = sample_log();
        a.task_name = "m.T1".into();
        let mut b = sample_log();
        b.task_name = "m.T2".into();
        dir.write_log(&b).unwrap();
        dir.write_log(&a).unwrap();
        let logs = dir.read_logs().unwrap();
        assert_eq!(logs.len(), 2);
        assert_eq!(logs[0].task_name, "m.T1");
        assert_eq!(logs[1].task_name, "m.T2");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn malformed_line_is_an_error() {
        let data = b"{\"task_name\":\"t\",\"method\":\"m\"}\nnot json\n";
        assert!(matches!(TuningLog::read_jsonl(&data[..]), Err(ReadLogError::Parse(_))));
    }
}
