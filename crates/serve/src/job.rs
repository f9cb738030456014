//! Job specifications, states, and the crash-safe submission journal.
//!
//! The journal is the queue's durability: one JSONL line per lifecycle
//! transition (`submitted`, `done`, `failed`), appended and flushed
//! *before* the client's 202 acknowledgement. On restart the server
//! replays the journal in order; every acknowledged job whose terminal
//! line is missing is re-enqueued in its original submission order, so
//! job ids — assigned sequentially from the journal — are identical to
//! an uninterrupted twin's, and the per-job run directories resume
//! through the same replay machinery `tune --resume` uses.

use active_learning::Method;
use dnn_graph::models;
use gpu_sim::GpuDevice;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Ceiling on requested trials per task, bounding a hostile submission.
pub const MAX_TRIALS: usize = 100_000;

/// Longest accepted tenant name; tenants label metric names, so their
/// length (like their cardinality) must be bounded at admission.
pub const MAX_TENANT_LEN: usize = 64;

/// A validated tuning-job request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Submitting tenant; device quotas and fair share key off this.
    pub tenant: String,
    /// Model name (see [`models::by_name`]).
    pub model: String,
    /// Task index within the model (`None` = every task).
    pub task: Option<usize>,
    /// Method label (see [`Method::by_name`]).
    pub method: String,
    /// Trial budget per task.
    pub n_trial: usize,
    /// Master seed.
    pub seed: u64,
    /// Simulated device preset (see [`GpuDevice::by_name`]).
    pub device: String,
    /// Scheduling priority within the tenant (higher first).
    pub priority: u8,
}

impl JobSpec {
    /// Parses a submission body. The vendored serde has no field
    /// defaulting, so optional fields are filled in by hand here — which
    /// also yields better error messages than a derive would.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field; every name is
    /// validated eagerly so a bad job is rejected at submit, not at run.
    pub fn from_value(v: &Value) -> Result<JobSpec, String> {
        let obj = v.as_object().ok_or("job spec must be a JSON object")?;
        let str_field = |name: &str, default: &str| -> Result<String, String> {
            match obj.get(name) {
                None => Ok(default.to_string()),
                Some(Value::String(s)) if !s.is_empty() => Ok(s.clone()),
                Some(_) => Err(format!("field `{name}` must be a non-empty string")),
            }
        };
        let uint_field = |name: &str, default: u64| -> Result<u64, String> {
            match obj.get(name) {
                None => Ok(default),
                Some(v) => v.as_u64().ok_or_else(|| format!("field `{name}` must be an integer")),
            }
        };
        let spec = JobSpec {
            tenant: str_field("tenant", "default")?,
            model: str_field("model", "")?,
            task: match obj.get("task") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    usize::try_from(v.as_u64().ok_or("field `task` must be an integer")?)
                        .map_err(|_| "field `task` out of range")?,
                ),
            },
            method: str_field("method", "bted+bao")?,
            n_trial: usize::try_from(uint_field("n_trial", 64)?)
                .map_err(|_| "field `n_trial` out of range")?,
            seed: uint_field("seed", 0)?,
            device: str_field("device", "gtx1080ti")?,
            priority: u8::try_from(uint_field("priority", 0)?)
                .map_err(|_| "field `priority` must fit in u8")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Re-checks every resolvable name (also run on journal replay, so a
    /// journal written by a newer build degrades to a failed job instead
    /// of a panicking worker).
    ///
    /// # Errors
    ///
    /// Returns the first resolution failure.
    pub fn validate(&self) -> Result<(), String> {
        if self.model.is_empty() {
            return Err("field `model` is required".into());
        }
        if self.tenant.chars().any(|c| !c.is_alphanumeric() && c != '-' && c != '_') {
            return Err("field `tenant` must be alphanumeric (plus `-`/`_`)".into());
        }
        if self.tenant.len() > MAX_TENANT_LEN {
            return Err(format!("field `tenant` must be at most {MAX_TENANT_LEN} bytes"));
        }
        if self.n_trial == 0 || self.n_trial > MAX_TRIALS {
            return Err(format!("field `n_trial` must be in 1..={MAX_TRIALS}"));
        }
        let graph = models::by_name(&self.model)?;
        if let Some(i) = self.task {
            let n = dnn_graph::task::extract_tasks(&graph).len();
            if i >= n {
                return Err(format!("task index {i} out of range (model has {n})"));
            }
        }
        Method::by_name(&self.method)?;
        GpuDevice::by_name(&self.device)?;
        Ok(())
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and journaled, waiting for a worker.
    Queued,
    /// A worker is tuning it.
    Running,
    /// Finished; `result.json` is in its run directory.
    Done,
    /// Terminated with an error.
    Failed,
}

impl JobState {
    /// Wire name of the state.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// One journal line. `spec` rides on `submitted` entries; `error` on
/// `failed` ones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalLine {
    /// `submitted`, `done`, or `failed`.
    pub entry: String,
    /// Job id (`j1`, `j2`, ... in submission order).
    pub id: String,
    /// The job spec (submission entries only).
    pub spec: Option<JobSpec>,
    /// Failure diagnostic (failed entries only).
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn spec_parsing_fills_defaults_and_validates_names() {
        let spec = JobSpec::from_value(&json!({"model": "squeezenet", "task": 2})).unwrap();
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.method, "bted+bao");
        assert_eq!(spec.n_trial, 64);
        assert_eq!(spec.task, Some(2));

        assert!(JobSpec::from_value(&json!({})).unwrap_err().contains("model"));
        assert!(JobSpec::from_value(&json!({"model": "nope"})).unwrap_err().contains("nope"));
        assert!(JobSpec::from_value(&json!({"model": "squeezenet", "task": 99}))
            .unwrap_err()
            .contains("out of range"));
        assert!(JobSpec::from_value(&json!({"model": "squeezenet", "n_trial": 0})).is_err());
        assert!(JobSpec::from_value(&json!({"model": "squeezenet", "tenant": "a b"})).is_err());
        let long = "x".repeat(MAX_TENANT_LEN + 1);
        assert!(JobSpec::from_value(&json!({"model": "squeezenet", "tenant": long})).is_err());
    }

    #[test]
    fn journal_lines_round_trip() {
        let spec = JobSpec::from_value(&json!({"model": "squeezenet"})).unwrap();
        let line = JournalLine {
            entry: "submitted".into(),
            id: "j1".into(),
            spec: Some(spec.clone()),
            error: None,
        };
        let s = serde_json::to_string(&line).unwrap();
        let back: JournalLine = serde_json::from_str(&s).unwrap();
        assert_eq!(back.spec.unwrap(), spec);
    }
}
