//! Transfer learning across tasks (reference \[17\] in the paper).
//!
//! AutoTVM accelerates tuning by seeding a new task with knowledge from
//! previously tuned, similar tasks. We implement the configuration-transfer
//! variant: take the top configurations from a finished log, map their knob
//! choices into the new task's space (clipping each choice to the new
//! knob's cardinality), and prepend them to the initial measurement set.

use crate::records::TuningLog;
use schedule::{Config, ConfigSpace};

/// Counter bumped once per stale prior record skipped during transfer.
pub const STALE_RECORD_COUNTER: &str = "transfer.stale_record";

/// What happened while mapping a prior log into a new space. A transfer
/// that silently drops records is indistinguishable from one that found
/// nothing worth transferring; these counts make the difference visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Successful trials considered (gflops > 0).
    pub considered: usize,
    /// Records whose `config_index` no longer decodes in the prior space —
    /// the log predates a template change. Skipped, counted, reported.
    pub stale: usize,
    /// Configurations that collided with an earlier (better) one after
    /// clipping into the target space.
    pub deduplicated: usize,
    /// Configurations actually transferred.
    pub transferred: usize,
}

/// Maps the top-`k` configurations of `prior` (tuned on `prior_space`) into
/// `space`, best first, returning the configs plus a [`TransferStats`]
/// accounting for every record considered. Stale records (a `config_index`
/// out of range for `prior_space` — the template changed since the log was
/// written) are skipped, counted in the stats, and bumped on the
/// [`STALE_RECORD_COUNTER`]; configurations that collide after clipping
/// are deduplicated.
///
/// Returns no configs when the spaces have different knob counts —
/// transfer only makes sense between tasks of the same template family.
#[must_use]
pub fn warm_start_configs(
    space: &ConfigSpace,
    prior_space: &ConfigSpace,
    prior: &TuningLog,
    k: usize,
) -> (Vec<Config>, TransferStats) {
    let mut stats = TransferStats::default();
    if space.num_knobs() != prior_space.num_knobs() {
        return (Vec::new(), stats);
    }
    let mut ranked: Vec<_> = prior.records.iter().filter(|r| r.gflops > 0.0).collect();
    ranked.sort_by(|a, b| b.gflops.total_cmp(&a.gflops));

    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(k);
    for rec in ranked {
        if out.len() >= k {
            break;
        }
        stats.considered += 1;
        let Ok(prior_cfg) = prior_space.config(rec.config_index) else {
            stats.stale += 1;
            continue;
        };
        // aal-lint: allow(unwrap, reason = "knob-count equality is checked just above")
        let cfg = space.map_choices(&prior_cfg.choices).expect("knob counts checked equal above");
        if seen.insert(cfg.index) {
            out.push(cfg);
        } else {
            stats.deduplicated += 1;
        }
    }
    stats.transferred = out.len();
    if stats.stale > 0 {
        telemetry::global().count(STALE_RECORD_COUNTER, stats.stale as u64);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::TrialRecord;
    use schedule::Knob;

    fn space(extent: usize) -> ConfigSpace {
        ConfigSpace::new(
            format!("s{extent}"),
            vec![Knob::split("a", extent, 2), Knob::choice("u", vec![0, 1])],
        )
    }

    fn log_with(prior_space: &ConfigSpace, entries: &[(u64, f64)]) -> TuningLog {
        let mut log = TuningLog::new(prior_space.task_name.clone(), "autotvm");
        for &(idx, g) in entries {
            log.records.push(TrialRecord { config_index: idx, gflops: g, latency_s: 1e-3 });
        }
        log
    }

    #[test]
    fn transfers_best_first_and_dedupes() {
        let prior_space = space(64);
        let new_space = space(64);
        let log = log_with(&prior_space, &[(0, 10.0), (5, 99.0), (3, 50.0)]);
        let (got, stats) = warm_start_configs(&new_space, &prior_space, &log, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].index, 5);
        assert_eq!(got[1].index, 3);
        assert_eq!(stats.transferred, 2);
        assert_eq!(stats.stale, 0);
    }

    #[test]
    fn clips_choices_into_smaller_space() {
        let prior_space = space(1024); // 11 split candidates
        let new_space = space(16); // 5 split candidates
        let last = prior_space.len() - 1;
        let log = log_with(&prior_space, &[(last, 42.0)]);
        let (got, stats) = warm_start_configs(&new_space, &prior_space, &log, 1);
        assert_eq!(got.len(), 1);
        for (&c, k) in got[0].choices.iter().zip(new_space.knobs()) {
            assert!(c < k.cardinality());
        }
        assert_eq!(stats, TransferStats { considered: 1, transferred: 1, ..Default::default() });
    }

    #[test]
    fn mismatched_templates_transfer_nothing() {
        let prior_space = space(64);
        let other = ConfigSpace::new("other", vec![Knob::choice("x", vec![0, 1])]);
        let log = log_with(&prior_space, &[(1, 5.0)]);
        assert!(warm_start_configs(&other, &prior_space, &log, 4).0.is_empty());
    }

    #[test]
    fn failed_trials_are_ignored() {
        let prior_space = space(64);
        let log = log_with(&prior_space, &[(1, 0.0), (2, 0.0)]);
        let (got, stats) = warm_start_configs(&prior_space, &prior_space, &log, 4);
        assert!(got.is_empty());
        assert_eq!(stats.considered, 0, "failed trials never count as considered");
    }

    #[test]
    fn stale_records_are_skipped_counted_and_reported() {
        let prior_space = space(64);
        let beyond = prior_space.len() + 3;
        // Two stale entries outrank a valid one: both must be surfaced in
        // the stats (and on the telemetry counter), not silently eaten.
        let log = log_with(&prior_space, &[(beyond, 90.0), (beyond + 1, 80.0), (2, 50.0)]);
        let sink = telemetry::VecSink::new();
        telemetry::set_global(telemetry::Telemetry::new(sink.clone()));
        let (got, stats) = warm_start_configs(&prior_space, &prior_space, &log, 4);
        telemetry::global().flush();
        telemetry::set_global(telemetry::Telemetry::disabled());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].index, 2);
        assert_eq!(stats.stale, 2);
        assert_eq!(stats.considered, 3);
        assert_eq!(stats.transferred, 1);
        let counted: u64 = sink
            .records()
            .iter()
            .filter_map(|r| match r {
                telemetry::Record::Counter { name, value, .. } if name == STALE_RECORD_COUNTER => {
                    Some(*value)
                }
                _ => None,
            })
            .sum();
        assert_eq!(counted, 2, "stale skips must reach the trace");
    }
}
