//! Structured tracing, metrics, and tuning-trace artifacts for the aaltune
//! stack.
//!
//! The paper's claims are all about *where time and measurements go* — how
//! many configurations each arm measures, how fast each arm converges, how
//! BAO's scope radius adapts. This crate makes those quantities observable:
//!
//! * **Spans** — named regions of wall time with parent links, so the trace
//!   reconstructs the per-phase breakdown (init-set selection, surrogate
//!   fits, measurement batches).
//! * **Events** — point-in-time facts with typed JSON payloads (one per
//!   trial, one per BAO radius adaptation, …).
//! * **Metrics** — monotonic counters (SA proposals accepted/rejected) and
//!   mergeable log-scale [`Histogram`]s (measurement latency, fit time),
//!   snapshotted into the trace at [`Telemetry::flush`].
//!
//! Everything flows into a [`Sink`]: [`FileSink`] writes JSONL trace
//! artifacts, [`VecSink`] captures records for tests, [`ReporterSink`]
//! renders progress for humans, and [`TeeSink`] composes them.
//!
//! # Handles and the global registry
//!
//! A [`Telemetry`] handle is a cheap [`Arc`] clone. The tuning loop spans
//! three crates and many free functions, so instead of threading a handle
//! through every signature the process installs one with [`set_global`] and
//! instrumented code grabs it with [`global`]. The default global handle is
//! **disabled**: every probe short-circuits on an atomic load before any
//! payload is built, which keeps the un-instrumented hot path at zero cost.
//!
//! ```
//! use telemetry::{global, set_global, Telemetry, VecSink};
//!
//! let sink = VecSink::new();
//! set_global(Telemetry::new(sink.clone()));
//! {
//!     let tel = global();
//!     let _span = tel.span("bted");
//!     tel.event("trial", || telemetry::json!({"trial": 1u64, "gflops": 88.5}));
//!     tel.count("sa.accepted", 1);
//!     tel.observe("measure.us", 1250.0);
//! }
//! global().flush();
//! assert!(sink.len() >= 4); // span start/end, event, counter, histogram
//! # set_global(Telemetry::disabled());
//! ```

pub mod bus;
pub mod events;
pub mod export;
pub mod metrics;
pub mod record;
pub mod registry;
pub mod sink;
pub mod stream;
pub mod summary;
pub mod sync;

pub use bus::{BusRecv, EventBus, EventSub};
pub use events::{HeartbeatEvent, RadiusEvent, SaDoneEvent, TrialEvent, TuneStartEvent};
pub use export::{parse_prometheus, to_prometheus};
pub use metrics::Histogram;
pub use record::Record;
pub use registry::{MetricsRegistry, MetricsSnapshot, SNAPSHOT_SCHEMA_VERSION};
/// Re-exported so instrumentation sites can build event payloads without
/// depending on `serde_json` directly.
pub use serde_json::{json, Value};
pub use sink::{FileSink, NoopSink, ReporterSink, Sink, TeeSink, VecSink};
pub use stream::{SnapshotWriter, TraceFollower, PROM_FILE, SNAPSHOT_FILE};
pub use summary::TraceSummary;
pub use sync::{lock_or_recover, read_or_recover, write_or_recover};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Name of the progress-report event rendered by [`ReporterSink`].
///
/// Report events carry a `{"msg": "..."}` payload and replace ad-hoc
/// `println!` progress output; domain events use their own names and stay
/// machine-oriented.
pub const REPORT_EVENT: &str = "report";

/// Version of the trace wire format this crate writes.
///
/// Every enabled [`Telemetry`] handle emits a [`Record::Schema`] record
/// first, so consumers (`trace`, `compare`, `report`) can warn on traces
/// written by a newer crate instead of silently misparsing them. Bump when
/// a record variant or event payload changes incompatibly.
///
/// Version 2 adds the measurement-health events (`measure.fault`,
/// `measure.retry`, `measure.quarantine`, `tune.resume`) and the
/// multi-segment trace convention: a resumed run appends to the existing
/// trace file, and a mid-stream [`Record::Schema`] marker starts a new
/// process segment whose counter/histogram snapshots sum/merge with the
/// previous segment's finals.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

struct Inner {
    sink: Box<dyn Sink>,
    start: Instant,
    next_span: AtomicU64,
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Optional live mirror: when attached, `count`/`observe` also publish
    /// into it immediately, and `gauge`/`set_label` become live-only probes.
    live: Option<Arc<MetricsRegistry>>,
}

thread_local! {
    /// Innermost-last stack of `(handle identity, span id)` for the current
    /// thread. Handle identity (the `Arc` pointer) keys the stack so two
    /// live handles on one thread cannot adopt each other's spans.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A handle for emitting telemetry. Cloning is cheap (one `Arc` clone); a
/// [`Telemetry::disabled`] handle makes every probe a no-op that
/// short-circuits before payloads are built.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Telemetry {
    /// Creates a handle that emits every record to `sink`. Timestamps are
    /// microseconds since this call.
    pub fn new(sink: impl Sink + 'static) -> Self {
        Self::build(Box::new(sink), None)
    }

    /// [`Telemetry::new`] with a live [`MetricsRegistry`] attached: every
    /// `count`/`observe` also publishes into the registry immediately, and
    /// [`Telemetry::gauge`]/[`Telemetry::set_label`] become live probes.
    /// The registry never alters what reaches the sink.
    pub fn with_registry(sink: impl Sink + 'static, registry: Arc<MetricsRegistry>) -> Self {
        Self::build(Box::new(sink), Some(registry))
    }

    fn build(sink: Box<dyn Sink>, live: Option<Arc<MetricsRegistry>>) -> Self {
        let tel = Telemetry {
            inner: Some(Arc::new(Inner {
                sink,
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                live,
            })),
        };
        if let Some(inner) = &tel.inner {
            inner.sink.record(&Record::Schema { version: TRACE_SCHEMA_VERSION });
        }
        tel
    }

    /// The attached live registry, if any. Observers (snapshot writer,
    /// dashboards) read it; publishers go through the probe methods.
    #[must_use]
    pub fn live_registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.inner.as_ref().and_then(|i| i.live.clone())
    }

    /// True when a live registry is attached — lets hot paths skip building
    /// gauge names that would go nowhere.
    #[must_use]
    pub fn has_live_registry(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.live.is_some())
    }

    /// Creates a handle whose probes all short-circuit. This is the true
    /// zero-overhead path — payload closures are never invoked.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// True when records actually go somewhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &Inner) -> u64 {
        u64::try_from(inner.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn identity(inner: &Arc<Inner>) -> usize {
        Arc::as_ptr(inner) as usize
    }

    /// Opens a span named `name`. The span closes (emitting
    /// [`Record::SpanEnd`] with its duration) when the returned guard drops.
    /// Spans opened while another of this handle's spans is live on the same
    /// thread record it as their parent.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else { return SpanGuard { live: None } };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let me = Self::identity(inner);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.iter().rev().find(|&&(h, _)| h == me).map(|&(_, id)| id);
            s.push((me, id));
            parent
        });
        inner.sink.record(&Record::SpanStart {
            id,
            parent,
            name: name.to_string(),
            t_us: Self::now_us(inner),
        });
        SpanGuard {
            live: Some(LiveSpan {
                inner: Arc::clone(inner),
                id,
                name: name.to_string(),
                opened: Instant::now(),
            }),
        }
    }

    /// Emits an event named `name`. `fields` is only invoked when the
    /// handle is enabled, so payload construction costs nothing otherwise.
    /// The innermost open span of this handle on the current thread is
    /// recorded as the event's span.
    pub fn event(&self, name: &str, fields: impl FnOnce() -> Value) {
        let Some(inner) = &self.inner else { return };
        let me = Self::identity(inner);
        let span = SPAN_STACK
            .with(|s| s.borrow().iter().rev().find(|&&(h, _)| h == me).map(|&(_, id)| id));
        inner.sink.record(&Record::Event {
            name: name.to_string(),
            span,
            t_us: Self::now_us(inner),
            fields: fields(),
        });
    }

    /// Emits a human-oriented progress line as a [`REPORT_EVENT`] event.
    /// `msg` is only invoked when the handle is enabled.
    pub fn report(&self, msg: impl FnOnce() -> String) {
        self.event(REPORT_EVENT, || json!({ "msg": msg() }));
    }

    /// Adds `delta` to the monotonic counter `name`. Counters are emitted
    /// as [`Record::Counter`] snapshots at [`Telemetry::flush`].
    pub fn count(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut counters = lock_or_recover(&inner.counters);
            *counters.entry(name.to_string()).or_insert(0) += delta;
        }
        if let Some(live) = &inner.live {
            live.inc(name, delta);
        }
    }

    /// Records `value` into the log-scale histogram `name`. Histograms are
    /// emitted as [`Record::Histogram`] snapshots at [`Telemetry::flush`].
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut hists = lock_or_recover(&inner.histograms);
            hists.entry(name.to_string()).or_default().observe(value);
        }
        if let Some(live) = &inner.live {
            live.observe(name, value);
        }
    }

    /// Sets the live gauge `name` to `value`. Gauges are instantaneous
    /// state (queue depth, busy workers) — they exist only in the attached
    /// [`MetricsRegistry`] and never reach the trace, so instrumenting a
    /// gauge cannot change any trace artifact. No-op without a registry.
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(live) = self.inner.as_ref().and_then(|i| i.live.as_ref()) else { return };
        live.gauge_set(name, value);
    }

    /// Adds `delta` (may be negative) to the live gauge `name`. Live-only,
    /// like [`Telemetry::gauge`].
    pub fn gauge_add(&self, name: &str, delta: f64) {
        let Some(live) = self.inner.as_ref().and_then(|i| i.live.as_ref()) else { return };
        live.gauge_add(name, delta);
    }

    /// Sets the live string label `name` (e.g. the task currently tuning).
    /// Live-only, like [`Telemetry::gauge`].
    pub fn set_label(&self, name: &str, value: &str) {
        let Some(live) = self.inner.as_ref().and_then(|i| i.live.as_ref()) else { return };
        live.set_label(name, value);
    }

    /// Emits the current counter and histogram snapshots, then flushes the
    /// sink. Call once at the end of a run (snapshots are cumulative, so
    /// flushing repeatedly is safe — summarizers keep the last value seen).
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        {
            let counters = lock_or_recover(&inner.counters);
            for (name, &value) in counters.iter() {
                inner.sink.record(&Record::Counter { name: name.clone(), value });
            }
        }
        {
            let hists = lock_or_recover(&inner.histograms);
            for (name, hist) in hists.iter() {
                inner.sink.record(&Record::Histogram { name: name.clone(), hist: hist.clone() });
            }
        }
        inner.sink.flush();
    }
}

struct LiveSpan {
    inner: Arc<Inner>,
    id: u64,
    name: String,
    opened: Instant,
}

/// Closes its span on drop. Hold it for the lifetime of the region:
/// `let _span = tel.span("bted");`
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Span id, for correlating events in tests. `None` on disabled handles.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let me = Telemetry::identity(&live.inner);
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards are usually dropped innermost-first, but a guard moved
            // across scopes may not be on top: remove by id, not by pop.
            if let Some(pos) = s.iter().rposition(|&e| e == (me, live.id)) {
                s.remove(pos);
            }
        });
        let dur_us = u64::try_from(live.opened.elapsed().as_micros()).unwrap_or(u64::MAX);
        live.inner.sink.record(&Record::SpanEnd {
            id: live.id,
            name: live.name,
            t_us: Telemetry::now_us(&live.inner),
            dur_us,
        });
    }
}

/// Fast-path flag mirroring whether the global handle is enabled, so
/// [`global`] on the disabled default is a single atomic load.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Telemetry>> = RwLock::new(None);

/// Installs `tel` as the process-wide handle returned by [`global`].
/// Installing [`Telemetry::disabled`] turns global telemetry off again.
pub fn set_global(tel: Telemetry) {
    let enabled = tel.is_enabled();
    *write_or_recover(&GLOBAL) = enabled.then_some(tel);
    GLOBAL_ENABLED.store(enabled, Ordering::Release);
}

/// The process-wide handle. Disabled (all probes no-ops) until
/// [`set_global`] installs an enabled one. Grab it once per function, not
/// per loop iteration — the enabled path takes a read lock.
#[must_use]
pub fn global() -> Telemetry {
    if !GLOBAL_ENABLED.load(Ordering::Acquire) {
        return Telemetry::disabled();
    }
    read_or_recover(&GLOBAL).clone().unwrap_or_default()
}

/// Builds and installs the standard command-line pipeline: a progress
/// [`ReporterSink`] (human-readable, or JSON lines when `json` is set,
/// suppressed entirely by `quiet`) teed with an optional JSONL trace
/// [`FileSink`] at `trace`.
///
/// Returns the installed handle so the caller can [`Telemetry::flush`] it
/// once the run finishes. With no reporter and no trace file the handle is
/// [`Telemetry::disabled`], keeping the hot path at zero overhead.
///
/// # Errors
///
/// Propagates trace-file creation errors.
pub fn install_pipeline(
    trace: Option<&std::path::Path>,
    quiet: bool,
    json: bool,
) -> std::io::Result<Telemetry> {
    install_pipeline_live(trace, quiet, json, false, None)
}

/// [`install_pipeline`] with an explicit trace-file mode and an optional
/// live [`MetricsRegistry`]. When `append` is set the trace file is
/// extended instead of truncated, which is what a crash-safe resume wants:
/// its fresh [`Record::Schema`] header marks a new process segment in the
/// same trace. The registry is attached to the installed handle, so every
/// instrumentation site in the process publishes live metrics without code
/// changes; it never changes what reaches the trace file.
///
/// # Errors
///
/// Propagates trace-file open errors.
pub fn install_pipeline_live(
    trace: Option<&std::path::Path>,
    quiet: bool,
    json: bool,
    append: bool,
    live: Option<Arc<MetricsRegistry>>,
) -> std::io::Result<Telemetry> {
    let mut tee = TeeSink::new();
    if !quiet {
        tee = tee.with(if json { ReporterSink::json() } else { ReporterSink::human() });
    }
    if let Some(path) = trace {
        tee = tee.with(if append { FileSink::append(path)? } else { FileSink::create(path)? });
    }
    let tel = if tee.is_empty() && live.is_none() {
        Telemetry::disabled()
    } else {
        Telemetry::build(Box::new(tee), live)
    };
    set_global(tel.clone());
    Ok(tel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_invokes_payloads() {
        let tel = Telemetry::disabled();
        let _span = tel.span("dead");
        tel.event("never", || unreachable!("payload built on disabled handle"));
        tel.report(|| unreachable!("report built on disabled handle"));
        tel.count("c", 1);
        tel.observe("h", 1.0);
        tel.flush();
    }

    #[test]
    fn spans_nest_and_parent_on_one_thread() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        {
            let outer = tel.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = tel.span("inner");
                assert_ne!(inner.id(), outer.id());
                tel.event("tick", || json!({ "n": 1u64 }));
            }
            let _sibling = tel.span("sibling");
            drop(outer);
            let _ = outer_id;
        }
        let recs = sink.records();
        let parent_of = |name: &str| {
            recs.iter()
                .find_map(|r| match r {
                    Record::SpanStart { name: n, parent, .. } if n == name => Some(*parent),
                    _ => None,
                })
                .unwrap()
        };
        let id_of = |name: &str| {
            recs.iter()
                .find_map(|r| match r {
                    Record::SpanStart { name: n, id, .. } if n == name => Some(*id),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(parent_of("outer"), None);
        assert_eq!(parent_of("inner"), Some(id_of("outer")));
        assert_eq!(parent_of("sibling"), Some(id_of("outer")));
        // The event attributes to the innermost open span at emission time.
        let ev_span = recs
            .iter()
            .find_map(|r| match r {
                Record::Event { name, span, .. } if name == "tick" => Some(*span),
                _ => None,
            })
            .unwrap();
        assert_eq!(ev_span, Some(id_of("inner")));
        // Every start has a matching end with the same id and name.
        for r in &recs {
            if let Record::SpanStart { id, name, .. } = r {
                assert!(recs.iter().any(|e| matches!(
                    e,
                    Record::SpanEnd { id: eid, name: en, .. } if eid == id && en == name
                )));
            }
        }
    }

    #[test]
    fn spans_on_different_threads_do_not_adopt_each_other() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        let _outer = tel.span("outer");
        let tel2 = tel.clone();
        std::thread::spawn(move || {
            let _worker = tel2.span("worker");
        })
        .join()
        .unwrap();
        let parent = sink
            .records()
            .iter()
            .find_map(|r| match r {
                Record::SpanStart { name, parent, .. } if name == "worker" => Some(*parent),
                _ => None,
            })
            .unwrap();
        assert_eq!(parent, None, "cross-thread span must not parent to outer");
    }

    #[test]
    fn flush_snapshots_counters_and_histograms() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        tel.count("sa.accepted", 3);
        tel.count("sa.accepted", 2);
        tel.observe("measure.us", 100.0);
        tel.observe("measure.us", 200.0);
        tel.flush();
        let recs = sink.records();
        assert!(recs
            .iter()
            .any(|r| matches!(r, Record::Counter { name, value: 5 } if name == "sa.accepted")));
        let hist_count = recs
            .iter()
            .find_map(|r| match r {
                Record::Histogram { name, hist } if name == "measure.us" => Some(hist.count()),
                _ => None,
            })
            .unwrap();
        assert_eq!(hist_count, 2);
    }

    #[test]
    fn attached_registry_mirrors_counts_and_observes_without_changing_records() {
        let reg = Arc::new(MetricsRegistry::new());
        let plain_sink = VecSink::new();
        let live_sink = VecSink::new();
        let plain = Telemetry::new(plain_sink.clone());
        let live = Telemetry::with_registry(live_sink.clone(), Arc::clone(&reg));
        for tel in [&plain, &live] {
            tel.count("c", 4);
            tel.observe("h", 10.0);
            tel.gauge("g", 2.0);
            tel.gauge_add("g", 0.5);
            tel.set_label("l", "v");
            tel.flush();
        }
        // Live metrics landed in the registry...
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 4);
        assert_eq!(snap.histograms["h"].count(), 1);
        assert!((snap.gauge("g") - 2.5).abs() < 1e-12);
        assert_eq!(snap.labels["l"], "v");
        // ...and the record streams are identical: gauges/labels are
        // live-only, and mirroring adds no records.
        let names =
            |s: &VecSink| -> Vec<String> { s.records().iter().map(|r| format!("{r:?}")).collect() };
        assert_eq!(names(&plain_sink), names(&live_sink));
    }

    #[test]
    fn gauge_and_label_are_noops_without_registry() {
        let sink = VecSink::new();
        let tel = Telemetry::new(sink.clone());
        tel.gauge("g", 1.0);
        tel.set_label("l", "v");
        assert!(tel.live_registry().is_none());
        let disabled = Telemetry::disabled();
        disabled.gauge("g", 1.0);
        disabled.gauge_add("g", 1.0);
        disabled.set_label("l", "v");
    }

    #[test]
    fn global_defaults_to_disabled_and_round_trips() {
        // Note: tests in this binary run in parallel; this test owns the
        // global slot only briefly and restores it.
        let sink = VecSink::new();
        set_global(Telemetry::new(sink.clone()));
        assert!(global().is_enabled());
        global().event("probe", || json!({}));
        set_global(Telemetry::disabled());
        assert!(!global().is_enabled());
        assert!(sink.records().iter().any(|r| r.name() == "probe"));
    }
}
