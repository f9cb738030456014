//! Self-contained HTML tuning reports.
//!
//! One run directory in, one HTML file out: convergence curves per task,
//! a per-phase flamegraph from the span tree, the BAO radius and SA
//! accept-rate adaptation panels, and — when a baseline is given — the
//! statistical comparison table. Everything is inlined (styles and SVG);
//! the file references no external asset, so it can be attached to a CI
//! artifact or mailed around and still render.
//!
//! Charts follow the repo's data-viz conventions: categorical slot 1/2 for
//! run vs baseline, a single-hue blue ramp for flamegraph depth, status
//! colors only for verdicts (always paired with a glyph + word, never color
//! alone), text in ink tokens, and a dark mode selected via
//! `prefers-color-scheme` with a `data-theme` override.

use crate::compare::{RunComparison, Verdict};
use crate::model_insight;
use crate::trace::{FlameNode, TraceData};
use active_learning::{read_model_quality, ModelPredRecord, RunDir, RunManifest, TuningLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A run directory loaded for reporting.
#[derive(Debug)]
pub struct LoadedRun {
    /// Run id (directory name).
    pub id: String,
    /// The run's manifest.
    pub manifest: RunManifest,
    /// One log per task.
    pub logs: Vec<TuningLog>,
    /// The telemetry trace, when the run wrote one.
    pub trace: Option<TraceData>,
    /// Model-introspection capture records — empty when the run was not
    /// tuned with capture on.
    pub model_quality: Vec<ModelPredRecord>,
}

impl LoadedRun {
    /// Loads manifest, logs, and (if present) trace from `path`.
    ///
    /// # Errors
    ///
    /// Returns a message when the manifest or logs cannot be read.
    pub fn load(path: &Path) -> Result<LoadedRun, String> {
        if !path.is_dir() {
            return Err(format!("{} is not a run directory", path.display()));
        }
        let dir =
            RunDir::create(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let manifest =
            dir.read_manifest().map_err(|e| format!("bad manifest in {}: {e}", path.display()))?;
        let logs = dir.read_logs().map_err(|e| format!("bad logs in {}: {e}", path.display()))?;
        let trace = TraceData::load(&dir.trace_path())
            .map_err(|e| format!("unreadable trace in {}: {e}", path.display()))?;
        let mq_path = dir.model_quality_path();
        let model_quality = if mq_path.is_file() {
            read_model_quality(&mq_path)
                .map_err(|e| format!("bad model quality in {}: {e}", path.display()))?
        } else {
            Vec::new()
        };
        let id = path
            .file_name()
            .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned());
        Ok(LoadedRun { id, manifest, logs, trace, model_quality })
    }

    /// Best-so-far GFLOPS per trial, per task. Prefers the trace's `trial`
    /// events (they carry span context and survive partial runs); falls
    /// back to the task logs for trace-less run directories.
    #[must_use]
    pub fn convergence_curves(&self) -> BTreeMap<String, Vec<(f64, f64)>> {
        if let Some(trace) = &self.trace {
            let series = trace.task_series();
            if series.values().any(|s| !s.is_empty()) {
                return series
                    .into_iter()
                    .filter(|(_, s)| !s.is_empty())
                    .map(|(task, s)| {
                        #[allow(clippy::cast_precision_loss)]
                        let pts = s.iter().map(|t| (t.trial as f64, t.best_gflops)).collect();
                        (task, pts)
                    })
                    .collect();
            }
        }
        self.logs
            .iter()
            .filter(|l| !l.records.is_empty())
            .map(|l| {
                #[allow(clippy::cast_precision_loss)]
                let pts =
                    l.convergence_curve().iter().enumerate().map(|(i, &g)| (i as f64, g)).collect();
                (l.task_name.clone(), pts)
            })
            .collect()
    }
}

/// Renders the full report. `baseline` and `comparison` travel together:
/// the comparison table appears when both are given.
#[must_use]
pub fn render_report(
    run: &LoadedRun,
    baseline: Option<&LoadedRun>,
    comparison: Option<&RunComparison>,
) -> String {
    let mut warnings: Vec<String> = Vec::new();
    if let Some(w) = run.manifest.schema_warning() {
        warnings.push(w);
    }
    if let Some(trace) = &run.trace {
        if let Some(w) = trace.schema_warning() {
            warnings.push(w);
        }
        if trace.malformed_lines > 0 {
            warnings.push(format!(
                "{} corrupt trace line(s) skipped — charts may be missing points",
                trace.malformed_lines
            ));
        }
    } else {
        warnings.push("run has no trace.jsonl — flamegraph and adaptation panels omitted".into());
    }

    let mut body = String::new();
    header_section(&mut body, run, baseline, &warnings);
    if let Some(cmp) = comparison {
        compare_section(&mut body, cmp);
    }
    convergence_section(&mut body, run, baseline);
    model_quality_section(&mut body, run);
    if let Some(trace) = &run.trace {
        health_section(&mut body, run, trace);
        executor_section(&mut body, run, trace);
        flame_section(&mut body, trace);
        adaptation_sections(&mut body, trace);
    }
    let _ = write!(
        body,
        "<footer class=\"muted\">generated by aaltune report · run {}</footer>",
        esc(&run.id)
    );

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
         <title>aaltune report — {}</title>\n<style>{}</style>\n</head>\n\
         <body class=\"viz-root\">\n{}\n</body>\n</html>\n",
        esc(&run.id),
        STYLE,
        body
    )
}

/// Inline stylesheet: palette roles as CSS custom properties, dark values
/// under both the OS media query and the explicit `data-theme` scope.
const STYLE: &str = "\
.viz-root{\
color-scheme:light;\
--surface-1:#fcfcfb;--page:#f9f9f7;\
--text-primary:#0b0b0b;--text-secondary:#52514e;--text-muted:#898781;\
--grid:#e1e0d9;--axis:#c3c2b7;--border:rgba(11,11,11,0.10);\
--series-1:#2a78d6;--series-2:#eb6834;\
--status-good:#006300;--status-critical:#d03b3b;\
--ramp-0:#86b6ef;--ramp-1:#5598e7;--ramp-2:#2a78d6;--ramp-3:#1c5cab;--ramp-4:#184f95;\
font-family:system-ui,-apple-system,\"Segoe UI\",sans-serif;\
margin:0;padding:24px;background:var(--page);color:var(--text-primary);\
}\
@media (prefers-color-scheme:dark){\
:root:where(:not([data-theme=\"light\"])) .viz-root{\
color-scheme:dark;\
--surface-1:#1a1a19;--page:#0d0d0d;\
--text-primary:#ffffff;--text-secondary:#c3c2b7;--text-muted:#898781;\
--grid:#2c2c2a;--axis:#383835;--border:rgba(255,255,255,0.10);\
--series-1:#3987e5;--series-2:#d95926;\
--status-good:#0ca30c;--status-critical:#d03b3b;\
--ramp-0:#9ec5f4;--ramp-1:#6da7ec;--ramp-2:#3987e5;--ramp-3:#256abf;--ramp-4:#184f95;\
}}\
:root[data-theme=\"dark\"] .viz-root{\
color-scheme:dark;\
--surface-1:#1a1a19;--page:#0d0d0d;\
--text-primary:#ffffff;--text-secondary:#c3c2b7;--text-muted:#898781;\
--grid:#2c2c2a;--axis:#383835;--border:rgba(255,255,255,0.10);\
--series-1:#3987e5;--series-2:#d95926;\
--status-good:#0ca30c;--status-critical:#d03b3b;\
--ramp-0:#9ec5f4;--ramp-1:#6da7ec;--ramp-2:#3987e5;--ramp-3:#256abf;--ramp-4:#184f95;\
}\
h1{font-size:1.3rem;margin:0 0 4px}\
h2{font-size:1.05rem;margin:28px 0 8px}\
section,header{max-width:1100px;margin:0 auto}\
.muted{color:var(--text-muted);font-size:0.85rem}\
.meta{display:grid;grid-template-columns:repeat(auto-fit,minmax(150px,1fr));gap:8px;\
background:var(--surface-1);border:1px solid var(--border);border-radius:8px;\
padding:12px 16px;margin-top:12px}\
.meta .k{color:var(--text-secondary);font-size:0.78rem}\
.meta .v{font-size:0.95rem}\
.warn{color:var(--text-secondary);background:var(--surface-1);\
border:1px solid var(--border);border-left:3px solid var(--status-critical);\
border-radius:4px;padding:6px 10px;margin-top:8px;font-size:0.85rem}\
.grid{display:grid;grid-template-columns:repeat(auto-fill,minmax(320px,1fr));gap:16px}\
.panel{background:var(--surface-1);border:1px solid var(--border);border-radius:8px;\
padding:12px}\
.panel h3{font-size:0.9rem;margin:0 0 6px;color:var(--text-primary)}\
.legend{display:flex;gap:16px;margin:4px 0 8px;font-size:0.8rem;\
color:var(--text-secondary)}\
.legend .swatch{display:inline-block;width:14px;height:3px;border-radius:2px;\
vertical-align:middle;margin-right:5px}\
svg{display:block;width:100%;height:auto}\
svg text{fill:var(--text-muted);font-size:10px;font-family:inherit}\
.gridline{stroke:var(--grid);stroke-width:1}\
.axisline{stroke:var(--axis);stroke-width:1}\
.line-1{stroke:var(--series-1);stroke-width:2;fill:none;\
stroke-linejoin:round;stroke-linecap:round}\
.line-2{stroke:var(--series-2);stroke-width:2;fill:none;\
stroke-linejoin:round;stroke-linecap:round}\
.dot-1{fill:var(--series-1)}\
.dot-2{fill:var(--series-2)}\
.flame rect{stroke:var(--surface-1);stroke-width:2;rx:2}\
table{border-collapse:collapse;width:100%;background:var(--surface-1);\
border:1px solid var(--border);border-radius:8px;font-size:0.85rem}\
th{text-align:left;color:var(--text-secondary);font-weight:600;\
border-bottom:1px solid var(--axis);padding:7px 10px}\
td{padding:6px 10px;border-bottom:1px solid var(--grid)}\
td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}\
.v-improved{color:var(--status-good);font-weight:600}\
.v-regressed{color:var(--status-critical);font-weight:600}\
.v-noise{color:var(--text-muted)}\
.v-incomparable{color:var(--text-muted);font-style:italic}\
";

fn header_section(
    body: &mut String,
    run: &LoadedRun,
    baseline: Option<&LoadedRun>,
    warnings: &[String],
) {
    let m = &run.manifest;
    let _ = write!(body, "<header><h1>Tuning report — {}</h1>", esc(&run.id));
    if let Some(b) = baseline {
        let _ = write!(body, "<div class=\"muted\">baseline: {}</div>", esc(&b.id));
    }
    let _ = write!(body, "<div class=\"meta\">");
    let mut kv = |k: &str, v: String| {
        let _ = write!(body, "<div><div class=\"k\">{k}</div><div class=\"v\">{v}</div></div>");
    };
    kv("model", esc(&m.model));
    kv("method", esc(&m.method));
    kv("seed", m.seed.to_string());
    kv("trials/task", m.options.n_trial.to_string());
    kv("tasks", m.tasks.len().to_string());
    kv("git", esc(m.git_describe.as_deref().unwrap_or("—")));
    kv("wall time", m.wall_time_s.map_or_else(|| "—".to_string(), |w| format!("{w:.1}s")));
    let _ = write!(body, "</div>");
    for w in warnings {
        let _ = write!(body, "<div class=\"warn\">⚠ {}</div>", esc(w));
    }
    let _ = write!(body, "</header>");
}

fn compare_section(body: &mut String, cmp: &RunComparison) {
    let _ = write!(
        body,
        "<section><h2>Comparison vs baseline</h2>\
         <div class=\"muted\">{} improved · {} regressed · {} noise · \
         {} incomparable — \
         {:.0}% confidence, {} resamples, min effect {:.1}%</div>",
        cmp.count(Verdict::Improved),
        cmp.count(Verdict::Regressed),
        cmp.count(Verdict::Noise),
        cmp.count(Verdict::Incomparable),
        100.0 * (1.0 - cmp.options.alpha),
        cmp.options.resamples,
        cmp.options.min_effect_pct,
    );
    let _ = write!(
        body,
        "<table><thead><tr><th>task</th><th class=\"num\">base mean</th>\
         <th class=\"num\">cand mean</th><th class=\"num\">Δ%</th>\
         <th class=\"num\">CI (GFLOPS)</th><th>verdict</th></tr></thead><tbody>"
    );
    let cell = |v: f64| if v.is_nan() { "-".to_string() } else { format!("{v:.2}") };
    for t in &cmp.tasks {
        let (class, glyph) = match t.verdict {
            Verdict::Improved => ("v-improved", "▲"),
            Verdict::Regressed => ("v-regressed", "▼"),
            Verdict::Noise => ("v-noise", "·"),
            Verdict::Incomparable => ("v-incomparable", "∅"),
        };
        let delta =
            if t.delta_pct.is_nan() { "-".to_string() } else { format!("{:+.2}%", t.delta_pct) };
        let ci = if t.ci.lo.is_nan() {
            "-".to_string()
        } else {
            format!("[{:.2}, {:.2}]", t.ci.lo, t.ci.hi)
        };
        let _ = write!(
            body,
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{delta}</td><td class=\"num\">{ci}</td>\
             <td><span class=\"{}\">{} {}</span></td></tr>",
            esc(&t.task),
            cell(t.base_mean),
            cell(t.cand_mean),
            class,
            glyph,
            t.verdict.label(),
        );
    }
    let _ = write!(
        body,
        "</tbody></table><div class=\"muted\">aggregate best-GFLOPS delta \
         {:+.2} [{:+.2}, {:+.2}]</div></section>",
        cmp.aggregate.delta, cmp.aggregate.lo, cmp.aggregate.hi
    );
}

fn convergence_section(body: &mut String, run: &LoadedRun, baseline: Option<&LoadedRun>) {
    let curves = run.convergence_curves();
    if curves.is_empty() {
        return;
    }
    let base_curves = baseline.map(LoadedRun::convergence_curves).unwrap_or_default();
    let _ = write!(
        body,
        "<section><h2>Convergence — best-so-far GFLOPS per trial</h2><div class=\"grid\">"
    );
    for (task, pts) in &curves {
        let mut series: Vec<Series<'_>> = vec![Series { label: "run", points: pts, slot: 1 }];
        if let Some(bp) = base_curves.get(task) {
            series.push(Series { label: "baseline", points: bp, slot: 2 });
        }
        let _ = write!(body, "<div class=\"panel\"><h3>{}</h3>", esc(task));
        if series.len() >= 2 {
            let _ = write!(body, "<div class=\"legend\">");
            for s in &series {
                let _ = write!(
                    body,
                    "<span><span class=\"swatch\" \
                     style=\"background:var(--series-{})\"></span>{}</span>",
                    s.slot,
                    esc(s.label)
                );
            }
            let _ = write!(body, "</div>");
        }
        body.push_str(&line_chart(&series, "trial", "GFLOPS"));
        let _ = write!(body, "</div>");
    }
    let _ = write!(body, "</div></section>");
}

/// The surrogate-quality panel: per-task cumulative rank correlation and
/// regret curves from the run's capture stream, with the `explain`
/// verdict. Omitted entirely for runs tuned without capture.
fn model_quality_section(body: &mut String, run: &LoadedRun) {
    if run.model_quality.is_empty() {
        return;
    }
    let tasks = model_insight::analyze(&run.model_quality);
    let _ = write!(
        body,
        "<section><h2>Model quality — was the surrogate trustworthy?</h2>\
         <div class=\"muted\">cumulative Spearman rank correlation between \
         predicted and measured GFLOPS, and cumulative regret vs the run's \
         best config, per refit round</div><div class=\"grid\">"
    );
    for t in &tasks {
        let corr_pts: Vec<(f64, f64)> = t
            .rounds
            .iter()
            .filter_map(|r| {
                #[allow(clippy::cast_precision_loss)]
                r.cum_rank_corr.map(|c| (r.round as f64, c))
            })
            .collect();
        #[allow(clippy::cast_precision_loss)]
        let regret_pts: Vec<(f64, f64)> =
            t.rounds.iter().map(|r| (r.round as f64, r.cum_regret)).collect();
        let verdict = match (t.trustworthy_from, t.final_rank_corr) {
            (Some(n), Some(c)) => {
                format!("trustworthy from round {n} · final rank-corr {c:.2}")
            }
            (None, Some(c)) => format!("untrustworthy all run · final rank-corr {c:.2}"),
            _ => "model never scored — blind search only".to_string(),
        };
        let _ = write!(
            body,
            "<div class=\"panel\"><h3>{}</h3><div class=\"muted\">{}</div>",
            esc(&t.task),
            esc(&verdict)
        );
        if !corr_pts.is_empty() {
            body.push_str(&line_chart(
                &[Series { label: "rank correlation", points: &corr_pts, slot: 1 }],
                "round",
                "rank corr",
            ));
        }
        if !regret_pts.is_empty() {
            body.push_str(&line_chart(
                &[Series { label: "cumulative regret", points: &regret_pts, slot: 2 }],
                "round",
                "regret GFLOPS",
            ));
        }
        let _ = write!(body, "</div>");
    }
    let _ = write!(body, "</div></section>");
}

/// The fault-pipeline panel: how many trials failed, were retried, or got
/// quarantined. Counters come from the trace, summed across process
/// segments, so a resumed run shows whole-run totals.
fn health_section(body: &mut String, run: &LoadedRun, trace: &TraceData) {
    let summary = telemetry::TraceSummary::from_records(&trace.records);
    let c = |name: &str| summary.counters.get(name).copied().unwrap_or(0);
    let _ = write!(body, "<section><h2>Measurement health</h2><div class=\"meta\">");
    let mut kv = |k: &str, v: String| {
        let _ = write!(body, "<div><div class=\"k\">{k}</div><div class=\"v\">{v}</div></div>");
    };
    kv("measurements", c("measure.total").to_string());
    kv("invalid configs", c("measure.invalid").to_string());
    kv("injected faults", c("measure.fault").to_string());
    kv("retries", c("measure.retry").to_string());
    kv("quarantined", c("measure.quarantine").to_string());
    kv("quarantine hits", c("measure.quarantine_hit").to_string());
    kv("resumes", c("tune.resume").to_string());
    kv("aborted tasks", c("tune.aborted").to_string());
    kv(
        "fault rate",
        run.manifest.fault.filter(|f| f.rate > 0.0).map_or_else(
            || "off".to_string(),
            |f| format!("{:.1}% (seed {})", 100.0 * f.rate, f.seed),
        ),
    );
    let _ = write!(body, "</div>");
    if let Some(h) = summary.histograms.get("measure.retry.backoff_ms") {
        let _ = write!(
            body,
            "<div class=\"muted\">retry backoff: {} waits, p50 {:.0}ms, p99 {:.0}ms</div>",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.99),
        );
    }
    let _ = write!(body, "</section>");
}

/// Pool health of the parallel measurement executor: worker utilization,
/// batch latency, queue depth, and per-device occupancy. Omitted entirely
/// for runs that never went through the executor (no `exec.*` counters).
fn executor_section(body: &mut String, run: &LoadedRun, trace: &TraceData) {
    let summary = telemetry::TraceSummary::from_records(&trace.records);
    let c = |name: &str| summary.counters.get(name).copied().unwrap_or(0);
    if c("exec.jobs.total") == 0 {
        return;
    }
    let _ = write!(body, "<section><h2>Executor utilization</h2><div class=\"meta\">");
    let mut kv = |k: &str, v: String| {
        let _ = write!(body, "<div><div class=\"k\">{k}</div><div class=\"v\">{v}</div></div>");
    };
    kv(
        "workers × devices",
        format!(
            "{} × {}",
            run.manifest.workers.map_or_else(|| "?".into(), |w| w.to_string()),
            run.manifest.devices.map_or_else(|| "?".into(), |d| d.to_string()),
        ),
    );
    kv("jobs measured", c("exec.jobs.total").to_string());
    kv("batches", c("exec.batch.submitted").to_string());
    kv("invalid builds", c("exec.build.invalid").to_string());
    let util = |busy: u64, idle: u64| {
        let total = busy + idle;
        if total == 0 {
            "n/a".to_string()
        } else {
            #[allow(clippy::cast_precision_loss)]
            let pct = 100.0 * busy as f64 / total as f64;
            format!("{pct:.0}%")
        }
    };
    kv("builder busy", util(c("exec.worker.build.busy_us"), c("exec.worker.build.idle_us")));
    kv("runner busy", util(c("exec.worker.run.busy_us"), c("exec.worker.run.idle_us")));
    kv("device acquires", c("exec.device.acquires").to_string());
    let _ = write!(body, "</div>");
    let hist_line = |name: &str, label: &str| {
        summary.histograms.get(name).filter(|h| h.count() > 0).map(|h| {
            format!(
                "{label}: {} obs, p50 {:.0}, p99 {:.0}",
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99),
            )
        })
    };
    for line in [
        hist_line("exec.batch.wall_us", "batch wall µs"),
        hist_line("exec.batch.size", "batch size"),
        hist_line("exec.queue.build.depth", "build-queue depth"),
        hist_line("exec.queue.run.depth", "run-queue depth"),
        hist_line("exec.device.busy_us", "device hold µs"),
    ]
    .into_iter()
    .flatten()
    {
        let _ = write!(body, "<div class=\"muted\">{line}</div>");
    }
    // Per-device occupancy: one row per `exec.device.<id>.acquires` counter.
    let mut devices: Vec<(u64, u64, u64)> = summary
        .counters
        .iter()
        .filter_map(|(name, &acquires)| {
            let id: u64 =
                name.strip_prefix("exec.device.")?.strip_suffix(".acquires")?.parse().ok()?;
            Some((id, acquires, c(&format!("exec.device.{id}.busy_us"))))
        })
        .collect();
    devices.sort_unstable();
    if !devices.is_empty() {
        let _ = write!(
            body,
            "<table><thead><tr><th>device</th><th class=\"num\">acquires</th>\
             <th class=\"num\">busy</th></tr></thead><tbody>"
        );
        for (id, acquires, busy_us) in devices {
            let _ = write!(
                body,
                "<tr><td>device {id}</td><td class=\"num\">{acquires}</td>\
                 <td class=\"num\">{}</td></tr>",
                fmt_us(busy_us),
            );
        }
        let _ = write!(body, "</tbody></table>");
    }
    let _ = write!(body, "</section>");
}

fn flame_section(body: &mut String, trace: &TraceData) {
    let tree = trace.flame_tree();
    if tree.children.is_empty() {
        return;
    }
    let _ = write!(
        body,
        "<section><h2>Where the wall clock went</h2>\
         <div class=\"muted\">aggregated span tree; hover a block for its \
         name and self time, or read the table below</div>"
    );
    body.push_str(&flamegraph_svg(&tree));
    // The accessible twin of the flamegraph: the same numbers as a table.
    let mut rows: Vec<(String, &FlameNode)> = Vec::new();
    flatten(&tree, "", &mut rows);
    rows.sort_by_key(|(_, n)| std::cmp::Reverse(n.self_us()));
    let _ = write!(
        body,
        "<table><thead><tr><th>phase</th><th class=\"num\">count</th>\
         <th class=\"num\">total</th><th class=\"num\">self</th>\
         <th class=\"num\">self %</th></tr></thead><tbody>"
    );
    let grand = tree.total_us.max(1);
    for (path, node) in rows.iter().filter(|(p, _)| !p.is_empty()) {
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * node.self_us() as f64 / grand as f64;
        let _ = write!(
            body,
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{pct:.1}%</td></tr>",
            esc(path),
            node.count,
            fmt_us(node.total_us),
            fmt_us(node.self_us()),
        );
    }
    let _ = write!(body, "</tbody></table></section>");
}

fn adaptation_sections(body: &mut String, trace: &TraceData) {
    let radius = trace.radius_series();
    if !radius.is_empty() {
        #[allow(clippy::cast_precision_loss)]
        let pts: Vec<(f64, f64)> = radius.iter().map(|r| (r.step as f64, r.radius)).collect();
        let widened: Vec<(f64, f64)> =
            pts.iter().zip(&radius).filter(|(_, r)| r.widened).map(|(p, _)| *p).collect();
        let _ = write!(
            body,
            "<section><h2>BAO scope radius over time</h2>\
             <div class=\"muted\">dots mark steps where stalling widened the \
             neighborhood</div><div class=\"panel\">"
        );
        body.push_str(&line_chart_with_marks(
            &[Series { label: "radius", points: &pts, slot: 1 }],
            &widened,
            "step",
            "radius",
        ));
        let _ = write!(body, "</div></section>");
    }
    let sa = trace.sa_series();
    if !sa.is_empty() {
        #[allow(clippy::cast_precision_loss)]
        let pts: Vec<(f64, f64)> =
            sa.iter().enumerate().map(|(i, s)| (i as f64, 100.0 * s.accept_rate())).collect();
        let _ = write!(body, "<section><h2>SA accept rate per search</h2><div class=\"panel\">");
        body.push_str(&line_chart(
            &[Series { label: "accept rate", points: &pts, slot: 1 }],
            "search",
            "accept %",
        ));
        let _ = write!(body, "</div></section>");
    }
}

/// One plotted series; `slot` picks the categorical color (1-based).
struct Series<'a> {
    label: &'a str,
    points: &'a [(f64, f64)],
    slot: u8,
}

const W: f64 = 360.0;
const H: f64 = 200.0;
const ML: f64 = 48.0; // left margin (y tick labels)
const MR: f64 = 10.0;
const MT: f64 = 10.0;
const MB: f64 = 26.0; // bottom margin (x tick labels)

fn line_chart(series: &[Series<'_>], x_label: &str, y_label: &str) -> String {
    line_chart_with_marks(series, &[], x_label, y_label)
}

fn line_chart_with_marks(
    series: &[Series<'_>],
    marks: &[(f64, f64)],
    x_label: &str,
    y_label: &str,
) -> String {
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if all.is_empty() {
        return String::new();
    }
    let (x0, x1) = expand(bounds(all.iter().map(|p| p.0)));
    let (y0, y1) = expand(bounds(all.iter().map(|p| p.1)));
    let px = |x: f64| ML + (x - x0) / (x1 - x0) * (W - ML - MR);
    let py = |y: f64| H - MB - (y - y0) / (y1 - y0) * (H - MT - MB);

    let mut s = String::new();
    let _ = write!(
        s,
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\" \
         aria-label=\"{} vs {x_label}\">",
        esc(y_label)
    );
    // Gridlines + y ticks.
    for i in 0..=3 {
        let y = y0 + (y1 - y0) * f64::from(i) / 3.0;
        let yy = py(y);
        let _ = write!(
            s,
            "<line class=\"gridline\" x1=\"{ML}\" y1=\"{yy:.1}\" x2=\"{:.1}\" y2=\"{yy:.1}\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>",
            W - MR,
            ML - 5.0,
            yy + 3.0,
            fmt_num(y)
        );
    }
    // x ticks.
    for i in 0..=3 {
        let x = x0 + (x1 - x0) * f64::from(i) / 3.0;
        let xx = px(x);
        let _ = write!(
            s,
            "<text x=\"{xx:.1}\" y=\"{:.1}\" text-anchor=\"middle\">{}</text>",
            H - MB + 16.0,
            fmt_num(x)
        );
    }
    // Baseline axis.
    let _ = write!(
        s,
        "<line class=\"axisline\" x1=\"{ML}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\"/>",
        H - MB,
        W - MR,
        H - MB
    );
    for srs in series {
        let mut d = String::new();
        for &(x, y) in srs.points {
            let _ = write!(d, "{:.1},{:.1} ", px(x), py(y));
        }
        let _ = write!(
            s,
            "<polyline class=\"line-{}\" points=\"{}\"><title>{}</title></polyline>",
            srs.slot,
            d.trim_end(),
            esc(srs.label)
        );
        // Per-point hover targets (kept off dense curves to stay readable).
        if srs.points.len() <= 120 {
            for &(x, y) in srs.points {
                let _ = write!(
                    s,
                    "<circle class=\"dot-{}\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"2\">\
                     <title>{}: {x_label} {}, {y_label} {}</title></circle>",
                    srs.slot,
                    px(x),
                    py(y),
                    esc(srs.label),
                    fmt_num(x),
                    fmt_num(y)
                );
            }
        }
    }
    for &(x, y) in marks {
        let _ = write!(
            s,
            "<circle class=\"dot-1\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\">\
             <title>widened at {x_label} {}</title></circle>",
            px(x),
            py(y),
            fmt_num(x)
        );
    }
    s.push_str("</svg>");
    s
}

fn flamegraph_svg(tree: &FlameNode) -> String {
    const FW: f64 = 1000.0;
    const ROW: f64 = 26.0;
    let depth = tree.depth().saturating_sub(1).max(1);
    #[allow(clippy::cast_precision_loss)]
    let height = depth as f64 * ROW;
    let mut s = String::new();
    let _ = write!(
        s,
        "<svg class=\"flame\" viewBox=\"0 0 {FW} {height}\" role=\"img\" \
         aria-label=\"per-phase time flamegraph\">"
    );
    #[allow(clippy::cast_precision_loss)]
    let scale = FW / tree.total_us.max(1) as f64;
    let grand = tree.total_us.max(1);
    // Children of the synthetic root start at depth 0.
    let mut stack: Vec<(&FlameNode, f64, usize)> = Vec::new();
    let mut x = 0.0;
    for c in &tree.children {
        stack.push((c, x, 0));
        #[allow(clippy::cast_precision_loss)]
        {
            x += c.total_us as f64 * scale;
        }
    }
    while let Some((node, x0, d)) = stack.pop() {
        #[allow(clippy::cast_precision_loss)]
        let w = node.total_us as f64 * scale;
        #[allow(clippy::cast_precision_loss)]
        let y = d as f64 * ROW;
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * node.total_us as f64 / grand as f64;
        let _ = write!(
            s,
            "<rect x=\"{x0:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{ROW}\" \
             fill=\"var(--ramp-{})\"><title>{} — total {} ({pct:.1}%), self {}, \
             ×{}</title></rect>",
            d % 5,
            esc(&node.name),
            fmt_us(node.total_us),
            fmt_us(node.self_us()),
            node.count
        );
        let mut cx = x0;
        for c in &node.children {
            stack.push((c, cx, d + 1));
            #[allow(clippy::cast_precision_loss)]
            {
                cx += c.total_us as f64 * scale;
            }
        }
    }
    s.push_str("</svg>");
    s
}

fn flatten<'a>(node: &'a FlameNode, prefix: &str, out: &mut Vec<(String, &'a FlameNode)>) {
    let path = if prefix.is_empty() || node.name == "run" {
        if node.name == "run" {
            String::new()
        } else {
            node.name.clone()
        }
    } else {
        format!("{prefix} / {}", node.name)
    };
    out.push((path.clone(), node));
    for c in &node.children {
        flatten(c, &path, out);
    }
}

fn bounds(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in vals.filter(|v| v.is_finite()) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo.is_finite() {
        (lo, hi)
    } else {
        (0.0, 1.0)
    }
}

fn expand((lo, hi): (f64, f64)) -> (f64, f64) {
    if (hi - lo).abs() < 1e-12 {
        (lo - 1.0, hi + 1.0)
    } else {
        (lo, hi)
    }
}

fn fmt_num(v: f64) -> String {
    if v.abs() >= 10.0 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn fmt_us(us: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let f = us as f64;
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", f / 1e3)
    } else {
        format!("{:.2}s", f / 1e6)
    }
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_logs, CompareOptions};
    use active_learning::{TrialRecord, TuneOptions};
    use telemetry::Record;

    fn sample_run(id: &str, level: f64) -> LoadedRun {
        let mut log = TuningLog::new("m.T1", "bted+bao");
        for i in 0..10 {
            let g = level + (i % 3) as f64 * 5.0;
            log.records.push(TrialRecord { config_index: i, gflops: g, latency_s: 1e-4 });
        }
        LoadedRun {
            id: id.to_string(),
            manifest: RunManifest {
                model: "mobilenet_v1".into(),
                method: "bted+bao".into(),
                tasks: vec!["m.T1".into()],
                seed: 0,
                options: TuneOptions::smoke(),
                schema_version: Some(1),
                git_describe: Some("v0-test".into()),
                wall_time_s: Some(1.5),
                device: None,
                fault: None,
                resumed: None,
                workers: None,
                devices: None,
                db: None,
            },
            logs: vec![log],
            trace: None,
            model_quality: Vec::new(),
        }
    }

    fn trace_with_spans() -> TraceData {
        TraceData {
            records: vec![
                Record::SpanStart { id: 1, parent: None, name: "tune_task".into(), t_us: 0 },
                Record::SpanStart { id: 2, parent: Some(1), name: "measure".into(), t_us: 5 },
                Record::SpanEnd { id: 2, name: "measure".into(), t_us: 80, dur_us: 75 },
                Record::Event {
                    name: "bao.radius".into(),
                    span: Some(1),
                    t_us: 90,
                    fields: serde_json::json!({
                        "step": 1u64, "r_t": 0.5, "radius": 2.0,
                        "widened": true, "stall_widenings": 1u64,
                    }),
                },
                Record::Event {
                    name: "sa.done".into(),
                    span: Some(1),
                    t_us: 95,
                    fields: serde_json::json!({"accepted": 3u64, "rejected": 1u64}),
                },
                Record::SpanEnd { id: 1, name: "tune_task".into(), t_us: 100, dur_us: 100 },
            ],
            malformed_lines: 0,
            schema_version: Some(1),
        }
    }

    #[test]
    fn report_is_self_contained_html() {
        let mut run = sample_run("run-a", 100.0);
        run.trace = Some(trace_with_spans());
        let html = render_report(&run, None, None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("run-a"));
        assert!(html.contains("<svg"));
        assert!(html.contains("m.T1"));
        assert!(html.contains("prefers-color-scheme"), "dark mode must be selected");
        assert!(html.contains("flame"), "flamegraph present");
        assert!(html.contains("SA accept rate"));
        assert!(html.contains("BAO scope radius"));
        // Self-containment: no external asset references of any kind.
        for banned in ["http://", "https://", "<link", "<script", "url(", "@import"] {
            assert!(!html.contains(banned), "found banned token {banned}");
        }
    }

    #[test]
    fn baseline_adds_comparison_table_and_second_series() {
        let run = sample_run("run-b", 80.0);
        let base = sample_run("run-a", 100.0);
        let cmp = compare_logs(
            base.id.clone(),
            run.id.clone(),
            &base.logs,
            &run.logs,
            CompareOptions::default(),
            Vec::new(),
        );
        let html = render_report(&run, Some(&base), Some(&cmp));
        assert!(html.contains("Comparison vs baseline"));
        assert!(html.contains("▼ regressed"), "verdict must pair glyph with label");
        assert!(html.contains("baseline"), "legend names the second series");
        assert!(html.contains("line-2"), "baseline series uses categorical slot 2");
    }

    #[test]
    fn traceless_run_reports_with_warning_and_log_curves() {
        let run = sample_run("run-c", 50.0);
        let html = render_report(&run, None, None);
        assert!(html.contains("no trace.jsonl"));
        assert!(html.contains("Convergence"), "log fallback still draws curves");
        assert!(!html.contains("Where the wall clock went"));
    }

    #[test]
    fn health_panel_sums_counters_across_resume_segments() {
        let mut run = sample_run("run-e", 100.0);
        let mut trace = trace_with_spans();
        // Final snapshot of the first process, then a resume boundary, then
        // the second process's snapshot: totals must sum to 5.
        trace.records.push(Record::Counter { name: "measure.fault".into(), value: 3 });
        trace.records.push(Record::Schema { version: 2 });
        trace.records.push(Record::Counter { name: "measure.fault".into(), value: 2 });
        run.trace = Some(trace);
        let html = render_report(&run, None, None);
        assert!(html.contains("Measurement health"));
        assert!(html.contains(">5<"), "3 pre-resume + 2 post-resume faults: {html}");
        assert!(html.contains("fault rate"));
    }

    #[test]
    fn executor_panel_renders_only_for_executor_runs() {
        // Without exec.* counters the panel is omitted entirely.
        let mut run = sample_run("run-f", 100.0);
        run.trace = Some(trace_with_spans());
        let html = render_report(&run, None, None);
        assert!(!html.contains("Executor utilization"));

        // With exec.* counters the panel reports utilization and devices.
        let mut trace = trace_with_spans();
        for (name, value) in [
            ("exec.jobs.total", 48),
            ("exec.batch.submitted", 6),
            ("exec.build.invalid", 2),
            ("exec.worker.run.busy_us", 900),
            ("exec.worker.run.idle_us", 100),
            ("exec.device.acquires", 48),
            ("exec.device.0.acquires", 30),
            ("exec.device.0.busy_us", 700),
            ("exec.device.1.acquires", 18),
            ("exec.device.1.busy_us", 300),
        ] {
            trace.records.push(Record::Counter { name: name.into(), value });
        }
        let mut wall = telemetry::Histogram::new();
        wall.observe(1500.0);
        wall.observe(2500.0);
        trace.records.push(Record::Histogram { name: "exec.batch.wall_us".into(), hist: wall });
        run.trace = Some(trace);
        run.manifest.workers = Some(8);
        run.manifest.devices = Some(2);
        let html = render_report(&run, None, None);
        assert!(html.contains("Executor utilization"));
        assert!(html.contains("8 × 2"), "manifest workers/devices shown: {html}");
        assert!(html.contains("runner busy"));
        assert!(html.contains("90%"), "busy 900 of 1000 µs rounds to 90%");
        assert!(html.contains("batch wall µs"));
        assert!(html.contains("device 0") && html.contains("device 1"));
    }

    #[test]
    fn model_quality_panel_appears_only_for_captured_runs() {
        let mut run = sample_run("run-g", 100.0);
        let html = render_report(&run, None, None);
        assert!(!html.contains("Model quality"), "no capture → no panel");

        run.model_quality = (0..12)
            .map(|i| ModelPredRecord {
                task: "m.T1".to_string(),
                round: i / 4,
                trial: i,
                config_index: i as u64,
                predicted_mean: if i >= 4 { Some(50.0 + i as f64) } else { None },
                predicted_std: if i >= 4 { Some(4.0) } else { None },
                acquisition: None,
                measured_gflops: 50.0 + i as f64,
            })
            .collect();
        let html = render_report(&run, None, None);
        assert!(html.contains("Model quality"));
        assert!(html.contains("rank correlation"));
        assert!(html.contains("cumulative regret"));
        assert!(html.contains("trustworthy from round 1"), "{html}");
        // Panel must not break self-containment.
        for banned in ["http://", "https://", "<link", "<script", "url(", "@import"] {
            assert!(!html.contains(banned), "found banned token {banned}");
        }
    }

    #[test]
    fn task_names_are_html_escaped() {
        let mut run = sample_run("run-d", 10.0);
        run.logs[0].task_name = "m.<T1>&\"q\"".into();
        let html = render_report(&run, None, None);
        assert!(html.contains("m.&lt;T1&gt;&amp;&quot;q&quot;"));
        assert!(!html.contains("m.<T1>"));
    }
}
