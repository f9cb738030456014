//! The tuning workloads: `bao-mobilenet` and `autotvm-squeezenet`.
//!
//! A pass tunes the workload's fixed task set once. The untraced path is
//! the program's own entry point (`tune_task_with`) over the measurer
//! stack of a bare `aaltune tune`; the traced path rebuilds the same loop
//! from the crates' public pieces with timing wrappers around them. Both
//! must write byte-identical trial logs.

use crate::layers::{self, Counters, InnerMeasurer, OuterMeasurer, TimedEval, TimedTuner};
use crate::reads::{self, ReadReport};
use crate::stats::{
    geomean, median, peak_rss_mb, process_cpu_s, reset_peak_rss, thread_cpu_s, Digest, Speedometer,
    REFERENCE_S,
};
use crate::{Check, Metrics, RunArgs};
use active_learning::bao::BaoTuner;
use active_learning::bted::{bted, BtedOptions};
use active_learning::task_tuning::drive_loop;
use active_learning::tuner::{Tuner, XgbTuner};
use active_learning::{
    tune_task_with, GbtEvaluator, Method, TaskTuneResult, TrialRecord, TuneHooks, TuneOptions,
};
use dnn_graph::task::{extract_tasks, TuningTask};
use dnn_graph::{models, Graph};
use executor::{run_ordered, Executor, ExecutorConfig};
use gpu_sim::{
    measure_model, FaultConfig, FaultInjectingMeasurer, GpuDevice, KernelPerf, ModelDeployment,
    Quarantine, RetryPolicy, RobustMeasurer, SimMeasurer,
};
use rand::SeedableRng;
use schedule::template::space_for_task;
use schedule::{Config, ConfigSpace};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{FileSink, Telemetry};

/// Share of `--seconds` spent tuning; the rest serves the tuned results
/// (a window of fixed length, even when the last pass ran over).
const TUNE_SHARE: f64 = 0.7;
/// Runs of the deployed model averaged into `model_latency_ms` (Table I).
const MODEL_RUNS: usize = 600;

/// One tuning workload.
pub struct Workload {
    name: &'static str,
    /// The model as `/best` names it.
    model_name: &'static str,
    graph: fn() -> Graph,
    method: Method,
    /// Indices of the tasks tuned in every pass, in order.
    tasks: Vec<usize>,
    n_trial: usize,
    /// Tasks in flight (`run_ordered`) and executor workers (`--workers`).
    workers: usize,
    /// Install the telemetry trace pipeline, as `tune --trace FILE` does.
    trace_pipeline: bool,
}

/// Strata of MobileNet-v1 tasks by layer type — 1x1 pointwise, early
/// stride-1 depthwise, late depthwise — holding tasks whose tuned GFLOPS
/// agree within about 10%, so a seeded draw keeps the mix and the GFLOPS
/// scale of a pass the same from seed to seed.
const MOBILENET_STRATA: [&[usize]; 3] = [&[2, 6, 8, 10], &[1, 5], &[3, 13]];
/// Tasks drawn from each stratum. With one, the draw alone moved a pass's
/// trials per CPU second by 15% from seed to seed.
const PER_STRATUM: usize = 2;

impl Workload {
    /// BTED+BAO with the paper's defaults on `PER_STRATUM` seeded tasks
    /// per stratum.
    pub fn bao_mobilenet(seed: u64) -> Workload {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xB0A0);
        let mut tasks = Vec::new();
        for stratum in MOBILENET_STRATA {
            let mut pool = stratum.to_vec();
            for _ in 0..PER_STRATUM.min(pool.len()) {
                tasks.push(pool.swap_remove(rand::Rng::gen_range(&mut rng, 0..pool.len())));
            }
        }
        Workload {
            name: "bao-mobilenet",
            model_name: "mobilenet_v1",
            graph: || models::mobilenet_v1(1),
            method: Method::BtedBao,
            tasks,
            n_trial: 256,
            workers: 1,
            trace_pipeline: false,
        }
    }

    /// Stock AutoTVM on all 18 SqueezeNet tasks, two in flight.
    pub fn autotvm_squeezenet() -> Workload {
        Workload {
            name: "autotvm-squeezenet",
            model_name: "squeezenet",
            graph: || models::squeezenet_v1_1(1),
            method: Method::AutoTvm,
            tasks: (0..18).collect(),
            n_trial: 1024,
            workers: 2,
            trace_pipeline: true,
        }
    }
}

type Stack<M> = Executor<RobustMeasurer<FaultInjectingMeasurer<M>>>;

/// The measurer stack of a bare `aaltune tune`: fault injection at rate 0
/// under the retry policy, behind the executor.
fn stack<M: gpu_sim::Measurer + Send + Sync + 'static>(sim: M, workers: usize) -> Stack<M> {
    let robust = RobustMeasurer::new(
        FaultInjectingMeasurer::new(sim, FaultConfig::off()),
        RetryPolicy::default(),
    );
    Executor::new(robust, ExecutorConfig::for_workers(workers).with_devices(workers))
}

/// Everything a pass needs, built (and timed) before measuring.
struct Setup {
    graph: Graph,
    tasks: Vec<TuningTask>,
    opts: Vec<TuneOptions>,
    sim: SimMeasurer,
    plain: Stack<SimMeasurer>,
    traced: OuterMeasurer<Stack<InnerMeasurer<SimMeasurer>>>,
    counters: Arc<Counters>,
    /// The handle traced passes write their spans to.
    trace_tel: Telemetry,
    speed: Speedometer,
}

fn setup(w: &Workload, seed: u64, trace_path: &Path) -> Result<Setup, String> {
    let graph = (w.graph)();
    let all = extract_tasks(&graph);
    let tasks: Vec<TuningTask> = w.tasks.iter().map(|&i| all[i].clone()).collect();
    let opts = w
        .tasks
        .iter()
        .map(|&i| TuneOptions {
            n_trial: w.n_trial,
            early_stopping: 400.min(w.n_trial),
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64),
            ..TuneOptions::default()
        })
        .collect();
    let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let counters = Arc::new(Counters::default());
    let trace_tel = Telemetry::new(
        FileSink::create(trace_path)
            .map_err(|e| format!("create {}: {e}", trace_path.display()))?,
    );
    let traced = OuterMeasurer {
        inner: stack(
            InnerMeasurer { inner: sim.clone(), counters: Arc::clone(&counters) },
            w.workers,
        ),
        tel: trace_tel.clone(),
        counters: Arc::clone(&counters),
    };
    Ok(Setup {
        graph,
        tasks,
        opts,
        plain: stack(sim.clone(), w.workers),
        sim,
        traced,
        counters,
        trace_tel,
        speed: Speedometer::default(),
    })
}

/// The outcome of one pass over the task set.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// The CPU seconds charged to each live trial of an untraced pass,
    /// then to each task's tail after its last trial, with the speed
    /// sample beside each (see [`TrialClock`]). Empty for a traced pass.
    units: Vec<(f64, f64)>,
    /// CPU seconds the untraced pass spent sampling the speed.
    sampling_s: f64,
    /// Peak resident set size during the pass.
    peak_rss_mb: f64,
    trials: usize,
    task_walls_s: Vec<f64>,
    results: Vec<TaskTuneResult>,
    digest: String,
}

/// The initial set `tune_task_with` builds for `method` (its
/// `initial_set`), rebuilt here so BTED can be timed on its own.
fn initial_set(space: &ConfigSpace, method: Method, opts: &TuneOptions) -> Vec<Config> {
    match method {
        Method::Bted | Method::BtedBao => {
            let bopts = BtedOptions { num_selected: opts.init_points, ..opts.bted };
            bted(space, &bopts, opts.seed ^ 0xB7ED)
        }
        Method::AutoTvm => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.seed ^ 0xA070);
            space.sample_distinct(&mut rng, opts.init_points)
        }
        Method::Random => Vec::new(),
    }
}

fn traced_task(w: &Workload, s: &Setup, i: usize) -> TaskTuneResult {
    let tel = &s.trace_tel;
    let (task, opts) = (&s.tasks[i], &s.opts[i]);
    let _span = tel.span(layers::TASK);
    let space = space_for_task(task);
    let init = {
        let _init = tel.span(if w.method == Method::AutoTvm { layers::INIT } else { layers::BTED });
        initial_set(&space, w.method, opts)
    };
    let (inner, propose): (Box<dyn Tuner + '_>, _) = match w.method {
        Method::BtedBao => {
            let (tel, counters, gbt) = (tel.clone(), Arc::clone(&s.counters), opts.bao_gbt);
            let make = move || TimedEval {
                inner: GbtEvaluator::new(gbt),
                tel: tel.clone(),
                counters: Arc::clone(&counters),
            };
            (
                Box::new(BaoTuner::with_evaluator(&space, init, opts.bao, make, opts.seed)),
                layers::BAO_PROPOSE,
            )
        }
        _ => (
            Box::new(XgbTuner::new(
                &space,
                init,
                opts.gbt,
                opts.sa,
                opts.plan_size,
                opts.epsilon,
                opts.seed,
            )),
            layers::AUTOTVM_PROPOSE,
        ),
    };
    let mut tuner = TimedTuner { inner, tel: tel.clone(), propose };
    drive_loop(task, &space, &mut tuner, &s.traced, w.method, opts, TuneHooks::default())
}

/// Charges the CPU time of a task to its trials: each live trial gets the
/// time since the previous one (the first, the time since the task
/// started), so a trial that opens a batch carries the proposal and the
/// measurement of its batch. With one task in flight the clock is the
/// whole process's, executor threads and BTED's helpers included; with two
/// it is the driving thread's, and the rest of the pass's CPU time is
/// charged to the pass as a whole. After every trial that took more than
/// `SAMPLE_ABOVE_S`, the clock samples the host's speed (see
/// [`Speedometer`]); a trial is paired with the mean of the samples on
/// either side of it.
struct TrialClock<'a> {
    clock: fn() -> f64,
    speed: &'a Speedometer,
    last: f64,
    last_sample: f64,
    /// (CPU seconds, reference-work CPU seconds beside them) per trial.
    units: Vec<(f64, f64)>,
    /// CPU seconds spent sampling the speed.
    sampling_s: f64,
}

/// A trial shorter than this is paired with the last speed sample.
const SAMPLE_ABOVE_S: f64 = 5e-4;

impl<'a> TrialClock<'a> {
    fn start(workers: usize, speed: &'a Speedometer) -> TrialClock<'a> {
        let clock: fn() -> f64 = if workers == 1 { process_cpu_s } else { thread_cpu_s };
        let last_sample = speed.sample(clock);
        TrialClock { clock, speed, last: clock(), last_sample, units: Vec::new(), sampling_s: 0.0 }
    }

    fn tick(&mut self) {
        let now = (self.clock)();
        let cpu = now - self.last;
        if cpu < SAMPLE_ABOVE_S {
            self.units.push((cpu, self.last_sample));
            self.last = now;
            return;
        }
        let sample = self.speed.sample(self.clock);
        self.units.push((cpu, 0.5 * (self.last_sample + sample)));
        self.last_sample = sample;
        self.last = (self.clock)();
        self.sampling_s += self.last - now;
    }
}

fn run_pass(w: &Workload, s: &Setup, traced: bool, trace_u: &Path) -> Result<Pass, String> {
    // Every pass starts from an empty quarantine, like a fresh `tune`: the
    // robust layer remembers crashing configurations, and the loop would
    // otherwise steer around the previous pass's findings.
    s.plain.inner().restore_quarantine(Quarantine::new());
    s.traced.inner.inner().restore_quarantine(Quarantine::new());
    let pipeline = match (w.trace_pipeline, traced) {
        (false, _) => None,
        (true, false) => Some(
            telemetry::install_pipeline(Some(trace_u), true, false)
                .map_err(|e| format!("trace pipeline: {e}"))?,
        ),
        (true, true) => {
            telemetry::set_global(s.trace_tel.clone());
            Some(s.trace_tel.clone())
        }
    };
    let t0 = Instant::now();
    let c0 = process_cpu_s();
    let out = run_ordered((0..s.tasks.len()).collect(), w.workers, |_, i| {
        let t = Instant::now();
        if traced {
            return (traced_task(w, s, i), t.elapsed().as_secs_f64(), (Vec::new(), 0.0));
        }
        let mut clock = TrialClock::start(w.workers, &s.speed);
        let mut on_trial = |_: &TrialRecord| clock.tick();
        let hooks = TuneHooks { on_trial: Some(&mut on_trial), ..TuneHooks::default() };
        let r = tune_task_with(&s.tasks[i], &s.plain, w.method, &s.opts[i], hooks);
        clock.tick();
        (r, t.elapsed().as_secs_f64(), (clock.units, clock.sampling_s))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - c0;
    if traced {
        s.counters.drain_into(&s.trace_tel);
        s.trace_tel.flush();
    }
    if let Some(tel) = pipeline {
        tel.flush();
        telemetry::set_global(Telemetry::disabled());
    }
    let mut digest = Digest::default();
    let mut buf = Vec::new();
    for (r, _, _) in &out {
        buf.clear();
        r.log.write_jsonl(&mut buf).map_err(|e| format!("encode log: {e}"))?;
        digest.update(&buf);
    }
    let mut pass = Pass {
        wall_s,
        cpu_s,
        units: Vec::new(),
        sampling_s: 0.0,
        peak_rss_mb: 0.0,
        trials: out.iter().map(|(r, _, _)| r.num_measured).sum(),
        task_walls_s: out.iter().map(|(_, t, _)| *t).collect(),
        results: Vec::new(),
        digest: digest.hex(),
    };
    for (r, _, (units, sampling_s)) in out {
        pass.results.push(r);
        pass.units.extend(units);
        pass.sampling_s += sampling_s;
    }
    Ok(pass)
}

/// The reference CPU seconds of an untraced pass (see [`Speedometer`]):
/// each trial's CPU time scaled by `REFERENCE_S` over the speed sample
/// beside it, plus the rest of the pass's CPU time (not charged to a
/// trial, speed sampling excluded) scaled by the pass's mean factor.
fn reference_cpu_s(p: &Pass) -> f64 {
    let raw: f64 = p.units.iter().map(|(c, _)| c).sum();
    let scaled: f64 = p.units.iter().map(|(c, r)| c * REFERENCE_S / r).sum();
    let rest = (p.cpu_s - raw - p.sampling_s).max(0.0);
    scaled + rest * scaled / raw.max(1e-12)
}

/// Every task finished its budget cleanly with a monotone curve.
fn check_pass(p: &Pass, check: &mut Check) {
    for r in &p.results {
        check.attempt();
        let curve = r.log.convergence_curve();
        let monotone = curve.windows(2).all(|w| w[1] >= w[0]);
        if r.aborted.is_some() || !monotone || r.best_gflops <= 0.0 || r.best_config.is_none() {
            check.fail(format!("{}: aborted={:?} monotone={monotone}", r.task_name, r.aborted));
        }
    }
}

/// Simulated latency of the model deployed with the tuned kernels; the
/// anchors of tasks not tuned here run the library schedule.
fn model_latency_ms(s: &Setup, results: &[TaskTuneResult], seed: u64) -> Result<f64, String> {
    let mut tuned: Vec<(TuningTask, KernelPerf)> = Vec::new();
    for (task, r) in s.tasks.iter().zip(results) {
        let cfg = r.best_config.as_ref().ok_or_else(|| format!("{}: no best config", task.name))?;
        let perf = s
            .sim
            .true_perf(task, &space_for_task(task), cfg)
            .map_err(|e| format!("{}: best config invalid: {e}", task.name))?;
        tuned.push((task.clone(), perf));
    }
    let deployment = ModelDeployment::assemble(&s.graph, &tuned, s.sim.device());
    Ok(measure_model(&deployment, MODEL_RUNS, seed).mean_ms)
}

/// Runs a tuning workload for `args.seconds` and fills `metrics`.
pub fn run(
    w: &Workload,
    args: &RunArgs,
    work: &Path,
    check: &mut Check,
) -> Result<Metrics, String> {
    let trace_t = args.trace_file.clone();
    let trace_u: PathBuf = work.join("pipeline.jsonl");
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut s = None;
    let speed = Speedometer::default();
    for _ in 0..crate::SETUP_REPS {
        let t = Instant::now();
        let (built, cpu_s) = speed.reference_cpu(|| setup(w, args.seed, &trace_t));
        s = Some(built?);
        setup_cpu.push(cpu_s);
        setup_wall.push(t.elapsed().as_secs_f64());
    }
    let s = s.ok_or("no setup")?;
    let tune_deadline = Instant::now() + Duration::from_secs_f64(args.seconds * TUNE_SHARE);

    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut trace_bytes = 0u64;
    let mut trace_records = 0usize;
    loop {
        reset_peak_rss();
        let mut p = run_pass(w, &s, false, &trace_u)?;
        p.peak_rss_mb = peak_rss_mb();
        if w.trace_pipeline {
            let text = std::fs::read_to_string(&trace_u).map_err(|e| format!("read trace: {e}"))?;
            trace_bytes = text.len() as u64;
            trace_records = text.lines().count();
        }
        let last = p.wall_s;
        plain.push(p);
        if args.trace {
            traced.push(run_pass(w, &s, true, &trace_u)?);
        }
        let pass_s = last * if args.trace { 2.1 } else { 1.05 };
        if Instant::now() + Duration::from_secs_f64(pass_s) > tune_deadline {
            break;
        }
    }
    let reference = &plain[0];
    println!("digest {} seed={} {}", w.name, args.seed, reference.digest);
    for p in plain.iter().chain(&traced) {
        check_pass(p, check);
        if p.digest != reference.digest {
            check.fail(format!("trial-log digest {} != {}", p.digest, reference.digest));
        }
    }

    // Serve the tuned results through the read path for the rest of the run.
    let last = plain.last().ok_or("no pass")?;
    let records: Vec<_> = w
        .tasks
        .iter()
        .zip(&s.tasks)
        .zip(&s.opts)
        .zip(&last.results)
        .filter_map(|(((&i, t), o), r)| {
            reads::record_from_log(t, w.method.label(), o.seed, &r.log).map(|rec| (i, rec))
        })
        .collect();
    reset_peak_rss();
    let read: ReadReport = reads::serve_tuned(
        w.model_name,
        &records,
        args,
        work,
        args.seconds * (1.0 - TUNE_SHARE),
        check,
    )?;

    let mut m = Metrics::default();
    let tps: Vec<f64> = plain.iter().map(|p| p.trials as f64 / p.wall_s).collect();
    let walls: Vec<f64> = plain.iter().flat_map(|p| p.task_walls_s.iter().copied()).collect();
    let bests: Vec<f64> = last.results.iter().map(|r| r.best_gflops).collect();
    let reference_cpu: Vec<f64> = plain.iter().map(reference_cpu_s).collect();
    m.end("trials_per_cpu_s", reference.trials as f64 / median(&reference_cpu));
    m.end("tuned_gflops_geomean", geomean(&bests));
    m.end("model_latency_ms", model_latency_ms(&s, &last.results, args.seed)?);
    m.end("setup_s", median(&setup_cpu) + read.setup.cpu_s);
    let pass_rss: Vec<f64> = plain.iter().map(|p| p.peak_rss_mb).collect();
    m.end("peak_rss_mb", median(&pass_rss).max(peak_rss_mb()));
    read.end_metrics(&mut m);
    m.layer("trials_per_s", median(&tps));
    m.layer("job.wall_p50_s", median(&walls));
    m.layer("setup.wall_s", median(&setup_wall) + read.setup.wall_s);

    if args.trace {
        let mut layers = layers::tuning_layers(&trace_t, traced.len(), s.opts[0].sa.parallel_size)?;
        let plain_wall: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        layers.insert(
            "trace.overhead_pct",
            100.0 * (median(&traced_wall) / median(&plain_wall) - 1.0),
        );
        let trials = last.trials.max(1) as f64;
        layers.insert("telemetry.trace_bytes_per_trial", trace_bytes as f64 / trials);
        layers.insert("telemetry.records_per_trial", trace_records as f64 / trials);
        for (k, v) in layers {
            m.layer(k, v);
        }
        read.layer_metrics(&mut m);
    }
    Ok(m)
}
