//! Internal calibration probe: per-method wall-clock and quality on a task
//! or a whole model. Not part of the paper reproduction; used to size
//! budgets and diagnose outliers.

use active_learning::{tune_model, tune_task, Method, TuneOptions};
use bench::args::Args;
use dnn_graph::{models, task::extract_tasks};
use gpu_sim::{GpuDevice, SimMeasurer};
use std::time::Instant;

fn main() -> Result<(), String> {
    let args = Args::from_env();
    let n_trial: usize = args.get("n-trial", 768);
    let seed: u64 = args.get("seed", 0);
    let opts =
        TuneOptions { n_trial, early_stopping: 400.min(n_trial), seed, ..TuneOptions::default() };

    let model_name = args.get_str("model", "");
    if !model_name.is_empty() {
        // Whole-model diagnosis: per-task best GFLOPS and config counts.
        let graph = models::by_name(&model_name)?;
        let method = Method::by_name(&args.get_str("method", "bted+bao"))?;
        let m = SimMeasurer::new(GpuDevice::gtx_1080_ti()).with_trial_seed(seed);
        let r = tune_model(&graph, &m, method, &opts, 600);
        println!(
            "{} {}: latency {:.4} ms variance {:.4}",
            r.model_name, method, r.latency.mean_ms, r.latency.variance
        );
        for t in &r.tasks {
            println!(
                "  {:<16} {:>9.1} GFLOPS  {:>4} configs",
                t.task_name, t.best_gflops, t.num_measured
            );
        }
        return Ok(());
    }

    let task_idx: usize = args.get("task", 0);
    let tasks = extract_tasks(&models::mobilenet_v1(1));
    let task = &tasks[task_idx];
    let m = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    println!("task {}: {}", task_idx, task);
    for method in [Method::AutoTvm, Method::Bted, Method::BtedBao] {
        // aal-lint: allow(wall-clock, reason = "experiment runtime recorded in probe output; not a tuning input")
        let t0 = Instant::now();
        let r = tune_task(task, &m, method, &opts);
        println!(
            "{:<9} {:8.1} GFLOPS  {:4} configs  {:6.1}s",
            method.to_string(),
            r.best_gflops,
            r.num_measured,
            t0.elapsed().as_secs_f64()
        );
    }
    Ok(())
}
