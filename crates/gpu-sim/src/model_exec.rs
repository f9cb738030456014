//! End-to-end model execution.
//!
//! Table I of the paper reports, per model, the mean and variance of
//! inference latency over 600 runs of the *deployed* model — every fused
//! kernel using its tuned configuration, plus the un-tuned auxiliary
//! operators (pooling, softmax, …). This module assembles such a deployment
//! and samples its latency distribution.

use crate::device::GpuDevice;
use crate::noise::{seed_for, NoiseProfile};
use crate::perf::KernelPerf;
use dnn_graph::fusion::fuse;
use dnn_graph::ops::Op;
use dnn_graph::task::{TuningTask, Workload};
use dnn_graph::Graph;
use serde::{Deserialize, Serialize};

/// One kernel in a deployed model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedKernel {
    /// Name (task name for tuned kernels, operator name otherwise).
    pub name: String,
    /// Noise-free latency in seconds.
    pub latency_s: f64,
    /// Run-to-run noise behaviour.
    pub noise: NoiseProfile,
}

/// A fully-configured model: every graph kernel with its latency and noise.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDeployment {
    /// Model name.
    pub model_name: String,
    /// All kernels in execution order.
    pub kernels: Vec<DeployedKernel>,
}

/// Latency statistics over repeated end-to-end runs (Table I's columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelLatency {
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Variance of the per-run latencies (ms²).
    pub variance: f64,
    /// Fastest run in milliseconds.
    pub min_ms: f64,
    /// Slowest run in milliseconds.
    pub max_ms: f64,
}

/// Latency of an un-tuned auxiliary operator: element-wise / copy traffic
/// at DRAM bandwidth plus launch overhead. `None` if the op emits no kernel.
fn aux_latency(graph: &Graph, node: &dnn_graph::Node, device: &GpuDevice) -> Option<f64> {
    let out_bytes = node.output.num_elements() as f64 * 4.0;
    let in_bytes: f64 =
        node.inputs.iter().map(|&i| graph.node(i).output.num_elements() as f64 * 4.0).sum();
    let traffic = match node.op {
        // No kernel: layout-only or inference-time identity.
        Op::Input(_) | Op::Flatten | Op::Dropout => return None,
        // Reads the window per output; approximate with in+out traffic.
        Op::Pool2d(_) | Op::GlobalAvgPool | Op::Lrn => in_bytes + out_bytes,
        // Element-wise and copies.
        Op::Relu | Op::BatchNorm | Op::Add | Op::Concat | Op::Softmax => in_bytes + out_bytes,
        // Anchors are handled by the tuned path.
        Op::Conv2d(_) | Op::Dense(_) => return None,
    };
    Some(traffic / (device.dram_bw_gbps * 1e9) + device.launch_overhead_s)
}

impl ModelDeployment {
    /// Assembles a deployment of `graph` from tuned kernels.
    ///
    /// `tuned` maps each unique workload to its chosen configuration's
    /// noise-free performance — the output of tuning every task of the
    /// model. Anchored fused groups look up their workload; anchors without
    /// a tuned entry (e.g. dense layers, which AutoTVM's GPU flow leaves to
    /// the vendor library) get a fixed library-schedule estimate; every
    /// auxiliary group contributes a bandwidth-model kernel.
    #[must_use]
    pub fn assemble(graph: &Graph, tuned: &[(TuningTask, KernelPerf)], device: &GpuDevice) -> Self {
        let fused = fuse(graph);
        let mut kernels = Vec::new();
        for group in &fused.groups {
            match group.anchor {
                Some(anchor_id) => {
                    let node = graph.node(anchor_id);
                    let workload = anchor_workload(graph, anchor_id);
                    match tuned.iter().find(|(t, _)| t.workload == workload) {
                        Some((task, perf)) => kernels.push(DeployedKernel {
                            name: task.name.clone(),
                            latency_s: perf.latency_s,
                            noise: perf.noise_profile(),
                        }),
                        None => kernels.push(library_kernel(&workload, node, device)),
                    }
                }
                None => {
                    let node = graph.node(group.members[0]);
                    if let Some(lat) = aux_latency(graph, node, device) {
                        kernels.push(DeployedKernel {
                            name: node.op.name().to_string(),
                            latency_s: lat,
                            // Bandwidth-bound helpers are well-behaved.
                            noise: NoiseProfile::from_quality(0.9, 0.05),
                        });
                    }
                }
            }
        }
        ModelDeployment { model_name: graph.name.clone(), kernels }
    }
}

/// Vendor-library estimate for an un-tuned anchor: a well-optimized but not
/// workload-specialized kernel (~35% of peak compute, full bandwidth).
fn library_kernel(
    workload: &Workload,
    node: &dnn_graph::Node,
    device: &GpuDevice,
) -> DeployedKernel {
    let flops = workload.flops() as f64;
    let bytes = node.output.num_elements() as f64 * 4.0 * 3.0;
    let latency = (flops / (device.peak_flops() * 0.35)).max(bytes / (device.dram_bw_gbps * 1e9))
        + device.launch_overhead_s;
    DeployedKernel {
        name: format!("lib.{}", node.op.name()),
        latency_s: latency,
        noise: NoiseProfile::from_quality(0.8, 0.1),
    }
}

fn anchor_workload(graph: &Graph, node_id: usize) -> Workload {
    let node = graph.node(node_id);
    let input = &graph.node(node.inputs[0]).output;
    match &node.op {
        Op::Conv2d(a) => Workload::Conv2d {
            batch: input.dim(0),
            in_channels: a.in_channels,
            out_channels: a.out_channels,
            height: input.dim(2),
            width: input.dim(3),
            kernel: a.kernel,
            stride: a.stride,
            padding: (a.padding.h, a.padding.w),
            groups: a.groups,
        },
        Op::Dense(a) => Workload::Dense {
            batch: input.dim(0),
            in_features: a.in_features,
            out_features: a.out_features,
        },
        other => unreachable!("anchors are conv or dense, got {other}"),
    }
}

/// Runs the deployed model `runs` times (the paper uses 600) and returns
/// latency statistics. `seed` separates experiment trials.
#[must_use]
pub fn measure_model(deployment: &ModelDeployment, runs: usize, seed: u64) -> ModelLatency {
    assert!(runs > 0, "need at least one run");
    let mut samples = Vec::with_capacity(runs);
    for run in 0..runs as u64 {
        let mut total = 0.0;
        for (ki, k) in deployment.kernels.iter().enumerate() {
            let kseed = seed_for(&k.name, seed ^ (ki as u64).rotate_left(32));
            total += k.noise.sample(k.latency_s, kseed, run);
        }
        samples.push(total * 1e3);
    }
    let mean = samples.iter().sum::<f64>() / runs as f64;
    let variance = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / runs as f64;
    ModelLatency {
        mean_ms: mean,
        variance,
        min_ms: samples.iter().cloned().fold(f64::INFINITY, f64::min),
        max_ms: samples.iter().cloned().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::SimMeasurer;
    use dnn_graph::{models, task::extract_tasks};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use schedule::template::space_for_task;

    /// Tunes each task with `n` random samples, keeping the best valid.
    fn random_tune(graph: &Graph, n: usize, seed: u64) -> Vec<(TuningTask, KernelPerf)> {
        let m = SimMeasurer::new(GpuDevice::gtx_1080_ti());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        extract_tasks(graph)
            .into_iter()
            .map(|task| {
                let space = space_for_task(&task);
                // Collect n *valid* configs (invalid rates vary per task).
                let mut perfs = Vec::new();
                let mut attempts = 0;
                while perfs.len() < n && attempts < 200 * n {
                    attempts += 1;
                    let cfg = space.sample(&mut rng);
                    if let Ok(p) = m.true_perf(&task, &space, &cfg) {
                        perfs.push(p);
                    }
                }
                let best = perfs
                    .into_iter()
                    .min_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
                    .expect("some valid config among samples");
                (task, best)
            })
            .collect()
    }

    #[test]
    fn mobilenet_deploys_and_measures() {
        let g = models::mobilenet_v1(1);
        let tuned = random_tune(&g, 60, 1);
        let dep = ModelDeployment::assemble(&g, &tuned, &GpuDevice::gtx_1080_ti());
        // 27 tuned convs + dense fallback? dense is not tuned...
        assert!(dep.kernels.len() > 27);
        let lat = measure_model(&dep, 600, 0);
        assert!(lat.mean_ms > 0.05 && lat.mean_ms < 100.0, "mean {}", lat.mean_ms);
        assert!(lat.variance >= 0.0);
        assert!(lat.min_ms <= lat.mean_ms && lat.mean_ms <= lat.max_ms);
    }

    #[test]
    fn better_configs_give_lower_latency_and_variance() {
        let g = models::mobilenet_v1(1);
        let poor = random_tune(&g, 10, 2);
        let good = random_tune(&g, 150, 2);
        let d = GpuDevice::gtx_1080_ti();
        let dep_poor = ModelDeployment::assemble(&g, &poor, &d);
        let dep_good = ModelDeployment::assemble(&g, &good, &d);
        let l_poor = measure_model(&dep_poor, 600, 0);
        let l_good = measure_model(&dep_good, 600, 0);
        assert!(l_good.mean_ms < l_poor.mean_ms);
        assert!(l_good.variance < l_poor.variance);
    }

    #[test]
    fn measurement_statistics_are_deterministic_per_seed() {
        let g = models::squeezenet_v1_1(1);
        let tuned = random_tune(&g, 30, 3);
        let dep = ModelDeployment::assemble(&g, &tuned, &GpuDevice::gtx_1080_ti());
        assert_eq!(measure_model(&dep, 100, 5), measure_model(&dep, 100, 5));
        assert_ne!(measure_model(&dep, 100, 5), measure_model(&dep, 100, 6));
    }

    #[test]
    fn untuned_anchors_fall_back_to_library_kernels() {
        let g = models::alexnet(1);
        let tuned = random_tune(&g, 10, 4);
        let partial = &tuned[..2];
        let dep = ModelDeployment::assemble(&g, partial, &GpuDevice::gtx_1080_ti());
        let libs = dep.kernels.iter().filter(|k| k.name.starts_with("lib.")).count();
        // 3 untuned convs + 3 dense layers use the library path.
        assert_eq!(libs, 6);
        assert!(measure_model(&dep, 50, 0).mean_ms > 0.0);
    }
}
