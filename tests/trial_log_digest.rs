//! Pinned trial logs: the byte-exact output of two fixed-seed tuning runs.
//!
//! Speed-ups to the surrogate (GBT) or the initial-set selection (TED) must
//! perform the same floating-point operations in the same order, so the
//! trial logs they produce stay byte-identical. These digests were recorded
//! before the node-partitioned split search and the fused TED deflation
//! landed; a change to either number is a change of behaviour, not a
//! speed-up.

use aaltune::active_learning::{tune_task, Method, TuneOptions};
use aaltune::dnn_graph::{models, task::extract_tasks};
use aaltune::gpu_sim::{GpuDevice, SimMeasurer};

/// 64-bit FNV-1a of the log's JSON-lines encoding.
fn log_digest(
    task_idx: usize,
    model: &aaltune::dnn_graph::Graph,
    method: Method,
    n: usize,
) -> String {
    let task = extract_tasks(model).remove(task_idx);
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let opts = TuneOptions { n_trial: n, early_stopping: n, seed: 5, ..TuneOptions::default() };
    let r = tune_task(&task, &measurer, method, &opts);
    assert_eq!(r.log.records.len(), n, "the run must measure its whole budget");
    let mut buf = Vec::new();
    r.log.write_jsonl(&mut buf).expect("in-memory write");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &buf {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn bted_bao_log_on_mobilenet_task0_is_pinned() {
    // 64 BTED initial points, then 32 BAO trials with Γ=2 bagged refits.
    let d = log_digest(0, &models::mobilenet_v1(1), Method::BtedBao, 96);
    assert_eq!(d, "a49c8c9fb0bf08ce");
}

#[test]
fn xgb_log_on_squeezenet_task_is_pinned() {
    // Random init plus three XGBoost refits and SA plans.
    let d = log_digest(3, &models::squeezenet_v1_1(1), Method::AutoTvm, 256);
    assert_eq!(d, "ec54deeef5714481");
}
