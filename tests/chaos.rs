//! Chaos properties: the tuning loop must survive injected measurement
//! faults at any rate — completing its trial budget, never panicking, and
//! keeping the per-trial best curve monotone — and the faulted best must
//! stay close to the fault-free best at moderate rates.

use aaltune::active_learning::{tune_task, Method, TuneOptions};
use aaltune::dnn_graph::{models, task::extract_tasks};
use aaltune::gpu_sim::{
    FaultConfig, FaultInjectingMeasurer, GpuDevice, RetryPolicy, RobustMeasurer, SimMeasurer,
};
use proptest::prelude::*;

fn chaos_tune(rate: f64, fault_seed: u64, tune_seed: u64, n_trial: usize) -> (f64, Vec<f64>) {
    let task = extract_tasks(&models::squeezenet_v1_1(1)).remove(0);
    let sim = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let faulty = FaultInjectingMeasurer::new(sim, FaultConfig { rate, seed: fault_seed });
    let m = RobustMeasurer::new(faulty, RetryPolicy::default());
    let opts = TuneOptions { n_trial, seed: tune_seed, ..TuneOptions::smoke() };
    let r = tune_task(&task, &m, Method::AutoTvm, &opts);
    let curve = r.log.convergence_curve();
    (r.best_gflops, curve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tuning_survives_any_fault_rate(
        rate in prop_oneof![Just(0.0), Just(0.1), Just(0.5)],
        fault_seed in 0u64..1000,
        tune_seed in 0u64..1000,
    ) {
        let (best, curve) = chaos_tune(rate, fault_seed, tune_seed, 48);
        // The loop completes its full budget even at 50% faults.
        prop_assert_eq!(curve.len(), 48);
        // The running best is monotone non-decreasing and finite.
        for w in curve.windows(2) {
            prop_assert!(w[1] >= w[0], "best curve must be monotone: {curve:?}");
        }
        prop_assert!(curve.iter().all(|b| b.is_finite() && *b >= 0.0));
        prop_assert_eq!(*curve.last().unwrap(), best);
        // Even under heavy chaos something real gets measured.
        prop_assert!(best > 0.0, "no valid trial survived rate {rate}");
    }

    #[test]
    fn faulted_runs_are_deterministic(
        rate in prop_oneof![Just(0.1), Just(0.5)],
        seed in 0u64..1000,
    ) {
        let a = chaos_tune(rate, seed, seed, 32);
        let b = chaos_tune(rate, seed, seed, 32);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn moderate_faults_barely_dent_the_best() {
    // Acceptance: at a 10% fault rate the tuner's best stays within 10%
    // of the fault-free best over the same budget (averaged over seeds to
    // keep the check sharp but stable).
    let (mut clean, mut chaos) = (0.0, 0.0);
    for seed in 0..4u64 {
        clean += chaos_tune(0.0, seed, seed, 96).0;
        chaos += chaos_tune(0.1, seed, seed, 96).0;
    }
    assert!(
        chaos >= 0.9 * clean,
        "10% faults cost more than 10% of best: clean {clean:.1}, chaos {chaos:.1}"
    );
}
