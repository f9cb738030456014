//! # aaltune — Advanced Active Learning for DNN Hardware Deployment
//!
//! A from-scratch Rust reproduction of *“Deep Neural Network Hardware
//! Deployment Optimization via Advanced Active Learning”* (Sun, Bai, Geng,
//! Yu — DATE 2021): batch transductive experimental design (**BTED**) and
//! Bootstrap-guided adaptive optimization (**BAO**) embedded in an
//! AutoTVM-style schedule auto-tuning loop, evaluated on a simulated
//! GTX 1080 Ti.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`dnn_graph`] — graph IR, fusion, model zoo, tuning-task extraction.
//! * [`schedule`] — configuration spaces, codecs, features, lowering.
//! * [`gpu_sim`] — the GPU performance-model substrate standing in for the
//!   paper's on-chip measurements.
//! * [`gbt`] — gradient-boosted regression trees (the evaluation function).
//! * [`active_learning`] — TED/BTED, BS/BAO, simulated annealing, the
//!   AutoTVM baseline tuner and end-to-end model tuning.
//!
//! # Quickstart
//!
//! ```
//! use aaltune::dnn_graph::{models, task::extract_tasks};
//! use aaltune::gpu_sim::{GpuDevice, SimMeasurer};
//! use aaltune::active_learning::{tune_task, Method, TuneOptions};
//!
//! let model = models::mobilenet_v1(1);
//! let task = extract_tasks(&model).remove(0);
//! let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
//! let opts = TuneOptions { n_trial: 128, seed: 7, ..TuneOptions::default() };
//! let result = tune_task(&task, &measurer, Method::BtedBao, &opts);
//! assert!(result.best_gflops > 0.0);
//! ```

pub use active_learning;
pub use dnn_graph;
pub use executor;
pub use gbt;
pub use gpu_sim;
pub use schedule;
