//! # railsim-workload — ML training workload models
//!
//! This crate generates the *demand side* of the photonic-rails question: what does a
//! hybrid-parallel training iteration ask of the network, and in what order? It
//! provides:
//!
//! * [`ModelConfig`] — transformer shapes and presets (Llama 3 8B/70B/405B, GPT-3,
//!   Mixtral-style MoE),
//! * [`ParallelismConfig`] — TP/SP, CP, EP, DP/FSDP and PP degrees plus micro-batching,
//! * [`RankMapping`] — the rank layout that places TP inside the scale-up domain and
//!   DP/PP on the rails (Fig. 1 of the paper),
//! * [`TrafficSizes`] and [`traffic::table2_rows`] — per-axis communication volumes
//!   (Table 2),
//! * [`PipelineSchedule`] — 1F1B and GPipe schedules with warm-up/steady/cool-down
//!   phase classification (Fig. 3),
//! * [`DagBuilder`] / [`TrainingDag`] — the execution DAG of one training iteration
//!   (Fig. 2), consumed by the Opus simulator,
//! * [`InferenceDagBuilder`] / [`InferenceConfig`] — the serving workload class:
//!   prefill/decode phase structure over elastic replica groups (see [`inference`]),
//! * [`intern`] — the interned label symbol table and pooled rank sets that keep a
//!   100k-GPU DAG's per-task footprint at two 4-byte handles,
//! * [`strategy`] — the Table 1 rule-of-thumb strategy advisor,
//! * [`windows`] — the Eq. 1 closed-form window-count estimate.
//!
//! ```
//! use railsim_workload::{DagBuilder, ComputeModel, GpuSpec, ModelConfig, ParallelismConfig};
//!
//! let model = ModelConfig::llama3_8b();
//! let parallel = ParallelismConfig::paper_llama3_8b();
//! let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
//! let dag = DagBuilder::new(model, parallel, compute).build();
//! assert!(dag.validate().is_ok());
//! assert!(dag.communication_tasks().count() > 0);
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the advisory
// `malloc_trim` FFI call in [`mem`] (see that module for why); everything else
// still fails to compile if it reaches for `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod dag;
pub mod inference;
pub mod intern;
pub mod mem;
pub mod model;
pub mod parallelism;
pub mod pipeline;
pub mod rank_map;
pub mod sizes;
pub mod strategy;
pub mod traffic;
pub mod windows;

pub use compute::{ComputeModel, GpuSpec};
pub use dag::{DagBuilder, ExecLayout, JobId, Position, Step, Task, TaskId, TaskKind, TrainingDag};
pub use inference::{InferenceConfig, InferenceDagBuilder};
pub use intern::{LabelId, RankSet};
pub use mem::release_free_heap;
pub use model::{DType, ModelConfig};
pub use parallelism::{DataParallelKind, ParallelismConfig};
pub use pipeline::{PipelineOp, PipelinePhase, PipelineSchedule};
pub use rank_map::{Coords, RankMapping};
pub use sizes::TrafficSizes;
pub use strategy::{recommend, StrategyFamily, StrategyRecommendation};
pub use windows::{window_count, WindowCountBreakdown, WindowCountInputs};
