//! The inference-serving execution DAG.
//!
//! Training iterations are bulk-synchronous: every rank computes and communicates on
//! the same cadence, which is the regime the [`DagBuilder`](crate::DagBuilder) models.
//! Inference serving is different along every axis that matters to a reconfigurable
//! fabric: a request passes through a compute-heavy *prefill* phase (the whole prompt
//! at once) followed by many cheap *decode* steps (one token each), traffic arrives in
//! open-loop bursts rather than on an iteration clock, and capacity is provided by
//! independent *replicas* that an autoscaler grows and shrinks while the service runs.
//!
//! [`InferenceDagBuilder`] generates one *serving iteration* of such a deployment: for
//! each replica, a prefill pass through the pipeline stages (per-rank compute, a
//! tensor-parallel AllReduce per stage, activation point-to-point hops between stages)
//! followed by `decode_steps` pipelined decode passes with one-token traffic. The
//! result is an ordinary [`TrainingDag`] — the scenario driver executes it with the
//! same engine, circuits and controller as a training job — but with two structural
//! guarantees the elastic machinery relies on:
//!
//! * **No cross-replica tasks.** Every task's participants live inside one replica's
//!   rank slice, so the driver can mask replicas in and out between iterations
//!   (`JobGrow`/`JobShrink`) without dangling dependencies.
//! * **Replica-major rank layout.** Replica `r` occupies ranks
//!   `r * gpus_per_replica() ..`, so a task's replica is recoverable from its first
//!   participant — the property the scenario driver uses to build its replica mask.

use crate::compute::GpuSpec;
use crate::dag::{TaskColumns, TaskId, TaskKind, TrainingDag};
use crate::intern::{LabelId, RankSet};
use crate::model::ModelConfig;
use crate::parallelism::{DataParallelKind, ParallelismConfig};
use railsim_collectives::{CollectiveKind, CommGroup, GroupId, ParallelismAxis};
use railsim_sim::{Bytes, SimDuration};
use railsim_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The shape of an inference deployment: model, intra-replica parallelism, replica
/// count, and the request-batch geometry of one serving iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceConfig {
    /// The served model.
    pub model: ModelConfig,
    /// Tensor-parallel degree inside a replica (kept in the scale-up domain, exactly
    /// like training TP under the rail mapping).
    pub tensor: u32,
    /// Pipeline stages per replica (activation hops between stages ride the rails).
    pub pipeline: u32,
    /// Maximum replica count. The DAG always contains every replica's tasks; the
    /// scenario driver masks replicas in and out as the deployment grows and shrinks.
    pub replicas: u32,
    /// Requests batched into one serving iteration per replica.
    pub batch_size: u32,
    /// Prompt length in tokens (the prefill phase processes the whole prompt).
    pub prefill_seq_len: u32,
    /// Decode steps modeled per serving iteration (one generated token each).
    pub decode_steps: u32,
}

impl InferenceConfig {
    /// A small Llama-3-8B-shaped serving preset: TP over `tensor` GPUs, `pipeline`
    /// stages, `replicas` replicas, 8-request batches, 512-token prompts and 4 decode
    /// steps per serving iteration.
    pub fn llama3_8b(tensor: u32, pipeline: u32, replicas: u32) -> Self {
        InferenceConfig {
            model: ModelConfig::llama3_8b(),
            tensor,
            pipeline,
            replicas,
            batch_size: 8,
            prefill_seq_len: 512,
            decode_steps: 4,
        }
    }

    /// A tiny-model preset for tests (same shape as [`ModelConfig::tiny_test`]).
    pub fn tiny_test(tensor: u32, pipeline: u32, replicas: u32) -> Self {
        InferenceConfig {
            model: ModelConfig::tiny_test(),
            tensor,
            pipeline,
            replicas,
            batch_size: 4,
            prefill_seq_len: 128,
            decode_steps: 2,
        }
    }

    /// GPUs per replica (`tensor * pipeline`).
    pub fn gpus_per_replica(&self) -> u32 {
        self.tensor * self.pipeline
    }

    /// Total GPUs of the deployment at full replica count.
    pub fn world_size(&self) -> u32 {
        self.gpus_per_replica() * self.replicas
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tensor == 0 || self.pipeline == 0 || self.replicas == 0 {
            return Err("tensor, pipeline and replicas must all be at least 1".into());
        }
        if self.batch_size == 0 || self.prefill_seq_len == 0 {
            return Err("batch_size and prefill_seq_len must be at least 1".into());
        }
        if self.model.num_layers < self.pipeline {
            return Err(format!(
                "{} layers cannot fill {} pipeline stages",
                self.model.num_layers, self.pipeline
            ));
        }
        Ok(())
    }
}

/// Builds the serving-iteration DAG of an [`InferenceConfig`]; see the module docs
/// for the phase structure.
#[derive(Debug, Clone)]
pub struct InferenceDagBuilder {
    config: InferenceConfig,
    gpu: GpuSpec,
}

impl InferenceDagBuilder {
    /// Creates a builder for the given deployment shape, modeling compute on `gpu`.
    pub fn new(config: InferenceConfig, gpu: GpuSpec) -> Self {
        InferenceDagBuilder { config, gpu }
    }

    /// Builds the DAG of one serving iteration across all replicas.
    ///
    /// # Panics
    /// Panics when the configuration fails [`InferenceConfig::validate`].
    pub fn build(&self) -> TrainingDag {
        let cfg = &self.config;
        cfg.validate().expect("invalid inference configuration");
        let model = &cfg.model;
        let layers_per_stage = model.num_layers / cfg.pipeline;
        let act_bytes = |tokens: u64| {
            Bytes::new(tokens * cfg.batch_size as u64 * model.hidden_size * model.dtype.bytes())
        };
        // Per-rank stage compute: the stage's share of the layer stack, split over TP.
        let stage_compute = |tokens_per_request: u64, kv_len: u64| {
            let per_token = model.fwd_flops_per_token_per_layer(kv_len) as f64;
            let tokens = tokens_per_request * cfg.batch_size as u64;
            self.gpu.time_for_flops(
                per_token * tokens as f64 * layers_per_stage as f64 / cfg.tensor as f64,
            )
        };
        let prefill_compute = stage_compute(cfg.prefill_seq_len as u64, cfg.prefill_seq_len as u64);
        let decode_compute = stage_compute(1, cfg.prefill_seq_len as u64);
        let prefill_act = act_bytes(cfg.prefill_seq_len as u64);
        let decode_act = act_bytes(1);

        let mut cols = TaskColumns::default();
        let mut groups: BTreeMap<GroupId, CommGroup> = BTreeMap::new();

        for r in 0..cfg.replicas {
            let base = r * cfg.gpus_per_replica();
            let stage_ranks = |s: u32| -> Vec<GpuId> {
                (0..cfg.tensor)
                    .map(|t| GpuId(base + s * cfg.tensor + t))
                    .collect()
            };
            // One TP group per (replica, stage); ids are replica-major so two jobs'
            // groups stay disjoint after the scenario driver's group-id rebase.
            let tp_group = |s: u32| GroupId(r * cfg.pipeline + s);
            for s in 0..cfg.pipeline {
                let id = tp_group(s);
                groups.insert(
                    id,
                    CommGroup::new(id, ParallelismAxis::Tensor, stage_ranks(s)),
                );
            }
            // One stage's pass: per-rank compute, a TP AllReduce over the stage, and
            // (except on the last stage) the activation hop to the next stage.
            let stage_pass = |cols: &mut TaskColumns,
                              s: u32,
                              deps: &[TaskId],
                              compute: SimDuration,
                              bytes: Bytes,
                              [compute_label, sync_label, hop_label]: [String; 3]|
             -> (TaskId, Option<TaskId>) {
                let ranks = stage_ranks(s);
                let compute_label = LabelId::intern(&compute_label);
                let compute_ids: Vec<TaskId> = ranks
                    .iter()
                    .map(|rank| {
                        cols.push(
                            TaskKind::Compute { duration: compute },
                            RankSet::intern(std::slice::from_ref(rank)),
                            compute_label,
                            None,
                            None,
                            deps,
                        )
                    })
                    .collect();
                let sync = cols.push(
                    TaskKind::Collective {
                        group: tp_group(s),
                        kind: CollectiveKind::AllReduce,
                        axis: ParallelismAxis::Tensor,
                        bytes,
                    },
                    RankSet::intern(&ranks),
                    LabelId::intern(&sync_label),
                    None,
                    None,
                    &compute_ids,
                );
                let hop = (s + 1 < cfg.pipeline).then(|| {
                    let (src, dst) = (ranks[0], GpuId(base + (s + 1) * cfg.tensor));
                    cols.push_p2p(
                        TaskKind::PointToPoint {
                            src,
                            dst,
                            axis: ParallelismAxis::Pipeline,
                            bytes,
                        },
                        LabelId::intern(&hop_label),
                        None,
                        &[sync],
                    )
                });
                (sync, hop)
            };

            // Prefill: compute -> TP AllReduce per stage, activations hop stages.
            let mut prev_hop: Option<TaskId> = None;
            // The last sync task of each stage in the previous pass, for decode deps.
            let mut stage_tail: Vec<TaskId> = Vec::with_capacity(cfg.pipeline as usize);
            for s in 0..cfg.pipeline {
                let (sync, hop) = stage_pass(
                    &mut cols,
                    s,
                    prev_hop.as_slice(),
                    prefill_compute,
                    prefill_act,
                    [
                        format!("prefill r{r} s{s}"),
                        format!("prefill-TP r{r} s{s}"),
                        format!("prefill-act r{r} s{s}->s{}", s + 1),
                    ],
                );
                stage_tail.push(sync);
                prev_hop = hop;
            }

            // Decode: `decode_steps` pipelined one-token passes. Stage `s` of step `t`
            // waits for its own previous pass (KV cache ownership) and the token hop
            // from stage `s-1` of the same step.
            for t in 0..cfg.decode_steps {
                let mut hop: Option<TaskId> = None;
                for s in 0..cfg.pipeline {
                    let mut deps = vec![stage_tail[s as usize]];
                    deps.extend(hop);
                    let (sync, next_hop) = stage_pass(
                        &mut cols,
                        s,
                        &deps,
                        decode_compute,
                        decode_act,
                        [
                            format!("decode r{r} t{t} s{s}"),
                            format!("decode-TP r{r} t{t} s{s}"),
                            format!("decode-tok r{r} t{t} s{s}->s{}", s + 1),
                        ],
                    );
                    stage_tail[s as usize] = sync;
                    hop = next_hop;
                }
            }
        }

        cols.finish(
            groups,
            ParallelismConfig {
                tensor: cfg.tensor,
                sequence_parallel: false,
                context: 1,
                expert: 1,
                data: cfg.replicas,
                data_kind: DataParallelKind::AllReduce,
                pipeline: cfg.pipeline,
                num_microbatches: 1,
                microbatch_size: cfg.batch_size,
                seq_len: cfg.prefill_seq_len,
            },
            cfg.world_size(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Position, Step};

    fn dag(tensor: u32, pipeline: u32, replicas: u32) -> TrainingDag {
        InferenceDagBuilder::new(
            InferenceConfig::tiny_test(tensor, pipeline, replicas),
            GpuSpec::a100(),
        )
        .build()
    }

    #[test]
    fn inference_dag_is_valid_and_covers_every_replica() {
        let dag = dag(2, 2, 3);
        assert!(dag.validate().is_ok());
        assert_eq!(dag.max_rank() + 1, 12);
        assert_eq!(dag.config.world_size(), 12);
        assert!(dag.topological_order().is_some());
        // The execution layout is a permutation that puts every prerequisite first,
        // with the roots as an id-ordered prefix, rows in ascending task id, and each
        // position's indegree and step matching its task; clones and rebases share it.
        let layout = dag.layout();
        let mut position = vec![usize::MAX; dag.len()];
        for (p, id) in layout.order().iter().enumerate() {
            assert_eq!(
                std::mem::replace(&mut position[id.0 as usize], p),
                usize::MAX
            );
        }
        assert_eq!(layout.order().len(), dag.len());
        let roots = layout.roots();
        let (mut deps_seen, mut rows_seen) = (0, 0);
        for (p, &id) in layout.order().iter().enumerate() {
            let pos = Position(p as u32);
            let deps = dag.deps(id);
            assert!(deps.iter().all(|d| position[d.0 as usize] < p));
            assert_eq!(p < roots, deps.is_empty());
            assert!(p == 0 || p >= roots || layout.order()[p - 1] < id);
            assert_eq!(layout.indegrees()[p] as usize, deps.len());
            let row: Vec<TaskId> = layout
                .dependents(pos)
                .iter()
                .map(|&d| layout.task(d))
                .collect();
            assert!(row.windows(2).all(|w| w[0] < w[1]));
            assert!(row.iter().all(|&d| dag.deps(d).contains(&id)));
            deps_seen += deps.len();
            rows_seen += row.len();
            assert_eq!(layout.step(pos), Step::from(dag.kind(id)));
        }
        assert_eq!(deps_seen, rows_seen);
        assert!(std::ptr::eq(dag.clone().layout(), layout));
        assert!(std::ptr::eq(dag.rebase(64, 100).layout(), layout));
    }

    #[test]
    fn tasks_never_cross_replicas() {
        let cfg = InferenceConfig::tiny_test(2, 2, 3);
        let per = cfg.gpus_per_replica();
        let dag = InferenceDagBuilder::new(cfg, GpuSpec::a100()).build();
        for task in dag.tasks() {
            let replica = task.ranks()[0].0 / per;
            for rank in task.ranks() {
                assert_eq!(rank.0 / per, replica, "task {} spans replicas", task.label);
            }
        }
    }

    #[test]
    fn pipeline_hops_ride_the_pipeline_axis() {
        let dag = dag(2, 2, 1);
        let hops: Vec<_> = dag
            .tasks()
            .filter(|t| matches!(t.kind, TaskKind::PointToPoint { .. }))
            .collect();
        assert!(!hops.is_empty());
        for hop in hops {
            assert_eq!(hop.kind.axis(), Some(ParallelismAxis::Pipeline));
        }
    }

    #[test]
    fn prefill_moves_more_bytes_than_decode() {
        let dag = dag(2, 2, 1);
        let bytes_of = |prefix: &str| -> u64 {
            dag.tasks()
                .filter(|t| t.label_str().starts_with(prefix))
                .map(|t| t.kind.bytes().as_u64())
                .sum()
        };
        assert!(bytes_of("prefill-TP") > bytes_of("decode-TP"));
    }

    #[test]
    fn replica_task_count_scales_linearly() {
        let one = dag(2, 2, 1).len();
        let three = dag(2, 2, 3).len();
        assert_eq!(three, 3 * one);
    }

    #[test]
    #[should_panic(expected = "invalid inference configuration")]
    fn zero_replicas_rejected() {
        let _ = dag(2, 2, 0);
    }
}
