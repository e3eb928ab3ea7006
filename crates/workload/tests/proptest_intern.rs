//! Property tests for the intern layer: round-tripping, pooling semantics, and the
//! guarantee that swapping owned `String` / `Vec<GpuId>` task fields for interned
//! handles left the serialized DAG byte-identical to the seed's string-labeled
//! layout.

use proptest::prelude::*;
use railsim_topology::GpuId;
use railsim_workload::{
    ComputeModel, DagBuilder, GpuSpec, LabelId, ModelConfig, ParallelismConfig, RankSet, Task,
    TaskId, TaskKind,
};
use serde::{Serialize, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn label_interning_round_trips_every_generated_label(
        bytes in proptest::collection::vec(0x20u8..0x7Fu8, 0..40),
    ) {
        // Arbitrary printable strings — including the empty string, punctuation-heavy
        // labels and whitespace runs — must resolve back to exactly themselves.
        let label = String::from_utf8(bytes).expect("printable ASCII is valid UTF-8");
        let id = LabelId::intern(&label);
        prop_assert_eq!(id.as_str(), label.as_str());
        // Interning again is stable and deduplicated.
        prop_assert_eq!(LabelId::intern(&label), id);
        // The serialized form is the plain string (what a `String` field produced).
        prop_assert_eq!(id.to_value(), Value::Str(label.clone()));
    }

    #[test]
    fn rank_set_interning_round_trips(ranks in proptest::collection::vec(0u32..100_000u32, 0..24)) {
        let gpus: Vec<GpuId> = ranks.iter().map(|&r| GpuId(r)).collect();
        let set = RankSet::intern(&gpus);
        prop_assert_eq!(set.ranks(), gpus.as_slice());
        prop_assert_eq!(set.len(), gpus.len());
        prop_assert_eq!(RankSet::intern(&gpus), set);
        prop_assert_eq!(set.to_value(), gpus.to_value());
    }

    #[test]
    fn distinct_labels_get_distinct_handles(
        a in proptest::collection::vec(97u8..123u8, 1..12),
        b in proptest::collection::vec(97u8..123u8, 1..12),
    ) {
        let a = String::from_utf8(a).expect("ascii");
        let b = String::from_utf8(b).expect("ascii");
        let (ia, ib) = (LabelId::intern(&a), LabelId::intern(&b));
        prop_assert_eq!(ia == ib, a == b);
    }
}

/// The owned-field mirror of the [`Task`] row view, shaped exactly like the seed's
/// row-major `Task` before interning and the columnar layout (same field names, same
/// order, `String` label, `Vec<GpuId>` participants, `Vec<TaskId>` deps).
#[derive(Serialize)]
struct OwnedTask {
    id: TaskId,
    kind: TaskKind,
    participants: Vec<GpuId>,
    deps: Vec<TaskId>,
    label: String,
    microbatch: Option<u32>,
    layer: Option<u32>,
}

impl OwnedTask {
    fn of(task: &Task<'_>) -> Self {
        OwnedTask {
            id: task.id,
            kind: task.kind,
            participants: task.ranks().to_vec(),
            deps: task.deps.to_vec(),
            label: task.label_str().to_owned(),
            microbatch: task.microbatch,
            layer: task.layer,
        }
    }
}

#[test]
fn interned_dag_serializes_byte_identically_to_the_string_labeled_layout() {
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    assert!(dag.len() > 100, "need a non-trivial DAG for the comparison");

    let interned: Vec<String> = dag
        .tasks()
        .map(|t| serde_json::to_string_pretty(&t).expect("task serializes"))
        .collect();
    let owned: Vec<String> = dag
        .tasks()
        .map(|t| serde_json::to_string_pretty(&OwnedTask::of(&t)).expect("mirror serializes"))
        .collect();
    assert_eq!(
        interned, owned,
        "interned tasks must serialize exactly like the owned-field layout"
    );

    // Spot-check the rendered JSON actually contains resolved strings, not handles.
    let sample = &interned[0];
    assert!(
        sample.contains("\"label\":"),
        "label field present: {sample}"
    );
    assert!(
        !sample.contains("LabelId") && !sample.contains("RankSet"),
        "no handle internals may leak into JSON: {sample}"
    );
}
