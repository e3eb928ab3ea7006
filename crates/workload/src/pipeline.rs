//! The pipeline-parallel schedule.
//!
//! The paper's trace study (§3.1) uses the 1-forward-1-backward (1F1B) schedule: each
//! stage performs a number of warm-up forward passes, then alternates one forward with
//! one backward (the *steady* phase), and finally drains the remaining backwards
//! (*cool-down*). The training builder orders every stage's passes this way; Fig. 3
//! shows the traffic that order produces on the rails, grouped by parallelism axis.

/// One compute step of a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PipelineOp {
    /// Forward pass of one micro-batch.
    Forward {
        /// Micro-batch index.
        microbatch: u32,
    },
    /// Backward pass of one micro-batch.
    Backward {
        /// Micro-batch index.
        microbatch: u32,
    },
}

impl PipelineOp {
    /// The micro-batch this op processes.
    pub(crate) fn microbatch(self) -> u32 {
        match self {
            PipelineOp::Forward { microbatch } | PipelineOp::Backward { microbatch } => microbatch,
        }
    }

    /// True for forward ops.
    pub(crate) fn is_forward(self) -> bool {
        matches!(self, PipelineOp::Forward { .. })
    }
}

/// The 1F1B op sequence executed by `stage` (0-based) of a pipeline with `num_stages`
/// stages and `num_microbatches` micro-batches: `num_stages − stage − 1` warm-up
/// forwards (at most one per micro-batch), then alternating forwards and backwards,
/// then the remaining backwards.
///
/// # Panics
/// Panics if `stage >= num_stages`, or either count is zero.
pub(crate) fn one_f_one_b(stage: u32, num_stages: u32, num_microbatches: u32) -> Vec<PipelineOp> {
    assert!(num_stages > 0 && num_microbatches > 0, "empty pipeline");
    assert!(stage < num_stages, "stage {stage} out of range");
    let warmup = (num_stages - stage - 1).min(num_microbatches);
    let mut ops = Vec::new();
    for m in 0..warmup {
        ops.push(PipelineOp::Forward { microbatch: m });
    }
    let steady = num_microbatches - warmup;
    for i in 0..steady {
        ops.push(PipelineOp::Forward {
            microbatch: warmup + i,
        });
        ops.push(PipelineOp::Backward { microbatch: i });
    }
    for i in 0..warmup {
        ops.push(PipelineOp::Backward {
            microbatch: steady + i,
        });
    }
    ops
}

/// The pipeline-bubble fraction of the 1F1B schedule: idle compute slots divided by
/// the total slots, `(S - 1) / (M + S - 1)`.
pub fn bubble_fraction(num_stages: u32, num_microbatches: u32) -> f64 {
    let s = num_stages as f64;
    let m = num_microbatches as f64;
    (s - 1.0) / (m + s - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_f_one_b_paper_configuration() {
        // PP=2, M=2. Stage 0: F0, F1, B0, B1. Stage 1: F0, B0, F1, B1.
        let s0 = one_f_one_b(0, 2, 2);
        let s1 = one_f_one_b(1, 2, 2);
        use PipelineOp::*;
        assert_eq!(
            s0,
            vec![
                Forward { microbatch: 0 },
                Forward { microbatch: 1 },
                Backward { microbatch: 0 },
                Backward { microbatch: 1 }
            ]
        );
        assert_eq!(
            s1,
            vec![
                Forward { microbatch: 0 },
                Backward { microbatch: 0 },
                Forward { microbatch: 1 },
                Backward { microbatch: 1 }
            ]
        );
    }

    #[test]
    fn every_microbatch_appears_exactly_once_per_direction() {
        for stages in 1..=4u32 {
            for stage in 0..stages {
                let m = 6;
                let ops = one_f_one_b(stage, stages, m);
                assert_eq!(ops.len() as u32, 2 * m);
                for mb in 0..m {
                    let fwd = ops
                        .iter()
                        .filter(|o| o.is_forward() && o.microbatch() == mb)
                        .count();
                    let bwd = ops
                        .iter()
                        .filter(|o| !o.is_forward() && o.microbatch() == mb)
                        .count();
                    assert_eq!((fwd, bwd), (1, 1));
                }
            }
        }
    }

    #[test]
    fn backward_never_precedes_its_forward() {
        for stages in 1..=4u32 {
            for stage in 0..stages {
                let ops = one_f_one_b(stage, stages, 8);
                for mb in 0..8 {
                    let f = ops
                        .iter()
                        .position(|o| o.is_forward() && o.microbatch() == mb)
                        .unwrap();
                    let b = ops
                        .iter()
                        .position(|o| !o.is_forward() && o.microbatch() == mb)
                        .unwrap();
                    assert!(f < b, "stage {stage}: B{mb} before F{mb}");
                }
            }
        }
    }

    /// The forwards `ops` runs before its first backward (the warm-up) and the
    /// backwards it runs after its last forward (the cool-down).
    fn warmup_and_cooldown(ops: &[PipelineOp]) -> (usize, usize) {
        let warmup = ops.iter().take_while(|o| o.is_forward()).count();
        let cooldown = ops.iter().rev().take_while(|o| !o.is_forward()).count();
        (warmup, cooldown)
    }

    #[test]
    fn last_stage_has_no_warmup() {
        let ops = one_f_one_b(3, 4, 8);
        // One forward, then strict alternation: the steady phase starts at once.
        assert_eq!(warmup_and_cooldown(&ops), (1, 1));
        assert!(ops.iter().step_by(2).all(|o| o.is_forward()));
    }

    #[test]
    fn first_stage_has_longest_warmup() {
        // Three warm-up forwards beyond the steady phase's first, and three cool-down
        // backwards beyond its last.
        assert_eq!(warmup_and_cooldown(&one_f_one_b(0, 4, 8)), (4, 4));
    }

    #[test]
    fn bubble_fraction_shrinks_with_more_microbatches() {
        assert!(bubble_fraction(4, 4) > bubble_fraction(4, 16));
        assert!((bubble_fraction(1, 8) - 0.0).abs() < 1e-12);
        assert!((bubble_fraction(2, 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_stage_panics() {
        one_f_one_b(2, 2, 2);
    }
}
