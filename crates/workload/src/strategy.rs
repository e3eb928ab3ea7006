//! Rule-of-thumb parallelism strategy selection (Table 1 of the paper).
//!
//! The paper's Table 1 summarizes the community's rule-of-thumb mapping from model size
//! and GPU count to parallelism strategies (following the Ultra-Scale Playbook \[67\]).
//! [`recommend`] reproduces that table and is used both by the `table1_strategies`
//! experiment binary and by examples that need a sensible default configuration.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A parallelism strategy family, as named in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyFamily {
    /// Tensor parallelism only.
    Tp,
    /// Data parallelism only (including FSDP).
    Dp,
    /// Tensor + pipeline parallelism.
    TpPp,
    /// Tensor + data parallelism.
    TpDp,
    /// Data + pipeline parallelism.
    DpPp,
    /// Data + tensor parallelism.
    DpTp,
    /// Tensor + data + pipeline parallelism (full 3D).
    TpDpPp,
}

impl fmt::Display for StrategyFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrategyFamily::Tp => "TP",
            StrategyFamily::Dp => "DP",
            StrategyFamily::TpPp => "TP & PP",
            StrategyFamily::TpDp => "TP & DP",
            StrategyFamily::DpPp => "DP & PP",
            StrategyFamily::DpTp => "DP & TP",
            StrategyFamily::TpDpPp => "TP, DP & PP",
        };
        f.write_str(s)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyRecommendation {
    /// Model size classification used by the table.
    pub model_class: &'static str,
    /// GPU-count range description.
    pub gpu_range: &'static str,
    /// Recommended strategy families, in preference order.
    pub strategies: Vec<StrategyFamily>,
}

/// Recommends parallelism strategy families for a model of `params` parameters trained
/// on `num_gpus` GPUs, reproducing the paper's Table 1.
pub fn recommend(params: u64, num_gpus: u32) -> StrategyRecommendation {
    let small = params < 10_000_000_000;
    if small {
        // Small (<10B): N <= 8 — TP or DP. (Larger GPU counts for small models simply
        // scale the DP axis; the table only lists the N <= 8 row.)
        StrategyRecommendation {
            model_class: "Small (<10B)",
            gpu_range: "N <= 8",
            strategies: vec![StrategyFamily::Tp, StrategyFamily::Dp],
        }
    } else if num_gpus <= 512 {
        StrategyRecommendation {
            model_class: "Large (>10B)",
            gpu_range: "8 < N <= 512",
            strategies: vec![
                StrategyFamily::TpPp,
                StrategyFamily::TpDp,
                StrategyFamily::Dp,
            ],
        }
    } else if num_gpus <= 1024 {
        StrategyRecommendation {
            model_class: "Large (>10B)",
            gpu_range: "512 < N <= 1024",
            strategies: vec![StrategyFamily::DpPp, StrategyFamily::DpTp],
        }
    } else {
        StrategyRecommendation {
            model_class: "Large (>10B)",
            gpu_range: "N > 1024",
            strategies: vec![StrategyFamily::TpDpPp],
        }
    }
}

/// The full Table 1 as (model class, GPU range, strategies) rows.
pub fn table1_rows() -> Vec<StrategyRecommendation> {
    vec![
        recommend(8_000_000_000, 8),
        recommend(70_000_000_000, 512),
        recommend(70_000_000_000, 1024),
        recommend(405_000_000_000, 8192),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_models_use_tp_or_dp() {
        let rec = recommend(8_000_000_000, 8);
        assert_eq!(rec.strategies, vec![StrategyFamily::Tp, StrategyFamily::Dp]);
        assert_eq!(rec.model_class, "Small (<10B)");
    }

    #[test]
    fn mid_scale_large_models() {
        let rec = recommend(70_000_000_000, 256);
        assert!(rec.strategies.contains(&StrategyFamily::TpPp));
        assert!(rec.strategies.contains(&StrategyFamily::TpDp));
    }

    #[test]
    fn kilo_gpu_jobs_drop_tensor_first() {
        let rec = recommend(70_000_000_000, 1024);
        assert_eq!(rec.strategies[0], StrategyFamily::DpPp);
    }

    #[test]
    fn beyond_1024_gpus_needs_3d() {
        let rec = recommend(405_000_000_000, 8192);
        assert_eq!(rec.strategies, vec![StrategyFamily::TpDpPp]);
    }

    #[test]
    fn table_has_four_rows() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].gpu_range, "N <= 8");
        assert_eq!(rows[3].gpu_range, "N > 1024");
    }

    #[test]
    fn boundary_conditions() {
        assert_eq!(recommend(10_000_000_001, 512).gpu_range, "8 < N <= 512");
        assert_eq!(recommend(10_000_000_001, 513).gpu_range, "512 < N <= 1024");
        assert_eq!(recommend(10_000_000_001, 1025).gpu_range, "N > 1024");
    }
}
