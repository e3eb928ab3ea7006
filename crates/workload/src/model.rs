//! Transformer model configurations and presets.
//!
//! The traffic volumes of Table 2 and the execution DAG of Fig. 2 are functions of the
//! model's shape: parameter counts per layer, activation sizes per token, and the
//! number of layers assigned to each pipeline stage. [`ModelConfig`] captures the
//! shapes; presets are provided for the models the paper references (Llama 3 8B for the
//! §3.1 trace study, Llama 3.1 405B for the Eq. 1 window-count estimate) plus a few
//! other commonly used configurations.

use serde::{Deserialize, Serialize};

/// Numeric precision of parameters / gradients on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 16-bit brain floating point.
    Bf16,
    /// 16-bit IEEE floating point.
    Fp16,
    /// 32-bit IEEE floating point.
    Fp32,
    /// 8-bit floating point (FP8 training).
    Fp8,
}

impl DType {
    /// Size of one element in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            DType::Fp8 => 1,
            DType::Bf16 | DType::Fp16 => 2,
            DType::Fp32 => 4,
        }
    }
}

/// A decoder-only transformer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of transformer layers.
    pub num_layers: u32,
    /// Hidden (model) dimension.
    pub hidden_size: u64,
    /// Feed-forward intermediate dimension.
    pub ffn_hidden_size: u64,
    /// Number of attention heads.
    pub num_heads: u64,
    /// Number of key/value heads (grouped-query attention).
    pub num_kv_heads: u64,
    /// Vocabulary size.
    pub vocab_size: u64,
    /// Parameter / activation precision on the wire.
    pub dtype: DType,
    /// Gradient precision used for reduction (often fp32 for numerical robustness).
    pub grad_dtype: DType,
    /// Number of experts for mixture-of-experts models (1 = dense).
    pub num_experts: u32,
    /// Number of experts routed per token (MoE top-k).
    pub experts_per_token: u32,
    /// True for gated (SwiGLU-style, 3-matrix) MLPs; false for classic 2-matrix MLPs.
    pub gated_mlp: bool,
}

impl ModelConfig {
    /// Llama 3 8B — the workload of the paper's §3.1 Perlmutter study.
    pub fn llama3_8b() -> Self {
        ModelConfig {
            name: "Llama3-8B".into(),
            num_layers: 32,
            hidden_size: 4096,
            ffn_hidden_size: 14336,
            num_heads: 32,
            num_kv_heads: 8,
            vocab_size: 128_256,
            dtype: DType::Bf16,
            grad_dtype: DType::Fp32,
            num_experts: 1,
            experts_per_token: 1,
            gated_mlp: true,
        }
    }

    /// Llama 3 70B.
    pub fn llama3_70b() -> Self {
        ModelConfig {
            name: "Llama3-70B".into(),
            num_layers: 80,
            hidden_size: 8192,
            ffn_hidden_size: 28672,
            num_heads: 64,
            num_kv_heads: 8,
            vocab_size: 128_256,
            dtype: DType::Bf16,
            grad_dtype: DType::Fp32,
            num_experts: 1,
            experts_per_token: 1,
            gated_mlp: true,
        }
    }

    /// Llama 3.1 405B — used for the paper's Eq. 1 window-count estimate (127 windows
    /// per iteration at the configuration reported in \[10\]/\[41\]).
    pub fn llama31_405b() -> Self {
        ModelConfig {
            name: "Llama3.1-405B".into(),
            num_layers: 126,
            hidden_size: 16384,
            ffn_hidden_size: 53248,
            num_heads: 128,
            num_kv_heads: 8,
            vocab_size: 128_256,
            dtype: DType::Bf16,
            grad_dtype: DType::Fp32,
            num_experts: 1,
            experts_per_token: 1,
            gated_mlp: true,
        }
    }

    /// Mixtral-8x7B-style mixture-of-experts model (for expert-parallel scenarios).
    pub fn mixtral_8x7b() -> Self {
        ModelConfig {
            name: "Mixtral-8x7B".into(),
            num_layers: 32,
            hidden_size: 4096,
            ffn_hidden_size: 14336,
            num_heads: 32,
            num_kv_heads: 8,
            vocab_size: 32_000,
            dtype: DType::Bf16,
            grad_dtype: DType::Fp32,
            num_experts: 8,
            experts_per_token: 2,
            gated_mlp: true,
        }
    }

    /// A tiny model for fast tests: 4 layers, hidden 512.
    pub fn tiny_test() -> Self {
        ModelConfig {
            name: "tiny-test".into(),
            num_layers: 4,
            hidden_size: 512,
            ffn_hidden_size: 2048,
            num_heads: 8,
            num_kv_heads: 8,
            vocab_size: 32_000,
            dtype: DType::Bf16,
            grad_dtype: DType::Fp32,
            num_experts: 1,
            experts_per_token: 1,
            gated_mlp: true,
        }
    }

    /// True for mixture-of-experts models.
    pub(crate) fn is_moe(&self) -> bool {
        self.num_experts > 1
    }

    /// Head dimension.
    pub(crate) fn head_dim(&self) -> u64 {
        self.hidden_size / self.num_heads
    }

    /// Key/value projection width (grouped-query attention).
    pub(crate) fn kv_dim(&self) -> u64 {
        self.head_dim() * self.num_kv_heads
    }

    /// Parameter count of the attention block of one layer (Q, K, V, O projections).
    pub(crate) fn attention_params_per_layer(&self) -> u64 {
        let h = self.hidden_size;
        let kv = self.kv_dim();
        // Q and O: h*h each; K and V: h*kv each.
        2 * h * h + 2 * h * kv
    }

    /// Parameter count of the MLP block of one layer: gate/up/down projections for
    /// gated (SwiGLU-style) MLPs, up/down for classic MLPs. For MoE models this is the
    /// size of a single expert.
    pub(crate) fn mlp_params_per_expert(&self) -> u64 {
        let matrices = if self.gated_mlp { 3 } else { 2 };
        matrices * self.hidden_size * self.ffn_hidden_size
    }

    /// Parameter count of one transformer layer (all experts included).
    pub(crate) fn params_per_layer(&self) -> u64 {
        let mlp = self.mlp_params_per_expert() * self.num_experts as u64;
        // Two RMSNorm weight vectors per layer.
        let norms = 2 * self.hidden_size;
        self.attention_params_per_layer() + mlp + norms
    }

    /// Parameter count of the embedding (and tied output projection counted once).
    pub(crate) fn embedding_params(&self) -> u64 {
        self.vocab_size * self.hidden_size
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.params_per_layer() * self.num_layers as u64 + 2 * self.embedding_params()
    }

    /// Forward FLOPs per token for one layer (dense approximation `2 * params`, with
    /// only the routed experts active for MoE models).
    pub(crate) fn fwd_flops_per_token_per_layer(&self, seq_len: u64) -> u64 {
        let active_mlp = self.mlp_params_per_expert() * self.experts_per_token.max(1) as u64;
        let dense = self.attention_params_per_layer() + active_mlp;
        // Attention score computation: 2 * seq * head_dim per head per token ~ 2*seq*h.
        let attn_scores = 2 * seq_len * self.hidden_size;
        2 * dense + attn_scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::Bf16.bytes(), 2);
        assert_eq!(DType::Fp32.bytes(), 4);
        assert_eq!(DType::Fp8.bytes(), 1);
    }

    #[test]
    fn llama3_8b_param_count_is_about_8b() {
        let m = ModelConfig::llama3_8b();
        let total = m.total_params();
        assert!(
            (7.5e9..9.0e9).contains(&(total as f64)),
            "Llama3-8B should have ~8B params, got {total}"
        );
    }

    #[test]
    fn llama3_70b_param_count_is_about_70b() {
        let m = ModelConfig::llama3_70b();
        let total = m.total_params() as f64;
        assert!((65e9..75e9).contains(&total), "got {total}");
    }

    #[test]
    fn llama31_405b_param_count_is_about_405b() {
        let m = ModelConfig::llama31_405b();
        let total = m.total_params() as f64;
        assert!((380e9..430e9).contains(&total), "got {total}");
    }

    #[test]
    fn gpt3_param_count_is_about_175b() {
        // GPT-3's shape: full multi-head attention and an ungated MLP.
        let m = ModelConfig {
            name: "GPT-3 175B".into(),
            num_layers: 96,
            hidden_size: 12288,
            ffn_hidden_size: 49152,
            num_heads: 96,
            num_kv_heads: 96,
            vocab_size: 50_257,
            dtype: DType::Bf16,
            grad_dtype: DType::Fp32,
            num_experts: 1,
            experts_per_token: 1,
            gated_mlp: false,
        };
        let total = m.total_params() as f64;
        assert!((165e9..185e9).contains(&total), "got {total}");
    }

    #[test]
    fn moe_detection_and_active_params() {
        let moe = ModelConfig::mixtral_8x7b();
        assert!(moe.is_moe());
        assert!(!ModelConfig::llama3_8b().is_moe());
        // Active FLOPs use only routed experts, so a top-2-of-8 MoE is cheaper per
        // token than a dense model with all 8 experts' parameters.
        let dense_equivalent = 2 * moe.params_per_layer();
        assert!(moe.fwd_flops_per_token_per_layer(1) < dense_equivalent);
    }

    #[test]
    fn gqa_kv_dim() {
        let m = ModelConfig::llama3_8b();
        assert_eq!(m.head_dim(), 128);
        assert_eq!(m.kv_dim(), 1024);
    }
}
