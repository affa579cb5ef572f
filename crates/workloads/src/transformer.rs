//! Transformer inference workloads: per-head attention projections are
//! irregular GEMMs — `M = tokens` is large while `N = head_dim ≤ 96` —
//! exactly the tall-and-skinny regime the paper targets (a modern
//! instance of its §I motivation).

use ftimm::GemmShape;

/// One projection GEMM of a multi-head attention block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnProjection {
    /// Projection name (`q`, `k`, `v` or `attn_out_head`).
    pub name: &'static str,
    /// Tokens being processed (batch × sequence length in prefill).
    pub tokens: usize,
    /// Model width (K dimension).
    pub d_model: usize,
    /// Per-head width (N dimension, ≤ 96 for common head sizes).
    pub head_dim: usize,
}

impl AttnProjection {
    /// The GEMM shape: `tokens × head_dim × d_model`.
    pub fn gemm_shape(&self) -> GemmShape {
        GemmShape::new(self.tokens, self.head_dim, self.d_model)
    }
}

/// The per-head projection GEMMs of a GPT-2-medium-like block
/// (d_model = 1024, head_dim = 64) at a given prefill token count.
pub fn gpt2_medium_head_projections(tokens: usize) -> Vec<AttnProjection> {
    ["q", "k", "v", "attn_out_head"]
        .into_iter()
        .map(|name| AttnProjection {
            name,
            tokens,
            d_model: 1024,
            head_dim: 64,
        })
        .collect()
}

/// A LLaMA-ish block (d_model = 4096, head_dim = 96 — clamped to the
/// irregular-GEMM limit for this architecture study).
pub fn llama_like_head_projections(tokens: usize) -> Vec<AttnProjection> {
    ["q", "k", "v"]
        .into_iter()
        .map(|name| AttnProjection {
            name,
            tokens,
            d_model: 4096,
            head_dim: 96,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftimm::IrregularType;

    #[test]
    fn prefill_projections_are_irregular() {
        // GPT-2-medium: K = 1024 is modest, so prefill is type 1.
        for p in gpt2_medium_head_projections(4096) {
            let s = p.gemm_shape();
            assert_eq!(s.n, 64);
            assert_eq!(
                s.classify(),
                IrregularType::TallSkinnyTimesSmall,
                "{}: {s}",
                p.name
            );
        }
        // LLaMA-like: K = 4096 makes the same prefill type 3.
        for p in llama_like_head_projections(4096) {
            assert_eq!(
                p.gemm_shape().classify(),
                IrregularType::RegularTimesTallSkinny
            );
        }
        // Long-context prefill turns type 3 into type 1 (M ≫ K).
        let p = AttnProjection {
            name: "q",
            tokens: 1 << 17,
            d_model: 1024,
            head_dim: 64,
        };
        assert_eq!(
            p.gemm_shape().classify(),
            IrregularType::TallSkinnyTimesSmall
        );
    }

    #[test]
    fn llama_heads_stay_within_the_na_limit() {
        for p in llama_like_head_projections(2048) {
            assert!(p.head_dim <= 96);
            assert_eq!(p.gemm_shape().k, 4096);
        }
    }

    #[test]
    fn short_decode_batches_are_small_shapes() {
        let p = AttnProjection {
            name: "q",
            tokens: 8,
            d_model: 1024,
            head_dim: 64,
        };
        assert_eq!(p.gemm_shape().classify(), IrregularType::Small);
    }
}
