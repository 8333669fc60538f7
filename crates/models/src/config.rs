//! Model configuration: the paper's grid of context extractors and
//! sequence aggregators (Tab. XII).

/// The context-extraction layer of the user encoder (Fig. 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContextExtractor {
    /// Youtube-DNN: no context extraction — lookup embeddings go straight
    /// to the aggregation layer (the paper's production default).
    YoutubeDnn,
    /// One-layer same-padded 1-D convolution (Caser-style) with ReLU.
    Cnn {
        /// Odd kernel width over the sequence axis.
        kernel: usize,
    },
    /// Single-layer GRU (GRU4Rec-style).
    Gru,
    /// Single-layer LSTM.
    Lstm,
    /// One Transformer block (SASRec-style): learned positions, single-head
    /// self-attention with key-padding mask, FFN, residuals + layer norm.
    Transformer,
}

impl ContextExtractor {
    /// The five extractors in Tab. XII column order.
    pub const ALL: [ContextExtractor; 5] = [
        ContextExtractor::YoutubeDnn,
        ContextExtractor::Cnn { kernel: 3 },
        ContextExtractor::Gru,
        ContextExtractor::Lstm,
        ContextExtractor::Transformer,
    ];

    /// Display label matching the paper's table header.
    pub fn label(self) -> &'static str {
        match self {
            ContextExtractor::YoutubeDnn => "Youtube-DNN",
            ContextExtractor::Cnn { .. } => "CNN-l1",
            ContextExtractor::Gru => "GRU",
            ContextExtractor::Lstm => "LSTM",
            ContextExtractor::Transformer => "Transformer-l1",
        }
    }
}

/// The aggregation layer pooling per-position context vectors into one user
/// representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregator {
    /// Mean over valid positions (the paper's production default).
    Mean,
    /// The last valid position's vector.
    Last,
    /// Elementwise max over valid positions (reported "always worse" and
    /// omitted from Tab. XII, but implemented for completeness).
    Max,
    /// Attention pooling with a learned query vector.
    Attention,
}

impl Aggregator {
    /// The aggregators reported in Tab. XII (max pooling is omitted there).
    pub const REPORTED: [Aggregator; 3] = [Aggregator::Mean, Aggregator::Last, Aggregator::Attention];

    /// All aggregators including max pooling.
    pub const ALL: [Aggregator; 4] = [
        Aggregator::Mean,
        Aggregator::Last,
        Aggregator::Max,
        Aggregator::Attention,
    ];

    /// Display label matching the paper's table rows.
    pub fn label(self) -> &'static str {
        match self {
            Aggregator::Mean => "mean",
            Aggregator::Last => "last",
            Aggregator::Max => "max",
            Aggregator::Attention => "attn",
        }
    }
}

/// Full two-tower model configuration.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Item vocabulary size.
    pub num_items: usize,
    /// Embedding / representation dimension `d` (paper: 16).
    pub embed_dim: usize,
    /// Maximum history length the model will ever see (positional table
    /// size for the Transformer).
    pub max_seq_len: usize,
    /// Context extractor choice.
    pub extractor: ContextExtractor,
    /// Aggregator choice.
    pub aggregator: Aggregator,
    /// Softmax temperature `τ` of Eq. 13.
    pub temperature: f32,
    /// L2-normalize tower outputs before the dot product (Eq. 13). The
    /// paper found normalization + temperature "better and robust"; set
    /// false only for the ablation experiment.
    pub normalize: bool,
}

impl ModelConfig {
    /// The paper's production default: Youtube-DNN + mean pooling, d = 16.
    pub fn youtube_dnn_mean(num_items: usize, max_seq_len: usize, temperature: f32) -> Self {
        ModelConfig {
            num_items,
            embed_dim: 16,
            max_seq_len,
            extractor: ContextExtractor::YoutubeDnn,
            aggregator: Aggregator::Mean,
            temperature,
            normalize: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            ContextExtractor::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), ContextExtractor::ALL.len());
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = ModelConfig::youtube_dnn_mean(100, 20, 0.1667);
        assert_eq!(cfg.embed_dim, 16);
        assert_eq!(cfg.extractor, ContextExtractor::YoutubeDnn);
        assert_eq!(cfg.aggregator, Aggregator::Mean);
    }
}
