//! The named loss registry used by the experiment tables.

use crate::nce::BiasConfig;

/// Every loss evaluated in the paper's Tab. VIII–XII, as a closed set so
/// experiment binaries can iterate them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MultinomialLoss {
    /// Sampled softmax over the whole vocabulary with logQ correction
    /// ("SSM w. n.": towers are L2-normalized, as ours always are).
    Ssm {
        /// Number of sampled negatives shared per batch.
        negatives: usize,
    },
    /// A member of the Eq. 10 in-batch family.
    Nce(BiasConfig),
}

impl MultinomialLoss {
    /// The six losses of Tab. IX/X, in row order.
    pub fn paper_losses(ssm_negatives: usize) -> Vec<(&'static str, MultinomialLoss)> {
        vec![
            ("SSM w. n.", MultinomialLoss::Ssm { negatives: ssm_negatives }),
            ("InfoNCE", MultinomialLoss::Nce(BiasConfig::infonce())),
            ("SimCLR", MultinomialLoss::Nce(BiasConfig::simclr())),
            ("row-bcNCE", MultinomialLoss::Nce(BiasConfig::row_bcnce())),
            ("col-bcNCE", MultinomialLoss::Nce(BiasConfig::col_bcnce())),
            ("bbcNCE", MultinomialLoss::Nce(BiasConfig::bbcnce())),
        ]
    }

    /// Display label matching the paper tables.
    pub fn label(&self) -> &'static str {
        match self {
            MultinomialLoss::Ssm { .. } => "SSM w. n.",
            MultinomialLoss::Nce(cfg) => {
                let c = (
                    cfg.alpha > 0.0,
                    cfg.beta > 0.0,
                    cfg.delta_alpha,
                    cfg.delta_beta,
                );
                match c {
                    (true, false, false, false) => "InfoNCE",
                    (true, true, false, false) => "SimCLR",
                    (true, false, true, false) => "row-bcNCE",
                    (false, true, false, true) => "col-bcNCE",
                    (true, true, true, true) => "bbcNCE",
                    _ => "NCE(custom)",
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_six_losses_with_unique_labels() {
        let losses = MultinomialLoss::paper_losses(64);
        assert_eq!(losses.len(), 6);
        let labels: std::collections::HashSet<&str> = losses.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn labels_round_trip() {
        for (name, loss) in MultinomialLoss::paper_losses(8) {
            assert_eq!(loss.label(), name);
        }
    }
}
