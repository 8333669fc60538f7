//! Mini-batch construction.
//!
//! Two record formats, mirroring Tab. IV and Tab. V of the paper:
//!
//! * [`MultinomialBatch`] — positive pairs only, carrying the pre-computed
//!   `log p̂(u)` / `log p̂(i)` bias-correction terms; negatives come from
//!   the batch itself (in-batch sampling).
//! * [`BceBatch`] — positive and explicitly sampled negative pairs with a
//!   0/1 label (built by [`crate::negative`]).

use crate::marginals::Marginals;
use crate::windowing::Sample;
use rand::seq::SliceRandom;
use rand::Rng;

/// A padded batch of item-id sequences, the input format of every user
/// encoder: `indices` is row-major `[B, L]`, `mask` marks valid positions,
/// `lengths[b] ≥ 1` is the unpadded length.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqBatch {
    /// Batch size.
    pub b: usize,
    /// Padded sequence length.
    pub l: usize,
    /// Item ids, `[B*L]`, padded with 0 (masked out).
    pub indices: Vec<u32>,
    /// 1.0 for valid positions, 0.0 for padding, `[B*L]`.
    pub mask: Vec<f32>,
    /// Valid prefix length per row.
    pub lengths: Vec<usize>,
}

impl SeqBatch {
    /// Packs variable-length histories into a fixed `[B, max_len]` layout.
    /// Histories longer than `max_len` keep their most recent suffix.
    pub fn from_histories(histories: &[&[u32]], max_len: usize) -> Self {
        assert!(max_len >= 1, "max_len must be >= 1");
        let b = histories.len();
        let mut indices = vec![0u32; b * max_len];
        let mut mask = vec![0.0f32; b * max_len];
        let mut lengths = Vec::with_capacity(b);
        for (row, h) in histories.iter().enumerate() {
            assert!(!h.is_empty(), "history row {row} is empty");
            let start = h.len().saturating_sub(max_len);
            let tail = &h[start..];
            for (j, &it) in tail.iter().enumerate() {
                indices[row * max_len + j] = it;
                mask[row * max_len + j] = 1.0;
            }
            lengths.push(tail.len());
        }
        SeqBatch { b, l: max_len, indices, mask, lengths }
    }
}

/// A batch in the multinomial (Tab. IV) format: positives only, with the
/// empirical-marginal bias terms attached per record.
#[derive(Clone, Debug)]
pub struct MultinomialBatch {
    /// The pseudo-user histories.
    pub histories: SeqBatch,
    /// Target item per row.
    pub items: Vec<u32>,
    /// Underlying user id per row (popularity audits, debugging).
    pub users: Vec<u32>,
    /// `log p̂(u)` per row.
    pub log_pu: Vec<f32>,
    /// `log p̂(i)` per row.
    pub log_pi: Vec<f32>,
}

/// Builds shuffled [`MultinomialBatch`]es of size `batch_size` from the
/// positive samples. The trailing ragged batch is dropped when smaller than
/// 2 rows (in-batch losses need at least one negative).
pub fn multinomial_batches(
    samples: &[Sample],
    marginals: &Marginals,
    batch_size: usize,
    max_seq_len: usize,
    rng: &mut impl Rng,
) -> Vec<MultinomialBatch> {
    assert!(batch_size >= 2, "in-batch losses need batch_size >= 2");
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.shuffle(rng);
    let mut out = Vec::with_capacity(samples.len() / batch_size + 1);
    for chunk in order.chunks(batch_size) {
        if chunk.len() < 2 {
            continue;
        }
        let rows: Vec<&Sample> = chunk.iter().map(|&i| &samples[i]).collect();
        let histories: Vec<&[u32]> = rows.iter().map(|s| &*s.history).collect();
        out.push(MultinomialBatch {
            histories: SeqBatch::from_histories(&histories, max_seq_len),
            items: rows.iter().map(|s| s.target).collect(),
            users: rows.iter().map(|s| s.user).collect(),
            log_pu: rows.iter().map(|s| marginals.log_pu(s.user)).collect(),
            log_pi: rows.iter().map(|s| marginals.log_pi(s.target)).collect(),
        });
    }
    out
}

/// A batch in the Bernoulli (Tab. V) format: labeled positive/negative
/// pairs.
#[derive(Clone, Debug)]
pub struct BceBatch {
    /// The pseudo-user histories (positives and negatives interleaved).
    pub histories: SeqBatch,
    /// Item per row.
    pub items: Vec<u32>,
    /// 1.0 for positives, 0.0 for sampled negatives.
    pub labels: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|k| Sample {
                user: (k % 5) as u32,
                history: vec![(k % 7) as u32, ((k + 1) % 7) as u32].into(),
                target: (k % 7) as u32,
                day: k as u32,
            })
            .collect()
    }

    #[test]
    fn seq_batch_pads_and_masks() {
        let h1 = vec![1u32, 2, 3];
        let h2 = vec![4u32];
        let sb = SeqBatch::from_histories(&[&h1, &h2], 4);
        assert_eq!(sb.indices, vec![1, 2, 3, 0, 4, 0, 0, 0]);
        assert_eq!(sb.mask, vec![1., 1., 1., 0., 1., 0., 0., 0.]);
        assert_eq!(sb.lengths, vec![3, 1]);
    }

    #[test]
    fn seq_batch_truncates_to_suffix() {
        let h = vec![1u32, 2, 3, 4, 5];
        let sb = SeqBatch::from_histories(&[&h], 3);
        assert_eq!(sb.indices, vec![3, 4, 5]);
        assert_eq!(sb.lengths, vec![3]);
    }

    #[test]
    fn multinomial_batches_cover_all_samples() {
        let s = samples(37);
        let m = Marginals::from_samples(&s, 5, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let batches = multinomial_batches(&s, &m, 8, 4, &mut rng);
        let total: usize = batches.iter().map(|b| b.items.len()).sum();
        assert_eq!(total, 37); // 4 full batches of 8 + one of 5
        assert!(batches.iter().all(|b| b.items.len() >= 2));
    }

    #[test]
    fn bias_terms_match_marginals() {
        let s = samples(20);
        let m = Marginals::from_samples(&s, 5, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let batches = multinomial_batches(&s, &m, 4, 4, &mut rng);
        for b in &batches {
            for (row, &item) in b.items.iter().enumerate() {
                assert_eq!(b.log_pi[row], m.log_pi(item));
                assert_eq!(b.log_pu[row], m.log_pu(b.users[row]));
            }
        }
    }

    #[test]
    fn shuffling_is_seed_deterministic() {
        let s = samples(30);
        let m = Marginals::from_samples(&s, 5, 7);
        let b1 = multinomial_batches(&s, &m, 8, 4, &mut rand::rngs::StdRng::seed_from_u64(9));
        let b2 = multinomial_batches(&s, &m, 8, 4, &mut rand::rngs::StdRng::seed_from_u64(9));
        assert_eq!(b1[0].items, b2[0].items);
    }
}
