//! Negative sampling strategies for the Bernoulli/BCE pathway (Tab. I).
//!
//! Each strategy realizes a noise distribution `p_n(u, i)` and therefore a
//! different optimum for `φ_θ(u, i)` (Tab. I of the paper):
//!
//! | strategy                   | `p_n(u,i) ∝`          | `φ_θ(u,i) ~`                  |
//! |----------------------------|------------------------|-------------------------------|
//! | [`NegativeStrategy::UserFreq`]     | `p̂(u)`        | `log p̂(i\|u)`                |
//! | [`NegativeStrategy::ItemFreq`]     | `p̂(i)`        | `log p̂(u\|i)`                |
//! | [`NegativeStrategy::UserItemFreq`] | `p̂(u)·p̂(i)`  | PMI                           |
//! | [`NegativeStrategy::Uniform`]      | `1/(MK)`      | `log p̂(u,i)`                 |
//!
//! Users are represented by their pseudo-user histories, so "sampling a
//! user" means sampling one of the positive samples' histories — from the
//! empirical sample distribution (`p̂(u)`) or uniformly over *distinct*
//! users (`1/M`).

use crate::alias::AliasTable;
use crate::batch::{BceBatch, SeqBatch};
use crate::windowing::Sample;
use rand::seq::SliceRandom;
use rand::Rng;

/// The four noise distributions of Tab. I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegativeStrategy {
    /// `p_n(u,i) ∝ p̂(u)` — keep the positive's user, draw the item
    /// uniformly.
    UserFreq,
    /// `p_n(u,i) ∝ p̂(i)` — keep the positive's item, draw a user
    /// uniformly over distinct users.
    ItemFreq,
    /// `p_n(u,i) ∝ p̂(u)·p̂(i)` — user from the empirical sample
    /// distribution, item from the empirical item distribution,
    /// independently.
    UserItemFreq,
    /// `p_n(u,i) = 1/(MK)` — user uniform over distinct users, item uniform
    /// over the catalog.
    Uniform,
}

impl NegativeStrategy {
    /// All strategies, in Tab. I / Tab. VIII order.
    pub const ALL: [NegativeStrategy; 4] = [
        NegativeStrategy::UserFreq,
        NegativeStrategy::ItemFreq,
        NegativeStrategy::UserItemFreq,
        NegativeStrategy::Uniform,
    ];

    /// Display label matching the paper's table rows.
    pub fn label(self) -> &'static str {
        match self {
            NegativeStrategy::UserFreq => "p(u)",
            NegativeStrategy::ItemFreq => "p(i)",
            NegativeStrategy::UserItemFreq => "p(u)p(i)",
            NegativeStrategy::Uniform => "1/MK",
        }
    }
}

/// Draws negatives under a chosen [`NegativeStrategy`] and assembles
/// Tab. V-style labeled batches at a 1:1 positive:negative ratio.
pub struct NegativeSampler<'a> {
    samples: &'a [Sample],
    /// `samples` indices grouped per distinct user, for uniform-user draws.
    per_user: Vec<Vec<u32>>,
    /// Alias table over items by empirical frequency.
    item_empirical: AliasTable,
    num_items: u32,
}

impl<'a> NegativeSampler<'a> {
    /// Builds a sampler over the positive training `samples`.
    pub fn new(samples: &'a [Sample], num_items: u32) -> Self {
        assert!(!samples.is_empty(), "no samples to build negatives from");
        // ordered by user id: `user_uniform` indexes this list with a
        // seeded draw, so its order is part of what a seed reproduces
        let mut by_user: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        let mut item_counts = vec![0f64; num_items as usize];
        for (ix, s) in samples.iter().enumerate() {
            by_user.entry(s.user).or_default().push(ix as u32);
            item_counts[s.target as usize] += 1.0;
        }
        let per_user: Vec<Vec<u32>> = by_user.into_values().collect();
        NegativeSampler {
            samples,
            per_user,
            item_empirical: AliasTable::new(&item_counts),
            num_items,
        }
    }

    /// A pseudo-user drawn from the empirical sample distribution `p̂(u)`.
    fn user_empirical(&self, rng: &mut impl Rng) -> &'a Sample {
        &self.samples[rng.gen_range(0..self.samples.len())]
    }

    /// A pseudo-user drawn uniformly over distinct users (`1/M`): pick a
    /// user uniformly, then one of their pseudo-user rows.
    fn user_uniform(&self, rng: &mut impl Rng) -> &'a Sample {
        let rows = &self.per_user[rng.gen_range(0..self.per_user.len())];
        &self.samples[rows[rng.gen_range(0..rows.len())] as usize]
    }

    /// One negative `(pseudo-user, item)` pair for a given positive.
    fn negative(&self, positive: &'a Sample, strategy: NegativeStrategy, rng: &mut impl Rng) -> (&'a Sample, u32) {
        match strategy {
            NegativeStrategy::UserFreq => (positive, rng.gen_range(0..self.num_items)),
            NegativeStrategy::ItemFreq => (self.user_uniform(rng), positive.target),
            NegativeStrategy::UserItemFreq => {
                (self.user_empirical(rng), self.item_empirical.sample(rng))
            }
            NegativeStrategy::Uniform => (self.user_uniform(rng), rng.gen_range(0..self.num_items)),
        }
    }

    /// Builds shuffled labeled batches with one sampled negative per
    /// positive (the paper's 1:1 ratio). `batch_size` counts total rows, so
    /// each batch holds `batch_size/2` positives.
    pub fn bce_batches(
        &self,
        strategy: NegativeStrategy,
        batch_size: usize,
        max_seq_len: usize,
        rng: &mut impl Rng,
    ) -> Vec<BceBatch> {
        self.bce_batches_with_ratio(strategy, 1, batch_size, max_seq_len, rng)
    }

    /// Generalization of [`NegativeSampler::bce_batches`] with `ratio`
    /// negatives per positive (the paper fixes 1; the ablation experiments
    /// sweep it). `batch_size` counts total rows and must be divisible by
    /// `1 + ratio`.
    pub fn bce_batches_with_ratio(
        &self,
        strategy: NegativeStrategy,
        ratio: usize,
        batch_size: usize,
        max_seq_len: usize,
        rng: &mut impl Rng,
    ) -> Vec<BceBatch> {
        assert!(ratio >= 1, "need at least one negative per positive");
        let group = 1 + ratio;
        assert!(
            batch_size >= group && batch_size.is_multiple_of(group),
            "batch_size {batch_size} must be a positive multiple of 1+ratio ({group})"
        );
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        order.shuffle(rng);
        let per_batch = batch_size / group;
        let mut out = Vec::with_capacity(order.len() / per_batch + 1);
        for chunk in order.chunks(per_batch) {
            let mut rows: Vec<(&Sample, u32, f32)> = Vec::with_capacity(chunk.len() * group);
            for &ix in chunk {
                let pos = &self.samples[ix];
                rows.push((pos, pos.target, 1.0));
                for _ in 0..ratio {
                    let (nu, ni) = self.negative(pos, strategy, rng);
                    rows.push((nu, ni, 0.0));
                }
            }
            rows.shuffle(rng);
            let histories: Vec<&[u32]> = rows.iter().map(|(s, _, _)| &*s.history).collect();
            out.push(BceBatch {
                histories: SeqBatch::from_histories(&histories, max_seq_len),
                items: rows.iter().map(|&(_, i, _)| i).collect(),
                labels: rows.iter().map(|&(_, _, l)| l).collect(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn samples() -> Vec<Sample> {
        // user 0 very active (8 samples), users 1..=3 one sample each;
        // item 0 very popular.
        let mut v = Vec::new();
        for k in 0..8 {
            v.push(Sample { user: 0, history: vec![1].into(), target: 0, day: k });
        }
        for u in 1..4 {
            v.push(Sample { user: u, history: vec![2].into(), target: u, day: 10 + u });
        }
        v
    }

    #[test]
    fn bce_batches_have_balanced_labels() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let batches = sampler.bce_batches(NegativeStrategy::Uniform, 8, 3, &mut rng);
        let total_rows: usize = batches.iter().map(|b| b.labels.len()).sum();
        assert_eq!(total_rows, 2 * s.len());
        let pos: f32 = batches.iter().flat_map(|b| b.labels.iter()).sum();
        assert_eq!(pos as usize, s.len());
    }

    #[test]
    fn uniform_user_draws_repeat_for_a_seed() {
        // 64 distinct users: a hash-ordered user list would differ between
        // two samplers (each map has its own hasher keys)
        let s: Vec<Sample> =
            (0..64).map(|u| Sample { user: u, history: vec![1].into(), target: u % 5, day: u }).collect();
        let draws = || {
            let sampler = NegativeSampler::new(&s, 5);
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            (0..32).map(|_| sampler.user_uniform(&mut rng).user).collect::<Vec<u32>>()
        };
        assert_eq!(draws(), draws());
    }

    #[test]
    fn ratio_batches_have_expected_label_mix() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let batches = sampler.bce_batches_with_ratio(NegativeStrategy::Uniform, 3, 8, 3, &mut rng);
        let total: usize = batches.iter().map(|b| b.labels.len()).sum();
        assert_eq!(total, 4 * s.len());
        let pos: f32 = batches.iter().flat_map(|b| b.labels.iter()).sum();
        assert_eq!(pos as usize, s.len());
    }

    #[test]
    #[should_panic(expected = "multiple of 1+ratio")]
    fn ratio_batch_size_validated() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        sampler.bce_batches_with_ratio(NegativeStrategy::Uniform, 2, 8, 3, &mut rng);
    }

    #[test]
    fn user_freq_keeps_positive_user_history() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let pos = &s[0];
            let (nu, _) = sampler.negative(pos, NegativeStrategy::UserFreq, &mut rng);
            assert_eq!(nu.user, pos.user);
        }
    }

    #[test]
    fn item_freq_keeps_positive_item() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let pos = &s[9];
            let (_, ni) = sampler.negative(pos, NegativeStrategy::ItemFreq, &mut rng);
            assert_eq!(ni, pos.target);
        }
    }

    #[test]
    fn uniform_users_are_uniform_over_distinct() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            let u = sampler.user_uniform(&mut rng).user;
            counts[u as usize] += 1;
        }
        // each distinct user ~25% despite user 0 owning 8/11 samples
        for &c in &counts {
            let frac = c as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn empirical_users_follow_sample_mass() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut user0 = 0u32;
        for _ in 0..20_000 {
            if sampler.user_empirical(&mut rng).user == 0 {
                user0 += 1;
            }
        }
        let frac = user0 as f64 / 20_000.0;
        assert!((frac - 8.0 / 11.0).abs() < 0.02, "{frac}");
    }

    #[test]
    fn empirical_items_follow_target_mass() {
        let s = samples();
        let sampler = NegativeSampler::new(&s, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut item0 = 0u32;
        for _ in 0..20_000 {
            if sampler.item_empirical.sample(&mut rng) == 0 {
                item0 += 1;
            }
        }
        let frac = item0 as f64 / 20_000.0;
        assert!((frac - 8.0 / 11.0).abs() < 0.02, "{frac}");
    }
}
