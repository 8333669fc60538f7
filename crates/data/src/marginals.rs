//! Empirical marginal distributions `p̂(u)` and `p̂(i)` over the training
//! samples — the bias-correction terms of the bbcNCE loss (Eq. 10, Tab. IV).
//!
//! Training counts its windowed samples ([`Marginals::from_samples`]).
//! Serving, which never windows the log, counts the same records straight
//! off the timelines ([`Marginals::from_log`]), with the same arithmetic,
//! so both give the same bits.

use crate::calendar::month_of;
use crate::log::InteractionLog;
use crate::windowing::Sample;

/// Log empirical marginals computed from a set of (positive) samples.
#[derive(Clone, Debug)]
pub struct Marginals {
    log_pu: Vec<f32>,
    log_pi: Vec<f32>,
    /// log(0.5 / total): floor used for entities unseen in the window.
    floor_u: f32,
    floor_i: f32,
}

impl Marginals {
    /// Computes marginals from `samples`, with universes of `num_users` /
    /// `num_items`. Each sample contributes one count to its user and one
    /// to its target item, matching Tab. IV where every positive record
    /// carries `log p(u)` and `log p(i)` computed over the training data.
    pub fn from_samples(samples: &[Sample], num_users: u32, num_items: u32) -> Self {
        let mut cu = vec![0u64; num_users as usize];
        let mut ci = vec![0u64; num_items as usize];
        for s in samples {
            cu[s.user as usize] += 1;
            ci[s.target as usize] += 1;
        }
        Self::from_counts(&cu, &ci, samples.len())
    }

    /// The marginals of the training split of `log`'s windowed samples,
    /// counted without windowing: a record is a training sample iff its
    /// user bought on an earlier day (a non-empty history) and its month
    /// is before the test month `span − 1`. Equal, bit for bit, to
    /// [`Marginals::from_samples`] over `temporal_split`'s `train`.
    pub fn from_log(log: &InteractionLog) -> Self {
        let test_month = log.span_months().saturating_sub(1);
        let mut cu = vec![0u64; log.num_users() as usize];
        let mut ci = vec![0u64; log.num_items() as usize];
        let mut total = 0;
        for (user, timeline) in log.timelines() {
            let first_day = timeline[0].day;
            for r in timeline.iter().filter(|r| r.day > first_day && month_of(r.day) < test_month) {
                cu[user as usize] += 1;
                ci[r.item as usize] += 1;
                total += 1;
            }
        }
        Self::from_counts(&cu, &ci, total)
    }

    /// Log shares of `total` samples, floored at `log(0.5 / total)` for
    /// entities counted zero times.
    fn from_counts(cu: &[u64], ci: &[u64], total: usize) -> Self {
        let total = total.max(1) as f64;
        let floor_u = ((0.5 / total) as f32).ln();
        let floor_i = floor_u;
        let log_pu = cu
            .iter()
            .map(|&c| if c == 0 { floor_u } else { ((c as f64 / total) as f32).ln() })
            .collect();
        let log_pi = ci
            .iter()
            .map(|&c| if c == 0 { floor_i } else { ((c as f64 / total) as f32).ln() })
            .collect();
        Marginals { log_pu, log_pi, floor_u, floor_i }
    }

    /// Reassembles marginals from their stored parts — the checkpoint
    /// decode path, where the tables were persisted by a trainer and
    /// must round-trip bit-for-bit.
    pub fn from_parts(log_pu: Vec<f32>, log_pi: Vec<f32>, floor_u: f32, floor_i: f32) -> Self {
        Marginals { log_pu, log_pi, floor_u, floor_i }
    }

    /// The floor applied to users unseen in the training window.
    pub fn floor_u(&self) -> f32 {
        self.floor_u
    }

    /// The floor applied to items unseen in the training window.
    pub fn floor_i(&self) -> f32 {
        self.floor_i
    }

    /// `log p̂(u)` for a user id.
    pub fn log_pu(&self, user: u32) -> f32 {
        self.log_pu.get(user as usize).copied().unwrap_or(self.floor_u)
    }

    /// `log p̂(i)` for an item id.
    pub fn log_pi(&self, item: u32) -> f32 {
        self.log_pi.get(item as usize).copied().unwrap_or(self.floor_i)
    }

    /// All item log-marginals (used by the SSM sampler's logQ correction).
    pub fn log_pi_all(&self) -> &[f32] {
        &self.log_pi
    }

    /// All user log-marginals.
    pub fn log_pu_all(&self) -> &[f32] {
        &self.log_pu
    }

    /// Item probabilities (exponentiated), for building samplers.
    pub fn item_probs(&self) -> Vec<f64> {
        self.log_pi.iter().map(|&lp| (lp as f64).exp()).collect()
    }

    /// User probabilities (exponentiated), for building samplers.
    pub fn user_probs(&self) -> Vec<f64> {
        self.log_pu.iter().map(|&lp| (lp as f64).exp()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Sample> {
        vec![
            Sample { user: 0, history: vec![].into(), target: 1, day: 0 },
            Sample { user: 0, history: vec![].into(), target: 1, day: 1 },
            Sample { user: 1, history: vec![].into(), target: 2, day: 2 },
            Sample { user: 2, history: vec![].into(), target: 1, day: 3 },
        ]
    }

    #[test]
    fn probabilities_match_counts() {
        let m = Marginals::from_samples(&samples(), 3, 3);
        assert!((m.log_pu(0) - (0.5f32).ln()).abs() < 1e-6);
        assert!((m.log_pu(1) - (0.25f32).ln()).abs() < 1e-6);
        assert!((m.log_pi(1) - (0.75f32).ln()).abs() < 1e-6);
        assert!((m.log_pi(2) - (0.25f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn unseen_entities_get_floor() {
        let m = Marginals::from_samples(&samples(), 4, 4);
        // user 3 and item 0/3 never appear
        let floor = (0.5f32 / 4.0).ln();
        assert!((m.log_pu(3) - floor).abs() < 1e-6);
        assert!((m.log_pi(0) - floor).abs() < 1e-6);
        // out-of-range ids also floored, not panicking
        assert!((m.log_pi(99) - floor).abs() < 1e-6);
    }

    #[test]
    fn seen_probs_sum_to_one() {
        let m = Marginals::from_samples(&samples(), 3, 3);
        let sum: f64 = m.user_probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{sum}");
    }
}
