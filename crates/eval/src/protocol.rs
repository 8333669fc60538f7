//! IR / UT test-case construction (Sec. IV-A1, Tab. VI).
//!
//! * **IR**: one case per distinct test user — the pseudo-user's history,
//!   its positive target, and `n` negatives sampled from the item pool.
//! * **UT**: one case per distinct test item — the positive pseudo-user
//!   plus `n` negative pseudo-users sampled from the user pool. The pool
//!   holds one (latest) pseudo-user per distinct user across train and
//!   test, mirroring the paper's pools being much larger than the test
//!   sets.

use crate::pool::UserPool;
use rand::Rng;
use unimatch_data::{Sample, TemporalSplit};

/// Protocol parameters (top-N cutoff and negative count per Tab. VI).
#[derive(Clone, Copy, Debug)]
pub struct ProtocolConfig {
    /// Ranking cutoff N for Recall@N / NDCG@N.
    pub top_n: usize,
    /// Sampled negatives per case (99, or 49 for w_comp).
    pub negatives: usize,
}

impl ProtocolConfig {
    /// Adapts the protocol to a (possibly heavily down-scaled) candidate
    /// pool: negatives are capped at `pool - 2` and the cutoff at the
    /// candidate count. Chance level changes accordingly, so compare
    /// models only under identical effective protocols.
    pub fn clamped(&self, pool: usize) -> ProtocolConfig {
        let negatives = self.negatives.min(pool.saturating_sub(2)).max(1);
        ProtocolConfig { top_n: self.top_n.min(negatives + 1), negatives }
    }
}

/// One item-recommendation case.
#[derive(Clone, Debug)]
pub struct IrCase {
    /// The underlying user id.
    pub user: u32,
    /// The pseudo-user history.
    pub history: Vec<u32>,
    /// Candidate item ids; index 0 is the positive.
    pub candidates: Vec<u32>,
}

/// One user-targeting case.
#[derive(Clone, Debug)]
pub struct UtCase {
    /// The target item.
    pub item: u32,
    /// Candidate pseudo-users as [`UserPool`] indices; index 0 is the
    /// positive.
    pub candidates: Vec<usize>,
}

/// Builds IR cases: dedupes test samples to one per user (the earliest in
/// the test month — the next purchase after the train boundary), then
/// samples negatives from the item pool.
pub fn build_ir_cases(
    split: &TemporalSplit,
    cfg: &ProtocolConfig,
    rng: &mut impl Rng,
) -> Vec<IrCase> {
    let item_pool = item_pool(split);
    assert!(
        item_pool.len() > cfg.negatives,
        "item pool ({}) must exceed negative count ({})",
        item_pool.len(),
        cfg.negatives
    );
    let mut seen = std::collections::HashSet::new();
    let mut cases = Vec::new();
    for s in &split.test {
        if !seen.insert(s.user) {
            continue;
        }
        let mut candidates = Vec::with_capacity(cfg.negatives + 1);
        candidates.push(s.target);
        while candidates.len() < cfg.negatives + 1 {
            let neg = item_pool[rng.gen_range(0..item_pool.len())];
            if neg != s.target && !candidates.contains(&neg) {
                candidates.push(neg);
            }
        }
        cases.push(IrCase { user: s.user, history: s.history.to_vec(), candidates });
    }
    cases
}

/// Builds UT cases: dedupes test samples to one per item, then samples
/// negative pseudo-users from the pool.
pub fn build_ut_cases(
    split: &TemporalSplit,
    pool: &UserPool,
    cfg: &ProtocolConfig,
    rng: &mut impl Rng,
) -> Vec<UtCase> {
    assert!(
        pool.len() > cfg.negatives,
        "user pool ({}) must exceed negative count ({})",
        pool.len(),
        cfg.negatives
    );
    let mut seen = std::collections::HashSet::new();
    let mut cases = Vec::new();
    for s in &split.test {
        if !seen.insert(s.target) {
            continue;
        }
        let Some(pos_ix) = pool.index_of(s.user) else {
            continue; // positive user unseen in the pool (filtered out)
        };
        let mut candidates = Vec::with_capacity(cfg.negatives + 1);
        candidates.push(pos_ix);
        let mut guard = 0;
        while candidates.len() < cfg.negatives + 1 {
            let ix = rng.gen_range(0..pool.len());
            if ix != pos_ix && !candidates.contains(&ix) {
                candidates.push(ix);
            }
            guard += 1;
            if guard > cfg.negatives * 100 {
                break; // degenerate tiny pool; keep what we have
            }
        }
        if candidates.len() == cfg.negatives + 1 {
            cases.push(UtCase { item: s.target, candidates });
        }
    }
    cases
}

/// Distinct target items over train + test — the IR negative pool.
pub fn item_pool(split: &TemporalSplit) -> Vec<u32> {
    let mut items: Vec<u32> = split
        .train
        .iter()
        .chain(split.test.iter())
        .map(|s: &Sample| s.target)
        .collect();
    items.sort_unstable();
    items.dedup();
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use unimatch_data::synthetic::DatasetProfile;
    use unimatch_data::windowing::{build_samples, WindowConfig};
    use unimatch_data::temporal_split;

    fn split() -> TemporalSplit {
        let log = DatasetProfile::EComp.generate(0.15, 11).filter_min_interactions(2);
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        temporal_split(samples, log.span_months())
    }

    #[test]
    fn ir_cases_one_per_user_with_unique_candidates() {
        let split = split();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cfg = ProtocolConfig { top_n: 10, negatives: 20 };
        let cases = build_ir_cases(&split, &cfg, &mut rng);
        assert!(!cases.is_empty());
        let users: std::collections::HashSet<u32> = cases.iter().map(|c| c.user).collect();
        assert_eq!(users.len(), cases.len(), "one case per user");
        for c in &cases {
            assert_eq!(c.candidates.len(), 21);
            let set: std::collections::HashSet<u32> = c.candidates.iter().copied().collect();
            assert_eq!(set.len(), 21, "candidates must be distinct");
            assert!(!c.history.is_empty());
        }
    }

    #[test]
    fn ut_cases_one_per_item() {
        let split = split();
        let pool = UserPool::build(&split, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = ProtocolConfig { top_n: 10, negatives: 20 };
        let cases = build_ut_cases(&split, &pool, &cfg, &mut rng);
        assert!(!cases.is_empty());
        let items: std::collections::HashSet<u32> = cases.iter().map(|c| c.item).collect();
        assert_eq!(items.len(), cases.len());
        for c in &cases {
            assert_eq!(c.candidates.len(), 21);
            assert!(c.candidates.iter().all(|&ix| ix < pool.len()));
        }
    }

    #[test]
    fn positive_is_always_candidate_zero() {
        let split = split();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let cfg = ProtocolConfig { top_n: 5, negatives: 10 };
        let cases = build_ir_cases(&split, &cfg, &mut rng);
        // candidate 0 is the test user's actual next purchase
        let first = &cases[0];
        let sample = split
            .test
            .iter()
            .find(|s| s.user == first.user)
            .expect("test sample");
        assert_eq!(first.candidates[0], sample.target);
    }

    #[test]
    fn deterministic_per_seed() {
        let split = split();
        let cfg = ProtocolConfig { top_n: 10, negatives: 20 };
        let a = build_ir_cases(&split, &cfg, &mut rand::rngs::StdRng::seed_from_u64(9));
        let b = build_ir_cases(&split, &cfg, &mut rand::rngs::StdRng::seed_from_u64(9));
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].candidates, b[0].candidates);
    }
}
