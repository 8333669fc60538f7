//! Dataset statistics reports (Tab. III) and split statistics (Tab. VI).

use crate::log::InteractionLog;
use crate::split::TemporalSplit;
use crate::windowing::Sample;

/// Tab. III-style statistics of an interaction log.
#[derive(Clone, Debug)]
pub struct DatasetStats {
    /// Distinct users with ≥ 1 interaction.
    pub users: usize,
    /// Distinct items with ≥ 1 interaction.
    pub items: usize,
    /// Total interaction records.
    pub interactions: usize,
    /// Span in months.
    pub months: u32,
    /// Average actions per (distinct) user.
    pub actions_per_user: f64,
    /// Average actions per (distinct) item.
    pub actions_per_item: f64,
}

impl DatasetStats {
    /// Computes statistics from a log.
    pub fn from_log(log: &InteractionLog) -> Self {
        let users = log.distinct_users();
        let items = log.distinct_items();
        let interactions = log.len();
        DatasetStats {
            users,
            items,
            interactions,
            months: log.span_months(),
            actions_per_user: interactions as f64 / users.max(1) as f64,
            actions_per_item: interactions as f64 / items.max(1) as f64,
        }
    }
}

/// Tab. VI-style statistics of a temporal split plus the evaluation
/// protocol parameters.
#[derive(Clone, Debug)]
pub struct SplitStats {
    /// Number of training records (positive samples).
    pub train_records: usize,
    /// Distinct test pseudo-users (IR test cases).
    pub ir_test_users: usize,
    /// Size of the item pool IR negatives are drawn from.
    pub ir_item_pool: usize,
    /// Distinct test items (UT test cases).
    pub ut_test_items: usize,
    /// Size of the user pool UT negatives are drawn from.
    pub ut_user_pool: usize,
    /// Ranking cutoff N.
    pub top_n: usize,
    /// Sampled negatives per test case.
    pub negatives: usize,
}

fn distinct<T: Ord + Copy>(mut v: Vec<T>) -> usize {
    v.sort_unstable();
    v.dedup();
    v.len()
}

impl SplitStats {
    /// Computes Tab. VI statistics for a split under a given protocol
    /// (`top_n` ranked entities out of `negatives + 1` candidates).
    pub fn from_split(split: &TemporalSplit, top_n: usize, negatives: usize) -> Self {
        let all: Vec<&Sample> = split.train.iter().chain(split.test.iter()).collect();
        SplitStats {
            train_records: split.train.len(),
            ir_test_users: distinct(split.test.iter().map(|s| s.user).collect()),
            ir_item_pool: distinct(all.iter().map(|s| s.target).collect()),
            ut_test_items: distinct(split.test.iter().map(|s| s.target).collect()),
            ut_user_pool: distinct(all.iter().map(|s| s.user).collect()),
            top_n,
            negatives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Interaction;
    use crate::split::temporal_split;
    use crate::windowing::{build_samples, WindowConfig};

    fn make_split() -> TemporalSplit {
        let mut recs = Vec::new();
        for u in 0..10u32 {
            for k in 0..6u32 {
                recs.push(Interaction { user: u, item: (u + k) % 7, day: k * 20 });
            }
        }
        let log = InteractionLog::new(recs);
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 5, min_history: 1 });
        temporal_split(samples, 4)
    }

    #[test]
    fn dataset_stats_basic() {
        let log = InteractionLog::new(vec![
            Interaction { user: 0, item: 0, day: 0 },
            Interaction { user: 0, item: 1, day: 31 },
            Interaction { user: 1, item: 0, day: 2 },
        ]);
        let s = DatasetStats::from_log(&log);
        assert_eq!(s.users, 2);
        assert_eq!(s.items, 2);
        assert_eq!(s.interactions, 3);
        assert_eq!(s.months, 2);
        assert!((s.actions_per_user - 1.5).abs() < 1e-9);
    }

    #[test]
    fn split_stats_counts() {
        let split = make_split();
        let st = SplitStats::from_split(&split, 10, 99);
        assert_eq!(st.train_records, split.train.len());
        assert!(st.ir_test_users > 0);
        assert!(st.ir_item_pool >= st.ut_test_items);
        assert!(st.ut_user_pool >= st.ir_test_users);
        assert_eq!(st.top_n, 10);
        assert_eq!(st.negatives, 99);
    }
}
