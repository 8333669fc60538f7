//! The user pool for UT: one (latest) pseudo-user per distinct user across
//! train and test, mirroring the paper's large user pools (Tab. VI:
//! 317,667 pool users vs. 43,867 test users on Books).
//!
//! Serving reads the pool straight off the log's timelines
//! ([`UserPool::from_log`]); evaluation, whose splits need not come from
//! one log, builds it from the windowed samples ([`UserPool::build`]).
//! On a split of the same log both give the same pool.

use std::collections::HashMap;
use unimatch_data::{InteractionLog, TemporalSplit};

/// One pseudo-user per distinct user, in ascending user-id order.
#[derive(Clone, Debug, Default)]
pub struct UserPool {
    users: Vec<u32>,
    histories: Vec<Vec<u32>>,
}

impl UserPool {
    /// Reads the pool off `log` without windowing it. A user's latest
    /// sample targets the last day of their timeline, so it exists iff
    /// they bought on an earlier day, and its history is the last
    /// `max_seq_len` items before that day's first record.
    pub fn from_log(log: &InteractionLog, max_seq_len: usize) -> Self {
        let mut pool = UserPool::default();
        for (user, timeline) in log.timelines() {
            let last_day = timeline[timeline.len() - 1].day;
            let cut = timeline.partition_point(|r| r.day < last_day);
            if cut == 0 {
                continue;
            }
            let start = cut.saturating_sub(max_seq_len);
            pool.users.push(user);
            pool.histories.push(timeline[start..cut].iter().map(|r| r.item).collect());
        }
        pool
    }

    /// Builds the pool from a split, keeping each user's most recent
    /// history (by sample day) truncated to `max_seq_len`.
    pub fn build(split: &TemporalSplit, max_seq_len: usize) -> Self {
        let mut latest: HashMap<u32, (u32, &[u32])> = HashMap::new();
        for s in split.train.iter().chain(split.test.iter()) {
            match latest.get(&s.user) {
                Some(&(day, _)) if day >= s.day => {}
                _ => {
                    latest.insert(s.user, (s.day, &s.history));
                }
            }
        }
        let mut entries: Vec<(u32, &[u32])> =
            latest.into_iter().map(|(u, (_, h))| (u, h)).collect();
        entries.sort_by_key(|&(u, _)| u);
        let mut pool = UserPool::default();
        for (u, h) in entries {
            let start = h.len().saturating_sub(max_seq_len);
            pool.users.push(u);
            pool.histories.push(h[start..].to_vec());
        }
        pool
    }

    /// Number of pooled users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The user id at a pool index.
    pub fn user(&self, ix: usize) -> u32 {
        self.users[ix]
    }

    /// All user ids in pool order (row ids for an embedding store built
    /// over the pool).
    pub fn users(&self) -> &[u32] {
        &self.users
    }

    /// The pseudo-user history at a pool index.
    pub fn history(&self, ix: usize) -> &[u32] {
        &self.histories[ix]
    }

    /// All histories in pool order (for batch embedding).
    pub fn histories(&self) -> &[Vec<u32>] {
        &self.histories
    }

    /// Pool index of a user id (both constructors emit ascending ids).
    pub fn index_of(&self, user: u32) -> Option<usize> {
        self.users.binary_search(&user).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimatch_data::{Sample, TemporalSplit};

    fn split() -> TemporalSplit {
        TemporalSplit {
            train: vec![
                Sample { user: 1, history: vec![10].into(), target: 11, day: 5 },
                Sample { user: 1, history: vec![10, 11].into(), target: 12, day: 40 },
                Sample { user: 2, history: vec![20, 21, 22, 23].into(), target: 24, day: 50 },
            ],
            val: vec![],
            test: vec![Sample { user: 3, history: vec![30].into(), target: 31, day: 95 }],
            val_month: 2,
            test_month: 3,
        }
    }

    #[test]
    fn keeps_latest_history_per_user() {
        let pool = UserPool::build(&split(), 8);
        assert_eq!(pool.len(), 3);
        let ix = pool.index_of(1).expect("user 1");
        assert_eq!(pool.history(ix), &[10, 11]);
        assert_eq!(pool.user(ix), 1);
    }

    #[test]
    fn truncates_to_max_len() {
        let pool = UserPool::build(&split(), 2);
        let ix = pool.index_of(2).expect("user 2");
        assert_eq!(pool.history(ix), &[22, 23]);
    }

    #[test]
    fn from_log_keeps_the_history_before_the_last_day() {
        use unimatch_data::Interaction;
        let rec = |user, item, day| Interaction { user, item, day };
        let log = InteractionLog::new(vec![
            rec(4, 1, 3),
            rec(4, 2, 7),
            rec(4, 3, 7),
            rec(4, 5, 9), // ties on the last day share the history before it
            rec(4, 6, 9),
            rec(6, 8, 2),
            rec(6, 9, 2), // every purchase on one day: no sample, no pool row
            rec(9, 7, 1),
            rec(9, 8, 60),
        ]);
        let pool = UserPool::from_log(&log, 2);
        assert_eq!(pool.users(), &[4, 9]);
        assert_eq!(pool.history(0), &[2, 3]);
        assert_eq!(pool.history(1), &[7]);
        assert_eq!((pool.index_of(9), pool.index_of(6)), (Some(1), None));
    }

    #[test]
    fn includes_test_users() {
        let pool = UserPool::build(&split(), 8);
        assert!(pool.index_of(3).is_some());
        assert!(pool.index_of(99).is_none());
    }
}
