//! Raw interaction logs: the `(u, i, t)` records of the paper.

use crate::calendar::month_of;

/// A single purchase record `(u, i, t)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interaction {
    /// Dense user id.
    pub user: u32,
    /// Dense item id.
    pub item: u32,
    /// Absolute day index (day 0 = start of the log).
    pub day: u32,
}

/// An interaction log: the full purchase history of one merchant, sorted by
/// `(user, day)` for efficient per-user timeline iteration.
#[derive(Clone, Debug, Default)]
pub struct InteractionLog {
    records: Vec<Interaction>,
    num_users: u32,
    num_items: u32,
}

impl InteractionLog {
    /// Builds a log from records; sorts by `(user, day, item)` and derives
    /// the user/item universe sizes from the maximum ids seen.
    pub fn new(mut records: Vec<Interaction>) -> Self {
        records.sort_by_key(|r| (r.user, r.day, r.item));
        let num_users = records.iter().map(|r| r.user + 1).max().unwrap_or(0);
        let num_items = records.iter().map(|r| r.item + 1).max().unwrap_or(0);
        InteractionLog { records, num_users, num_items }
    }

    /// All records, sorted by `(user, day, item)`.
    pub fn records(&self) -> &[Interaction] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Size of the user id universe (max id + 1).
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Size of the item id universe (max id + 1).
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// Number of months the log spans (based on the latest day).
    pub fn span_months(&self) -> u32 {
        self.records.iter().map(|r| month_of(r.day) + 1).max().unwrap_or(0)
    }

    /// Iterates `(user, timeline)` slices, one per user with ≥1 record.
    pub fn timelines(&self) -> TimelineIter<'_> {
        TimelineIter { records: &self.records, pos: 0 }
    }

    /// The timeline (sorted by day) of a single user.
    pub fn timeline_of(&self, user: u32) -> &[Interaction] {
        let start = self.records.partition_point(|r| r.user < user);
        let end = self.records.partition_point(|r| r.user <= user);
        &self.records[start..end]
    }

    /// Per-item interaction counts over the whole log.
    pub fn item_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_items as usize];
        for r in &self.records {
            counts[r.item as usize] += 1;
        }
        counts
    }

    /// Per-user interaction counts over the whole log.
    pub fn user_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_users as usize];
        for r in &self.records {
            counts[r.user as usize] += 1;
        }
        counts
    }

    /// Per-item interaction counts restricted to days in `[day_lo, day_hi)`.
    pub fn item_counts_in(&self, day_lo: u32, day_hi: u32) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_items as usize];
        for r in &self.records {
            if r.day >= day_lo && r.day < day_hi {
                counts[r.item as usize] += 1;
            }
        }
        counts
    }

    /// Retains only records for which `keep` returns true, preserving order.
    pub fn filtered(&self, keep: impl Fn(&Interaction) -> bool) -> InteractionLog {
        InteractionLog::new(self.records.iter().copied().filter(keep).collect())
    }

    /// Drops users and items with fewer than `min` interactions (the paper
    /// filters entities interacting with fewer than 3 counterparts). A
    /// single pass per side, as in the paper's preprocessing.
    pub fn filter_min_interactions(&self, min: u64) -> InteractionLog {
        let ic = self.item_counts();
        let uc = self.user_counts();
        self.filtered(|r| uc[r.user as usize] >= min && ic[r.item as usize] >= min)
    }

    /// Number of distinct users with at least one record.
    pub fn distinct_users(&self) -> usize {
        self.timelines().count()
    }

    /// Number of distinct items with at least one record.
    pub fn distinct_items(&self) -> usize {
        self.item_counts().iter().filter(|&&c| c > 0).count()
    }
}

/// Iterator over per-user timelines of a sorted log.
pub struct TimelineIter<'a> {
    records: &'a [Interaction],
    pos: usize,
}

impl<'a> Iterator for TimelineIter<'a> {
    type Item = (u32, &'a [Interaction]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.records.len() {
            return None;
        }
        let user = self.records[self.pos].user;
        let start = self.pos;
        while self.pos < self.records.len() && self.records[self.pos].user == user {
            self.pos += 1;
        }
        Some((user, &self.records[start..self.pos]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> InteractionLog {
        InteractionLog::new(vec![
            Interaction { user: 1, item: 0, day: 5 },
            Interaction { user: 0, item: 2, day: 40 },
            Interaction { user: 0, item: 1, day: 3 },
            Interaction { user: 1, item: 2, day: 70 },
            Interaction { user: 0, item: 1, day: 10 },
        ])
    }

    #[test]
    fn sorted_by_user_then_day() {
        let log = sample_log();
        let days: Vec<(u32, u32)> = log.records().iter().map(|r| (r.user, r.day)).collect();
        assert_eq!(days, vec![(0, 3), (0, 10), (0, 40), (1, 5), (1, 70)]);
    }

    #[test]
    fn universe_sizes() {
        let log = sample_log();
        assert_eq!(log.num_users(), 2);
        assert_eq!(log.num_items(), 3);
        assert_eq!(log.span_months(), 3);
    }

    #[test]
    fn timelines_cover_all_records() {
        let log = sample_log();
        let total: usize = log.timelines().map(|(_, t)| t.len()).sum();
        assert_eq!(total, log.len());
        let users: Vec<u32> = log.timelines().map(|(u, _)| u).collect();
        assert_eq!(users, vec![0, 1]);
    }

    #[test]
    fn timeline_of_single_user() {
        let log = sample_log();
        let t = log.timeline_of(1);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|r| r.user == 1));
        assert!(log.timeline_of(7).is_empty());
    }

    #[test]
    fn counts() {
        let log = sample_log();
        assert_eq!(log.item_counts(), vec![1, 2, 2]);
        assert_eq!(log.user_counts(), vec![3, 2]);
        assert_eq!(log.item_counts_in(0, 30), vec![1, 2, 0]);
    }

    #[test]
    fn min_interaction_filter() {
        let log = sample_log();
        let filtered = log.filter_min_interactions(2);
        // item 0 has 1 interaction -> dropped; both users have >= 2
        assert!(filtered.records().iter().all(|r| r.item != 0));
        assert_eq!(filtered.len(), 4);
    }
}
