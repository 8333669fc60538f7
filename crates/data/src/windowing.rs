//! Next-n-day sample construction (Sec. II-A of the paper).
//!
//! For every purchase `(u, i, t)` we emit a training sample whose
//! *pseudo-user* is `x_{u,t}` — the sequence of `u`'s purchases strictly
//! before day `t`, truncated to the most recent `max_seq_len` — and whose
//! target `y_{u,t}` is the purchased item `i`. Emitting one sample per
//! interaction enumerates exactly the positive `(x_{u,t}, y)` pairs of the
//! paper's dataset `D` (purchases within `[t, t+n)` are each some record's
//! target), while the strict `day < t` cut keeps same-day co-purchases out
//! of the history so no label leaks into its own input.
//!
//! A sample's history is a [`History`]: a window on its user's item
//! timeline, which every sample of that user shares. Windowing a log
//! therefore allocates one item array per user, not one per record, and
//! cloning a sample (into a split, a month, a batch row) is a refcount
//! bump. Only training windows the log; serving reads each user's latest
//! history straight off the timeline (`unimatch_eval::UserPool::from_log`).

use crate::calendar::month_of;
use crate::log::InteractionLog;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Configuration for sample construction.
#[derive(Clone, Copy, Debug)]
pub struct WindowConfig {
    /// Maximum history length; the paper truncates at 20 (Books), 36
    /// (Electronics), 29 (e_comp), 18 (w_comp).
    pub max_seq_len: usize,
    /// Minimum history length for a sample to be emitted (cold-start rows
    /// carry no signal for a sequence encoder).
    pub min_history: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig { max_seq_len: 20, min_history: 1 }
    }
}

/// A window `items[start..end]` on one user's shared item timeline.
///
/// Derefs to the `&[u32]` it covers; equality and `Debug` look at that
/// slice only, so two histories with the same items are equal whichever
/// timeline they window.
#[derive(Clone)]
pub struct History {
    items: Arc<[u32]>,
    start: u32,
    end: u32,
}

impl History {
    /// The window `range` on the shared timeline `items`.
    pub(crate) fn window(items: Arc<[u32]>, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= items.len(), "window out of range");
        let end = u32::try_from(range.end).expect("timeline longer than u32::MAX items");
        History { items, start: range.start as u32, end }
    }
}

impl Deref for History {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.items[self.start as usize..self.end as usize]
    }
}

impl From<Vec<u32>> for History {
    fn from(items: Vec<u32>) -> Self {
        let len = items.len();
        History::window(items.into(), 0..len)
    }
}

impl PartialEq for History {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for History {}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One training/evaluation sample: a pseudo-user and its target item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The underlying user id (for marginals and user-level bookkeeping).
    pub user: u32,
    /// Most-recent-last purchase history strictly before `day`.
    pub history: History,
    /// The target item.
    pub target: u32,
    /// Absolute day of the target purchase.
    pub day: u32,
}

impl Sample {
    /// Month of the target purchase.
    pub fn month(&self) -> u32 {
        month_of(self.day)
    }
}

/// Builds the full sample set `D` from a log under `cfg`, sorted by day so
/// downstream consumers can iterate in calendar order (incremental
/// training). Each user's items are copied once, into the timeline every
/// one of that user's histories windows.
pub fn build_samples(log: &InteractionLog, cfg: &WindowConfig) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(log.len());
    for (user, timeline) in log.timelines() {
        let items: Arc<[u32]> = timeline.iter().map(|r| r.item).collect();
        // timeline is sorted by day; history = strictly earlier days, so
        // `cut` is the first record of the current day
        let mut cut = 0;
        for (idx, rec) in timeline.iter().enumerate() {
            if timeline[cut].day != rec.day {
                cut = idx;
            }
            if cut < cfg.min_history {
                continue;
            }
            let start = cut.saturating_sub(cfg.max_seq_len);
            let history = History::window(items.clone(), start..cut);
            samples.push(Sample { user, history, target: rec.item, day: rec.day });
        }
    }
    // samples that tie on (day, user, target) window the same range of the
    // same timeline, so they are equal and an unstable sort reorders
    // nothing observable
    samples.sort_unstable_by_key(|s| (s.day, s.user, s.target));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Interaction;

    fn log() -> InteractionLog {
        InteractionLog::new(vec![
            Interaction { user: 0, item: 10, day: 1 },
            Interaction { user: 0, item: 11, day: 2 },
            Interaction { user: 0, item: 12, day: 2 }, // same-day pair
            Interaction { user: 0, item: 13, day: 40 },
            Interaction { user: 1, item: 10, day: 5 },
        ])
    }

    #[test]
    fn history_strictly_before_target_day() {
        let samples = build_samples(&log(), &WindowConfig { max_seq_len: 10, min_history: 1 });
        // user 0 day 2 samples must not contain items bought on day 2
        for s in samples.iter().filter(|s| s.user == 0 && s.day == 2) {
            assert_eq!(*s.history, [10]);
        }
        // two same-day targets both emitted
        assert_eq!(samples.iter().filter(|s| s.user == 0 && s.day == 2).count(), 2);
    }

    #[test]
    fn min_history_drops_cold_start() {
        let samples = build_samples(&log(), &WindowConfig::default());
        // user 1 has no history before day 5; user 0 day 1 likewise
        assert!(samples.iter().all(|s| !s.history.is_empty()));
        assert!(!samples.iter().any(|s| s.user == 1));
        assert!(!samples.iter().any(|s| s.user == 0 && s.day == 1));
    }

    #[test]
    fn truncation_keeps_most_recent() {
        let recs: Vec<Interaction> = (0..10)
            .map(|k| Interaction { user: 0, item: k, day: k })
            .collect();
        let log = InteractionLog::new(recs);
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 3, min_history: 1 });
        let last = samples.iter().find(|s| s.day == 9).expect("sample at day 9");
        assert_eq!(*last.history, [6, 7, 8]);
    }

    #[test]
    fn histories_compare_and_print_as_slices() {
        let timeline: Arc<[u32]> = vec![4, 5, 6, 7].into();
        let window = History::window(timeline.clone(), 1..3);
        assert_eq!(window, History::from(vec![5, 6]));
        assert_ne!(window, History::window(timeline, 1..4));
        assert_eq!(format!("{window:?}"), "[5, 6]");
    }

    /// The copying windowing every history had before they were shared,
    /// kept verbatim as the reference: one `(user, history, target, day)`
    /// per emitted sample.
    fn copied_samples(log: &InteractionLog, cfg: &WindowConfig) -> Vec<(u32, Vec<u32>, u32, u32)> {
        let mut samples = Vec::new();
        for (user, timeline) in log.timelines() {
            // timeline is sorted by day
            for (idx, rec) in timeline.iter().enumerate() {
                // history = strictly earlier days
                let mut cut = idx;
                while cut > 0 && timeline[cut - 1].day == rec.day {
                    cut -= 1;
                }
                if cut < cfg.min_history {
                    continue;
                }
                let start = cut.saturating_sub(cfg.max_seq_len);
                let history: Vec<u32> = timeline[start..cut].iter().map(|r| r.item).collect();
                samples.push((user, history, rec.item, rec.day));
            }
        }
        samples.sort_by_key(|s| (s.3, s.0, s.2));
        samples
    }

    #[test]
    fn windows_equal_copies() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for case in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(case);
            // few days per user, so same-day ties are common
            let n = rng.gen_range(0..400);
            let log = InteractionLog::new(
                (0..n)
                    .map(|_| Interaction {
                        user: rng.gen_range(0..12),
                        item: rng.gen_range(0..30),
                        day: rng.gen_range(0..90),
                    })
                    .collect(),
            );
            let cfg = WindowConfig {
                max_seq_len: rng.gen_range(1..40),
                min_history: rng.gen_range(0..4),
            };
            let shared: Vec<(u32, Vec<u32>, u32, u32)> = build_samples(&log, &cfg)
                .into_iter()
                .map(|s| (s.user, s.history.to_vec(), s.target, s.day))
                .collect();
            assert_eq!(shared, copied_samples(&log, &cfg), "case {case}");
        }
        for (case, profile) in crate::synthetic::DatasetProfile::ALL.into_iter().enumerate() {
            let log = profile.generate(0.05, case as u64).filter_min_interactions(3);
            let cfg = WindowConfig { max_seq_len: profile.max_seq_len(), min_history: 1 };
            let shared: Vec<(u32, Vec<u32>, u32, u32)> = build_samples(&log, &cfg)
                .into_iter()
                .map(|s| (s.user, s.history.to_vec(), s.target, s.day))
                .collect();
            assert_eq!(shared, copied_samples(&log, &cfg), "case {profile:?}");
        }
    }

    #[test]
    fn sorted_by_day() {
        let samples = build_samples(&log(), &WindowConfig { max_seq_len: 10, min_history: 1 });
        assert!(samples.windows(2).all(|w| w[0].day <= w[1].day));
    }
}
