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

use crate::calendar::month_of;
use crate::log::InteractionLog;

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

/// One training/evaluation sample: a pseudo-user and its target item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The underlying user id (for marginals and user-level bookkeeping).
    pub user: u32,
    /// Most-recent-last purchase history strictly before `day`.
    pub history: Vec<u32>,
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
/// training).
pub fn build_samples(log: &InteractionLog, cfg: &WindowConfig) -> Vec<Sample> {
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
            samples.push(Sample { user, history, target: rec.item, day: rec.day });
        }
    }
    samples.sort_by_key(|s| (s.day, s.user, s.target));
    samples
}

/// Splits samples by target month: returns those with `month() == month`.
pub fn samples_in_month(samples: &[Sample], month: u32) -> Vec<Sample> {
    samples.iter().filter(|s| s.month() == month).cloned().collect()
}

/// Splits samples into those strictly before `month` (by target month).
pub fn samples_before_month(samples: &[Sample], month: u32) -> Vec<Sample> {
    samples.iter().filter(|s| s.month() < month).cloned().collect()
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
            assert_eq!(s.history, vec![10]);
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
        assert_eq!(last.history, vec![6, 7, 8]);
    }

    #[test]
    fn sorted_by_day() {
        let samples = build_samples(&log(), &WindowConfig { max_seq_len: 10, min_history: 1 });
        assert!(samples.windows(2).all(|w| w[0].day <= w[1].day));
    }

    #[test]
    fn month_partition() {
        let samples = build_samples(&log(), &WindowConfig { max_seq_len: 10, min_history: 1 });
        let m0 = samples_in_month(&samples, 0);
        let m1 = samples_in_month(&samples, 1);
        assert_eq!(m0.len() + m1.len(), samples.len());
        assert!(m1.iter().all(|s| s.day >= 30));
        let before = samples_before_month(&samples, 1);
        assert_eq!(before.len(), m0.len());
    }
}
