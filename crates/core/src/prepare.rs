//! End-to-end dataset preparation: generate (or accept) a log, filter,
//! window, split, and compute marginals — the common prefix of every
//! experiment and every training run. Serving needs none of it: a
//! deployment reads its user pool and marginals straight off the log
//! (see [`crate::UniMatch::serve`]).

use unimatch_data::windowing::{build_samples, WindowConfig};
use unimatch_data::{temporal_split, DatasetProfile, InteractionLog, Marginals, TemporalSplit};

/// A fully prepared dataset, ready to train and evaluate on.
#[derive(Clone, Debug)]
pub struct PreparedData {
    /// The filtered interaction log.
    pub log: InteractionLog,
    /// Temporal train/val/test split of the windowed samples.
    pub split: TemporalSplit,
    /// Empirical marginals over the *training* samples (the bias terms).
    pub marginals: Marginals,
    /// History truncation used for windowing.
    pub max_seq_len: usize,
}

impl PreparedData {
    /// Prepares a synthetic profile at the given scale.
    pub fn synthetic(profile: DatasetProfile, scale: f64, seed: u64) -> Self {
        let log = profile.generate(scale, seed).filter_min_interactions(3);
        Self::from_log(log, profile.max_seq_len())
    }

    /// Prepares from a raw log (the production entry point for real data).
    pub fn from_log(log: InteractionLog, max_seq_len: usize) -> Self {
        let samples = build_samples(&log, &WindowConfig { max_seq_len, min_history: 1 });
        let split = temporal_split(samples, log.span_months());
        let marginals = Marginals::from_log(&log);
        PreparedData { log, split, marginals, max_seq_len }
    }

    /// A split where the validation month plays the test role: months
    /// `< T-2` train, month `T-2` tests. Used for hyperparameter search so
    /// the real test month stays untouched (Sec. IV-A2).
    pub fn validation_split(&self) -> TemporalSplit {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for s in &self.split.train {
            if s.month() == self.split.val_month {
                test.push(s.clone());
            } else {
                train.push(s.clone());
            }
        }
        let val_month = self.split.val_month.saturating_sub(1);
        let val = train.iter().filter(|s| s.month() == val_month).cloned().collect();
        TemporalSplit { train, val, test, val_month, test_month: self.split.val_month }
    }

    /// Item-vocabulary size (dense id universe).
    pub fn num_items(&self) -> usize {
        self.log.num_items() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_preparation_is_consistent() {
        let p = PreparedData::synthetic(DatasetProfile::EComp, 0.15, 3);
        assert!(!p.split.train.is_empty());
        assert!(!p.split.test.is_empty());
        assert_eq!(p.split.test_month, p.log.span_months() - 1);
        // all sample items within vocabulary
        for s in p.split.train.iter().chain(p.split.test.iter()) {
            assert!((s.target as usize) < p.num_items());
            assert!(s.history.iter().all(|&i| (i as usize) < p.num_items()));
        }
    }

    #[test]
    fn validation_split_shifts_test_month() {
        let p = PreparedData::synthetic(DatasetProfile::EComp, 0.15, 4);
        let v = p.validation_split();
        assert_eq!(v.test_month, p.split.val_month);
        assert!(v.test.iter().all(|s| s.month() == v.test_month));
        assert!(v.train.iter().all(|s| s.month() < v.test_month));
        // no leakage: validation-split training data excludes its test month
        let total = v.train.len() + v.test.len();
        assert_eq!(total, p.split.train.len());
    }
}
