//! Temporal train/validation/test splitting.
//!
//! With the log spanning `T` months, the paper uses `(0, T-1]` for
//! training, `(T-2, T-1]` (the last training month) for validation and
//! `(T-1, T]` for test. In 0-indexed months: test month `T-1`, validation
//! month `T-2`, training targets in months `0..=T-2`.
//!
//! The split takes the samples by value: train and test samples move in,
//! and only the validation month, a subset of train, is cloned — a
//! refcount bump per sample, since histories share their user's timeline
//! ([`crate::windowing::History`]).

use crate::windowing::Sample;

/// A temporal split of the sample set.
#[derive(Clone, Debug, Default)]
pub struct TemporalSplit {
    /// Training samples: target months `0..=T-2`.
    pub train: Vec<Sample>,
    /// Validation samples: target month `T-2` (a subset of `train`, as in
    /// the paper).
    pub val: Vec<Sample>,
    /// Test samples: target month `T-1`.
    pub test: Vec<Sample>,
    /// The (0-indexed) validation month.
    pub val_month: u32,
    /// The (0-indexed) test month.
    pub test_month: u32,
}

/// Splits `samples` (any order) given the total span in months (`T ≥ 3`).
pub fn temporal_split(samples: Vec<Sample>, span_months: u32) -> TemporalSplit {
    assert!(span_months >= 3, "need at least 3 months to split, got {span_months}");
    let test_month = span_months - 1;
    let val_month = span_months - 2;
    let mut split = TemporalSplit {
        val_month,
        test_month,
        ..TemporalSplit::default()
    };
    for s in samples {
        let m = s.month();
        if m >= span_months {
            continue; // ragged tail beyond the declared span
        }
        if m == test_month {
            split.test.push(s);
        } else {
            if m == val_month {
                split.val.push(s.clone());
            }
            split.train.push(s);
        }
    }
    split
}

impl TemporalSplit {
    /// Training samples whose target falls in `month`.
    pub fn train_month(&self, month: u32) -> Vec<Sample> {
        assert!(month < self.test_month, "month {month} is not a training month");
        self.train.iter().filter(|s| s.month() == month).cloned().collect()
    }

    /// The training months in calendar order (those that contain samples).
    pub fn train_months(&self) -> Vec<u32> {
        let mut months: Vec<u32> = self.train.iter().map(|s| s.month()).collect();
        months.sort_unstable();
        months.dedup();
        months
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(day: u32) -> Sample {
        Sample { user: 0, history: vec![1].into(), target: 2, day }
    }

    #[test]
    fn partition_is_exact() {
        let samples: Vec<Sample> = (0..120).map(sample).collect(); // 4 months
        let split = temporal_split(samples, 4);
        assert_eq!(split.test_month, 3);
        assert_eq!(split.val_month, 2);
        assert_eq!(split.test.len(), 30);
        assert_eq!(split.val.len(), 30);
        assert_eq!(split.train.len(), 90);
        assert!(split.test.iter().all(|s| s.month() == 3));
        assert!(split.val.iter().all(|s| s.month() == 2));
        assert!(split.train.iter().all(|s| s.month() < 3));
    }

    #[test]
    fn val_is_subset_of_train() {
        let samples: Vec<Sample> = (0..120).map(sample).collect();
        let split = temporal_split(samples, 4);
        for v in &split.val {
            assert!(split.train.contains(v));
        }
    }

    #[test]
    fn train_month_selection() {
        let samples: Vec<Sample> = (0..120).map(sample).collect();
        let split = temporal_split(samples, 4);
        assert_eq!(split.train_month(1).len(), 30);
        assert_eq!(split.train_months(), vec![0, 1, 2]);
    }

    #[test]
    fn ragged_tail_ignored() {
        let samples: Vec<Sample> = (0..150).map(sample).collect(); // 5 months of days
        let split = temporal_split(samples, 4); // declared span 4
        assert_eq!(split.test.len() + split.train.len(), 120);
    }

    #[test]
    #[should_panic(expected = "at least 3 months")]
    fn too_short_rejected() {
        temporal_split(Vec::new(), 2);
    }
}
