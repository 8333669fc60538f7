//! In-memory model checkpoints, one per incremental-training month.
//!
//! The Fig. 3 experiment evaluates each checkpoint against the *fixed*
//! final-month test set, plotting metric vs. "months of data ahead of the
//! checkpoint".

use unimatch_tensor::ParamSet;

/// A snapshot of the model parameters after finishing a training month.
#[derive(Clone, Debug)]
pub struct MonthCheckpoint {
    /// The (0-indexed) month whose data was just consumed.
    pub month: u32,
    /// Parameters after that month.
    pub params: ParamSet,
    /// Mean training loss over the month's epochs.
    pub mean_loss: f32,
}

impl MonthCheckpoint {
    /// How many months of training data this checkpoint is missing relative
    /// to a test month: `test_month - month - 1` (0 ⇒ trained on everything
    /// up to the test boundary).
    pub fn months_behind(&self, test_month: u32) -> u32 {
        test_month.saturating_sub(self.month + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn months_behind_arithmetic() {
        let cp = MonthCheckpoint { month: 8, params: ParamSet::new(), mean_loss: 0.0 };
        // test month 11, trained through month 8 => months 9, 10 missing
        assert_eq!(cp.months_behind(11), 2);
        let cp = MonthCheckpoint { month: 10, params: ParamSet::new(), mean_loss: 0.0 };
        assert_eq!(cp.months_behind(11), 0);
        assert_eq!(cp.months_behind(5), 0); // saturates
    }
}
