//! Day/month arithmetic for the next-n-day prediction setting.
//!
//! The paper's merchants run campaigns monthly; all splits and the
//! incremental-training schedule operate at month granularity. We use a
//! fixed 30-day month: the raw logs carry absolute day indices starting at
//! day 0, and `month_of(day) = day / 30`.

/// Days per (synthetic) month.
pub const DAYS_PER_MONTH: u32 = 30;

/// The month index a given absolute day falls into.
pub fn month_of(day: u32) -> u32 {
    day / DAYS_PER_MONTH
}

/// First absolute day of a month.
pub fn month_start(month: u32) -> u32 {
    month * DAYS_PER_MONTH
}

/// One-past-the-last absolute day of a month.
pub fn month_end(month: u32) -> u32 {
    (month + 1) * DAYS_PER_MONTH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_of_boundaries() {
        assert_eq!(month_of(0), 0);
        assert_eq!(month_of(29), 0);
        assert_eq!(month_of(30), 1);
        assert_eq!(month_of(59), 1);
        assert_eq!(month_of(60), 2);
    }

    #[test]
    fn start_end_consistent() {
        for m in 0..24 {
            assert_eq!(month_of(month_start(m)), m);
            assert_eq!(month_of(month_end(m) - 1), m);
            assert_eq!(month_end(m), month_start(m + 1));
        }
    }
}
