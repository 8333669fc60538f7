//! Popularity / activeness audit of retrieved entities (Tab. XI).
//!
//! The paper defines an item's *popularity* (a user's *activeness*) as its
//! interaction count over the trailing year, then reports the median and
//! average over everything a model retrieved — exposing the InfoNCE /
//! SimCLR tendency to surface unpopular items.

/// Median and mean of a retrieved-entity popularity distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PopularityStats {
    /// Median trailing interactions.
    pub median: f64,
    /// Mean trailing interactions.
    pub mean: f64,
}

/// Computes stats over the popularity values of all retrieved entities
/// (one value per retrieved slot; retrieving an entity twice counts twice,
/// matching "for all the top-n items retrieved").
pub fn popularity_stats(values: &[u64]) -> PopularityStats {
    if values.is_empty() {
        return PopularityStats::default();
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let median = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2] as f64
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) as f64 / 2.0
    };
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    PopularityStats { median, mean }
}

/// Collects the trailing-window popularity of retrieved ids.
/// `counts[id]` is the id's interaction count in the trailing window.
pub fn retrieved_popularity(retrieved: &[u32], counts: &[u64]) -> Vec<u64> {
    retrieved
        .iter()
        .map(|&id| counts.get(id as usize).copied().unwrap_or(0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(popularity_stats(&[3, 1, 2]).median, 2.0);
        assert_eq!(popularity_stats(&[1, 2, 3, 10]).median, 2.5);
    }

    #[test]
    fn mean() {
        assert_eq!(popularity_stats(&[2, 4, 6]).mean, 4.0);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(popularity_stats(&[]), PopularityStats::default());
    }

    #[test]
    fn retrieved_lookup_with_repeats() {
        let counts = vec![5, 10, 0];
        let vals = retrieved_popularity(&[1, 1, 0, 7], &counts);
        assert_eq!(vals, vec![10, 10, 5, 0]); // unknown id -> 0
    }
}
