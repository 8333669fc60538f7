//! Order statistics over raw samples. Nothing here estimates from
//! histogram buckets: every percentile the benchmark reports is
//! nearest-rank over the samples it kept.

/// Nearest-rank `q`-quantile (`0 <= q <= 1`) of `samples`: the smallest
/// value with at least `q × n` samples at or below it (the minimum for
/// `q = 0`). Panics on an empty
/// slice — a phase that produced no samples has already failed.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The fastest decile: the nearest-rank p10, but never the single fastest
/// sample. Reported beside the median of the batch phases' repetition
/// times. On a shared box interference only ever adds time and comes in
/// bursts, so of the two the fast decile moves less between runs of one
/// commit (neither repeats well enough to gate on: see README.md,
/// "Noise"). A quantile rather than the minimum, so one lucky sample
/// cannot set the value and it does not drift down as a workload affords
/// more repetitions.
pub fn fast_decile(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fast decile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = ((0.1 * sorted.len() as f64).ceil() as usize)
        .max(2)
        .min(sorted.len());
    sorted[rank - 1]
}

/// `fastest / fast decile / median / slowest` of `samples`, for the
/// notes printed beside a metric so in-run noise shows.
pub fn spread_note(samples: &[f64]) -> String {
    format!(
        "{:.1} / {:.1} / {:.1} / {:.1}",
        percentile(samples, 0.0),
        fast_decile(samples),
        median(samples),
        percentile(samples, 1.0)
    )
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0 — for ratios of counters that
/// are legitimately empty on some workloads (no cache lookups, no shards).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(fast_decile(&s), 10.0);
        assert_eq!(fast_decile(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(fast_decile(&[5.0]), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(spread_note(&[4.0, 1.0, 2.0, 3.0]), "1.0 / 2.0 / 2.0 / 4.0");
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
