//! The metric primitives: relaxed-atomic counters, gauges, and
//! fixed-bucket histograms, each able to render itself in the
//! Prometheus text exposition format.
//!
//! Every observation is one or two `fetch_add`s with `Ordering::Relaxed`
//! — the exposition renders a consistent-enough snapshot without ever
//! stopping the threads doing the work.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter.
    pub const fn new() -> Counter {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Renders `name{labels} value`.
    pub fn render(&self, name: &str, labels: &str, out: &mut String) {
        writeln!(out, "{name}{} {}", braced(labels), self.get()).expect("write to String");
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in one
/// atomic, so readers never see a torn value).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// A fresh gauge reading 0.0.
    pub const fn new() -> Gauge {
        Gauge { bits: AtomicU64::new(0) }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Renders `name{labels} value`.
    pub fn render(&self, name: &str, labels: &str, out: &mut String) {
        writeln!(out, "{name}{} {}", braced(labels), self.get()).expect("write to String");
    }
}

/// A fixed-bucket histogram with cumulative (`le`) exposition.
///
/// Bounds are inclusive upper edges in ascending order; one extra
/// overflow bucket catches everything above the last bound. Values are
/// `u64` — microseconds for durations, plain counts for sizes.
pub struct Histogram {
    bounds: &'static [u64],
    /// One count per bound plus a final overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn new(bounds: &'static [u64]) -> Histogram {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must ascend");
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The bucket bounds this histogram was built with.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Mean observed value (0.0 before the first observation).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts:
    /// the upper bound of the first bucket whose cumulative count reaches
    /// `q × total` (the overflow bucket reports the last finite bound).
    /// Coarse by construction — exact quantiles need the raw samples
    /// (`crates/benchmark` keeps its own); this is for at-a-glance reads.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c.load(Ordering::Relaxed);
            if cumulative >= rank.max(1) {
                return self.bounds.get(i).copied().unwrap_or(*self.bounds.last().unwrap_or(&0));
            }
        }
        *self.bounds.last().unwrap_or(&0)
    }

    /// Renders the `_bucket`/`_sum`/`_count` family, merging `le` into
    /// any caller-supplied label set.
    pub fn render(&self, name: &str, labels: &str, out: &mut String) {
        let mut cumulative = 0u64;
        let sep = if labels.is_empty() { "" } else { "," };
        for (i, bound) in self.bounds.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}")
                .expect("write to String");
        }
        cumulative += self.counts[self.bounds.len()].load(Ordering::Relaxed);
        writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}")
            .expect("write to String");
        let braces = braced(labels);
        writeln!(out, "{name}_sum{braces} {}", self.sum()).expect("write to String");
        writeln!(out, "{name}_count{braces} {}", self.count()).expect("write to String");
    }
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut out = String::new();
        c.render("x_total", "", &mut out);
        assert_eq!(out, "x_total 5\n");

        let g = Gauge::new();
        g.set(1.25);
        assert_eq!(g.get(), 1.25);
        out.clear();
        g.render("g", "kind=\"loss\"", &mut out);
        assert_eq!(out, "g{kind=\"loss\"} 1.25\n");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10); // le="10" is inclusive
        h.observe(50);
        h.observe(1000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1065);
        let mut out = String::new();
        h.render("x", "", &mut out);
        assert!(out.contains("x_bucket{le=\"10\"} 2"), "{out}");
        assert!(out.contains("x_bucket{le=\"100\"} 3"), "{out}");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 4"), "{out}");
        assert!(out.contains("x_count 4"), "{out}");
    }

    #[test]
    fn histogram_quantiles_estimate_from_buckets() {
        let h = Histogram::new(&[10, 100, 1000]);
        for _ in 0..90 {
            h.observe(5);
        }
        for _ in 0..10 {
            h.observe(500);
        }
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.99), 1000);
        assert!((h.mean() - (90.0 * 5.0 + 10.0 * 500.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new(&[1, 2]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
