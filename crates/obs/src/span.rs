//! Scoped-timer spans: RAII guards that record elapsed wall time into a
//! registry histogram when dropped.
//!
//! When observability is disabled a span is fully inert — constructing
//! one reads no clock, takes no lock, and dropping it does nothing.

use std::time::Instant;

use crate::metrics::Histogram;
use crate::{enabled, registry, LATENCY_BOUNDS_US};

/// A scoped timer. Hold it for the duration of the phase being measured;
/// on drop it records the elapsed microseconds into the histogram
/// `name{labels}` (bucketed by [`LATENCY_BOUNDS_US`], or by the bounds
/// [`span_us_bounded`] was given).
///
/// Obtain one with [`span_us`]; a span created while observability is
/// disabled stays inert even if the flag flips mid-flight.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    state: Option<(&'static Histogram, Instant)>,
}

impl Span {
    /// Elapsed microseconds so far, without ending the span.
    /// Returns `None` for an inert span.
    pub fn elapsed_us(&self) -> Option<u64> {
        self.state.as_ref().map(|(_, start)| start.elapsed().as_micros() as u64)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.state.take() {
            hist.observe(start.elapsed().as_micros() as u64);
        }
    }
}

/// Starts a scoped timer over the histogram `name{labels}`, or an inert
/// guard when observability is disabled.
#[inline]
pub fn span_us(name: &'static str, labels: &'static str) -> Span {
    span_us_bounded(name, labels, LATENCY_BOUNDS_US)
}

/// [`span_us`] over a histogram bucketed by `bounds` — for phases the
/// request-scale [`LATENCY_BOUNDS_US`] would file under `+Inf`.
#[inline]
pub fn span_us_bounded(name: &'static str, labels: &'static str, bounds: &'static [u64]) -> Span {
    if enabled() {
        let hist = registry::histogram(name, labels, bounds);
        Span { state: Some((hist, Instant::now())) }
    } else {
        Span { state: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn span_records_when_enabled_and_is_inert_when_disabled() {
        let _guard = crate::test_flag_lock();
        set_enabled(false);
        {
            let s = span_us("span_test_us", "");
            assert!(s.elapsed_us().is_none());
        }

        set_enabled(true);
        {
            let s = span_us("span_test_us", "");
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(s.elapsed_us().unwrap() >= 1_000);
        }
        set_enabled(false);

        let h = registry::histogram("span_test_us", "", LATENCY_BOUNDS_US);
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000);
    }
}
