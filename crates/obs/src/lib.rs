//! # unimatch-obs
//!
//! The workspace's observability layer: lock-free [`Counter`]s,
//! [`Gauge`]s and fixed-bucket [`Histogram`]s, scoped-timer [`Span`]s,
//! and a process-global [`registry`] that renders every registered series
//! in one Prometheus-style text exposition. Zero external dependencies —
//! everything is `std` atomics.
//!
//! ## The no-op contract
//!
//! Observability is **off by default** and must never perturb the
//! computation it watches:
//!
//! * the global flag ([`enabled`]) is one relaxed atomic load — the whole
//!   disabled hot path is `load + branch`, a nanosecond-scale cost that
//!   the `overhead` integration test pins;
//! * instrumentation sites guard with `if obs::enabled() { … }` so that
//!   with the flag off **no clock is read, no lock is taken, no
//!   allocation happens**;
//! * recording only ever *reads* model state (timers, counters, gradient
//!   norms) — enabling metrics cannot change a single trained byte,
//!   which the workspace's determinism audit asserts end to end.
//!
//! ## Two ways to hold a metric
//!
//! *Owned*: construct [`Counter`]/[`Histogram`] directly for
//! per-instance metrics (the serving layer builds one cell per series of
//! its declarative catalogue, `unimatch_serve::metrics::CATALOGUE`, per
//! server, and records through constant indexes into them).
//! *Registered*: [`registry::counter`] & friends get-or-create a
//! process-global series by name and return a `&'static` handle;
//! [`registry::render`] walks them all. The training and ANN layers use
//! the registry so their series appear on the serving `/metrics`
//! endpoint with no plumbing between the crates. Either way a series is
//! listed once for operators: the `## Metrics` table of
//! `docs/OPERATIONS.md`, held to the code by `tests/metrics_docs_sync.rs`.
//!
//! ```
//! use unimatch_obs as obs;
//!
//! obs::set_enabled(true);
//! if obs::enabled() {
//!     obs::registry::counter("my_events_total").inc();
//!     let _span = obs::span_us("my_phase_us", "");
//!     // … timed work; the span records into a histogram on drop
//! }
//! let text = obs::registry::render();
//! assert!(text.contains("my_events_total 1"));
//! # obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram};
pub use span::{span_us, span_us_bounded, Span};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global observability collection on or off (default: off).
///
/// The flag only gates *collection at instrumentation sites*; metrics
/// that were already recorded stay readable, and owned metrics (e.g. the
/// serving layer's per-server counters) are unaffected.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation sites should record. One relaxed atomic load;
/// hot loops may call this freely.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Latency bucket bounds in microseconds, shared by every request-scale
/// duration histogram in the workspace (50 µs … 100 ms, then +Inf).
pub const LATENCY_BOUNDS_US: &[u64] =
    &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000];

/// Bucket bounds in microseconds for index construction, which runs
/// for tens of milliseconds to seconds (10 ms … 10 s, then +Inf).
pub const BUILD_BOUNDS_US: &[u64] = &[
    10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Power-of-two-ish count bounds for size-like histograms (batch sizes,
/// visited-node counts, …).
pub const COUNT_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024, 4_096, 16_384];

/// Serializes unit tests that flip the process-global flag.
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trips() {
        let _guard = test_flag_lock();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
