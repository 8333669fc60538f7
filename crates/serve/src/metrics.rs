//! Serving metrics: lock-free counters and histograms with a text
//! exposition endpoint (`GET /metrics`, Prometheus-style line format).
//!
//! The primitives live in [`unimatch_obs`] — this module owns one
//! instance of each series per [`Metrics`] struct (one per server), and
//! the server appends [`unimatch_obs::registry::render`] to the scrape
//! body so training and ANN series registered elsewhere in the process
//! appear on the same endpoint.
//!
//! Every counter is a relaxed atomic — the hot path pays one `fetch_add`
//! per observation and the exposition renders a consistent-enough snapshot
//! without stopping traffic.

use std::sync::atomic::{AtomicU64, Ordering};
use unimatch_obs::{Counter, Histogram, LATENCY_BOUNDS_US};

/// Interned `shard="…"` label bodies for the per-shard error counters
/// (indices past the table share the overflow bucket).
const SHARD_ERROR_LABELS: [&str; 17] = [
    "shard=\"0\"",
    "shard=\"1\"",
    "shard=\"2\"",
    "shard=\"3\"",
    "shard=\"4\"",
    "shard=\"5\"",
    "shard=\"6\"",
    "shard=\"7\"",
    "shard=\"8\"",
    "shard=\"9\"",
    "shard=\"10\"",
    "shard=\"11\"",
    "shard=\"12\"",
    "shard=\"13\"",
    "shard=\"14\"",
    "shard=\"15\"",
    "shard=\"16+\"",
];

/// The served routes, used as metric labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `POST /recommend` — IR, user history → top-k items.
    Recommend,
    /// `POST /target` — UT, item → top-k users.
    Target,
    /// `POST /reload` — checkpoint hot-swap.
    Reload,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
}

impl Route {
    /// All routes, in exposition order.
    pub const ALL: [Route; 5] =
        [Route::Recommend, Route::Target, Route::Reload, Route::Healthz, Route::Metrics];

    /// The metric label for this route.
    pub fn label(self) -> &'static str {
        match self {
            Route::Recommend => "recommend",
            Route::Target => "target",
            Route::Reload => "reload",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Route::Recommend => 0,
            Route::Target => 1,
            Route::Reload => 2,
            Route::Healthz => 3,
            Route::Metrics => 4,
        }
    }
}

/// Micro-batch size bucket bounds (requests coalesced per execution).
const BATCH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// All serving metrics, shared across connection and batcher threads.
///
/// These are *owned* (per-server) series, always on regardless of the
/// global [`unimatch_obs::enabled`] flag — a serving process wants its
/// request counters unconditionally, and per-instance ownership keeps
/// two servers in one test process from sharing counts.
pub struct Metrics {
    requests: [Counter; 5],
    responses_4xx: Counter,
    responses_5xx: Counter,
    /// End-to-end request latency (parse → response ready), µs; one
    /// histogram per query route.
    latency_recommend_us: Histogram,
    /// See [`Metrics::latency_recommend_us`].
    latency_target_us: Histogram,
    batch_recommend: Histogram,
    batch_target: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    reloads: Counter,
    connections_rejected: Counter,
    /// Requests turned away at admission because the queue was at its
    /// configured bound (→ 429).
    shed_queue_full: Counter,
    /// Admitted jobs dropped by the batcher because their deadline passed
    /// while they queued (→ 503).
    shed_deadline: Counter,
    /// Requests turned away at admission because the brownout ladder
    /// reached its `shed` step (→ 503).
    shed_brownout: Counter,
    /// Per-shard retrieval failures absorbed by the quorum policy; index
    /// 16 is the `16+` overflow bucket.
    shard_errors: [Counter; 17],
    /// 200 responses flagged `degraded:true` because a shard was missing
    /// from the merge.
    degraded_shard: Counter,
    /// 200 responses flagged `degraded:true` because an active brownout
    /// step changed response content.
    degraded_brownout: Counter,
    /// EWMA of per-job batcher service time, µs — feeds the dynamic
    /// `Retry-After` estimate. Zero until the first batch executes.
    service_ewma_us: AtomicU64,
    /// Paired primary/shadow comparisons completed, per query route.
    shadow_pairs_recommend: Counter,
    /// See [`Metrics::shadow_pairs_recommend`].
    shadow_pairs_target: Counter,
    /// Sampled mirrors lost: mirror queue full, shadow vocabulary too
    /// small for the request, or shadow execution panicked.
    shadow_dropped: Counter,
    /// Sum of per-pair overlap@k in milli-units (identical lists add
    /// 1000); divide by `pairs × 1000` for the mean overlap ratio.
    shadow_overlap_milli: Counter,
    /// Sum of per-pair mean |score delta| over the overlap, micro-units.
    shadow_score_delta_micro: Counter,
    /// Queue wait of mirrored jobs (primary answer → shadow dequeue), µs.
    shadow_lag_us: Histogram,
    /// Shadow pipeline execution time per mirrored job, µs.
    shadow_exec_us: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: Default::default(),
            responses_4xx: Counter::new(),
            responses_5xx: Counter::new(),
            latency_recommend_us: Histogram::new(LATENCY_BOUNDS_US),
            latency_target_us: Histogram::new(LATENCY_BOUNDS_US),
            batch_recommend: Histogram::new(BATCH_BOUNDS),
            batch_target: Histogram::new(BATCH_BOUNDS),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            reloads: Counter::new(),
            connections_rejected: Counter::new(),
            shed_queue_full: Counter::new(),
            shed_deadline: Counter::new(),
            shed_brownout: Counter::new(),
            shard_errors: Default::default(),
            degraded_shard: Counter::new(),
            degraded_brownout: Counter::new(),
            service_ewma_us: AtomicU64::new(0),
            shadow_pairs_recommend: Counter::new(),
            shadow_pairs_target: Counter::new(),
            shadow_dropped: Counter::new(),
            shadow_overlap_milli: Counter::new(),
            shadow_score_delta_micro: Counter::new(),
            shadow_lag_us: Histogram::new(LATENCY_BOUNDS_US),
            shadow_exec_us: Histogram::new(LATENCY_BOUNDS_US),
        }
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Counts one request routed to `route`.
    pub fn request(&self, route: Route) {
        self.requests[route.index()].inc();
    }

    /// Requests seen so far on `route`.
    pub fn requests(&self, route: Route) -> u64 {
        self.requests[route.index()].get()
    }

    /// Counts one response with `status`.
    pub fn response(&self, status: u16) {
        match status {
            400..=499 => self.responses_4xx.inc(),
            500..=599 => self.responses_5xx.inc(),
            _ => {}
        }
    }

    /// Records an end-to-end latency observation for a query route.
    pub fn latency(&self, route: Route, micros: u64) {
        match route {
            Route::Recommend => self.latency_recommend_us.observe(micros),
            Route::Target => self.latency_target_us.observe(micros),
            _ => {}
        }
    }

    /// Records the size of one executed micro-batch.
    pub fn batch(&self, route: Route, size: usize) {
        match route {
            Route::Recommend => self.batch_recommend.observe(size as u64),
            Route::Target => self.batch_target.observe(size as u64),
            _ => {}
        }
    }

    /// Batches executed so far for a query route.
    pub fn batches(&self, route: Route) -> u64 {
        match route {
            Route::Recommend => self.batch_recommend.count(),
            Route::Target => self.batch_target.count(),
            _ => 0,
        }
    }

    /// Counts an embedding-cache hit.
    pub fn cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Counts an embedding-cache miss.
    pub fn cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Counts a successful checkpoint reload.
    pub fn reload(&self) {
        self.reloads.inc();
    }

    /// Counts a connection turned away at the connection cap.
    pub fn connection_rejected(&self) {
        self.connections_rejected.inc();
    }

    /// Counts a request shed at admission because the queue was full.
    pub fn shed_queue_full(&self) {
        self.shed_queue_full.inc();
    }

    /// Counts a queued job shed because its deadline passed.
    pub fn shed_deadline(&self) {
        self.shed_deadline.inc();
    }

    /// Counts a request shed at admission by the brownout `shed` step.
    pub fn shed_brownout(&self) {
        self.shed_brownout.inc();
    }

    /// Requests shed so far, across all reasons.
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full.get() + self.shed_deadline.get() + self.shed_brownout.get()
    }

    /// Deadline sheds so far — sampled by the brownout controller as its
    /// deadline-miss pressure signal.
    pub fn shed_deadlines(&self) -> u64 {
        self.shed_deadline.get()
    }

    /// Counts one shard failure absorbed by the quorum policy.
    pub fn shard_error(&self, shard: usize) {
        self.shard_errors[shard.min(SHARD_ERROR_LABELS.len() - 1)].inc();
    }

    /// Shard failures absorbed so far, summed across shards.
    pub fn shard_errors(&self) -> u64 {
        self.shard_errors.iter().map(Counter::get).sum()
    }

    /// Counts one degraded 200 response; `shard` distinguishes a missing
    /// shard from a content-affecting brownout step.
    pub fn degraded_response(&self, shard: bool) {
        if shard {
            self.degraded_shard.inc();
        } else {
            self.degraded_brownout.inc();
        }
    }

    /// Degraded responses served so far, across both reasons.
    pub fn degraded_responses(&self) -> u64 {
        self.degraded_shard.get() + self.degraded_brownout.get()
    }

    /// Folds one per-job service-time observation (µs) into the EWMA
    /// (α = 1/4) behind the dynamic `Retry-After` estimate.
    pub fn observe_service(&self, per_job_us: u64) {
        let prev = self.service_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 { per_job_us } else { (3 * prev + per_job_us) / 4 };
        self.service_ewma_us.store(next, Ordering::Relaxed);
    }

    /// Recent per-job service time, µs (0 before any batch has run).
    pub fn recent_service_us(&self) -> u64 {
        self.service_ewma_us.load(Ordering::Relaxed)
    }

    /// Records one completed primary/shadow comparison: overlap@k in
    /// milli-units and the mean |score delta| over the overlap in
    /// micro-units (see [`crate::shadow::paired_deltas`]). Non-query
    /// routes are ignored.
    pub fn shadow_pair(&self, route: Route, overlap_milli: u64, score_delta_micro: u64) {
        match route {
            Route::Recommend => self.shadow_pairs_recommend.inc(),
            Route::Target => self.shadow_pairs_target.inc(),
            _ => return,
        }
        self.shadow_overlap_milli.add(overlap_milli);
        self.shadow_score_delta_micro.add(score_delta_micro);
    }

    /// Counts one sampled mirror that was lost (queue full, shadow
    /// vocabulary too small, or shadow execution panicked).
    pub fn shadow_dropped(&self) {
        self.shadow_dropped.inc();
    }

    /// Records a mirrored job's queue wait (primary answer → shadow
    /// dequeue), µs.
    pub fn shadow_lag(&self, micros: u64) {
        self.shadow_lag_us.observe(micros);
    }

    /// Records one shadow pipeline execution, µs.
    pub fn shadow_exec(&self, micros: u64) {
        self.shadow_exec_us.observe(micros);
    }

    /// Paired comparisons completed so far, across both routes.
    pub fn shadow_pairs(&self) -> u64 {
        self.shadow_pairs_recommend.get() + self.shadow_pairs_target.get()
    }

    /// Sampled mirrors lost so far.
    pub fn shadow_dropped_total(&self) -> u64 {
        self.shadow_dropped.get()
    }

    /// Mean overlap@k over all completed pairs (0.0 before the first;
    /// 1.0 means every shadow answer matched its primary exactly).
    pub fn shadow_overlap_ratio(&self) -> f64 {
        let pairs = self.shadow_pairs();
        if pairs == 0 {
            0.0
        } else {
            self.shadow_overlap_milli.get() as f64 / (pairs as f64 * 1000.0)
        }
    }

    /// Mean |score delta| over all completed pairs' overlaps.
    pub fn shadow_score_delta_mean(&self) -> f64 {
        let pairs = self.shadow_pairs();
        if pairs == 0 {
            0.0
        } else {
            self.shadow_score_delta_micro.get() as f64 / (pairs as f64 * 1e6)
        }
    }

    /// Renders the `unimatch_shadow_*` families. Separate from
    /// [`Metrics::render`] so a shadow-less server's scrape stays
    /// byte-identical to builds without the shadow plane — the server
    /// appends this only when a shadow is armed.
    pub fn render_shadow(&self, sample_rate: f64) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(1024);
        writeln!(out, "unimatch_shadow_sample_rate {sample_rate}").expect("write to String");
        self.shadow_pairs_recommend.render(
            "unimatch_shadow_pairs_total",
            "route=\"recommend\"",
            &mut out,
        );
        self.shadow_pairs_target.render("unimatch_shadow_pairs_total", "route=\"target\"", &mut out);
        self.shadow_dropped.render("unimatch_shadow_dropped_total", "", &mut out);
        self.shadow_overlap_milli.render("unimatch_shadow_overlap_sum_milli", "", &mut out);
        writeln!(out, "unimatch_shadow_overlap_ratio {}", self.shadow_overlap_ratio())
            .expect("write to String");
        self.shadow_score_delta_micro.render(
            "unimatch_shadow_score_delta_sum_micro",
            "",
            &mut out,
        );
        writeln!(out, "unimatch_shadow_score_delta_mean {}", self.shadow_score_delta_mean())
            .expect("write to String");
        self.shadow_lag_us.render("unimatch_shadow_lag_us", "", &mut out);
        self.shadow_exec_us.render("unimatch_shadow_exec_us", "", &mut out);
        out
    }

    /// Renders the text exposition. `model_version` is sampled by the
    /// caller from the serving handle at scrape time.
    pub fn render(&self, model_version: u64) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        for route in Route::ALL {
            writeln!(
                out,
                "unimatch_requests_total{{route=\"{}\"}} {}",
                route.label(),
                self.requests(route)
            )
            .expect("write to String");
        }
        self.responses_4xx.render("unimatch_responses_total", "class=\"4xx\"", &mut out);
        self.responses_5xx.render("unimatch_responses_total", "class=\"5xx\"", &mut out);
        self.latency_recommend_us.render(
            "unimatch_request_latency_us",
            "route=\"recommend\"",
            &mut out,
        );
        self.latency_target_us.render("unimatch_request_latency_us", "route=\"target\"", &mut out);
        self.batch_recommend.render("unimatch_batch_size", "route=\"recommend\"", &mut out);
        self.batch_target.render("unimatch_batch_size", "route=\"target\"", &mut out);
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        writeln!(out, "unimatch_embedding_cache_hits_total {hits}").expect("write to String");
        writeln!(out, "unimatch_embedding_cache_misses_total {misses}").expect("write to String");
        let ratio = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        writeln!(out, "unimatch_embedding_cache_hit_ratio {ratio}").expect("write to String");
        self.reloads.render("unimatch_reloads_total", "", &mut out);
        self.connections_rejected.render("unimatch_connections_rejected_total", "", &mut out);
        self.shed_queue_full.render("unimatch_requests_shed_total", "reason=\"queue_full\"", &mut out);
        self.shed_deadline.render("unimatch_requests_shed_total", "reason=\"deadline\"", &mut out);
        self.shed_brownout.render("unimatch_requests_shed_total", "reason=\"brownout\"", &mut out);
        for (counter, labels) in self.shard_errors.iter().zip(SHARD_ERROR_LABELS) {
            counter.render("unimatch_shard_errors_total", labels, &mut out);
        }
        self.degraded_shard.render("unimatch_degraded_responses_total", "reason=\"shard\"", &mut out);
        self.degraded_brownout.render(
            "unimatch_degraded_responses_total",
            "reason=\"brownout\"",
            &mut out,
        );
        writeln!(out, "unimatch_model_version {model_version}").expect("write to String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_contains_all_families() {
        let m = Metrics::new();
        m.request(Route::Recommend);
        m.request(Route::Metrics);
        m.response(404);
        m.response(500);
        m.latency(Route::Recommend, 123);
        m.batch(Route::Recommend, 7);
        m.cache_hit();
        m.cache_miss();
        m.reload();
        m.connection_rejected();
        m.shed_queue_full();
        m.shed_deadline();
        m.shed_brownout();
        m.shard_error(1);
        m.shard_error(99);
        m.degraded_response(true);
        m.degraded_response(false);
        let text = m.render(3);
        for needle in [
            "unimatch_requests_total{route=\"recommend\"} 1",
            "unimatch_requests_total{route=\"metrics\"} 1",
            "unimatch_responses_total{class=\"4xx\"} 1",
            "unimatch_responses_total{class=\"5xx\"} 1",
            "unimatch_request_latency_us_bucket{route=\"recommend\",le=\"250\"} 1",
            "unimatch_batch_size_bucket{route=\"recommend\",le=\"8\"} 1",
            "unimatch_embedding_cache_hits_total 1",
            "unimatch_embedding_cache_hit_ratio 0.5",
            "unimatch_reloads_total 1",
            "unimatch_connections_rejected_total 1",
            "unimatch_requests_shed_total{reason=\"queue_full\"} 1",
            "unimatch_requests_shed_total{reason=\"deadline\"} 1",
            "unimatch_requests_shed_total{reason=\"brownout\"} 1",
            "unimatch_shard_errors_total{shard=\"0\"} 0",
            "unimatch_shard_errors_total{shard=\"1\"} 1",
            "unimatch_shard_errors_total{shard=\"16+\"} 1",
            "unimatch_degraded_responses_total{reason=\"shard\"} 1",
            "unimatch_degraded_responses_total{reason=\"brownout\"} 1",
            "unimatch_model_version 3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(m.sheds(), 3);
        assert_eq!(m.shard_errors(), 2);
        assert_eq!(m.degraded_responses(), 2);
    }

    #[test]
    fn shadow_families_render_only_through_the_dedicated_section() {
        let m = Metrics::new();
        assert!(
            !m.render(1).contains("unimatch_shadow"),
            "the base exposition must stay shadow-free (shadow-off byte identity)"
        );
        m.shadow_pair(Route::Recommend, 1000, 0);
        m.shadow_pair(Route::Target, 500, 250_000);
        m.shadow_pair(Route::Healthz, 999, 999); // non-query routes ignored
        m.shadow_dropped();
        m.shadow_lag(120);
        m.shadow_exec(450);
        let text = m.render_shadow(0.25);
        for needle in [
            "unimatch_shadow_sample_rate 0.25",
            "unimatch_shadow_pairs_total{route=\"recommend\"} 1",
            "unimatch_shadow_pairs_total{route=\"target\"} 1",
            "unimatch_shadow_dropped_total 1",
            "unimatch_shadow_overlap_sum_milli 1500",
            "unimatch_shadow_overlap_ratio 0.75",
            "unimatch_shadow_score_delta_sum_micro 250000",
            "unimatch_shadow_score_delta_mean 0.125",
            "unimatch_shadow_lag_us_count 1",
            "unimatch_shadow_exec_us_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(m.shadow_pairs(), 2);
        assert_eq!(m.shadow_dropped_total(), 1);
    }

    #[test]
    fn service_ewma_tracks_recent_observations() {
        let m = Metrics::new();
        assert_eq!(m.recent_service_us(), 0);
        m.observe_service(1000);
        assert_eq!(m.recent_service_us(), 1000);
        m.observe_service(2000);
        // (3*1000 + 2000) / 4 = 1250 — moves toward the new sample
        assert_eq!(m.recent_service_us(), 1250);
        for _ in 0..32 {
            m.observe_service(5000);
        }
        assert!(m.recent_service_us() > 4900, "EWMA should converge to the plateau");
    }
}
