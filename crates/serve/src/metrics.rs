//! Serving metrics: one ordered catalogue of series families behind the
//! text exposition endpoint (`GET /metrics`, Prometheus-style line format).
//!
//! [`CATALOGUE`] is the single declaration of every family this server
//! exposes — name, label key, label values, [`Kind`], [`Section`]. It
//! drives construction (one cell per stored series), recording, the
//! exposition walk and the `## Metrics` table in `docs/OPERATIONS.md`
//! (kept in step by `tests/metrics_docs_sync.rs`). Adding a series is one
//! row.
//!
//! Recording goes through a [`Series`] id, a `Copy` position in the cell
//! arrays that [`Family::at`]/[`Family::with`] work out from the catalogue
//! at compile time: [`Metrics::inc`] is one relaxed `fetch_add` on
//! `counters[i]` with `i` a constant (or a constant plus a route/shard
//! offset). There is no `HashMap`, `Mutex` or string compare on that path;
//! label strings are only touched by the scrape.
//!
//! The cells are [`unimatch_obs`] primitives, owned per [`Metrics`] (one
//! per server) and always on regardless of the global
//! [`unimatch_obs::enabled`] flag — a serving process wants its request
//! counters unconditionally, and per-instance ownership keeps two servers
//! in one test process from sharing counts. The server renders
//! [`unimatch_obs::registry::render`] between the [`Section::Owned`] and
//! [`Section::Process`] blocks so training and ANN series registered
//! elsewhere in the process appear on the same endpoint.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use unimatch_obs::{Counter, Histogram, LATENCY_BOUNDS_US};

/// The served routes, used as metric labels. Declared in the order of
/// [`Family::Requests`]' label values.
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
    /// The metric label for this route.
    pub fn label(self) -> &'static str {
        ROUTES[self.index()]
    }

    /// Position among [`Family::Requests`]' label values; the two query
    /// routes come first, so it also indexes the per-query-route families
    /// and the server's admission queues.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// How a family's value comes to be.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A monotonic count: one relaxed `fetch_add` per observation.
    Counter,
    /// A fixed-bucket histogram over these inclusive upper bounds.
    Histogram(&'static [u64]),
    /// Computed from other series of the same [`Metrics`] at scrape time.
    Derived(fn(&Metrics) -> f64),
    /// State another component owns (model version, brownout level, …),
    /// read by the scraper and handed to [`Metrics::render`].
    Sampled,
}

impl Kind {
    /// The `type` column of the docs table.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Histogram(_) => "histogram",
            Kind::Derived(_) => "derived",
            Kind::Sampled => "sampled",
        }
    }
}

/// The block of the scrape body a family renders in. The body is
/// `Owned`, the process-global registry, `Process`, then — only while a
/// shadow deployment is armed, so a shadow-less scrape stays
/// byte-identical to a build without the plane — `Shadow`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// This server's own request, batch, shed and shard series.
    Owned,
    /// Process-wide state sampled at scrape time.
    Process,
    /// The `unimatch_shadow_*` families.
    Shadow,
}

/// One catalogue row: a series family.
pub struct Row {
    /// Series name (histograms append `_bucket`/`_sum`/`_count`).
    pub name: &'static str,
    /// Label key, `""` for an unlabelled family.
    pub label_key: &'static str,
    /// One series per label value, in exposition order; an unlabelled
    /// family has the single value `""`.
    pub label_values: &'static [&'static str],
    /// How the value comes to be.
    pub kind: Kind,
    /// Where in the scrape body the family renders.
    pub section: Section,
}

const NONE: &[&str] = &[""];
const ROUTES: &[&str] = &["recommend", "target", "reload", "healthz", "metrics"];
const QUERY_ROUTES: &[&str] = &["recommend", "target"];
/// Shards past the table share the `16+` overflow series.
const SHARDS: &[&str] = &[
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16+",
];
/// Micro-batch size bucket bounds (requests coalesced per execution).
const BATCH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Declares [`Family`] and [`CATALOGUE`] from one list, so a family's id
/// and its row cannot drift apart.
macro_rules! catalogue {
    ($($(#[$doc:meta])* $id:ident = $name:literal, $key:literal, $values:expr, $kind:expr, $section:ident;)*) => {
        /// Identifies one family of [`CATALOGUE`] (its position).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Family {
            $($(#[$doc])* $id,)*
        }

        /// Every series family `GET /metrics` exposes from this crate, in
        /// exposition order.
        pub const CATALOGUE: &[Row] = &[
            $(Row {
                name: $name,
                label_key: $key,
                label_values: $values,
                kind: $kind,
                section: Section::$section,
            },)*
        ];
    };
}

catalogue! {
    /// Requests routed, per route.
    Requests = "unimatch_requests_total", "route", ROUTES, Kind::Counter, Owned;
    /// Error responses, per status class.
    Responses = "unimatch_responses_total", "class", &["4xx", "5xx"], Kind::Counter, Owned;
    /// End-to-end request latency (parse → response ready), µs.
    RequestLatency = "unimatch_request_latency_us", "route", QUERY_ROUTES, Kind::Histogram(LATENCY_BOUNDS_US), Owned;
    /// Size of each executed micro-batch.
    BatchSize = "unimatch_batch_size", "route", QUERY_ROUTES, Kind::Histogram(BATCH_BOUNDS), Owned;
    /// Successful checkpoint reloads.
    Reloads = "unimatch_reloads_total", "", NONE, Kind::Counter, Owned;
    /// Connections turned away at the connection cap (→ 503).
    ConnectionsRejected = "unimatch_connections_rejected_total", "", NONE, Kind::Counter, Owned;
    /// Requests shed: `queue_full` at admission (→ 429), `deadline`
    /// passed while queued (→ 503), `brownout` shed step (→ 503).
    RequestsShed = "unimatch_requests_shed_total", "reason", &["queue_full", "deadline", "brownout"], Kind::Counter, Owned;
    /// Per-shard retrieval failures absorbed by the quorum policy.
    ShardErrors = "unimatch_shard_errors_total", "shard", SHARDS, Kind::Counter, Owned;
    /// 200 responses flagged `degraded:true`: a `shard` missing from the
    /// merge, or a content-affecting `brownout` step.
    DegradedResponses = "unimatch_degraded_responses_total", "reason", &["shard", "brownout"], Kind::Counter, Owned;
    /// Version of the served snapshot.
    ModelVersion = "unimatch_model_version", "", NONE, Kind::Sampled, Owned;
    /// Resident set size of the process (`VmRSS`), bytes; 0 where
    /// `/proc/self/status` is unreadable.
    ResidentBytes = "unimatch_process_resident_bytes", "", NONE, Kind::Sampled, Process;
    /// Peak resident set size of the process (`VmHWM`), bytes; 0 where
    /// `/proc/self/status` is unreadable.
    PeakResidentBytes = "unimatch_process_peak_resident_bytes", "", NONE, Kind::Sampled, Process;
    /// Fires of the armed fault plane (0 while disarmed).
    FaultsFired = "unimatch_faults_fired_total", "", NONE, Kind::Sampled, Process;
    /// Current brownout ladder level (0 without a ladder).
    BrownoutLevel = "unimatch_brownout_level", "", NONE, Kind::Sampled, Process;
    /// The configured mirror fraction.
    ShadowSampleRate = "unimatch_shadow_sample_rate", "", NONE, Kind::Sampled, Shadow;
    /// Paired primary/shadow comparisons completed, per query route.
    ShadowPairs = "unimatch_shadow_pairs_total", "route", QUERY_ROUTES, Kind::Counter, Shadow;
    /// Sampled mirrors lost: mirror queue full, shadow vocabulary too
    /// small for the request, or shadow execution panicked.
    ShadowDropped = "unimatch_shadow_dropped_total", "", NONE, Kind::Counter, Shadow;
    /// Sum of per-pair overlap@k in milli-units (identical lists add 1000).
    ShadowOverlapSumMilli = "unimatch_shadow_overlap_sum_milli", "", NONE, Kind::Counter, Shadow;
    /// Mean overlap@k over all pairs (1.0 = every shadow answer matched).
    ShadowOverlapRatio = "unimatch_shadow_overlap_ratio", "", NONE, Kind::Derived(shadow_overlap_ratio), Shadow;
    /// Sum of per-pair mean |score delta| over the overlap, micro-units.
    ShadowScoreDeltaSumMicro = "unimatch_shadow_score_delta_sum_micro", "", NONE, Kind::Counter, Shadow;
    /// Mean |score delta| over all pairs' overlaps.
    ShadowScoreDeltaMean = "unimatch_shadow_score_delta_mean", "", NONE, Kind::Derived(shadow_score_delta_mean), Shadow;
    /// Queue wait of mirrored jobs (primary answer → shadow dequeue), µs.
    ShadowLag = "unimatch_shadow_lag_us", "", NONE, Kind::Histogram(LATENCY_BOUNDS_US), Shadow;
    /// Shadow pipeline execution time per mirrored job, µs.
    ShadowExec = "unimatch_shadow_exec_us", "", NONE, Kind::Histogram(LATENCY_BOUNDS_US), Shadow;
    /// Version of the shadow deployment's snapshot.
    ShadowModelVersion = "unimatch_shadow_model_version", "", NONE, Kind::Sampled, Shadow;
}

/// One stored series: its position in the cell array of its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Index into the counter cells.
    Counter(usize),
    /// Index into the histogram cells.
    Histogram(usize),
}

/// For each family, the number of same-kind cells that catalogue rows
/// before it occupy — where its own first cell sits.
const FIRST_CELL: [usize; CATALOGUE.len()] = {
    let mut first = [0; CATALOGUE.len()];
    let (mut counters, mut histograms) = (0, 0);
    let mut i = 0;
    while i < CATALOGUE.len() {
        match CATALOGUE[i].kind {
            Kind::Counter => {
                first[i] = counters;
                counters += CATALOGUE[i].label_values.len();
            }
            Kind::Histogram(_) => {
                first[i] = histograms;
                histograms += CATALOGUE[i].label_values.len();
            }
            Kind::Derived(_) | Kind::Sampled => {}
        }
        i += 1;
    }
    first
};

impl Family {
    /// This family's catalogue row.
    pub const fn row(self) -> &'static Row {
        &CATALOGUE[self as usize]
    }

    /// The series carrying this family's `label`-th label value (0 for an
    /// unlabelled family). Panics — at compile time for a constant —
    /// when the family stores no such series.
    pub const fn at(self, label: usize) -> Series {
        let row = self.row();
        assert!(label < row.label_values.len(), "label index outside the family");
        let cell = FIRST_CELL[self as usize] + label;
        match row.kind {
            Kind::Counter => Series::Counter(cell),
            Kind::Histogram(_) => Series::Histogram(cell),
            Kind::Derived(_) | Kind::Sampled => {
                panic!("derived and sampled families store nothing")
            }
        }
    }

    /// The series carrying label `value`. The search compares strings, so
    /// call it in a `const` context: `const { Family::X.with("y") }`.
    pub const fn with(self, value: &str) -> Series {
        let values = self.row().label_values;
        let mut i = 0;
        while i < values.len() {
            if bytes_eq(values[i].as_bytes(), value.as_bytes()) {
                return self.at(i);
            }
            i += 1;
        }
        panic!("the family has no such label value")
    }
}

const fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// `num / den`, 0 while nothing has been observed.
fn ratio(num: u64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num as f64 / den
    }
}

fn shadow_pairs(m: &Metrics) -> f64 {
    (m.get(Family::ShadowPairs.at(0)) + m.get(Family::ShadowPairs.at(1))) as f64
}

fn shadow_overlap_ratio(m: &Metrics) -> f64 {
    ratio(m.get(Family::ShadowOverlapSumMilli.at(0)), shadow_pairs(m) * 1000.0)
}

fn shadow_score_delta_mean(m: &Metrics) -> f64 {
    ratio(m.get(Family::ShadowScoreDeltaSumMicro.at(0)), shadow_pairs(m) * 1e6)
}

/// All serving metrics of one server, shared across its connection,
/// batcher and shadow threads: one cell per stored series of
/// [`CATALOGUE`].
pub struct Metrics {
    counters: Vec<Counter>,
    histograms: Vec<Histogram>,
    /// EWMA of per-job batcher service time, µs — feeds the dynamic
    /// `Retry-After` estimate, not the exposition. Zero until the first
    /// batch executes.
    service_ewma_us: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics: the catalogue's cells in catalogue order.
    pub fn new() -> Metrics {
        let mut metrics = Metrics {
            counters: Vec::new(),
            histograms: Vec::new(),
            service_ewma_us: AtomicU64::new(0),
        };
        for row in CATALOGUE {
            for _ in row.label_values {
                match row.kind {
                    Kind::Counter => metrics.counters.push(Counter::new()),
                    Kind::Histogram(bounds) => metrics.histograms.push(Histogram::new(bounds)),
                    Kind::Derived(_) | Kind::Sampled => {}
                }
            }
        }
        metrics
    }

    /// Adds one to a counter series.
    #[inline]
    pub fn inc(&self, series: Series) {
        self.add(series, 1);
    }

    /// Adds `n` to a counter series.
    #[inline]
    pub fn add(&self, series: Series, n: u64) {
        let Series::Counter(cell) = series else { panic!("{series:?} is not a counter") };
        self.counters[cell].add(n);
    }

    /// Records one observation in a histogram series.
    #[inline]
    pub fn observe(&self, series: Series, value: u64) {
        let Series::Histogram(cell) = series else { panic!("{series:?} is not a histogram") };
        self.histograms[cell].observe(value);
    }

    /// A counter's value, or a histogram's observation count.
    pub fn get(&self, series: Series) -> u64 {
        match series {
            Series::Counter(cell) => self.counters[cell].get(),
            Series::Histogram(cell) => self.histograms[cell].count(),
        }
    }

    /// The current value of a [`Kind::Derived`] family.
    pub fn derived(&self, family: Family) -> f64 {
        match family.row().kind {
            Kind::Derived(compute) => compute(self),
            _ => panic!("{family:?} is not a derived family"),
        }
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

    /// Renders one [`Section`] of the text exposition, walking the
    /// catalogue in order. `sampled` carries the scrape-time value of
    /// every [`Kind::Sampled`] family of the section.
    pub fn render(&self, section: Section, sampled: &[(Family, f64)]) -> String {
        let mut out = String::with_capacity(4096);
        let rows = CATALOGUE.iter().enumerate().filter(|(_, row)| row.section == section);
        for (index, row) in rows {
            // a derived or sampled family is its one unlabelled series
            for (label, value) in row.label_values.iter().enumerate() {
                let labels = if row.label_key.is_empty() {
                    String::new()
                } else {
                    format!("{}=\"{value}\"", row.label_key)
                };
                let cell = FIRST_CELL[index] + label;
                match row.kind {
                    Kind::Counter => self.counters[cell].render(row.name, &labels, &mut out),
                    Kind::Histogram(_) => self.histograms[cell].render(row.name, &labels, &mut out),
                    Kind::Derived(compute) => {
                        writeln!(out, "{} {}", row.name, compute(self)).expect("write to String")
                    }
                    Kind::Sampled => {
                        let (_, sample) = sampled
                            .iter()
                            .find(|(family, _)| *family as usize == index)
                            .unwrap_or_else(|| panic!("no sample supplied for {}", row.name));
                        writeln!(out, "{} {sample}", row.name).expect("write to String")
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_ids_are_distinct_cells_in_catalogue_order() {
        assert_eq!(Family::Requests.at(0), Series::Counter(0));
        assert_eq!(Family::Requests.at(4), Series::Counter(4));
        assert_eq!(Family::Responses.with("4xx"), Series::Counter(5));
        assert_eq!(Family::RequestLatency.at(1), Series::Histogram(1));
        assert_eq!(Family::BatchSize.with("recommend"), Series::Histogram(2));
        assert_eq!(Family::RequestsShed.with("deadline"), Family::RequestsShed.at(1));
        // every stored series gets its own cell, and `new` builds them all
        let m = Metrics::new();
        let stored = |kind: fn(&Kind) -> bool| -> usize {
            CATALOGUE.iter().filter(|r| kind(&r.kind)).map(|r| r.label_values.len()).sum()
        };
        assert_eq!(m.counters.len(), stored(|k| matches!(k, Kind::Counter)));
        assert_eq!(m.histograms.len(), stored(|k| matches!(k, Kind::Histogram(_))));
        for route in [Route::Recommend, Route::Target, Route::Reload, Route::Healthz, Route::Metrics] {
            assert_eq!(Family::Requests.row().label_values[route.index()], route.label());
        }
    }

    #[test]
    #[should_panic(expected = "label index outside the family")]
    fn a_label_outside_the_family_is_refused() {
        Family::RequestLatency.at(Route::Reload.index());
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn a_histogram_series_cannot_be_counted_into() {
        Metrics::new().inc(Family::BatchSize.at(0));
    }

    #[test]
    fn derived_families_follow_their_sources() {
        let m = Metrics::new();
        assert_eq!(m.derived(Family::ShadowOverlapRatio), 0.0);
        m.inc(Family::ShadowPairs.at(0));
        m.inc(Family::ShadowPairs.at(1));
        m.add(Family::ShadowOverlapSumMilli.at(0), 1500);
        m.add(Family::ShadowScoreDeltaSumMicro.at(0), 250_000);
        assert_eq!(m.derived(Family::ShadowOverlapRatio), 0.75);
        assert_eq!(m.derived(Family::ShadowScoreDeltaMean), 0.125);
    }

    #[test]
    fn shadow_families_render_only_in_their_section() {
        let m = Metrics::new();
        let owned = m.render(Section::Owned, &[(Family::ModelVersion, 1.0)]);
        assert!(
            !owned.contains("unimatch_shadow"),
            "the base exposition must stay shadow-free (shadow-off byte identity)"
        );
        let process = m.render(
            Section::Process,
            &[
                (Family::ResidentBytes, 0.0),
                (Family::PeakResidentBytes, 0.0),
                (Family::FaultsFired, 0.0),
                (Family::BrownoutLevel, 0.0),
            ],
        );
        assert_eq!(
            process,
            "unimatch_process_resident_bytes 0\nunimatch_process_peak_resident_bytes 0\n\
             unimatch_faults_fired_total 0\nunimatch_brownout_level 0\n"
        );
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
