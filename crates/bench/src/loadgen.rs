//! Open-loop load generator for a running `unimatch-serve`.
//!
//! Closed-loop clients wait for each response before sending the next
//! request, so they can only ever measure the server at the client's
//! own pace and hide queueing collapse entirely. This harness is
//! **open-loop**: request *start times* are drawn up front from a
//! Poisson process at the target QPS and workers fire at those times
//! whether or not earlier requests have returned. When the server
//! falls behind, latency and shed rates grow
//! instead of the offered load silently shrinking — which is exactly the
//! signal capacity planning needs (see `docs/OPERATIONS.md`).
//!
//! The run is deterministic per seed on the client side: the arrival
//! schedule, every request body, and every retry's backoff jitter derive
//! from `LoadgenOptions::seed` and the request index alone.
//!
//! With `retries > 0` the client is also a resilience reference
//! implementation: overload answers (429/503) and transport failures are
//! retried with exponential backoff plus deterministic jitter, a
//! `Retry-After` header overrides the computed backoff, every socket
//! carries a read/write timeout, and a per-target circuit breaker opens
//! after consecutive transport failures so a dead server is not hammered
//! by every scheduled arrival.
//!
//! Results go two places:
//!
//! * raw per-request samples → exact percentiles in a [`LoadReport`],
//!   which [`run`] also writes to `loadgen.json` as one flat JSON object;
//! * `unimatch-obs` histograms/counters (`unimatch_loadgen_*`), so a
//!   load run renders through the same text exposition as every other
//!   subsystem.
//!
//! This is a tool for probing an *external* running server
//! (`docs/OPERATIONS.md`); the numbers a PR is judged by come from
//! `crates/benchmark`, which drives its own in-process deployment.

use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_data::json::Json;
use unimatch_obs as obs;

/// Which route(s) the generated requests hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteMix {
    /// `POST /recommend` only (item-tower searches).
    Recommend,
    /// `POST /target` only (user-tower searches).
    Target,
    /// Alternating recommend/target by request index.
    Mixed,
}

impl RouteMix {
    /// Parses a CLI name (`recommend`, `target`, `mixed`).
    pub fn parse(name: &str) -> Option<RouteMix> {
        match name {
            "recommend" => Some(RouteMix::Recommend),
            "target" => Some(RouteMix::Target),
            "mixed" => Some(RouteMix::Mixed),
            _ => None,
        }
    }
}

/// Options for one load run.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Address of the running server (`host:port`).
    pub addr: String,
    /// Offered load: the rate of the Poisson arrival process.
    pub qps: f64,
    /// Run duration — the schedule spans this many seconds.
    pub seconds: f64,
    /// Client worker threads. This bounds in-flight requests, so it must
    /// comfortably exceed `qps ×` the worst expected latency or the
    /// client itself becomes the bottleneck (visible as schedule lag).
    pub concurrency: usize,
    /// `k` requested from every search.
    pub k: usize,
    /// Route mix.
    pub route: RouteMix,
    /// Seed for the arrival schedule and request synthesis.
    pub seed: u64,
    /// Directory `loadgen.json` is written into.
    pub out_dir: PathBuf,
    /// Re-ranking workload shape: longer, more varied histories and
    /// alternating `k`, so a server running a `--rerank` chain is
    /// exercised across distinct query tags and overfetch sizes.
    pub rerank_mix: bool,
    /// Additional attempts per request after a shed (429/503) or
    /// transport failure. `0` reproduces the historical fire-once client
    /// byte for byte; retried attempts back off exponentially with
    /// deterministic jitter, honoring the server's `Retry-After`.
    pub retries: u32,
}

/// One request's outcome. `status == 0` means the transport failed
/// (connect refused/reset/timed out) — under overload that is data, not
/// a bug.
#[derive(Clone, Copy, Debug)]
struct Sample {
    status: u16,
    latency: Duration,
    /// How late past its scheduled start the request actually fired —
    /// nonzero lag means the *client* could not sustain the offered
    /// load, and the latency numbers understate server queueing.
    lag: Duration,
    /// Attempts beyond the first (0 without `--retries`). Latency spans
    /// them all, backoff included — the client-observed answer time.
    retries: u32,
    /// The circuit breaker was open and the request failed fast without
    /// touching the network (reported with `status == 0`).
    fast_failed: bool,
}

/// Socket read/write timeout on every client connection: a wedged server
/// surfaces as a transport failure (→ breaker food) instead of a worker
/// parked forever.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// Base backoff before attempt 1; attempt `a` waits `2^a` times this,
/// plus up to 100 % deterministic jitter, unless `Retry-After` overrides.
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Backoff ceiling, also applied to `Retry-After` hints — an open-loop
/// client that parks for 30 s has left its measurement window.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// A per-target circuit breaker: opens after `threshold` *consecutive*
/// transport failures, fails fast for `cooldown`, then half-opens (the
/// next arrival probes the target; success closes, failure re-opens).
/// One instance guards one target address, shared by all workers.
struct CircuitBreaker {
    consecutive_failures: AtomicUsize,
    /// Micros since run start before which requests fail fast; 0 = closed.
    open_until_us: std::sync::atomic::AtomicU64,
    threshold: usize,
    cooldown: Duration,
}

impl CircuitBreaker {
    fn new() -> CircuitBreaker {
        CircuitBreaker {
            consecutive_failures: AtomicUsize::new(0),
            open_until_us: std::sync::atomic::AtomicU64::new(0),
            threshold: 5,
            cooldown: Duration::from_millis(500),
        }
    }

    /// Whether a request may go out `now` (half-open probes are allowed:
    /// the deadline passing admits exactly the traffic that re-tests).
    fn allow(&self, now: Instant, started: Instant) -> bool {
        let now_us = now.duration_since(started).as_micros() as u64;
        now_us >= self.open_until_us.load(Ordering::Relaxed)
    }

    fn record_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.open_until_us.store(0, Ordering::Relaxed);
    }

    fn record_transport_failure(&self, now: Instant, started: Instant) {
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.threshold {
            let until = now.duration_since(started) + self.cooldown;
            self.open_until_us.store(until.as_micros() as u64, Ordering::Relaxed);
        }
    }
}

/// What the run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The configured arrival rate.
    pub offered_qps: f64,
    /// 200-responses per second of wall clock.
    pub sustained_qps: f64,
    /// p50/p99/p99.9 latency over 200 responses, µs.
    pub latency_p50_us: f64,
    /// See [`LoadReport::latency_p50_us`].
    pub latency_p99_us: f64,
    /// See [`LoadReport::latency_p50_us`].
    pub latency_p999_us: f64,
    /// Fraction of requests answered 429 (queue full) or 503 (deadline /
    /// connection capacity).
    pub shed_rate: f64,
    /// Fraction of requests that failed any other way (transport errors,
    /// 4xx/5xx besides the shed statuses).
    pub error_rate: f64,
    /// p99 of how late requests fired past their schedule, µs.
    pub schedule_lag_p99_us: f64,
    /// Total requests attempted.
    pub requests: usize,
    /// Retry attempts per request (0.0 without `--retries`).
    pub retry_rate: f64,
    /// Fraction of requests failed fast by an open circuit breaker.
    pub breaker_fast_fail_rate: f64,
}

/// Runs the load test and writes the report to `loadgen.json` in
/// `opts.out_dir`. Returns the report and the path written.
///
/// Fails if the server is unreachable at probe time or if not a single
/// request succeeds (percentiles over nothing help nobody).
pub fn run(opts: &LoadgenOptions) -> std::io::Result<(LoadReport, PathBuf)> {
    assert!(opts.qps > 0.0, "qps must be positive");
    assert!(opts.seconds > 0.0, "seconds must be positive");
    assert!(opts.concurrency > 0, "concurrency must be positive");
    // Probe /healthz: fails fast when nothing is listening, and the item
    // count bounds the ids request synthesis may use.
    let probe = http_request(&opts.addr, "GET", "/healthz", b"")
        .map_err(|e| std::io::Error::other(format!("cannot reach {}: {e}", opts.addr)))?;
    if probe.status != 200 {
        return Err(std::io::Error::other(format!("/healthz answered {}", probe.status)));
    }
    let health = Json::parse(&probe.body)
        .map_err(|e| std::io::Error::other(format!("/healthz unparseable: {e}")))?;
    let num_items = health
        .get("items")
        .and_then(Json::as_u64)
        .filter(|&n| n > 0)
        .ok_or_else(|| std::io::Error::other("/healthz reports no items"))? as u32;

    let n_requests = (opts.qps * opts.seconds).ceil().max(1.0) as usize;
    let schedule = poisson_schedule(n_requests, opts.qps, opts.seed);

    obs::set_enabled(true);
    let next = AtomicUsize::new(0);
    let breaker = CircuitBreaker::new();
    let (tx, rx) = channel::<Sample>();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..opts.concurrency {
            let tx = tx.clone();
            let (next, schedule, breaker) = (&next, &schedule, &breaker);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_requests {
                    break;
                }
                let due = started + schedule[i];
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let lag = started.elapsed().saturating_sub(schedule[i]);
                let (path, request_body) = synthesize(opts, i, num_items);
                let sample = send_with_retries(opts, path, &request_body, i, breaker, started, lag);
                record_obs(path, &sample);
                let _ = tx.send(sample);
            });
        }
    });
    drop(tx);
    let wall = started.elapsed().as_secs_f64();
    let samples: Vec<Sample> = rx.into_iter().collect();
    obs::set_enabled(false);
    assert_eq!(samples.len(), n_requests, "every scheduled request reports exactly once");

    let ok_lat: Vec<Duration> =
        samples.iter().filter(|s| s.status == 200).map(|s| s.latency).collect();
    if ok_lat.is_empty() {
        return Err(std::io::Error::other(
            "no request succeeded — is the checkpoint loaded and the queue bound nonzero?",
        ));
    }
    let shed = samples.iter().filter(|s| s.status == 429 || s.status == 503).count();
    let errors = samples.len() - ok_lat.len() - shed;
    let lags: Vec<Duration> = samples.iter().map(|s| s.lag).collect();
    let retries: u64 = samples.iter().map(|s| s.retries as u64).sum();
    let fast_fails = samples.iter().filter(|s| s.fast_failed).count();
    std::fs::create_dir_all(&opts.out_dir)?;
    let report = LoadReport {
        offered_qps: opts.qps,
        sustained_qps: ok_lat.len() as f64 / wall,
        latency_p50_us: percentile_us(&ok_lat, 0.50),
        latency_p99_us: percentile_us(&ok_lat, 0.99),
        latency_p999_us: percentile_us(&ok_lat, 0.999),
        shed_rate: shed as f64 / samples.len() as f64,
        error_rate: errors as f64 / samples.len() as f64,
        schedule_lag_p99_us: percentile_us(&lags, 0.99),
        requests: samples.len(),
        retry_rate: retries as f64 / samples.len() as f64,
        breaker_fast_fail_rate: fast_fails as f64 / samples.len() as f64,
    };
    let path = opts.out_dir.join("loadgen.json");
    let mut text = report_json(&report, opts).to_string();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok((report, path))
}

/// Exact percentile from raw samples (nearest-rank on a sorted copy).
fn percentile_us(samples: &[Duration], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let rank = ((q * (us.len() - 1) as f64).round() as usize).min(us.len() - 1);
    us[rank]
}

/// Issues one scheduled request, retrying sheds (429/503) and transport
/// failures up to `opts.retries` extra attempts. Backoff is exponential
/// from [`BACKOFF_BASE`] with deterministic jitter derived from
/// `(seed, request index, attempt)`; a server `Retry-After` overrides it
/// (capped at [`BACKOFF_CAP`]). Transport failures feed the circuit
/// breaker; an open breaker fails the request fast without a connection.
fn send_with_retries(
    opts: &LoadgenOptions,
    path: &'static str,
    body: &[u8],
    index: usize,
    breaker: &CircuitBreaker,
    started: Instant,
    lag: Duration,
) -> Sample {
    let t0 = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        if !breaker.allow(Instant::now(), started) {
            return Sample { status: 0, latency: t0.elapsed(), lag, retries: attempt, fast_failed: true };
        }
        let (status, retry_after) = match http_request(&opts.addr, "POST", path, body) {
            Ok(r) => {
                breaker.record_success();
                (r.status, r.retry_after)
            }
            Err(_) => {
                breaker.record_transport_failure(Instant::now(), started);
                (0, None)
            }
        };
        let retryable = matches!(status, 0 | 429 | 503);
        if !retryable || attempt >= opts.retries {
            return Sample { status, latency: t0.elapsed(), lag, retries: attempt, fast_failed: false };
        }
        let backoff = match retry_after {
            Some(secs) => Duration::from_secs(secs),
            None => {
                let exp = BACKOFF_BASE * 2u32.pow(attempt.min(16));
                let mut rng =
                    StdRng::seed_from_u64(opts.seed ^ (index as u64) << 8 ^ attempt as u64);
                exp + Duration::from_micros(rng.gen_range(0..=exp.as_micros() as u64))
            }
        };
        std::thread::sleep(backoff.min(BACKOFF_CAP));
        attempt += 1;
    }
}

/// Arrival offsets of a Poisson process: i.i.d. exponential
/// inter-arrivals with rate `qps`, deterministic per seed.
fn poisson_schedule(n: usize, qps: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // u ∈ (0, 1]: never ln(0)
            let u: f64 = 1.0 - rng.gen::<f64>();
            t += -u.ln() / qps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// The request for index `i`: route by mix, ids derived from the index
/// with co-prime strides so consecutive requests ask different queries.
fn synthesize(opts: &LoadgenOptions, i: usize, num_items: u32) -> (&'static str, Vec<u8>) {
    let recommend = match opts.route {
        RouteMix::Recommend => true,
        RouteMix::Target => false,
        RouteMix::Mixed => i.is_multiple_of(2),
    };
    let i = i as u32;
    // The rerank mix sends longer, more varied histories (distinct query
    // tags for the exploration stage) and alternates k so both overfetch
    // sizes are measured.
    let (hist_len, stagger, k) = if opts.rerank_mix {
        (5u32, i % 11, if i.is_multiple_of(3) { opts.k * 2 } else { opts.k })
    } else {
        (3u32, 0, opts.k)
    };
    if recommend {
        let history: Vec<String> = (0..hist_len)
            .map(|j| ((i.wrapping_mul(7) + j * 3 + stagger) % num_items).to_string())
            .collect();
        let body = format!("{{\"history\":[{}],\"k\":{}}}", history.join(","), k);
        ("/recommend", body.into_bytes())
    } else {
        let body = format!("{{\"item\":{},\"k\":{}}}", i.wrapping_mul(5) % num_items, k);
        ("/target", body.into_bytes())
    }
}

/// Routes one sample into the process-global obs series. Handles are
/// fetched per call — fine at request rates, and keeps this free of
/// statics that would survive into unrelated tests.
fn record_obs(path: &'static str, sample: &Sample) {
    if !obs::enabled() {
        return;
    }
    let route = match path {
        "/recommend" => "route=\"recommend\"",
        _ => "route=\"target\"",
    };
    let class = match sample.status {
        200 => "status=\"ok\"",
        429 | 503 => "status=\"shed\"",
        0 => "status=\"transport\"",
        _ => "status=\"error\"",
    };
    obs::registry::counter_labeled("unimatch_loadgen_responses_total", class).inc();
    obs::registry::histogram("unimatch_loadgen_latency_us", route, obs::LATENCY_BOUNDS_US)
        .observe(sample.latency.as_micros() as u64);
}

/// The report plus the run shape it was measured under (offered load,
/// duration, client concurrency, retry budget, workload mix), as one flat
/// object — a `loadgen.json` is self-describing.
fn report_json(report: &LoadReport, opts: &LoadgenOptions) -> Json {
    Json::obj(vec![
        ("offered_qps", Json::Num(report.offered_qps)),
        ("seconds", Json::Num(opts.seconds)),
        ("requests", Json::int(report.requests)),
        ("concurrency", Json::int(opts.concurrency)),
        ("rerank_mix", Json::Bool(opts.rerank_mix)),
        ("retries", Json::int(opts.retries as usize)),
        ("sustained_qps", Json::Num(report.sustained_qps)),
        ("latency_p50_us", Json::Num(report.latency_p50_us)),
        ("latency_p99_us", Json::Num(report.latency_p99_us)),
        ("latency_p999_us", Json::Num(report.latency_p999_us)),
        ("shed_rate", Json::Num(report.shed_rate)),
        ("error_rate", Json::Num(report.error_rate)),
        ("schedule_lag_p99_us", Json::Num(report.schedule_lag_p99_us)),
        ("retry_rate", Json::Num(report.retry_rate)),
        ("breaker_fast_fail_rate", Json::Num(report.breaker_fast_fail_rate)),
    ])
}

/// A parsed client-side response: status, the `Retry-After` hint when
/// the server sent one, and the body.
struct HttpResponse {
    status: u16,
    retry_after: Option<u64>,
    body: Vec<u8>,
}

/// One HTTP/1.1 request over a fresh connection (the server closes after
/// each response, so read-to-EOF is the framing). Both socket directions
/// carry [`CLIENT_TIMEOUT`], so a wedged server turns into an `Err`
/// instead of a parked worker.
fn http_request(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<HttpResponse> {
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without header/body separator"))?;
    let head = std::str::from_utf8(&response[..head_end])
        .map_err(|_| std::io::Error::other("non-utf8 response head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("no status code in status line"))?;
    let retry_after = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after").then(|| value.trim().parse().ok())?
    });
    Ok(HttpResponse { status, retry_after, body: response[head_end + 4..].to_vec() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_sorted_deterministic_and_near_rate() {
        let a = poisson_schedule(2_000, 500.0, 9);
        let b = poisson_schedule(2_000, 500.0, 9);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        // 2000 arrivals at 500/s span ~4s; the mean of 2000 exponentials
        // concentrates well within ±25 %.
        let span = a.last().expect("nonempty").as_secs_f64();
        assert!((3.0..5.0).contains(&span), "span {span} far from expected 4s");
        assert_ne!(a, poisson_schedule(2_000, 500.0, 10), "different seed, different schedule");
    }

    #[test]
    fn synthesized_requests_cycle_routes_and_stay_in_vocabulary() {
        let opts = LoadgenOptions {
            addr: String::new(),
            qps: 1.0,
            seconds: 1.0,
            concurrency: 1,
            k: 7,
            route: RouteMix::Mixed,
            seed: 42,
            out_dir: PathBuf::from("."),
            rerank_mix: false,
            retries: 0,
        };
        let (p0, b0) = synthesize(&opts, 0, 13);
        let (p1, b1) = synthesize(&opts, 1, 13);
        let mixed = LoadgenOptions { rerank_mix: true, ..opts.clone() };
        assert_ne!(synthesize(&mixed, 0, 13).1, b0, "mix must reshape recommend bodies");
        let mixed_k = |i| {
            let (_, b) = synthesize(&mixed, i, 13);
            Json::parse(&b).expect("json").get("k").and_then(Json::as_u64).expect("k")
        };
        assert_eq!((mixed_k(0), mixed_k(2)), (14, 7), "mix alternates overfetch sizes");
        assert_eq!((p0, p1), ("/recommend", "/target"));
        let parse = |b: &[u8]| Json::parse(b).expect("request bodies are valid json");
        assert_eq!(parse(&b0).get("k").and_then(Json::as_u64), Some(7));
        let item = parse(&b1).get("item").and_then(Json::as_u64).expect("item id");
        assert!(item < 13, "ids stay inside the advertised vocabulary");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert!((percentile_us(&samples, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile_us(&samples, 1.0) - 100.0).abs() < 1e-9);
        assert!((percentile_us(&samples, 0.50) - 51.0).abs() < 2.0);
    }

    #[test]
    fn report_json_carries_every_printed_field() {
        let report = LoadReport {
            offered_qps: 800.0,
            sustained_qps: 750.0,
            latency_p50_us: 900.0,
            latency_p99_us: 4_000.0,
            latency_p999_us: 9_000.0,
            shed_rate: 0.02,
            error_rate: 0.0,
            schedule_lag_p99_us: 120.0,
            requests: 8_000,
            retry_rate: 0.01,
            breaker_fast_fail_rate: 0.0,
        };
        let opts = LoadgenOptions {
            addr: String::new(),
            qps: 800.0,
            seconds: 10.0,
            concurrency: 32,
            k: 10,
            route: RouteMix::Mixed,
            seed: 42,
            out_dir: PathBuf::from("."),
            rerank_mix: false,
            retries: 2,
        };
        let doc = Json::parse(report_json(&report, &opts).to_string().as_bytes()).expect("json");
        for (key, want) in [
            ("offered_qps", 800.0),
            ("seconds", 10.0),
            ("requests", 8_000.0),
            ("concurrency", 32.0),
            ("retries", 2.0),
            ("sustained_qps", 750.0),
            ("latency_p50_us", 900.0),
            ("latency_p99_us", 4_000.0),
            ("latency_p999_us", 9_000.0),
            ("shed_rate", 0.02),
            ("error_rate", 0.0),
            ("schedule_lag_p99_us", 120.0),
            ("retry_rate", 0.01),
            ("breaker_fast_fail_rate", 0.0),
        ] {
            assert_eq!(doc.get(key).and_then(Json::as_f64), Some(want), "{key}");
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_half_opens() {
        let b = CircuitBreaker::new();
        let t0 = Instant::now();
        for _ in 0..b.threshold - 1 {
            b.record_transport_failure(t0, t0);
        }
        assert!(b.allow(t0, t0), "below the threshold the breaker stays closed");
        b.record_transport_failure(t0, t0);
        assert!(!b.allow(t0, t0), "threshold consecutive failures open the breaker");
        // past the cooldown the next request is allowed through (half-open)
        let later = t0 + b.cooldown + Duration::from_millis(1);
        assert!(b.allow(later, t0), "cooldown expiry admits a probe");
        // a success closes it fully and clears the failure streak
        b.record_success();
        assert!(b.allow(t0, t0));
        b.record_transport_failure(t0, t0);
        assert!(b.allow(t0, t0), "one failure after reset does not re-open");
    }
}
