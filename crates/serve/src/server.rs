//! The TCP accept loop, request routing, and lifecycle management.
//!
//! ```text
//!        TCP accept (cap)      admission queue per route     batched execution
//! client ──► connection thread ──────────► Job ──────────────► batcher thread ──► reply
//!                │                                               │
//!                └── /reload, /healthz, /metrics ── ModelHandle ─┘  (hot-swap snapshot)
//! ```
//!
//! `/recommend` and `/target` are one handler ([`Query`] says which
//! field to parse and which list key to answer under), one [`Job`] type
//! and one batcher loop; each route keeps its own queue and thread.
//!
//! Endpoints:
//!
//! | route | method | body | reply |
//! |---|---|---|---|
//! | `/recommend` | POST | `{"history":[ids],"k":N}` | `{"k":N,"items":[{"id","score"}]}` |
//! | `/target` | POST | `{"item":id,"k":N}` | `{"k":N,"users":[{"id","score"}]}` |
//! | `/reload` | POST | `{}` or `{"checkpoint":"path"}` | `{"version":N,"checkpoint":"path"}` |
//! | `/healthz` | GET | — | `{"status":"ok","version":N,…}` |
//! | `/metrics` | GET | — | text exposition |
//!
//! All ids are the dense internal universe (the CLI persists the external
//! ↔ dense vocabularies next to the checkpoint for translation).

use crate::batcher::{run_batcher, BatchConfig, Job, JobError, Query};
use crate::brownout::{BrownoutControl, BrownoutSpec, BrownoutState};
use crate::http::{
    read_request, write_response, write_response_with, DeadlineReader, HttpError, Request,
};
use crate::metrics::{Family, Metrics, Route, Section, Series};
use crate::shadow::{run_shadow_worker, ShadowSpec, ShadowState};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use unimatch_ann::Hit;
use unimatch_core::ModelHandle;
use unimatch_data::json::Json;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Micro-batching window: how long an admitted request may wait for
    /// co-travellers before its batch executes. Zero never waits: the
    /// batch is whatever queued while the previous one ran.
    pub batch_window: Duration,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Maximum concurrently served connections; excess connections are
    /// answered `503` immediately instead of queueing without bound.
    pub max_connections: usize,
    /// How long a connection has, from accept, to deliver its whole
    /// request; one still sending after that is closed without a reply.
    pub read_timeout: Duration,
    /// Maximum jobs queued per route ahead of the batcher; requests
    /// arriving with the queue at this bound are shed with `429` and a
    /// `Retry-After` header instead of joining an unserviceable backlog.
    /// `0` sheds every query request — a drain mode, also useful in tests.
    pub queue_bound: usize,
    /// Per-request deadline through the admission queue: jobs the batcher
    /// dequeues after this much waiting are answered `503` (with
    /// `Retry-After`) instead of executed for a client that gave up.
    pub request_deadline: Duration,
    /// Brownout ladder (see [`crate::brownout`]): `None` disables the
    /// controller entirely — no thread, level pinned at 0, responses
    /// bitwise identical to a build without the brownout plane.
    pub brownout: Option<BrownoutSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: Duration::from_millis(2),
            max_batch: 64,
            max_connections: 256,
            read_timeout: Duration::from_secs(5),
            queue_bound: 1024,
            request_deadline: Duration::from_secs(2),
            brownout: None,
        }
    }
}

/// The outcome of the most recent `POST /reload`, surfaced on `/healthz`.
struct ReloadOutcome {
    accepted: bool,
    /// The serving version after the attempt (unchanged on rejection).
    version: u64,
    /// Checkpoint path on success, the error on rejection.
    detail: String,
}

/// The armed shadow plane, as the endpoints see it: the sampler state
/// (pair/drop counts live in [`Metrics`]) plus the shadow deployment's
/// own hot-swappable handle.
struct ShadowShared {
    state: Arc<ShadowState>,
    handle: Arc<ModelHandle>,
}

/// One query route's admission queue.
struct Queue {
    tx: Sender<Job>,
    /// Jobs currently queued (incremented at admission, decremented by
    /// the batcher per dequeue); the shed threshold.
    depth: Arc<AtomicUsize>,
}

/// Everything a connection thread needs; dropping the last `Shared` closes
/// the admission queues, which lets the batchers drain and exit.
struct Shared {
    handle: Arc<ModelHandle>,
    metrics: Arc<Metrics>,
    /// The admission queue of each query route, by [`Route::index`].
    queues: [Queue; 2],
    read_timeout: Duration,
    queue_bound: usize,
    request_deadline: Duration,
    /// The brownout plane, present when a ladder is configured.
    brownout: Option<Arc<BrownoutState>>,
    /// The shadow plane, present when a shadow deployment is armed.
    shadow: Option<ShadowShared>,
    /// When the server started accepting, for `/healthz` uptime.
    started: Instant,
    /// The most recent `/reload` outcome, for `/healthz`.
    last_reload: Mutex<Option<ReloadOutcome>>,
}

/// A running server. Obtain with [`Server::start`], stop with
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shutdown_flag: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    brownout_thread: Option<JoinHandle<()>>,
    shadow_thread: Option<JoinHandle<()>>,
    batcher_threads: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shared: Option<Arc<Shared>>,
    handle: Arc<ModelHandle>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and both batcher threads.
    pub fn start(
        addr: impl ToSocketAddrs,
        handle: Arc<ModelHandle>,
        config: ServeConfig,
    ) -> io::Result<Server> {
        Server::start_with_shadow(addr, handle, config, None)
    }

    /// [`Server::start`] with an optional shadow deployment
    /// ([`crate::shadow`]): a deterministic sample of answered query
    /// traffic is mirrored to `shadow.handle`'s pipeline off the
    /// critical path, and the paired overlap/score/lag deltas surface as
    /// `unimatch_shadow_*` series on `/metrics` and a `"shadow"` block
    /// on `/healthz`. `None` (or a zero sample rate) arms nothing —
    /// serving is byte-identical to [`Server::start`].
    pub fn start_with_shadow(
        addr: impl ToSocketAddrs,
        handle: Arc<ModelHandle>,
        config: ServeConfig,
        shadow: Option<ShadowSpec>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let shutdown_flag = Arc::new(AtomicBool::new(false));

        let (shadow_shared, shadow_thread) = match shadow {
            Some(spec) if spec.sample_rate > 0.0 => {
                let (state, shadow_rx) =
                    ShadowState::new(spec.sample_rate, spec.queue_bound, metrics.clone());
                let (h, m) = (spec.handle.clone(), metrics.clone());
                let worker = std::thread::Builder::new()
                    .name("unimatch-shadow".into())
                    .spawn(move || run_shadow_worker(shadow_rx, h, m))?;
                (Some(ShadowShared { state, handle: spec.handle }), Some(worker))
            }
            _ => (None, None),
        };
        let shadow_state = shadow_shared.as_ref().map(|s| s.state.clone());

        let batch_cfg =
            BatchConfig { window: config.batch_window, max_batch: config.max_batch.max(1) };
        let brownout = config.brownout.map(|spec| Arc::new(BrownoutState::new(spec)));
        let mut batcher_threads = Vec::with_capacity(2);
        let mut spawn_batcher = |route: Route| -> io::Result<Queue> {
            let (tx, rx) = channel::<Job>();
            let depth = Arc::new(AtomicUsize::new(0));
            let (h, m, d) = (handle.clone(), metrics.clone(), depth.clone());
            let (b, s) = (brownout.clone(), shadow_state.clone());
            batcher_threads.push(
                std::thread::Builder::new()
                    .name(format!("unimatch-batch-{}", route.label()))
                    .spawn(move || run_batcher(route, rx, h, m, batch_cfg, d, b, s))?,
            );
            Ok(Queue { tx, depth })
        };
        // in `Route::index` order
        let queues = [spawn_batcher(Route::Recommend)?, spawn_batcher(Route::Target)?];

        let brownout_thread = match &brownout {
            Some(state) => {
                let state = state.clone();
                let metrics = metrics.clone();
                let shutdown = shutdown_flag.clone();
                let depths = queues.each_ref().map(|q| q.depth.clone());
                Some(
                    std::thread::Builder::new()
                        .name("unimatch-brownout".into())
                        .spawn(move || run_brownout_controller(state, metrics, shutdown, depths))?,
                )
            }
            None => None,
        };

        let shared = Arc::new(Shared {
            handle: handle.clone(),
            metrics,
            queues,
            read_timeout: config.read_timeout,
            queue_bound: config.queue_bound,
            request_deadline: config.request_deadline,
            brownout,
            shadow: shadow_shared,
            started: Instant::now(),
            last_reload: Mutex::new(None),
        });

        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = shared.clone();
            let shutdown = shutdown_flag.clone();
            let conn_threads = conn_threads.clone();
            let max_connections = config.max_connections.max(1);
            std::thread::Builder::new().name("unimatch-accept".into()).spawn(move || {
                accept_loop(listener, shared, shutdown, conn_threads, max_connections)
            })?
        };

        Ok(Server {
            addr,
            shutdown_flag,
            accept_thread: Some(accept_thread),
            brownout_thread,
            shadow_thread,
            batcher_threads,
            conn_threads,
            shared: Some(shared),
            handle,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hot-swappable model handle this server answers from.
    pub fn model(&self) -> Arc<ModelHandle> {
        self.handle.clone()
    }

    /// Graceful shutdown: stop accepting, finish every connection already
    /// accepted, drain the admission queues, then join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown_flag.swap(true, Ordering::SeqCst) {
            return;
        }
        // unblock the accept loop with a no-op connection
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // the controller polls the shutdown flag between short sleeps
        if let Some(t) = self.brownout_thread.take() {
            let _ = t.join();
        }
        // every accepted connection runs to completion (bounded by the
        // read timeout), enqueueing into the still-open queues
        let conns = std::mem::take(&mut *self.conn_threads.lock().expect("conn list poisoned"));
        for t in conns {
            let _ = t.join();
        }
        // dropping the last Shared closes the queues; the batchers answer
        // what is left and exit
        self.shared = None;
        for t in self.batcher_threads.drain(..) {
            let _ = t.join();
        }
        // with the batchers and Shared gone, every mirror sender is
        // dropped; the shadow worker drains what is queued and exits
        if let Some(t) = self.shadow_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_connections: usize,
) {
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if active.load(Ordering::SeqCst) >= max_connections {
            shared.metrics.inc(Family::ConnectionsRejected.at(0));
            count_response(&shared.metrics, 503);
            let body = error_body("server at connection capacity");
            let retry = retry_after_secs(&shared).to_string();
            let _ = write_response_with(
                &mut stream,
                503,
                "application/json",
                &[("Retry-After", retry.as_str())],
                &body,
            );
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let shared = shared.clone();
        let active_in_conn = active.clone();
        let spawned = std::thread::Builder::new().name("unimatch-conn".into()).spawn(move || {
            handle_connection(stream, &shared);
            active_in_conn.fetch_sub(1, Ordering::SeqCst);
        });
        match spawned {
            Ok(t) => {
                let mut conns = conn_threads.lock().expect("conn list poisoned");
                conns.retain(|t| !t.is_finished());
                conns.push(t);
            }
            Err(_) => {
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// The brownout control loop: samples queue pressure every
/// [`BrownoutSpec::interval`], feeds it through the hysteresis state
/// machine, and publishes the resulting ladder level for the batchers and
/// admission to read. Sleeps in short slices so shutdown never waits a
/// full interval.
fn run_brownout_controller(
    state: Arc<BrownoutState>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    depths: [Arc<AtomicUsize>; 2],
) {
    let spec = state.spec().clone();
    let mut control = BrownoutControl::new(&spec);
    // deadline sheds are the controller's deadline-miss pressure signal
    const DEADLINE_SHEDS: Series = Family::RequestsShed.with("deadline");
    // the server's metrics start at zero with it; a baseline read here
    // could swallow a miss that beat this thread to its first line
    let mut last_misses = 0;
    while !shutdown.load(Ordering::SeqCst) {
        let mut remaining = spec.interval;
        while !remaining.is_zero() && !shutdown.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let depth = depths.iter().map(|d| d.load(Ordering::SeqCst)).sum();
        let misses = metrics.get(DEADLINE_SHEDS);
        let level = control.observe(depth, misses - last_misses);
        last_misses = misses;
        state.set_level(level);
    }
}

/// Serializes a `/recommend` result body. Public so integration tests can
/// assert the server's bytes are identical to a direct in-process call.
pub fn recommend_body(k: usize, hits: &[Hit]) -> Vec<u8> {
    query_body(k, false, "items", hits.iter().map(|h| (h.id, h.score)))
}

/// Serializes a `/target` result body (see [`recommend_body`]).
pub fn target_body(k: usize, users: &[(u32, f32)]) -> Vec<u8> {
    query_body(k, false, "users", users.iter().copied())
}

/// The one query-response encoder. `"degraded":true` is emitted only
/// when a quorum-tolerated shard failure or an active brownout rung
/// touched the answer; healthy responses never carry the key, keeping
/// them bitwise identical to the pre-brownout wire format.
fn query_body(
    k: usize,
    degraded: bool,
    list_key: &str,
    entries: impl Iterator<Item = (u32, f32)>,
) -> Vec<u8> {
    let mut fields = vec![("k", Json::int(k))];
    if degraded {
        fields.push(("degraded", Json::Bool(true)));
    }
    fields.push((
        list_key,
        Json::Arr(
            entries
                .map(|(id, score)| {
                    Json::obj(vec![("id", Json::int(id as usize)), ("score", Json::F32(score))])
                })
                .collect(),
        ),
    ));
    Json::obj(fields).to_bytes()
}

/// Counts one response in its error class (2xx/3xx are not counted).
fn count_response(metrics: &Metrics, status: u16) {
    match status {
        400..=499 => metrics.inc(const { Family::Responses.with("4xx") }),
        500..=599 => metrics.inc(const { Family::Responses.with("5xx") }),
        _ => {}
    }
}

fn error_body(message: &str) -> Vec<u8> {
    Json::obj(vec![("error", Json::str(message))]).to_bytes()
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let deadline = Instant::now() + shared.read_timeout;
    let _ = stream.set_nodelay(true);
    let request = match read_request(&mut DeadlineReader { stream: &stream, deadline }) {
        Ok(r) => r,
        Err(HttpError::Malformed(msg)) => {
            count_response(&shared.metrics, 400);
            let _ = write_response(&mut stream, 400, "application/json", &error_body(msg));
            return;
        }
        Err(HttpError::TooLarge) => {
            count_response(&shared.metrics, 413);
            let _ =
                write_response(&mut stream, 413, "application/json", &error_body("body too large"));
            return;
        }
        Err(HttpError::Io(_)) => {
            // timeout or disconnect: nobody is listening for a reply
            return;
        }
    };
    let started = Instant::now();
    let (route, status, content_type, body) = dispatch(&request, shared);
    if let Some(route) = route {
        shared.metrics.inc(Family::Requests.at(route.index()));
        if matches!(route, Route::Recommend | Route::Target) {
            let micros = started.elapsed().as_micros() as u64;
            shared.metrics.observe(Family::RequestLatency.at(route.index()), micros);
        }
    }
    count_response(&shared.metrics, status);
    // Overload answers tell the client when to come back; everything else
    // uses the plain writer.
    let retry: String;
    let retry_header: [(&str, &str); 1];
    let extra: &[(&str, &str)] = if status == 429 || status == 503 {
        retry = retry_after_secs(shared).to_string();
        retry_header = [("Retry-After", retry.as_str())];
        &retry_header
    } else {
        &[]
    };
    let _ = write_response_with(&mut stream, status, content_type, extra, &body);
}

/// The `Retry-After` hint attached to every load-shedding response (429
/// and 503): the estimated time to drain the current backlog — queue
/// depth × the recent per-job service time (EWMA) — clamped to [1, 30] s.
/// An idle or lightly loaded server answers the floor of 1 s; the cap
/// keeps a transient spike from parking well-behaved clients for minutes.
fn retry_after_secs(shared: &Shared) -> u64 {
    let depth = shared.queues.iter().map(|q| q.depth.load(Ordering::SeqCst)).sum();
    drain_estimate_secs(depth, shared.metrics.recent_service_us())
}

/// The pure arithmetic behind [`retry_after_secs`], separated for tests.
fn drain_estimate_secs(depth: usize, per_job_us: u64) -> u64 {
    (depth as u64).saturating_mul(per_job_us).div_ceil(1_000_000).clamp(1, 30)
}

/// This process's resident and peak resident bytes (`VmRSS`, `VmHWM`),
/// read from `/proc/self/status` at scrape; 0 where it is unreadable.
fn resident_bytes() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    (status_bytes(&status, "VmRSS:"), status_bytes(&status, "VmHWM:"))
}

/// One `kB` field of a `/proc/<pid>/status` text, in bytes (0 if absent).
fn status_bytes(status: &str, field: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.trim().strip_suffix(" kB")?.parse::<u64>().ok())
        .map_or(0.0, |kb| kb as f64 * 1024.0)
}

type Dispatch = (Option<Route>, u16, &'static str, Vec<u8>);

fn dispatch(request: &Request, shared: &Shared) -> Dispatch {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/recommend") => route_query(Route::Recommend, request, shared),
        ("POST", "/target") => route_query(Route::Target, request, shared),
        ("POST", "/reload") => route_reload(request, shared),
        ("GET", "/healthz") => {
            let state = shared.handle.current();
            let last_reload = match &*shared.last_reload.lock().expect("reload state poisoned") {
                None => Json::str("none"),
                Some(o) => Json::obj(vec![
                    ("outcome", Json::str(if o.accepted { "accepted" } else { "rejected" })),
                    ("version", Json::int(o.version as usize)),
                    ("detail", Json::str(o.detail.clone())),
                ]),
            };
            let mut fields = vec![
                ("status", Json::str("ok")),
                ("version", Json::int(state.version as usize)),
                ("uptime_s", Json::int(shared.started.elapsed().as_secs() as usize)),
                ("items", Json::int(state.fitted.num_items())),
                ("pool_users", Json::int(state.fitted.num_pool_users())),
                ("retriever", Json::str(state.fitted.retriever_backend())),
                ("shards", Json::int(state.fitted.retriever_shards())),
                ("rerank", Json::str(state.fitted.rerank_spec())),
                ("store", Json::str(state.fitted.store_format().name())),
                ("brownout", Json::int(shared.brownout.as_ref().map_or(0, |b| b.level()))),
            ];
            // only an armed shadow adds the key — a shadow-less server's
            // body stays byte-identical to builds without the plane
            if let Some(sh) = &shared.shadow {
                let shadow_state = sh.handle.current();
                let m = &shared.metrics;
                let pairs = m.get(Family::ShadowPairs.at(0)) + m.get(Family::ShadowPairs.at(1));
                fields.push((
                    "shadow",
                    Json::obj(vec![
                        ("sample_rate", Json::F32(sh.state.sample_rate() as f32)),
                        ("version", Json::int(shadow_state.version as usize)),
                        ("checkpoint", Json::str(shadow_state.checkpoint.display().to_string())),
                        ("retriever", Json::str(shadow_state.fitted.retriever_backend())),
                        ("shards", Json::int(shadow_state.fitted.retriever_shards())),
                        ("rerank", Json::str(shadow_state.fitted.rerank_spec())),
                        ("store", Json::str(shadow_state.fitted.store_format().name())),
                        ("pairs", Json::int(pairs as usize)),
                        ("dropped", Json::int(m.get(Family::ShadowDropped.at(0)) as usize)),
                        ("overlap", Json::F32(m.derived(Family::ShadowOverlapRatio) as f32)),
                    ]),
                ));
            }
            fields.push(("last_reload", last_reload));
            let body = Json::obj(fields).to_bytes();
            (Some(Route::Healthz), 200, "application/json", body)
        }
        ("GET", "/metrics") => {
            // One scrape body: this server's owned series first, then every
            // process-global registry series (trainer, ANN, bench) so all
            // subsystems expose through the same endpoint, plus the armed
            // fault plane's fire count (0 while disarmed) so chaos runs can
            // correlate injected faults with the shed/error series above.
            let m = &shared.metrics;
            let version = shared.handle.version() as f64;
            let mut text = m.render(Section::Owned, &[(Family::ModelVersion, version)]);
            text.push_str(&unimatch_obs::registry::render());
            let (resident, peak) = resident_bytes();
            let fired = unimatch_faults::fired_total() as f64;
            let level = shared.brownout.as_ref().map_or(0, |b| b.level()) as f64;
            text.push_str(&m.render(
                Section::Process,
                &[
                    (Family::ResidentBytes, resident),
                    (Family::PeakResidentBytes, peak),
                    (Family::FaultsFired, fired),
                    (Family::BrownoutLevel, level),
                ],
            ));
            if let Some(sh) = &shared.shadow {
                let (rate, version) = (sh.state.sample_rate(), sh.handle.version() as f64);
                text.push_str(&m.render(
                    Section::Shadow,
                    &[(Family::ShadowSampleRate, rate), (Family::ShadowModelVersion, version)],
                ));
            }
            (Some(Route::Metrics), 200, "text/plain; version=0.0.4", text.into_bytes())
        }
        (_, "/recommend" | "/target" | "/reload" | "/healthz" | "/metrics") => {
            (None, 405, "application/json", error_body("method not allowed"))
        }
        _ => (None, 404, "application/json", error_body("no such route")),
    }
}

/// Parses `k` with a default of 10. The batcher rejects `k = 0`; there
/// is no upper bound here because the pipeline clamps its fetch depth to
/// the indexed row count, and the response echoes the `k` asked for.
fn parse_k(body: &Json) -> Result<usize, String> {
    match body.get("k") {
        None => Ok(10),
        Some(v) => {
            v.as_u64().map(|k| k as usize).ok_or_else(|| "k must be an integer".to_string())
        }
    }
}

fn parse_body(request: &Request) -> Result<Json, String> {
    Json::parse(&request.body).map_err(|e| e.to_string())
}

/// Parses the route's query field: `"history"` (an array of item ids)
/// for `/recommend`, `"item"` (one item id) for `/target`.
fn parse_query(route: Route, body: &Json) -> Result<Query, String> {
    let item_id = |v: &Json| v.as_u64().filter(|&x| x <= u32::MAX as u64).map(|x| x as u32);
    match route {
        Route::Recommend => body
            .get("history")
            .and_then(Json::as_array)
            .ok_or_else(|| "history must be an array of item ids".to_string())?
            .iter()
            .map(|v| item_id(v).ok_or_else(|| "history entries must be item ids".to_string()))
            .collect::<Result<_, _>>()
            .map(Query::History),
        _ => body
            .get("item")
            .and_then(item_id)
            .map(Query::Item)
            .ok_or_else(|| "item must be an item id".to_string()),
    }
}

/// The handler behind both query routes: parse → brownout shed →
/// admission → enqueue → wait for the batcher's reply → encode.
fn route_query(route: Route, request: &Request, shared: &Shared) -> Dispatch {
    let queue = &shared.queues[route.index()];
    let list_key = if route == Route::Recommend { "items" } else { "users" };
    let tag = Some(route);
    let parsed = parse_body(request).and_then(|body| {
        let k = parse_k(&body)?;
        Ok((parse_query(route, &body)?, k))
    });
    let (query, k) = match parsed {
        Ok(p) => p,
        Err(msg) => return (tag, 400, "application/json", error_body(&msg)),
    };
    if shared.brownout.as_ref().is_some_and(|b| b.shedding()) {
        shared.metrics.inc(const { Family::RequestsShed.with("brownout") });
        return (tag, 503, "application/json", error_body("brownout: shedding load"));
    }
    // admission control: claim one queue slot and stamp the job's deadline,
    // or shed when the queue is at its bound
    if queue.depth.fetch_add(1, Ordering::SeqCst) >= shared.queue_bound {
        queue.depth.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.inc(const { Family::RequestsShed.with("queue_full") });
        return (tag, 429, "application/json", error_body("admission queue full"));
    }
    let deadline = Instant::now() + shared.request_deadline;
    let (reply_tx, reply_rx) = channel();
    if queue.tx.send(Job { query, k, deadline, reply: reply_tx }).is_err() {
        queue.depth.fetch_sub(1, Ordering::SeqCst);
        return (tag, 503, "application/json", error_body("server shutting down"));
    }
    match reply_rx.recv() {
        Ok(Ok((answer, degraded))) => {
            let body = query_body(k, degraded, list_key, answer.into_iter());
            (tag, 200, "application/json", body)
        }
        Ok(Err(JobError::BadRequest(msg))) => (tag, 400, "application/json", error_body(&msg)),
        Ok(Err(JobError::Internal(msg))) => (tag, 500, "application/json", error_body(&msg)),
        Ok(Err(JobError::Expired)) => {
            (tag, 503, "application/json", error_body("deadline exceeded in admission queue"))
        }
        Err(_) => (tag, 500, "application/json", error_body("batch executor unavailable")),
    }
}

fn route_reload(request: &Request, shared: &Shared) -> Dispatch {
    let route = Some(Route::Reload);
    let checkpoint: Option<String> = if request.body.is_empty() {
        None
    } else {
        match parse_body(request) {
            Ok(body) => match body.get("checkpoint") {
                None | Some(Json::Null) => None,
                Some(v) => match v.as_str() {
                    Some(s) => Some(s.to_string()),
                    None => {
                        return (
                            route,
                            400,
                            "application/json",
                            error_body("checkpoint must be a path string"),
                        )
                    }
                },
            },
            Err(msg) => return (route, 400, "application/json", error_body(&msg)),
        }
    };
    match shared.handle.reload(checkpoint.as_deref().map(Path::new)) {
        Ok(state) => {
            shared.metrics.inc(Family::Reloads.at(0));
            *shared.last_reload.lock().expect("reload state poisoned") = Some(ReloadOutcome {
                accepted: true,
                version: state.version,
                detail: state.checkpoint.display().to_string(),
            });
            let body = Json::obj(vec![
                ("version", Json::int(state.version as usize)),
                ("checkpoint", Json::str(state.checkpoint.display().to_string())),
            ])
            .to_bytes();
            (route, 200, "application/json", body)
        }
        Err(e) => {
            *shared.last_reload.lock().expect("reload state poisoned") = Some(ReloadOutcome {
                accepted: false,
                version: shared.handle.version(),
                detail: e.to_string(),
            });
            (route, 500, "application/json", error_body(&e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{drain_estimate_secs, status_bytes};

    #[test]
    fn status_fields_read_as_bytes_and_missing_ones_as_zero() {
        let status = "Name:\tserve\nVmHWM:\t  102400 kB\nVmRSS:\t   51200 kB\n";
        assert_eq!(status_bytes(status, "VmRSS:"), 51_200.0 * 1024.0);
        assert_eq!(status_bytes(status, "VmHWM:"), 102_400.0 * 1024.0);
        assert_eq!(status_bytes(status, "VmSwap:"), 0.0);
        assert_eq!(status_bytes("", "VmRSS:"), 0.0);
    }

    #[test]
    fn retry_after_scales_with_backlog_within_clamps() {
        // idle or unmeasured servers answer the floor — the historical "1"
        assert_eq!(drain_estimate_secs(0, 0), 1);
        assert_eq!(drain_estimate_secs(100, 0), 1);
        assert_eq!(drain_estimate_secs(0, 5_000), 1);
        // sub-second backlogs round up to the floor, not down to zero
        assert_eq!(drain_estimate_secs(10, 5_000), 1);
        // 1000 queued jobs × 5 ms each ≈ 5 s of drain
        assert_eq!(drain_estimate_secs(1000, 5_000), 5);
        // partial seconds round up (2.5 s → 3)
        assert_eq!(drain_estimate_secs(500, 5_000), 3);
        // a pathological backlog is capped so clients are not parked
        assert_eq!(drain_estimate_secs(1_000_000, 50_000), 30);
        assert_eq!(drain_estimate_secs(usize::MAX, u64::MAX), 30);
    }
}
