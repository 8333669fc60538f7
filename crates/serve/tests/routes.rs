//! One table, two routes: `/recommend` and `/target` are a single
//! handler, job type and batcher loop, so every outcome that handler can
//! produce is walked through **both** routes by the same loop. A row
//! names a deployment, an optional armed shard fault, the request each
//! route sends, and what must come back; nothing in the loop knows which
//! route it is driving beyond the [`RouteUnderTest`] data.

mod common;

use common::{fault_lock, metric_value, parse_response, request, scrape, tmp_dir};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unimatch_core::persist::save_model_with_marginals;
use unimatch_core::{FittedUniMatch, ModelHandle, ShardPolicy, UniMatch, UniMatchConfig};
use unimatch_data::{DatasetProfile, InteractionLog};
use unimatch_faults::{FaultKind, FaultPlan, FaultRule};
use unimatch_serve::{
    recommend_body, target_body, BrownoutSpec, ServeConfig, Server, ShadowSpec,
};

/// Everything the loop needs to know about a route, as data.
struct RouteUnderTest {
    path: &'static str,
    /// The JSON key the ranked list is answered under.
    list_key: &'static str,
    /// The query field asking about one item id.
    query: fn(usize) -> String,
    /// A query field the parser accepts and the batcher rejects as empty
    /// or missing (`/target` has no empty form, so its row omits the
    /// field and is rejected at parse).
    empty_query: &'static str,
    /// The in-process answer for the valid query, through the same encoder.
    in_process: fn(&FittedUniMatch, usize) -> Vec<u8>,
}

const ROUTES: [RouteUnderTest; 2] = [
    RouteUnderTest {
        path: "/recommend",
        list_key: "items",
        query: |id| format!("\"history\":[{id}]"),
        empty_query: "\"history\":[]",
        in_process: |fitted, k| recommend_body(k, &fitted.recommend_items(&[1], k)),
    },
    RouteUnderTest {
        path: "/target",
        list_key: "users",
        query: |id| format!("\"item\":{id}"),
        empty_query: "\"unrelated\":1",
        in_process: |fitted, k| target_body(k, &fitted.target_users(1, k)),
    },
];

#[derive(Clone, Copy, PartialEq)]
enum Deployment {
    /// Default serve config, strict shard policy (all-or-nothing).
    Strict,
    /// `min_shards: 1` — a lost shard is tolerated and flagged.
    Quorum,
    /// `queue_bound: 0` — every query is shed at admission.
    Drain,
    /// A ladder already escalated to its `shed` rung.
    Shedding,
}

/// What a row's request looks like, given the route's data.
enum Body {
    /// `{<query about item 1>}` plus an optional raw `k` value.
    Query { k: Option<&'static str> },
    EmptyQuery,
    OutOfVocabulary,
    Raw(&'static str),
}

enum Expect {
    /// `200`, bytes identical to the in-process answer at this `k`.
    InProcess(usize),
    /// `200` whose body opens `{"k":5,"degraded":true,"<list_key>":[`.
    DegradedList,
    /// This status with a JSON error naming the substring; overload
    /// statuses must carry `Retry-After`.
    Error(u16, &'static str),
}

struct Outcome {
    name: &'static str,
    deployment: Deployment,
    /// Arm an I/O fault on shard 0 of every fan-out for this row.
    shard_fault: bool,
    body: Body,
    expect: Expect,
}

const HOSTILE_K: usize = 1_000_000_000_000;

fn outcomes() -> Vec<Outcome> {
    use Deployment::*;
    let row = |name, deployment, shard_fault, body, expect| Outcome {
        name,
        deployment,
        shard_fault,
        body,
        expect,
    };
    vec![
        row("answer", Strict, false, Body::Query { k: Some("5") }, Expect::InProcess(5)),
        row("default k", Strict, false, Body::Query { k: None }, Expect::InProcess(10)),
        // k beyond the index is clamped at retrieval, echoed as asked —
        // and the rows after it prove the server is still answering
        row(
            "hostile k",
            Strict,
            false,
            Body::Query { k: Some("1000000000000") },
            Expect::InProcess(HOSTILE_K),
        ),
        row("still alive", Strict, false, Body::Query { k: Some("5") }, Expect::InProcess(5)),
        row("bad body", Strict, false, Body::Raw("{not json"), Expect::Error(400, "")),
        row("empty query", Strict, false, Body::EmptyQuery, Expect::Error(400, "")),
        row(
            "out of vocabulary",
            Strict,
            false,
            Body::OutOfVocabulary,
            Expect::Error(400, "vocabulary"),
        ),
        row(
            "k = 0",
            Strict,
            false,
            Body::Query { k: Some("0") },
            Expect::Error(400, "k must be at least 1"),
        ),
        row(
            "k not an integer",
            Strict,
            false,
            Body::Query { k: Some("\"many\"") },
            Expect::Error(400, "k must be an integer"),
        ),
        row(
            "queue full",
            Drain,
            false,
            Body::Query { k: Some("5") },
            Expect::Error(429, "admission queue full"),
        ),
        row(
            "brownout shed",
            Shedding,
            false,
            Body::Query { k: Some("5") },
            Expect::Error(503, "brownout"),
        ),
        row(
            "strict quorum failure",
            Strict,
            true,
            Body::Query { k: Some("5") },
            Expect::Error(500, "shard quorum missed"),
        ),
        row("tolerated shard loss", Quorum, true, Body::Query { k: Some("5") }, Expect::DegradedList),
        row("recovered", Quorum, false, Body::Query { k: Some("5") }, Expect::InProcess(5)),
    ]
}

/// Fits the suite's model — the default (HNSW) backend, two shards so
/// `ann.shard.search.0` has a seam — and saves it under a fresh `name`d
/// temp dir: `(dir, log, config, checkpoint)`.
fn fitted_checkpoint(name: &str) -> (PathBuf, InteractionLog, UniMatchConfig, PathBuf) {
    let dir = tmp_dir(&format!("routes_{name}"));
    let log = DatasetProfile::EComp.generate(0.12, 17).filter_min_interactions(3);
    let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, shards: 2, ..Default::default() };
    let checkpoint = dir.join("model.json");
    let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
    save_model_with_marginals(&fitted.model, None, &checkpoint).expect("save");
    (dir, log, cfg, checkpoint)
}

#[test]
fn both_routes_walk_the_same_outcomes() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    let (dir, log, cfg, checkpoint) = fitted_checkpoint("outcomes");
    let handle = |policy: ShardPolicy| {
        let cfg = UniMatchConfig { shard_policy: policy, ..cfg.clone() };
        Arc::new(
            ModelHandle::from_checkpoint(UniMatch::new(cfg), &checkpoint, log.clone())
                .expect("checkpoint loads"),
        )
    };
    let strict = handle(ShardPolicy::default());
    let quorum = handle(ShardPolicy { min_shards: Some(1) });
    let fast = ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() };
    let start = |handle: &Arc<ModelHandle>, config: ServeConfig| {
        Server::start("127.0.0.1:0", handle.clone(), config).expect("bind")
    };
    let servers = [
        (Deployment::Strict, start(&strict, fast.clone())),
        (Deployment::Quorum, start(&quorum, fast.clone())),
        (Deployment::Drain, start(&strict, ServeConfig { queue_bound: 0, ..fast.clone() })),
        (
            Deployment::Shedding,
            start(
                &strict,
                ServeConfig {
                    // every job expires in the queue, and one sample with a
                    // deadline miss escalates a ladder that never steps down
                    request_deadline: Duration::ZERO,
                    brownout: Some(
                        BrownoutSpec::parse("shed;up=1;down=1000000;interval-ms=5").expect("spec"),
                    ),
                    ..fast
                },
            ),
        ),
    ];
    let addr_of = |deployment: Deployment| {
        servers.iter().find(|(d, _)| *d == deployment).expect("deployed").1.addr().to_string()
    };

    // escalate the shedding deployment: expire one job, wait for the rung
    let shedding = addr_of(Deployment::Shedding);
    let (status, _, body) = request(&shedding, "POST", "/recommend", b"{\"history\":[1],\"k\":1}");
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, health) = request(&shedding, "GET", "/healthz", b"");
        if String::from_utf8_lossy(&health).contains("\"brownout\":1") {
            break;
        }
        assert!(Instant::now() < deadline, "ladder never reached its shed rung");
        std::thread::sleep(Duration::from_millis(5));
    }

    let fitted = strict.current();
    let num_items = fitted.fitted.num_items();
    for outcome in outcomes() {
        if outcome.shard_fault {
            unimatch_faults::set_plan(FaultPlan {
                seed: 7,
                rules: vec![
                    FaultRule::new("ann.shard.search.0", FaultKind::IoError).with_probability(1.0)
                ],
            });
        }
        let addr = addr_of(outcome.deployment);
        for route in &ROUTES {
            let site = format!("{} on {}", outcome.name, route.path);
            let sent = match &outcome.body {
                Body::Query { k: Some(k) } => format!("{{{},\"k\":{k}}}", (route.query)(1)),
                Body::Query { k: None } => format!("{{{}}}", (route.query)(1)),
                Body::EmptyQuery => format!("{{{},\"k\":5}}", route.empty_query),
                Body::OutOfVocabulary => format!("{{{},\"k\":5}}", (route.query)(num_items)),
                Body::Raw(raw) => raw.to_string(),
            };
            let (status, head, got) = request(&addr, "POST", route.path, sent.as_bytes());
            let text = String::from_utf8_lossy(&got).into_owned();
            match outcome.expect {
                Expect::InProcess(k) => {
                    assert_eq!(status, 200, "{site}: {text}");
                    assert_eq!(got, (route.in_process)(&fitted.fitted, k), "{site}: bytes differ");
                    assert!(text.starts_with(&format!("{{\"k\":{k},\"{}\":[", route.list_key)));
                }
                Expect::DegradedList => {
                    assert_eq!(status, 200, "{site}: {text}");
                    let opening = format!("{{\"k\":5,\"degraded\":true,\"{}\":[", route.list_key);
                    assert!(text.starts_with(&opening), "{site}: {text}");
                }
                Expect::Error(want, needle) => {
                    assert_eq!(status, want, "{site}: {text}");
                    assert!(text.starts_with("{\"error\":") && text.contains(needle), "{site}: {text}");
                    assert_eq!(
                        head.contains("Retry-After:"),
                        want == 429 || want == 503,
                        "{site}: Retry-After belongs on overload answers only:\n{head}"
                    );
                }
            }
        }
        unimatch_faults::clear();
    }

    // each route accounted its own requests: the two series moved together
    let (_, _, metrics) = request(&addr_of(Deployment::Strict), "GET", "/metrics", b"");
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    let requests = |route: &str| {
        let prefix = format!("unimatch_requests_total{{route=\"{route}\"}} ");
        metrics.lines().find_map(|l| l.strip_prefix(&prefix)).expect("series").to_string()
    };
    assert_eq!(requests("recommend"), requests("target"), "{metrics}");

    drop(servers);
    std::fs::remove_dir_all(&dir).ok();
}

/// The tower reads the last `max_seq_len` ids: two histories that share
/// them and differ before them answer with identical bytes — the
/// in-process answer for the suffix alone.
#[test]
fn same_suffix_histories_answer_the_same_bytes() {
    let _guard = fault_lock(); // its batches must not absorb a neighbour's armed fault
    let (dir, log, cfg, checkpoint) = fitted_checkpoint("suffix");
    let suffix: Vec<u32> = (1..=cfg.max_seq_len as u32).collect();
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &checkpoint, log).expect("checkpoint loads"),
    );
    let server =
        Server::start("127.0.0.1:0", handle.clone(), ServeConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    let ask = |prefix: &[u32]| {
        let ids: Vec<String> = prefix.iter().chain(&suffix).map(u32::to_string).collect();
        let body = format!("{{\"history\":[{}],\"k\":5}}", ids.join(","));
        let (status, _, got) = request(&addr, "POST", "/recommend", body.as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&got));
        got
    };

    let first = ask(&[0, 0, 0]);
    let second = ask(&[5, 4]);
    assert_eq!(first, second, "same served suffix, different bytes");
    assert_eq!(first, recommend_body(5, &handle.current().fitted.recommend_items(&suffix, 5)));

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// With a zero window coalescing comes from the backlog alone. One latency
/// fault at `serve.batch` stalls the first batch between collect and
/// execute; the eleven requests released meanwhile queue behind it and run
/// as the next batch (a third absorbs a straggler) — twelve jobs, mixed
/// `k`, every body still the in-process answer. All twelve connections are
/// opened and sent short of their last byte up front, so the release is
/// eleven one-byte writes.
#[test]
fn a_backlog_behind_a_stalled_batch_is_coalesced_across_k() {
    let _guard = fault_lock();
    let (dir, log, cfg, checkpoint) = fitted_checkpoint("backlog");
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &checkpoint, log).expect("checkpoint loads"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::ZERO, ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let fitted = handle.current();
    assert!(fitted.fitted.num_items() > 16, "dataset too small for the test vectors");

    let asks: Vec<(Vec<u32>, usize)> =
        (0..12u32).map(|i| ((0..=i % 4).map(|j| 1 + i + j).collect(), 2 + i as usize % 3)).collect();
    let mut parked: Vec<(TcpStream, u8)> = asks
        .iter()
        .map(|(history, k)| {
            let ids: Vec<String> = history.iter().map(u32::to_string).collect();
            let body = format!("{{\"history\":[{}],\"k\":{k}}}", ids.join(","));
            let wire =
                format!("POST /recommend HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
            let (last, rest) = wire.as_bytes().split_last().expect("non-empty request");
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.write_all(rest).expect("send all but the last byte");
            (stream, *last)
        })
        .collect();

    unimatch_faults::set_plan(FaultPlan::parse("serve.batch=latency:50000x1", 7).expect("plan"));
    let mut release = parked.iter_mut();
    let (first, last) = release.next().expect("twelve connections");
    first.write_all(&[*last]).expect("complete the first request");
    // the fire is counted before the stall begins: from here the first
    // batch is collected and not yet executing
    let deadline = Instant::now() + Duration::from_secs(10);
    while unimatch_faults::fired_total() == 0 {
        assert!(Instant::now() < deadline, "the first batch never reached the stall");
        std::thread::yield_now();
    }
    for (stream, last) in release {
        stream.write_all(&[*last]).expect("complete a queued request");
    }

    for ((mut stream, _), (history, k)) in parked.into_iter().zip(&asks) {
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        let (status, _, got) = parse_response(&response);
        assert_eq!(status, 200, "{history:?} k={k}: {}", String::from_utf8_lossy(&got));
        let expected = recommend_body(*k, &fitted.fitted.recommend_items(history, *k));
        assert_eq!(got, expected, "{history:?} k={k}: bytes differ");
    }
    unimatch_faults::clear();

    let metrics = scrape(&addr);
    assert_eq!(metric_value(&metrics, "unimatch_batch_size_sum{route=\"recommend\"}"), 12.0);
    let batches = metric_value(&metrics, "unimatch_batch_size_count{route=\"recommend\"}");
    assert!(batches <= 3.0, "twelve jobs took {batches} batches:\n{metrics}");

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// `read_timeout` bounds the request, not each read: a client that keeps
/// one header byte coming every 50 ms — well inside the 200 ms any single
/// read is allowed — is still closed on, unanswered, once 200 ms have
/// passed since it connected. The client's own 50 ms read timeout is the
/// pacing, and an EOF on that read is how it sees the close.
#[test]
fn a_dribbling_client_is_closed_on_at_the_read_deadline() {
    let (dir, log, cfg, checkpoint) = fitted_checkpoint("dribble");
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &checkpoint, log).expect("checkpoint loads"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle,
        ServeConfig { read_timeout: Duration::from_millis(200), ..Default::default() },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_millis(50))).expect("client read timeout");
    let connected = Instant::now();
    let head = b"GET /healthz HTTP/1.1\r\nX-Slow: ".iter().chain(std::iter::repeat(&b'a'));
    for byte in head {
        assert!(
            connected.elapsed() < Duration::from_secs(5),
            "still being read from {:?} after connecting",
            connected.elapsed()
        );
        if stream.write_all(&[*byte]).is_err() {
            break; // reset: the server closed between two bytes
        }
        match stream.read(&mut [0u8; 1]) {
            Ok(0) => break,
            Ok(_) => panic!("the server answered a request it never finished reading"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    let closed_after = connected.elapsed();
    assert!(closed_after < Duration::from_millis(1500), "closed only after {closed_after:?}");

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// The connection cap: with `max_connections: 1` and one connection parked
/// mid-request, the next connect is answered `503` + `Retry-After` and
/// counted — as a rejected connection *and* as a 5xx response. The parked
/// connection is itself the `/metrics` scrape, so what it reads once it
/// completes is ordered after the rejection without any sleep; the same
/// body pins the section order of a live scrape.
#[test]
fn connection_cap_rejects_counts_and_the_scrape_keeps_its_order() {
    let (dir, log, cfg, checkpoint) = fitted_checkpoint("cap");
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &checkpoint, log).expect("checkpoint loads"),
    );
    // a registry series, so the process-global block is not empty
    unimatch_obs::registry::counter("routes_suite_registry_marker_total").inc();
    let server = Server::start_with_shadow(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { max_connections: 1, ..Default::default() },
        Some(ShadowSpec::new(handle, 1.0)), // A/A, armed so the shadow section renders
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // park the one allowed connection halfway through its request head
    let mut parked = TcpStream::connect(&addr).expect("connect");
    parked.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n").expect("send partial head");

    // the accept loop took `parked` first, so this one finds the cap full;
    // it is answered without its request being read
    let mut refused = Vec::new();
    TcpStream::connect(&addr).expect("connect").read_to_end(&mut refused).expect("read 503");
    let (status, head, body) = parse_response(&refused);
    assert_eq!(status, 503, "{head}");
    assert!(String::from_utf8_lossy(&body).contains("connection capacity"));
    let retry_after: u64 = head
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no Retry-After on the cap's 503:\n{head}"));
    assert!(retry_after >= 1, "{head}");

    parked.write_all(b"\r\n").expect("finish the head");
    let mut scraped = Vec::new();
    parked.read_to_end(&mut scraped).expect("read scrape");
    let (status, _, body) = parse_response(&scraped);
    assert_eq!(status, 200);
    let metrics = String::from_utf8(body).expect("utf8 metrics");
    let value = |series: &str| -> u64 {
        let prefix = format!("{series} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{series} missing from:\n{metrics}"))
    };
    assert_eq!(value("unimatch_connections_rejected_total"), 1);
    assert!(value("unimatch_responses_total{class=\"5xx\"}") >= 1, "{metrics}");

    // owned block → registry block → fault and brownout gauges → shadow block
    let landmarks = [
        "unimatch_requests_total{route=\"recommend\"}",
        "unimatch_model_version",
        "routes_suite_registry_marker_total",
        "unimatch_faults_fired_total",
        "unimatch_brownout_level",
        "unimatch_shadow_sample_rate",
        "unimatch_shadow_model_version",
    ];
    let line_of = |series: &str| {
        metrics
            .lines()
            .position(|l| l.starts_with(series))
            .unwrap_or_else(|| panic!("{series} missing from:\n{metrics}"))
    };
    assert_eq!(line_of(landmarks[0]), 0);
    assert!(landmarks.windows(2).all(|w| line_of(w[0]) < line_of(w[1])), "{metrics}");
    assert_eq!(line_of("unimatch_brownout_level") + 1, line_of("unimatch_shadow_sample_rate"));
    assert_eq!(line_of(landmarks[6]) + 1, metrics.lines().count());

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
