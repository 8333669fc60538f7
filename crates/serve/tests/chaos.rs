//! Chaos end-to-end tests: the serving subsystem under armed fault plans
//! and hostile checkpoints.
//!
//! The `unimatch-faults` plane injects latency at the ANN-search and
//! batcher seams while concurrent clients hammer the server; the
//! contracts under test are the graceful-degradation guarantees:
//!
//! * **no corrupt success**: every `200` body is byte-identical to a
//!   direct in-process call — a fault may slow or shed a request, never
//!   silently alter its payload;
//! * **bounded, typed failure**: overload answers are `429`/`503` with a
//!   `Retry-After` header, and the error rate stays bounded;
//! * **old model keeps serving**: a corrupt checkpoint fed to `/reload`
//!   errors without failing a single in-flight request;
//! * **observable**: `/metrics` exposes the shed counters and the fault
//!   plane's fire count in the same scrape;
//! * **clean drain**: shutdown under chaos still answers everything
//!   admitted and closes the port.

mod common;

use common::{fault_lock, metric_value, request, tmp_dir};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use unimatch_core::persist::save_model_with_marginals;
use unimatch_core::{ModelHandle, RowFormat, UniMatch, UniMatchConfig};
use unimatch_data::{DatasetProfile, InteractionLog};
use unimatch_faults::{FaultKind, FaultPlan, FaultRule};
use unimatch_serve::{recommend_body, target_body, ServeConfig, Server};

/// One fitted model, saved once and shared by every test (fitting is the
/// expensive part; each test builds its own cheap `ModelHandle` over it).
struct Fixture {
    dir: PathBuf,
    checkpoint: PathBuf,
    log: InteractionLog,
    cfg: UniMatchConfig,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = tmp_dir("chaos");
        let log = DatasetProfile::EComp.generate(0.12, 17).filter_min_interactions(3);
        let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
        let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
        let checkpoint = dir.join("model.json");
        save_model_with_marginals(&fitted.model, None, &checkpoint)
            .expect("save fixture checkpoint");
        Fixture { dir, checkpoint, log, cfg }
    })
}

fn fresh_handle() -> Arc<ModelHandle> {
    let f = fixture();
    Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(f.cfg.clone()), &f.checkpoint, f.log.clone())
            .expect("fixture checkpoint loads"),
    )
}

#[test]
fn full_queue_sheds_429_with_retry_after() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    let server = Server::start(
        "127.0.0.1:0",
        fresh_handle(),
        ServeConfig {
            batch_window: Duration::from_millis(1),
            queue_bound: 0, // drain mode: shed every query request
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let (status, head, body) =
        request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 429, "{}", String::from_utf8_lossy(&body));
    assert!(head.contains("Retry-After: 1"), "429 must carry Retry-After:\n{head}");
    assert!(String::from_utf8_lossy(&body).contains("admission queue full"));
    let (status, head, _) = request(&addr, "POST", "/target", b"{\"item\":1,\"k\":5}");
    assert_eq!(status, 429);
    assert!(head.contains("Retry-After: 1"));

    // non-queued routes are unaffected by drain mode
    let (status, _, _) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);

    let (status, _, metrics) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(
        metric_value(&metrics, "unimatch_requests_shed_total{reason=\"queue_full\"}") >= 2.0,
        "shed counter must record both rejections"
    );
    drop(server);
    assert!(TcpStream::connect(&addr).is_err(), "server still accepting after shutdown");
}

#[test]
fn queued_past_deadline_answers_503_with_retry_after() {
    let _guard = fault_lock();
    // Every batch stalls 150 ms at the batcher seam; the request deadline
    // is 20 ms, so every admitted job expires in the queue.
    unimatch_faults::set_plan(FaultPlan {
        seed: 41,
        rules: vec![FaultRule::new("serve.batch", FaultKind::LatencyUs(150_000))
            .with_probability(1.0)],
    });
    let handle = fresh_handle();
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig {
            batch_window: Duration::from_millis(1),
            request_deadline: Duration::from_millis(20),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let (status, head, body) =
        request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert!(head.contains("Retry-After: 1"), "503 must carry Retry-After:\n{head}");
    assert!(String::from_utf8_lossy(&body).contains("deadline"));

    // scraped while armed: the shed and fault counters share the scrape
    let (status, _, metrics) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(metric_value(&metrics, "unimatch_requests_shed_total{reason=\"deadline\"}") >= 1.0);
    assert!(metric_value(&metrics, "unimatch_faults_fired_total") >= 1.0);

    // disarm: the same request is answered normally and byte-identically
    unimatch_faults::clear();
    let expected = recommend_body(5, &handle.current().fitted.recommend_items(&[1, 2, 3], 5));
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200);
    assert_eq!(got, expected, "post-chaos response must be byte-identical");
    drop(server);
}

#[test]
fn latency_storm_never_corrupts_a_success() {
    let _guard = fault_lock();
    // Faults at both serving seams: every ANN search and half of all
    // batches pick up injected latency. Small enough that requests finish
    // inside the (default 2 s) deadline — the contract under test is that
    // slowed is never wrong.
    unimatch_faults::set_plan(FaultPlan {
        seed: 42,
        rules: vec![
            FaultRule::new("ann.search", FaultKind::LatencyUs(2_000)).with_probability(1.0),
            FaultRule::new("serve.batch", FaultKind::LatencyUs(2_000)).with_probability(0.5),
        ],
    });
    let handle = fresh_handle();
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let fitted = handle.current();
    let num_items = fitted.fitted.num_items() as u32;

    let mut clients = Vec::new();
    let errors = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let successes = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for t in 0..6u32 {
        let addr = addr.clone();
        let errors = errors.clone();
        let successes = successes.clone();
        let history: Vec<u32> = (0..3).map(|j| (t * 3 + j) % num_items).collect();
        let k = 3 + (t as usize % 3);
        let item = (t * 5) % num_items;
        let expected_rec = recommend_body(k, &fitted.fitted.recommend_items(&history, k));
        let expected_tgt = target_body(k, &fitted.fitted.target_users(item, k));
        clients.push(std::thread::spawn(move || {
            for round in 0..6 {
                let (path, body, expected) = if round % 2 == 0 {
                    let ids: Vec<String> = history.iter().map(u32::to_string).collect();
                    (
                        "/recommend",
                        format!("{{\"history\":[{}],\"k\":{k}}}", ids.join(",")),
                        &expected_rec,
                    )
                } else {
                    ("/target", format!("{{\"item\":{item},\"k\":{k}}}"), &expected_tgt)
                };
                let (status, head, got) = request(&addr, "POST", path, body.as_bytes());
                match status {
                    200 => {
                        successes.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(
                            &got, expected,
                            "client {t} round {round}: 200 payload corrupted under faults"
                        );
                    }
                    429 | 503 => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        assert!(
                            head.contains("Retry-After: 1"),
                            "shed response without Retry-After:\n{head}"
                        );
                    }
                    other => panic!(
                        "client {t} round {round}: unexpected status {other}: {}",
                        String::from_utf8_lossy(&got)
                    ),
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let successes = successes.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    assert_eq!(successes + errors, 36, "every request must be answered");
    assert!(successes > 0, "the storm must not starve the server entirely");
    assert!(errors * 4 <= 36, "error rate unbounded: {errors}/36 shed");

    // faults demonstrably fired, and the scrape carries the evidence
    let (status, _, metrics) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(metric_value(&metrics, "unimatch_faults_fired_total") >= 18.0);
    assert!(metric_value(&metrics, "unimatch_requests_shed_total{reason=\"queue_full\"}") >= 0.0);
    unimatch_faults::clear();

    // clean drain with the port closed behind it
    drop(server);
    assert!(TcpStream::connect(&addr).is_err(), "server still accepting after shutdown");
}

#[test]
fn latency_storm_with_rerank_chain_keeps_seeded_byte_identity() {
    let _guard = fault_lock();
    // Same storm as above, but with a re-ranking chain armed: a slowed
    // request must still produce the exact bytes the seeded chain pins —
    // injected latency must never perturb debias/MMR/exploration.
    unimatch_faults::set_plan(FaultPlan {
        seed: 43,
        rules: vec![
            FaultRule::new("ann.search", FaultKind::LatencyUs(2_000)).with_probability(1.0),
            FaultRule::new("serve.batch", FaultKind::LatencyUs(2_000)).with_probability(0.5),
        ],
    });
    let f = fixture();
    let cfg = UniMatchConfig {
        rerank: unimatch_core::RerankConfig {
            spec: "debias@0.5,mmr@0.3,explore@0.2".to_string(),
            rules: None,
        },
        ..f.cfg.clone()
    };
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &f.checkpoint, f.log.clone())
            .expect("fixture checkpoint loads with a chain armed"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let fitted = handle.current();
    let num_items = fitted.fitted.num_items() as u32;

    let mut clients = Vec::new();
    for t in 0..4u32 {
        let addr = addr.clone();
        let history: Vec<u32> = (0..3).map(|j| (t * 3 + j) % num_items).collect();
        let k = 3 + (t as usize % 3);
        let item = (t * 5) % num_items;
        let expected_rec = recommend_body(k, &fitted.fitted.recommend_items(&history, k));
        let expected_tgt = target_body(k, &fitted.fitted.target_users(item, k));
        clients.push(std::thread::spawn(move || {
            for round in 0..6 {
                let (path, body, expected) = if round % 2 == 0 {
                    let ids: Vec<String> = history.iter().map(u32::to_string).collect();
                    (
                        "/recommend",
                        format!("{{\"history\":[{}],\"k\":{k}}}", ids.join(",")),
                        &expected_rec,
                    )
                } else {
                    ("/target", format!("{{\"item\":{item},\"k\":{k}}}"), &expected_tgt)
                };
                let (status, _, got) = request(&addr, "POST", path, body.as_bytes());
                match status {
                    200 => assert_eq!(
                        &got, expected,
                        "client {t} round {round}: chained payload diverged under faults"
                    ),
                    429 | 503 => {}
                    other => panic!("client {t} round {round}: unexpected status {other}"),
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    unimatch_faults::clear();

    // disarmed, the identical request still returns the identical bytes —
    // the chain's seed stream has no dependence on the fault plane
    let history = [0u32, 1, 2];
    let expected = recommend_body(3, &fitted.fitted.recommend_items(&history, 3));
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[0,1,2],\"k\":3}");
    assert_eq!(status, 200);
    assert_eq!(got, expected, "post-chaos chained response must be byte-identical");
    drop(server);
}

#[test]
fn corrupt_reload_under_live_traffic_keeps_old_version_serving() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    let f = fixture();
    let handle = fresh_handle();
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let expected = recommend_body(5, &handle.current().fitted.recommend_items(&[1, 2, 3], 5));

    // two corrupt checkpoints: a truncated file and a checksum-tampered one
    let bytes = std::fs::read(&f.checkpoint).expect("read fixture checkpoint");
    let truncated_path = f.dir.join("truncated.json");
    std::fs::write(&truncated_path, &bytes[..bytes.len() / 2]).expect("write truncated");
    let text = String::from_utf8(bytes).expect("utf8 checkpoint");
    let pos = text.find("\"checksum\":\"").expect("checksum field") + "\"checksum\":\"".len();
    let mut tampered = text.into_bytes();
    tampered[pos] = if tampered[pos] == b'0' { b'1' } else { b'0' };
    let tampered_path = f.dir.join("tampered.json");
    std::fs::write(&tampered_path, &tampered).expect("write tampered");

    // live traffic for the whole reload sequence: every response must be a
    // healthy 200 with an uncorrupted payload
    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for _ in 0..2 {
        let (addr, stop, expected) = (addr.clone(), stop.clone(), expected.clone());
        hammers.push(std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (status, _, got) =
                    request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
                assert_eq!(
                    status,
                    200,
                    "in-flight request failed during corrupt reload: {}",
                    String::from_utf8_lossy(&got)
                );
                assert_eq!(got, expected, "in-flight payload corrupted during reload");
                served += 1;
            }
            served
        }));
    }

    for corrupt in [&truncated_path, &tampered_path] {
        let body = format!("{{\"checkpoint\":{:?}}}", corrupt.to_str().expect("utf8 path"));
        let (status, _, reply) = request(&addr, "POST", "/reload", body.as_bytes());
        assert_eq!(
            status,
            500,
            "corrupt checkpoint must be rejected: {}",
            String::from_utf8_lossy(&reply)
        );
        let (status, _, health) = request(&addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        assert!(
            String::from_utf8_lossy(&health).contains("\"version\":1"),
            "failed reload must leave version 1 serving"
        );
    }

    stop.store(true, Ordering::Relaxed);
    let served: u64 = hammers.into_iter().map(|h| h.join().expect("hammer thread")).sum();
    assert!(served > 0, "no traffic flowed during the reload sequence");

    // a valid checkpoint still swaps in afterwards
    let body = format!("{{\"checkpoint\":{:?}}}", f.checkpoint.to_str().expect("utf8 path"));
    let (status, _, reply) = request(&addr, "POST", "/reload", body.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    assert!(String::from_utf8_lossy(&reply).contains("\"version\":2"));

    let (status, _, metrics) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert_eq!(
        metric_value(&metrics, "unimatch_reloads_total"),
        1.0,
        "only the successful reload may count"
    );
    assert!(metric_value(&metrics, "unimatch_responses_total{class=\"5xx\"}") >= 2.0);
    drop(server);
}

#[test]
fn corrupt_quantized_table_reload_keeps_old_version_serving() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    let f = fixture();
    // serve quantized: the loader re-encodes the fixture checkpoint's
    // embedding section into i8 codes in memory
    let cfg = UniMatchConfig { store: RowFormat::I8, ..f.cfg.clone() };
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &f.checkpoint, f.log.clone())
            .expect("fixture checkpoint loads quantized"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let expected = recommend_body(5, &handle.current().fitted.recommend_items(&[1, 2, 3], 5));

    let (status, _, health) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = String::from_utf8_lossy(&health).to_string();
    assert!(health.contains("\"store\":\"i8\""), "healthz must report the store format:\n{health}");

    // the served model saved again, then one digit of the checksum over
    // the embedding section the i8 table derives from flipped: the reload
    // must validate the document and refuse the swap
    let cur = handle.current();
    let qpath = f.dir.join("quantized.json");
    save_model_with_marginals(&cur.fitted.model, Some(cur.fitted.marginals()), &qpath)
        .expect("save checkpoint");
    let good = std::fs::read(&qpath).expect("read checkpoint");
    let key = b"\"embedding_checksum\":\"";
    let pos = good.windows(key.len()).position(|w| w == key).expect("embedding checksum")
        + key.len();
    let mut bad = good.clone();
    bad[pos] = if bad[pos] == b'0' { b'1' } else { b'0' };
    std::fs::write(&qpath, &bad).expect("write corrupt checkpoint");

    let body = format!("{{\"checkpoint\":{:?}}}", qpath.to_str().expect("utf8 path"));
    let (status, _, reply) = request(&addr, "POST", "/reload", body.as_bytes());
    assert_eq!(
        status,
        500,
        "corrupt embedding section must be rejected: {}",
        String::from_utf8_lossy(&reply)
    );

    // the old quantized version keeps serving, byte-identically
    let (status, _, health) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = String::from_utf8_lossy(&health).to_string();
    assert!(health.contains("\"version\":1"), "failed reload must leave version 1:\n{health}");
    assert!(health.contains("\"store\":\"i8\""));
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200);
    assert_eq!(got, expected, "payload must survive the rejected reload untouched");

    // restoring the document lets the identical reload succeed
    std::fs::write(&qpath, &good).expect("restore checkpoint");
    let (status, _, reply) = request(&addr, "POST", "/reload", body.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    assert!(String::from_utf8_lossy(&reply).contains("\"version\":2"));
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200);
    assert_eq!(got, expected, "same params reloaded must answer byte-identically");
    drop(server);
}
