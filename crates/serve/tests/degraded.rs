//! Degraded-serving end-to-end tests: partial shard failure and the
//! brownout controller under live HTTP traffic.
//!
//! The contracts under test are the robustness guarantees layered on the
//! chaos suite:
//!
//! * **partial results beat no results**: with a quorum policy
//!   (`min_shards`), a wedged shard turns into `200` responses flagged
//!   `"degraded":true` plus `unimatch_shard_errors_total` /
//!   `unimatch_degraded_responses_total` series — never a corrupt
//!   success, never an unflagged partial one;
//! * **strict stays strict**: without a quorum policy a shard failure is
//!   a typed `500`, exactly the historical all-or-nothing contract;
//! * **recovery is bitwise**: once the fault plan clears, responses are
//!   byte-identical to the pre-fault capture;
//! * **brownout closes the loop**: sustained deadline misses drive the
//!   ladder to `shed`, new queries answer `503` naming the brownout, the
//!   level shows on `/healthz` and `/metrics`, and a calm queue walks the
//!   level back to zero with full byte parity.

mod common;

use common::{fault_lock, metric_value, request, scrape, tmp_dir};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use unimatch_core::persist::save_model;
use unimatch_core::{ModelHandle, ShardPolicy, UniMatch, UniMatchConfig};
use unimatch_data::{DatasetProfile, InteractionLog};
use unimatch_faults::{FaultKind, FaultPlan, FaultRule};
use unimatch_serve::{BrownoutSpec, ServeConfig, Server};

/// One fitted model, saved once and shared by every test. The fixture
/// config shards both towers two ways so per-shard fault points
/// (`ann.shard.search.0`) have a seam to hit.
struct Fixture {
    checkpoint: PathBuf,
    log: InteractionLog,
    cfg: UniMatchConfig,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = tmp_dir("degraded");
        let log = DatasetProfile::EComp.generate(0.12, 17).filter_min_interactions(3);
        let cfg =
            UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, shards: 2, ..Default::default() };
        let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
        let checkpoint = dir.join("model.json");
        save_model(&fitted.model, &checkpoint).expect("save fixture checkpoint");
        Fixture { checkpoint, log, cfg }
    })
}

/// A fresh handle over the shared checkpoint with the given shard
/// policy — the policy is serving-side state, so every test picks its
/// own without refitting.
fn handle_with_policy(policy: ShardPolicy) -> Arc<ModelHandle> {
    let f = fixture();
    let cfg = UniMatchConfig { shard_policy: policy, ..f.cfg.clone() };
    Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &f.checkpoint, f.log.clone())
            .expect("fixture checkpoint loads"),
    )
}

const RECOMMEND: &[u8] = b"{\"history\":[1,2,3],\"k\":5}";
const TARGET: &[u8] = b"{\"item\":1,\"k\":5}";

#[test]
fn wedged_shard_serves_flagged_200s_then_recovers_bitwise() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    let server = Server::start(
        "127.0.0.1:0",
        handle_with_policy(ShardPolicy { min_shards: Some(1) }),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // Healthy baseline: full-quorum answers carry no degraded flag.
    let (status, _, healthy_rec) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&healthy_rec));
    let (status, _, healthy_tgt) = request(&addr, "POST", "/target", TARGET);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&healthy_tgt));
    for body in [&healthy_rec, &healthy_tgt] {
        assert!(
            !String::from_utf8_lossy(body).contains("degraded"),
            "healthy responses must stay byte-identical to the pre-isolation wire format"
        );
    }

    // Wedge shard 0 of every fan-out: quorum (1 of 2) still holds, so
    // both routes keep answering 200 — flagged, counted, never silent.
    unimatch_faults::set_plan(FaultPlan {
        seed: 51,
        rules: vec![FaultRule::new("ann.shard.search.0", FaultKind::IoError).with_probability(1.0)],
    });
    let (status, _, body) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let body = String::from_utf8(body).expect("utf8 body");
    assert!(body.contains("\"degraded\":true"), "partial result must be flagged:\n{body}");
    let (status, _, body) = request(&addr, "POST", "/target", TARGET);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(
        String::from_utf8_lossy(&body).contains("\"degraded\":true"),
        "targeting partial result must be flagged too"
    );

    let metrics = scrape(&addr);
    assert!(
        metric_value(&metrics, "unimatch_shard_errors_total{shard=\"0\"}") >= 2.0,
        "the wedged shard must be attributed by label:\n{metrics}"
    );
    assert!(
        metric_value(&metrics, "unimatch_degraded_responses_total{reason=\"shard\"}") >= 2.0,
        "every flagged response must be counted:\n{metrics}"
    );

    // Fault clears → the very next responses are byte-identical to the
    // healthy baseline: no residue, no flag, no reordering.
    unimatch_faults::clear();
    let (status, _, body) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 200);
    assert_eq!(body, healthy_rec, "recovery must be bitwise");
    let (status, _, body) = request(&addr, "POST", "/target", TARGET);
    assert_eq!(status, 200);
    assert_eq!(body, healthy_tgt, "targeting recovery must be bitwise");

    drop(server);
    assert!(TcpStream::connect(&addr).is_err(), "server still accepting after shutdown");
}

#[test]
fn strict_policy_turns_shard_failure_into_typed_500() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    // Default policy: no deadline, no quorum — all-or-nothing, exactly
    // the pre-isolation contract.
    let server = Server::start(
        "127.0.0.1:0",
        handle_with_policy(ShardPolicy::default()),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    unimatch_faults::set_plan(FaultPlan {
        seed: 52,
        rules: vec![FaultRule::new("ann.shard.search.0", FaultKind::IoError).with_probability(1.0)],
    });
    let (status, _, body) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 500, "strict policy must refuse partial results");
    assert!(
        String::from_utf8_lossy(&body).contains("error"),
        "failure must be a typed JSON error:\n{}",
        String::from_utf8_lossy(&body)
    );

    // Clearing the plan restores clean 200s on the same server.
    unimatch_faults::clear();
    let (status, _, body) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert!(!String::from_utf8_lossy(&body).contains("degraded"));
}

#[test]
fn brownout_sheds_under_deadline_misses_and_walks_back_to_zero() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    // up=1: a single controller sample with deadline misses escalates.
    // down=8 @ 25 ms: recovery needs 200 ms of calm — wide enough to
    // observe shedding, short enough for the test to watch it descend.
    let spec = BrownoutSpec::parse("shed;up=1;down=8;interval-ms=25").expect("valid spec");
    let server = Server::start(
        "127.0.0.1:0",
        handle_with_policy(ShardPolicy::default()),
        ServeConfig {
            batch_window: Duration::from_millis(1),
            max_batch: 1,
            request_deadline: Duration::from_millis(10),
            brownout: Some(spec),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // Healthy baseline with the controller armed but idle: level 0,
    // bodies unflagged.
    let (status, _, healthy_rec) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&healthy_rec));
    assert!(!String::from_utf8_lossy(&healthy_rec).contains("degraded"));
    let metrics = scrape(&addr);
    assert_eq!(metric_value(&metrics, "unimatch_brownout_level"), 0.0);
    let (status, _, body) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&body).contains("\"brownout\":0"),
        "healthz must report the idle level:\n{}",
        String::from_utf8_lossy(&body)
    );

    // Storm: every batch takes 80 ms while the queue deadline is 10 ms
    // and max_batch is 1, so queued jobs expire — sustained deadline
    // misses are exactly the controller's pressure signal.
    unimatch_faults::set_plan(FaultPlan {
        seed: 53,
        rules: vec![
            FaultRule::new("serve.batch", FaultKind::LatencyUs(80_000)).with_probability(1.0)
        ],
    });
    let stop = Arc::new(AtomicBool::new(false));
    let storm: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let _ = request(&addr, "POST", "/recommend", RECOMMEND);
                }
            })
        })
        .collect();

    // The ladder must reach `shed` and refuse new queries by name.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_brownout_shed = false;
    while Instant::now() < deadline {
        if metric_value(&scrape(&addr), "unimatch_brownout_level") >= 1.0 {
            let (status, head, body) = request(&addr, "POST", "/recommend", RECOMMEND);
            if status == 503 && String::from_utf8_lossy(&body).contains("brownout") {
                assert!(head.contains("Retry-After:"), "brownout shed needs Retry-After:\n{head}");
                saw_brownout_shed = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    for t in storm {
        t.join().expect("storm thread");
    }
    assert!(saw_brownout_shed, "ladder never reached shed under sustained deadline misses");
    let metrics = scrape(&addr);
    assert!(
        metric_value(&metrics, "unimatch_requests_shed_total{reason=\"brownout\"}") >= 1.0,
        "brownout sheds must be attributed on /metrics:\n{metrics}"
    );

    // Calm queue → the controller walks the level back to zero and the
    // next response is byte-identical to the pre-storm baseline.
    unimatch_faults::clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut recovered = false;
    while Instant::now() < deadline {
        if metric_value(&scrape(&addr), "unimatch_brownout_level") == 0.0 {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(recovered, "brownout level never recovered to 0 after the storm");
    let (status, _, body) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(body, healthy_rec, "post-brownout recovery must be bitwise");
}

#[test]
fn healthz_reports_uptime_brownout_and_last_reload() {
    let _guard = fault_lock();
    unimatch_faults::clear();
    let server = Server::start(
        "127.0.0.1:0",
        handle_with_policy(ShardPolicy::default()),
        ServeConfig::default(),
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let (status, _, body) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let body = String::from_utf8(body).expect("utf8 healthz");
    assert!(body.contains("\"uptime_s\":"), "healthz must report uptime:\n{body}");
    assert!(body.contains("\"brownout\":0"), "no controller configured → level 0:\n{body}");
    assert!(body.contains("\"last_reload\":\"none\""), "no reload yet:\n{body}");

    // A successful reload (same checkpoint) is recorded as accepted.
    let (status, _, body) = request(&addr, "POST", "/reload", b"{}");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let (_, _, body) = request(&addr, "GET", "/healthz", b"");
    let body = String::from_utf8(body).expect("utf8 healthz");
    assert!(
        body.contains("\"last_reload\":{\"outcome\":\"accepted\",\"version\":"),
        "accepted reload must show on healthz:\n{body}"
    );

    // A rejected reload keeps serving and flips the outcome.
    let (status, _, _) =
        request(&addr, "POST", "/reload", b"{\"checkpoint\":\"/nonexistent/model.json\"}");
    assert_eq!(status, 500);
    let (_, _, body) = request(&addr, "GET", "/healthz", b"");
    let body = String::from_utf8(body).expect("utf8 healthz");
    assert!(
        body.contains("\"last_reload\":{\"outcome\":\"rejected\""),
        "rejected reload must show on healthz:\n{body}"
    );
    let (status, _, body) = request(&addr, "POST", "/recommend", RECOMMEND);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
}
