//! End-to-end tests of the shadow deployment plane: a live server with a
//! second pipeline mirroring sampled traffic off the critical path.
//!
//! Two invariants matter:
//!
//! 1. **Shadow-off is byte-identical.** A server started without a
//!    shadow must expose not a single `unimatch_shadow_*` series nor a
//!    `"shadow"` key on `/healthz` — the plane leaves zero trace.
//! 2. **The primary never notices.** With a shadow armed (even at
//!    sample rate 1.0), every response body stays byte-identical to a
//!    direct in-process call on the primary; the paired comparison
//!    series fill in asynchronously. An A/A shadow (same checkpoint)
//!    must converge to overlap 1.0 with zero score delta.

mod common;

use common::{metric_value, request, scrape, tmp_dir};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unimatch_core::persist::save_model;
use unimatch_core::{ModelHandle, UniMatch, UniMatchConfig};
use unimatch_data::DatasetProfile;
use unimatch_serve::{recommend_body, target_body, ServeConfig, Server, ShadowSpec};

/// Polls `/metrics` until the mirrored pair count reaches `want` (the
/// shadow worker runs asynchronously behind a queue).
fn await_pairs(addr: &str, want: f64) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = scrape(addr);
        let pairs = metric_value(&text, "unimatch_shadow_pairs_total{route=\"recommend\"}")
            + metric_value(&text, "unimatch_shadow_pairs_total{route=\"target\"}");
        if pairs >= want {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "shadow worker mirrored only {pairs}/{want} pairs:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Trains one small model, saves it, and returns (checkpoint dir, log,
/// training config).
fn fixture(name: &str) -> (PathBuf, unimatch_data::InteractionLog, UniMatchConfig) {
    let dir = tmp_dir(&format!("shadow_{name}"));
    let log = DatasetProfile::EComp.generate(0.12, 21).filter_min_interactions(3);
    let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
    let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
    save_model(&fitted.model, dir.join("model.json")).expect("save model");
    (dir, log, cfg)
}

#[test]
fn shadow_off_serving_exposes_no_shadow_surface() {
    let (dir, log, cfg) = fixture("off");
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), dir.join("model.json"), log)
            .expect("checkpoint"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle,
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let (status, _, _) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200);
    let text = scrape(&addr);
    assert!(
        !text.contains("unimatch_shadow"),
        "shadow-off scrape leaked shadow series:\n{text}"
    );
    let (status, _, health) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = String::from_utf8(health).expect("utf8 healthz");
    assert!(!health.contains("\"shadow\""), "shadow-off healthz leaked the block: {health}");
}

#[test]
fn aa_shadow_mirrors_everything_with_perfect_overlap() {
    let (dir, log, cfg) = fixture("aa");
    let path = dir.join("model.json");
    let primary = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg.clone()), &path, log.clone())
            .expect("primary checkpoint"),
    );
    // A/A: the shadow serves the very same checkpoint and config
    let shadow = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &path, log).expect("shadow checkpoint"),
    );
    let server = Server::start_with_shadow(
        "127.0.0.1:0",
        primary.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
        Some(ShadowSpec::new(shadow, 1.0)),
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let fitted = primary.current();
    let num_items = fitted.fitted.num_items() as u32;

    // primary responses stay byte-identical to direct in-process calls
    let mut sent = 0f64;
    for t in 0..6u32 {
        let history: Vec<u32> = (0..3).map(|j| (t * 3 + j) % num_items).collect();
        let k = 3 + (t as usize % 3);
        let expected = recommend_body(k, &fitted.fitted.recommend_items(&history, k));
        let ids: Vec<String> = history.iter().map(u32::to_string).collect();
        let body = format!("{{\"history\":[{}],\"k\":{k}}}", ids.join(","));
        let (status, _, got) = request(&addr, "POST", "/recommend", body.as_bytes());
        assert_eq!(status, 200);
        assert_eq!(got, expected, "recommend {t} diverged with a shadow armed");
        sent += 1.0;
    }
    for t in 0..4u32 {
        let item = (t * 5) % num_items;
        let k = 2 + (t as usize % 3);
        let expected = target_body(k, &fitted.fitted.target_users(item, k));
        let body = format!("{{\"item\":{item},\"k\":{k}}}");
        let (status, _, got) = request(&addr, "POST", "/target", body.as_bytes());
        assert_eq!(status, 200);
        assert_eq!(got, expected, "target {t} diverged with a shadow armed");
        sent += 1.0;
    }

    // at sample rate 1.0 every answered query becomes a pair; A/A means
    // perfect overlap and zero score delta
    let text = await_pairs(&addr, sent);
    assert_eq!(metric_value(&text, "unimatch_shadow_sample_rate"), 1.0);
    assert_eq!(
        metric_value(&text, "unimatch_shadow_pairs_total{route=\"recommend\"}"),
        6.0
    );
    assert_eq!(metric_value(&text, "unimatch_shadow_pairs_total{route=\"target\"}"), 4.0);
    assert_eq!(metric_value(&text, "unimatch_shadow_dropped_total"), 0.0);
    assert_eq!(
        metric_value(&text, "unimatch_shadow_overlap_ratio"),
        1.0,
        "an A/A shadow must agree with the primary exactly"
    );
    assert_eq!(metric_value(&text, "unimatch_shadow_score_delta_mean"), 0.0);
    assert!(metric_value(&text, "unimatch_shadow_lag_us_count") >= sent);
    assert!(metric_value(&text, "unimatch_shadow_exec_us_count") >= sent);
    assert_eq!(metric_value(&text, "unimatch_shadow_model_version"), 1.0);

    // the healthz block reports the shadow deployment and its progress
    let (status, _, health) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = String::from_utf8(health).expect("utf8 healthz");
    assert!(health.contains("\"shadow\""), "healthz missing the shadow block: {health}");
    assert!(health.contains("\"sample_rate\":1"), "{health}");
    assert!(health.contains("\"pairs\":10"), "{health}");
    assert!(health.contains("\"dropped\":0"), "{health}");
    assert!(health.contains("\"overlap\":1"), "{health}");
}

#[test]
fn divergent_shadow_compares_without_perturbing_the_primary() {
    let (dir, log, cfg) = fixture("ab");
    let path_a = dir.join("model.json");
    let path_b = dir.join("b.json");
    // a different seed trains a genuinely different model for the shadow
    let model_b = UniMatch::new(UniMatchConfig { seed: 77, ..cfg.clone() }).fit(log.clone());
    save_model(&model_b.model, &path_b).expect("save b");

    let primary = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg.clone()), &path_a, log.clone())
            .expect("primary checkpoint"),
    );
    let shadow = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &path_b, log)
            .expect("shadow checkpoint"),
    );
    let server = Server::start_with_shadow(
        "127.0.0.1:0",
        primary.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
        Some(ShadowSpec::new(shadow, 1.0)),
    )
    .expect("bind");
    let addr = server.addr().to_string();
    let fitted = primary.current();

    let mut sent = 0f64;
    for t in 0..8u32 {
        let history = vec![t, t + 1, t + 2];
        let expected = recommend_body(5, &fitted.fitted.recommend_items(&history, 5));
        let body = format!("{{\"history\":[{},{},{}],\"k\":5}}", t, t + 1, t + 2);
        let (status, _, got) = request(&addr, "POST", "/recommend", body.as_bytes());
        assert_eq!(status, 200);
        assert_eq!(got, expected, "primary bytes must come from model A, never the shadow");
        sent += 1.0;
    }

    let text = await_pairs(&addr, sent);
    assert_eq!(metric_value(&text, "unimatch_shadow_dropped_total"), 0.0);
    let overlap = metric_value(&text, "unimatch_shadow_overlap_ratio");
    assert!((0.0..=1.0).contains(&overlap), "overlap ratio out of range: {overlap}");
    assert!(
        overlap < 1.0 || metric_value(&text, "unimatch_shadow_score_delta_mean") > 0.0,
        "two independently-trained models agreed bit-for-bit across 8 queries — \
         the paired comparison is not comparing the shadow's answers:\n{text}"
    );
}
