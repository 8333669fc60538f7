//! Loopback end-to-end test of the serving subsystem: a real `Server` on
//! an ephemeral port, hammered by concurrent client threads, with a model
//! hot-swap in the middle of traffic.
//!
//! The core assertion is *byte identity*: every HTTP response body must
//! equal the bytes produced by serializing a direct in-process
//! `FittedUniMatch` call through the same writer — micro-batching and
//! k-grouping must be invisible to clients.

mod common;

use common::{metric_value, request, tmp_dir};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unimatch_core::persist::save_model_with_marginals;
use unimatch_core::{ModelHandle, UniMatch, UniMatchConfig};
use unimatch_data::DatasetProfile;
use unimatch_serve::{recommend_body, target_body, ServeConfig, Server};

#[test]
fn concurrent_serving_is_byte_identical_and_survives_reload() {
    let dir = tmp_dir("e2e_full");
    let log = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
    let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
    let model_a = UniMatch::new(cfg.clone()).fit(log.clone());
    let model_b = UniMatch::new(UniMatchConfig { seed: 77, ..cfg.clone() }).fit(log.clone());
    let path_a = dir.join("a.json");
    let path_b = dir.join("b.json");
    save_model_with_marginals(&model_a.model, None, &path_a).expect("save a");
    save_model_with_marginals(&model_b.model, None, &path_b).expect("save b");

    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &path_a, log).expect("initial checkpoint"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let num_items = handle.current().fitted.num_items() as u32;
    assert!(num_items > 16, "dataset too small for the test vectors");

    // -- phase 1: concurrent clients, responses byte-identical to direct calls
    let fitted_a = handle.current();
    let mut clients = Vec::new();
    for t in 0..8u32 {
        // /recommend: distinct histories and k so batches mix k-groups
        let history: Vec<u32> = (0..3 + t % 3).map(|j| (t * 5 + j) % num_items).collect();
        let k = 3 + (t as usize % 4);
        let expected = recommend_body(k, &fitted_a.fitted.recommend_items(&history, k));
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let ids: Vec<String> = history.iter().map(u32::to_string).collect();
            let body = format!("{{\"history\":[{}],\"k\":{k}}}", ids.join(","));
            let (status, _, got) = request(&addr, "POST", "/recommend", body.as_bytes());
            assert_eq!(status, 200, "recommend {t}: {}", String::from_utf8_lossy(&got));
            assert_eq!(got, expected, "recommend {t} not byte-identical");
        }));
    }
    for t in 0..8u32 {
        // /target: distinct items and k
        let item = (t * 7) % num_items;
        let k = 2 + (t as usize % 4);
        let expected = target_body(k, &fitted_a.fitted.target_users(item, k));
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let body = format!("{{\"item\":{item},\"k\":{k}}}");
            let (status, _, got) = request(&addr, "POST", "/target", body.as_bytes());
            assert_eq!(status, 200, "target {t}: {}", String::from_utf8_lossy(&got));
            assert_eq!(got, expected, "target {t} not byte-identical");
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    // a repeated history answers the same bytes both times
    let history = [1u32, 2, 3];
    let expected = recommend_body(5, &fitted_a.fitted.recommend_items(&history, 5));
    for _ in 0..2 {
        let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
        assert_eq!(status, 200);
        assert_eq!(got, expected);
    }

    // -- phase 2: hot-swap mid-traffic; no admitted request may fail
    let stop = Arc::new(AtomicBool::new(false));
    let served_so_far = Arc::new(AtomicU64::new(0));
    let hammer = {
        let (addr, stop, served_so_far) = (addr.clone(), stop.clone(), served_so_far.clone());
        std::thread::spawn(move || {
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (status, _, body) =
                    request(&addr, "POST", "/recommend", b"{\"history\":[4,5,6],\"k\":4}");
                assert_eq!(
                    status,
                    200,
                    "request failed during reload: {}",
                    String::from_utf8_lossy(&body)
                );
                served += 1;
                served_so_far.store(served, Ordering::Relaxed);
            }
            served
        })
    };
    // swap only once traffic is flowing, so the reload lands mid-traffic
    // even when a busy box schedules the hammer late
    while served_so_far.load(Ordering::Relaxed) == 0 && !hammer.is_finished() {
        std::thread::yield_now();
    }
    let reload_body = format!("{{\"checkpoint\":{:?}}}", path_b.to_str().expect("utf8 path"));
    let (status, _, body) = request(&addr, "POST", "/reload", reload_body.as_bytes());
    assert_eq!(status, 200, "reload: {}", String::from_utf8_lossy(&body));
    let body = String::from_utf8(body).expect("utf8 reload body");
    assert!(body.contains("\"version\":2"), "{body}");
    stop.store(true, Ordering::Relaxed);
    let served_during_reload = hammer.join().expect("hammer thread");
    assert!(served_during_reload > 0, "hammer never got a request through");

    // post-swap responses come from model B (and stay byte-identical)
    let fitted_b = handle.current();
    assert_eq!(fitted_b.version, 2);
    let expected_b = recommend_body(5, &fitted_b.fitted.recommend_items(&history, 5));
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200);
    assert_eq!(got, expected_b, "post-reload response must come from the new model");
    assert_ne!(expected_b, expected, "models a and b should rank differently");

    // -- phase 3: malformed input and unknown routes
    let (status, _, _) = request(&addr, "POST", "/recommend", b"{not json");
    assert_eq!(status, 400);
    let (status, _, _) = request(&addr, "POST", "/recommend", b"{\"history\":[],\"k\":3}");
    assert_eq!(status, 400, "empty history must be rejected");
    let (status, _, body) =
        request(&addr, "POST", "/recommend", format!("{{\"history\":[{num_items}]}}").as_bytes());
    assert_eq!(status, 400, "out-of-vocabulary history must be rejected");
    assert!(String::from_utf8_lossy(&body).contains("vocabulary"));
    let (status, _, _) = request(&addr, "POST", "/target", b"{\"k\":3}");
    assert_eq!(status, 400, "missing item must be rejected");
    let (status, _, _) = request(&addr, "GET", "/recommend", b"");
    assert_eq!(status, 405);
    let (status, _, _) = request(&addr, "GET", "/nope", b"");
    assert_eq!(status, 404);
    let (status, _, _) = request(&addr, "POST", "/reload", b"{\"checkpoint\":\"/missing.json\"}");
    assert_eq!(status, 500, "reload of a missing checkpoint must fail without crashing");
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200, "failed reload must leave the server serving");
    assert_eq!(got, expected_b);

    // -- phase 4: the metrics endpoint reflects everything above
    let (status, _, metrics) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(metric_value(&metrics, "unimatch_requests_total{route=\"recommend\"}") >= 14.0);
    assert!(metric_value(&metrics, "unimatch_requests_total{route=\"target\"}") >= 8.0);
    assert!(metric_value(&metrics, "unimatch_requests_total{route=\"reload\"}") >= 2.0);
    assert!(metric_value(&metrics, "unimatch_responses_total{class=\"4xx\"}") >= 4.0);
    assert!(
        metric_value(&metrics, "unimatch_batch_size_count{route=\"recommend\"}") >= 1.0,
        "batch-size histogram must have observations"
    );
    assert!(metric_value(&metrics, "unimatch_reloads_total") >= 1.0);
    assert_eq!(metric_value(&metrics, "unimatch_model_version"), 2.0);

    // -- phase 5: graceful shutdown; the port stops accepting
    drop(server);
    assert!(TcpStream::connect(&addr).is_err(), "server still accepting after shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// A parsed exposition: series name with labels → value, in file order.
fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    let mut series = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (name_part, value_part) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("line {ln} has no value: {line:?}"));
        let value: f64 = value_part
            .parse()
            .unwrap_or_else(|_| panic!("line {ln} value not a number: {line:?}"));
        assert!(!value.is_nan(), "line {ln} value is NaN: {line:?}");
        let bare = name_part.split('{').next().unwrap();
        assert!(
            !bare.is_empty()
                && bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "line {ln} has a malformed metric name: {line:?}"
        );
        if let Some(open) = name_part.find('{') {
            assert!(name_part.ends_with('}'), "line {ln} labels not closed: {line:?}");
            let labels = &name_part[open + 1..name_part.len() - 1];
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("line {ln} label without '=': {line:?}"));
                assert!(
                    k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "line {ln} bad label key {k:?}"
                );
                assert!(
                    v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                    "line {ln} label value not quoted: {line:?}"
                );
            }
        }
        series.push((name_part.to_string(), value));
    }
    series
}

/// Checks every histogram family: buckets cumulative and non-decreasing,
/// terminated by `le="+Inf"`, with a matching `_count` series.
fn check_histograms(series: &[(String, f64)]) {
    let mut last: Option<(String, f64)> = None; // (family key, running bucket count)
    let mut inf_counts: Vec<(String, f64)> = Vec::new();
    for (name, value) in series {
        if let Some(open) = name.find("_bucket{") {
            let family = format!(
                "{}{}",
                &name[..open],
                name[open + 7..].replace(['{', '}'], ",")
            );
            let family: String =
                family.split(',').filter(|p| !p.starts_with("le=")).collect::<Vec<_>>().join(",");
            match &mut last {
                Some((prev, running)) if *prev == family => {
                    assert!(
                        *value >= *running,
                        "histogram {name}: bucket {value} below previous cumulative {running}"
                    );
                    *running = *value;
                }
                _ => last = Some((family.clone(), *value)),
            }
            if name.contains("le=\"+Inf\"") {
                inf_counts.push((family, *value));
            }
        }
    }
    assert!(!inf_counts.is_empty(), "exposition has no histogram families");
    for (family, inf) in inf_counts {
        let base = family.split(',').next().unwrap().to_string();
        let labels: Vec<&str> = family.split(',').skip(1).filter(|s| !s.is_empty()).collect();
        let count = series
            .iter()
            .find(|(n, _)| {
                n.starts_with(&format!("{base}_count")) && labels.iter().all(|l| n.contains(l))
            })
            .unwrap_or_else(|| panic!("histogram {family} has no _count series"));
        assert_eq!(count.1, inf, "histogram {family}: _count must equal the +Inf bucket");
        assert!(
            series.iter().any(|(n, _)| n.starts_with(&format!("{base}_sum"))),
            "histogram {family} has no _sum series"
        );
    }
}

/// Serializes the tests that flip the process-global obs flag, so one
/// test disabling collection cannot drop another test's spans mid-run.
static OBS_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn metrics_exposition_is_well_formed_and_counters_are_monotonic() {
    let _obs_guard = OBS_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("e2e_metrics");
    let log = DatasetProfile::EComp.generate(0.1, 31).filter_min_interactions(2);
    let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
    let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
    let path = dir.join("m.json");
    save_model_with_marginals(&fitted.model, None, &path).expect("save");
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &path, log).expect("checkpoint"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle,
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // With observability on, the process-global registry series (ANN search
    // spans fired by the recommend path) must appear in the same scrape as
    // the server's own series — the "one endpoint" contract.
    unimatch_obs::set_enabled(true);
    for _ in 0..3 {
        let (status, _, _) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
        assert_eq!(status, 200);
    }
    let (status, _, first) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let first = String::from_utf8(first).expect("utf8 metrics");

    let (status, _, _) = request(&addr, "POST", "/recommend", b"{\"history\":[2,3,4],\"k\":4}");
    assert_eq!(status, 200);
    let (status, _, _) = request(&addr, "POST", "/recommend", b"{not json");
    assert_eq!(status, 400);
    let (status, _, second) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let second = String::from_utf8(second).expect("utf8 metrics");
    unimatch_obs::set_enabled(false);

    // Every line of both scrapes is structurally well-formed.
    let s1 = parse_exposition(&first);
    let s2 = parse_exposition(&second);
    check_histograms(&s1);
    check_histograms(&s2);

    // Serving and registry series share the scrape.
    for required in
        ["unimatch_requests_total{route=\"recommend\"}", "unimatch_ann_searches_total"]
    {
        assert!(
            s2.iter().any(|(n, _)| n.starts_with(required)),
            "scrape missing {required}:\n{second}"
        );
    }

    // Counters and histogram accumulators never go backwards between
    // scrapes; the exercised request counter strictly advances.
    let lookup = |set: &[(String, f64)], name: &str| {
        set.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    };
    let mut compared = 0;
    for (name, v1) in &s1 {
        let base = name.split('{').next().unwrap();
        let monotonic = base.ends_with("_total")
            || base.ends_with("_count")
            || base.ends_with("_sum")
            || base.ends_with("_bucket");
        if !monotonic {
            continue;
        }
        if let Some(v2) = lookup(&s2, name) {
            assert!(v2 >= *v1, "{name} went backwards: {v1} -> {v2}");
            compared += 1;
        }
    }
    assert!(compared > 10, "too few monotonic series compared ({compared})");
    let key = "unimatch_requests_total{route=\"recommend\"}";
    assert!(
        lookup(&s2, key).expect("recommend counter") > lookup(&s1, key).expect("recommend counter"),
        "request counter must strictly increase after a request"
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A sharded server must advertise its fan-out on `/healthz` and expose
/// the per-shard search and merge histograms through the same `/metrics`
/// scrape as every other series, with responses still byte-identical to
/// a direct in-process call on the sharded index.
#[test]
fn sharded_serving_reports_fanout_and_shard_metrics() {
    let _obs_guard = OBS_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("e2e_sharded");
    let log = DatasetProfile::EComp.generate(0.1, 33).filter_min_interactions(2);
    let cfg = UniMatchConfig {
        max_seq_len: 8,
        epochs_per_month: 1,
        retriever: unimatch_core::RetrieverKind::Exact,
        shards: 3,
        ..Default::default()
    };
    let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
    let path = dir.join("m.json");
    save_model_with_marginals(&fitted.model, None, &path).expect("save");
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(cfg), &path, log).expect("checkpoint"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let (status, _, health) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = String::from_utf8(health).expect("utf8 healthz");
    assert!(health.contains("\"shards\":3"), "healthz must report the fan-out: {health}");
    assert!(health.contains("\"retriever\":\"bruteforce\""), "{health}");

    unimatch_obs::set_enabled(true);
    let fitted = handle.current();
    let history = [1u32, 2, 3];
    let expected = recommend_body(5, &fitted.fitted.recommend_items(&history, 5));
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200);
    assert_eq!(got, expected, "sharded serving must stay byte-identical");
    let (status, _, _) = request(&addr, "POST", "/target", b"{\"item\":1,\"k\":5}");
    assert_eq!(status, 200);
    let (status, _, scrape) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    unimatch_obs::set_enabled(false);
    let scrape = String::from_utf8(scrape).expect("utf8 metrics");

    // Every shard's search span and the merge span render as well-formed
    // histogram families in the unified exposition.
    let series = parse_exposition(&scrape);
    check_histograms(&series);
    for shard in 0..3 {
        let family = format!("unimatch_shard_search_us_count{{shard=\"{shard}\"}}");
        assert!(
            metric_value(&scrape, &family) >= 1.0,
            "shard {shard} recorded no searches:\n{scrape}"
        );
    }
    assert!(
        metric_value(&scrape, "unimatch_shard_merge_us_count") >= 1.0,
        "merge span missing from scrape:\n{scrape}"
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A chain-armed server must advertise its spec on `/healthz`, serve
/// byte-identical (and repeatable) reranked responses, expose the
/// per-stage latency spans on the unified `/metrics` scrape, and refuse
/// a reload whose checkpoint vocabulary invalidates the configured
/// business rules — with the old version serving untouched afterwards.
#[test]
fn reranked_serving_is_byte_identical_and_reload_guards_rule_vocab() {
    let _obs_guard = OBS_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("e2e_rerank");
    // Checkpoint A is trained on a larger log than the serving log, so
    // its item vocabulary strictly contains the rules' ids; checkpoint B
    // (small log) cannot serve the denied item — reloading it while the
    // rules are armed must be rejected.
    let big_log = DatasetProfile::EComp.generate(0.15, 8).filter_min_interactions(3);
    let small_log = DatasetProfile::EComp.generate(0.05, 3).filter_min_interactions(3);
    let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
    let model_a = UniMatch::new(cfg.clone()).fit(big_log);
    let model_b = UniMatch::new(cfg.clone()).fit(small_log.clone());
    let big_items = model_a.num_items() as u32;
    let small_items = model_b.num_items() as u32;
    assert!(small_items < big_items, "test needs distinct vocabulary sizes");
    let path_a = dir.join("a.json");
    let path_b = dir.join("b.json");
    save_model_with_marginals(&model_a.model, None, &path_a).expect("save a");
    save_model_with_marginals(&model_b.model, None, &path_b).expect("save b");

    // Deny an id only the big checkpoint can serve, and cap a category
    // over the small vocabulary so both rule stages have material.
    let denied = big_items - 1;
    let categories: Vec<String> =
        (0..small_items).map(|id| format!("[{},{}]", id, id % 5)).collect();
    let rules_json =
        format!("{{\"deny\":[{denied}],\"categories\":[{}]}}", categories.join(","));
    let rules = unimatch_rerank::BusinessRules::parse(
        &unimatch_data::json::Json::parse(rules_json.as_bytes()).expect("json"),
    )
    .expect("rules");
    let spec = "debias@0.5,mmr@0.3,filter,explore@0.1";
    let serve_cfg = UniMatchConfig {
        rerank: unimatch_core::RerankConfig {
            spec: spec.to_string(),
            rules: Some(Arc::new(rules)),
        },
        ..cfg
    };
    let handle = Arc::new(
        ModelHandle::from_checkpoint(UniMatch::new(serve_cfg), &path_a, small_log)
            .expect("checkpoint A must satisfy the rules vocabulary"),
    );
    let server = Server::start(
        "127.0.0.1:0",
        handle.clone(),
        ServeConfig { batch_window: Duration::from_millis(1), ..Default::default() },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // /healthz advertises the canonical chain spec.
    let (status, _, health) = request(&addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = String::from_utf8(health).expect("utf8 healthz");
    assert!(health.contains(&format!("\"rerank\":\"{spec}\"")), "{health}");

    // Reranked responses are byte-identical to the direct call and
    // repeatable — the seeded chain is a pure function of the request.
    unimatch_obs::set_enabled(true);
    let fitted = handle.current();
    let history = [1u32, 2, 3];
    let expected = recommend_body(5, &fitted.fitted.recommend_items(&history, 5));
    for round in 0..2 {
        let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
        assert_eq!(status, 200);
        assert_eq!(got, expected, "round {round} diverged from the direct chained call");
    }
    let expected_t = target_body(4, &fitted.fitted.target_users(2, 4));
    let (status, _, got) = request(&addr, "POST", "/target", b"{\"item\":2,\"k\":4}");
    assert_eq!(status, 200);
    assert_eq!(got, expected_t, "target path must run the same chain");

    // Per-stage latency spans appear on the unified scrape.
    let (status, _, scrape) = request(&addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    unimatch_obs::set_enabled(false);
    let scrape = String::from_utf8(scrape).expect("utf8 metrics");
    check_histograms(&parse_exposition(&scrape));
    for stage in ["debias", "mmr", "filter", "explore"] {
        let family = format!("unimatch_rerank_stage_us_count{{stage=\"{stage}\"}}");
        assert!(
            metric_value(&scrape, &family) >= 1.0,
            "stage {stage} recorded no spans:\n{scrape}"
        );
    }

    // Reloading a checkpoint whose vocabulary cannot satisfy the armed
    // rules must fail, leave the version untouched, and keep serving the
    // old model byte-for-byte.
    let reload_body = format!("{{\"checkpoint\":{:?}}}", path_b.to_str().expect("utf8 path"));
    let (status, _, body) = request(&addr, "POST", "/reload", reload_body.as_bytes());
    assert_eq!(status, 500, "vocab-invalidating reload must be rejected: {}",
        String::from_utf8_lossy(&body));
    assert!(
        String::from_utf8_lossy(&body).contains("rules"),
        "error should name the rules: {}",
        String::from_utf8_lossy(&body)
    );
    assert_eq!(handle.version(), 1, "failed reload must not bump the version");
    let (status, _, got) = request(&addr, "POST", "/recommend", b"{\"history\":[1,2,3],\"k\":5}");
    assert_eq!(status, 200);
    assert_eq!(got, expected, "old version must keep serving after a rejected reload");

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
