//! Concurrency stress: seeded clients fire mixed `/recommend` and
//! `/target` traffic — mixed `k`, mixed history lengths — at a server
//! with every optional plane armed (an A/A shadow mirroring every answer,
//! a brownout ladder whose thresholds this load never reaches) and a zero
//! batch window — batches are whatever queued behind the previous one —
//! while the model is hot-swapped A → B under them.
//!
//! The wire body carries no version, so every expected answer is computed
//! up front against both models, in process and single-threaded. A `200`
//! must be one of the two, byte for byte; a client that has seen B never
//! sees A again; nothing is shed, expired or refused; and the batch-size
//! histograms account for exactly the jobs that were answered.
//!
//! Two barriers pin the interleaving: the reload is sent once every
//! client has 50 answers (all from A) and while each goes on to fire 100
//! more across the swap; the last 50 wait for the reload's reply and must
//! all come from B.

mod common;

use common::{metric_value, request, scrape, tmp_dir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use unimatch_core::persist::save_model_with_marginals;
use unimatch_core::{ModelHandle, ServingState, UniMatch, UniMatchConfig};
use unimatch_data::DatasetProfile;
use unimatch_serve::{
    recommend_body, target_body, BrownoutSpec, ServeConfig, Server, ShadowSpec,
};

const CLIENTS: u64 = 8;
const REQUESTS: usize = 200;
/// Per client: answers before the reload is sent, and before its reply.
const RELOAD_SENT: usize = 50;
const RELOAD_DONE: usize = 150;

/// One request and what each model answers it with.
struct Case {
    path: &'static str,
    body: String,
    from_a: Vec<u8>,
    from_b: Vec<u8>,
}

fn case(rng: &mut StdRng, a: &ServingState, b: &ServingState) -> Case {
    let num_items = a.fitted.num_items() as u32;
    let k = rng.gen_range(1..=20usize);
    if rng.gen_bool(0.5) {
        // histories shorter and longer than the 8 ids the tower reads
        let history: Vec<u32> =
            (0..rng.gen_range(1..=12)).map(|_| rng.gen_range(0..num_items)).collect();
        let ids: Vec<String> = history.iter().map(u32::to_string).collect();
        let answer = |s: &ServingState| recommend_body(k, &s.fitted.recommend_items(&history, k));
        Case {
            path: "/recommend",
            body: format!("{{\"history\":[{}],\"k\":{k}}}", ids.join(",")),
            from_a: answer(a),
            from_b: answer(b),
        }
    } else {
        let item = rng.gen_range(0..num_items);
        let answer = |s: &ServingState| target_body(k, &s.fitted.target_users(item, k));
        Case {
            path: "/target",
            body: format!("{{\"item\":{item},\"k\":{k}}}"),
            from_a: answer(a),
            from_b: answer(b),
        }
    }
}

#[test]
fn mixed_traffic_across_a_hot_swap_is_answered_by_a_then_b_and_fully_accounted() {
    let dir = tmp_dir("stress");
    let log = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
    let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
    let path_a = dir.join("a.json");
    let path_b = dir.join("b.json");
    let model_a = UniMatch::new(cfg.clone()).fit(log.clone()).model;
    save_model_with_marginals(&model_a, None, &path_a).expect("save a");
    let seeded_b = UniMatchConfig { seed: 77, ..cfg.clone() };
    let model_b = UniMatch::new(seeded_b).fit(log.clone()).model;
    save_model_with_marginals(&model_b, None, &path_b).expect("save b");
    let open = |path| {
        Arc::new(
            ModelHandle::from_checkpoint(UniMatch::new(cfg.clone()), path, log.clone())
                .expect("checkpoint loads"),
        )
    };
    let (primary, shadow) = (open(&path_a), open(&path_a));
    let (a, b) = (primary.current(), open(&path_b).current());

    let server = Server::start_with_shadow(
        "127.0.0.1:0",
        primary,
        ServeConfig {
            batch_window: Duration::ZERO,
            // armed, and out of reach: eight clients never queue 1000 deep,
            // and nothing waits out the 2 s request deadline
            brownout: Some(
                BrownoutSpec::parse("drop-explore,shed;high=1000;low=4;up=1;interval-ms=5")
                    .expect("spec"),
            ),
            ..Default::default()
        },
        Some(ShadowSpec::new(shadow, 1.0)),
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let barrier = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let (a, b, addr, barrier) = (a.clone(), b.clone(), addr.clone(), barrier.clone());
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let cases: Vec<Case> = (0..REQUESTS).map(|_| case(&mut rng, &a, &b)).collect();
                let (mut seen_a, mut seen_b) = (0usize, 0usize);
                for (i, case) in cases.iter().enumerate() {
                    if i == RELOAD_SENT || i == RELOAD_DONE {
                        barrier.wait();
                    }
                    let site = format!("client {t} request {i}: {} {}", case.path, case.body);
                    let (status, _, got) = request(&addr, "POST", case.path, case.body.as_bytes());
                    assert_eq!(status, 200, "{site}: {}", String::from_utf8_lossy(&got));
                    let (is_a, is_b) = (got == case.from_a, got == case.from_b);
                    assert!(is_a || is_b, "{site}: neither model's bytes");
                    assert!(is_a || i >= RELOAD_SENT, "{site}: B before the reload was sent");
                    assert!(is_b || i < RELOAD_DONE, "{site}: A after the reload was answered");
                    assert!(is_b || seen_b == 0, "{site}: back to A after {seen_b} answers from B");
                    seen_a += usize::from(!is_b);
                    seen_b += usize::from(!is_a);
                }
                (seen_a, seen_b)
            })
        })
        .collect();

    barrier.wait(); // every client has RELOAD_SENT answers and keeps firing
    let reload = format!("{{\"checkpoint\":{:?}}}", path_b.to_str().expect("utf8 path"));
    let (status, _, body) = request(&addr, "POST", "/reload", reload.as_bytes());
    assert_eq!(status, 200, "reload: {}", String::from_utf8_lossy(&body));
    barrier.wait(); // from here every answer is B's

    for (t, client) in clients.into_iter().enumerate() {
        let (seen_a, seen_b) = client.join().expect("client thread");
        // the two models rank differently, so both phases are told apart
        assert!(seen_a > 0 && seen_b > 0, "client {t}: {seen_a} from A only, {seen_b} from B only");
    }

    // every 200 was one executed job: nothing expired, shed or invalid
    let metrics = scrape(&addr);
    let jobs = metric_value(&metrics, "unimatch_batch_size_sum{route=\"recommend\"}")
        + metric_value(&metrics, "unimatch_batch_size_sum{route=\"target\"}");
    assert_eq!(jobs, (CLIENTS as usize * REQUESTS) as f64, "{metrics}");
    assert_eq!(metric_value(&metrics, "unimatch_brownout_level"), 0.0);
    assert_eq!(metric_value(&metrics, "unimatch_model_version"), 2.0);

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
