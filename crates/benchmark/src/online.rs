//! The online phase: load the month's checkpoint into the workload's
//! deployment, start the real server on a loopback port in this process,
//! and offer it the workload's traffic over HTTP.

use std::io::{self, Cursor};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use unimatch_ann::{AnnIndex, BruteForceIndex, RowFormat};
use unimatch_core::persist::{load_checkpoint_with_format_and_retry, RetryPolicy};
use unimatch_core::serving::ServingState;
use unimatch_core::{ModelHandle, RetrieverKind, UniMatch};
use unimatch_data::json::Json;
use unimatch_data::InteractionLog;
use unimatch_serve::http::{read_request, write_response};
use unimatch_serve::{recommend_body, target_body, ServeConfig, Server};

use crate::client::{self, Sample};
use crate::cycle::{deploy_framework, Options, Outcome};
use crate::inputs::{self, Corpus, Query, Request};
use crate::spec::Offer;
use crate::stats::{mean, median, percentile, ratio, spread_note};
use crate::trace::Recorder;

/// Answers compared against the in-process oracle, per route.
const CHECKED_PER_ROUTE: usize = 500;

/// Below this recall@10 against the exact oracle a run fails. A floor
/// that catches a broken index, not a quality target: the default HNSW
/// configuration reaches about 0.90 on trained embeddings, and how that
/// moves is what the `recall_at_10` metric and its bound are for.
const RECALL_FLOOR: f64 = 0.8;

/// Deployments brought up per untraced pass whatever they cost, and the
/// total set-up seconds after which no further round brings one up.
const MIN_SET_UPS: usize = 3;
const SET_UP_CAP_S: f64 = 1.0;

/// Request ids of the replay spans start here, clear of the HTTP spans'.
const REPLAY_REQUESTS: u64 = 1_000_000_000;

/// A deployment that answers.
pub struct Online {
    server: Server,
    addr: String,
}

/// What bringing a deployment up cost.
struct SetUp {
    /// Checkpoint open to first `/healthz` 200.
    total_s: f64,
    /// `ModelHandle::from_checkpoint` alone.
    from_checkpoint_s: f64,
}

/// `from_checkpoint` + `Server::start` + first `/healthz` 200, timed.
fn bring_up(fw: &UniMatch, ckpt: &Path, log: InteractionLog) -> io::Result<(Online, SetUp)> {
    let t0 = Instant::now();
    let handle = Arc::new(ModelHandle::from_checkpoint(fw.clone(), ckpt, log)?);
    let from_checkpoint_s = t0.elapsed().as_secs_f64();
    let server = Server::start("127.0.0.1:0", handle, ServeConfig::default())?;
    let addr = server.addr().to_string();
    let mut tries = 0;
    while client::get(&addr, "/healthz").status != 200 {
        tries += 1;
        if tries > 1_000 {
            return Err(io::Error::other("server never answered /healthz"));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let total_s = t0.elapsed().as_secs_f64();
    Ok((
        Online { server, addr },
        SetUp {
            total_s,
            from_checkpoint_s,
        },
    ))
}

/// One offered interval and what came back.
struct Load {
    requests: Vec<Request>,
    samples: Vec<Sample>,
    warmup_s: f64,
    measured_s: f64,
}

impl Load {
    /// Samples sent (or due) inside the measured interval.
    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.at_s >= self.warmup_s)
    }

    /// Latencies of the measured `200`s of one route.
    fn latencies(&self, recommend: bool) -> Vec<f64> {
        self.measured()
            .filter(|s| s.status == 200 && self.requests[s.request].is_recommend() == recommend)
            .map(|s| s.latency_us)
            .collect()
    }

    /// Latencies of the measured `200`s of both routes.
    fn all_latencies(&self) -> Vec<f64> {
        self.measured()
            .filter(|s| s.status == 200)
            .map(|s| s.latency_us)
            .collect()
    }
}

/// Generates stream `stream` of the seed's requests and offers it for
/// `duration_s`, the first `warmup_s` of which are discarded.
fn offer(
    opts: &Options,
    online: &Online,
    duration_s: f64,
    warmup_s: f64,
    stream: u64,
    rec: &Recorder,
) -> Load {
    let traffic = &opts.workload.traffic;
    let state = online.server.model().current();
    let fitted = &state.fitted;
    let schedule = match traffic.offer {
        Offer::Paced { rate_rps } => {
            inputs::poisson_schedule(opts.seed, stream, rate_rps, duration_s)
        }
        Offer::Closed => Vec::new(),
    };
    // closed loop: more distinct histories than the embedding cache holds,
    // so cycling through them never turns a unique history into a hit
    let n = match traffic.offer {
        Offer::Paced { .. } => schedule.len().max(1),
        Offer::Closed if opts.smoke => 2_048,
        Offer::Closed => 16_384,
    };
    let requests = inputs::requests(
        opts.seed,
        stream,
        n,
        traffic,
        fitted.user_pool.histories(),
        fitted.num_items() as u32,
        fitted.max_seq_len(),
    );
    let samples = client::drive(
        &online.addr,
        &requests,
        traffic.offer,
        &schedule,
        duration_s,
        4,
        rec,
    );
    Load {
        requests,
        samples,
        warmup_s,
        measured_s: duration_s - warmup_s,
    }
}

fn count_operations(load: &Load, out: &mut Outcome) {
    out.attempted += load.samples.len() as u64;
    let failed = load.samples.iter().filter(|s| s.status != 200).count() as u64;
    out.failed += failed;
    if failed > 0 {
        out.failures.push(format!(
            "{failed} of {} requests were not answered 200",
            load.samples.len()
        ));
    }
}

/// Ids of an answer body, in order.
fn answer_ids(body: &[u8], key: &str) -> Option<Vec<u32>> {
    let doc = Json::parse(body).ok()?;
    doc.get(key)?
        .as_array()?
        .iter()
        .map(|e| Some(e.get("id")?.as_u64()? as u32))
        .collect()
}

/// Compares up to [`CHECKED_PER_ROUTE`] kept answers per route with the
/// same query run in-process through the deployment's pipeline. On an
/// exact deployment the bytes must be equal; on an approximate one (whose
/// chain is the identity) the oracle is a flat exact scan of the same
/// store. Returns recall@10 of the HTTP answers against the oracle.
fn check_answers(opts: &Options, loads: &[Load], state: &ServingState, out: &mut Outcome) -> f64 {
    let fitted = &state.fitted;
    let exact = opts.workload.deploy.retriever == RetrieverKind::Exact;
    assert!(
        exact || opts.workload.deploy.chain.is_empty(),
        "approximate oracle needs no chain"
    );
    let item_scan = BruteForceIndex::over(fitted.item_store().clone());
    let user_scan = BruteForceIndex::over(fitted.user_store().clone());
    let (mut found, mut wanted) = (0usize, 0usize);
    let mut checked = [0usize; 2];
    for (load, sample) in loads
        .iter()
        .flat_map(|l| l.samples.iter().map(move |s| (l, s)))
    {
        let (Some(body), 200) = (&sample.body, sample.status) else {
            continue;
        };
        let request = &load.requests[sample.request];
        let route = usize::from(request.is_recommend());
        if checked[route] >= CHECKED_PER_ROUTE {
            continue;
        }
        checked[route] += 1;
        let k = request.k;
        let (expected, key, oracle): (Vec<u8>, &str, Vec<u32>) = match &request.query {
            Query::Recommend(history) => {
                let pipeline = fitted.item_pipeline();
                let query = pipeline.embed_one(history);
                let hits = pipeline.run_one(&query, k);
                let oracle = if exact {
                    hits.iter().take(10).map(|h| h.id).collect()
                } else {
                    item_scan.search(&query, 10).iter().map(|h| h.id).collect()
                };
                (recommend_body(k, &hits), "items", oracle)
            }
            Query::Target(item) => {
                let pipeline = fitted.user_pipeline();
                let query = pipeline.gather(&[*item]);
                let users = pipeline.translate(pipeline.run_one(&query, k));
                let oracle = if exact {
                    users.iter().take(10).map(|u| u.0).collect()
                } else {
                    let store = fitted.user_store();
                    let hits = user_scan.search(&query, 10);
                    hits.iter()
                        .map(|h| store.id_of_row(h.id as usize))
                        .collect()
                };
                (target_body(k, &users), "users", oracle)
            }
        };
        if exact {
            out.check(*body == expected, || {
                format!(
                    "request {} body differs from the in-process answer",
                    sample.request
                )
            });
        }
        match answer_ids(body, key) {
            Some(ids) => {
                let top: Vec<u32> = ids.into_iter().take(10).collect();
                found += oracle.iter().filter(|id| top.contains(id)).count();
                wanted += oracle.len();
            }
            None => out.check(false, || {
                format!("request {} body is not an answer", sample.request)
            }),
        }
    }
    out.note(
        "online.checked_answers",
        format!("{} recommend, {} target", checked[1], checked[0]),
    );
    ratio(found as f64, wanted as f64)
}

/// The untraced online phase, run a slice at a time: the deployment is
/// brought up again at the start of each of the first rounds (the median
/// is `setup_s`), and every round offers one slice of traffic, so the
/// pooled latencies sample the whole run.
pub struct OnlinePhase {
    fw: UniMatch,
    online: Option<Online>,
    setup_s: Vec<f64>,
    loads: Vec<Load>,
}

impl OnlinePhase {
    /// Nothing is deployed until the first [`OnlinePhase::deploy`].
    pub fn new(opts: &Options, corpus: &Corpus) -> OnlinePhase {
        let fw = deploy_framework(
            &opts.workload.deploy,
            RowFormat::F32,
            opts.seed,
            corpus.log.num_items(),
        );
        OnlinePhase {
            fw,
            online: None,
            setup_s: Vec::new(),
            loads: Vec::new(),
        }
    }

    /// Whether the next round should bring the deployment up again: always
    /// for the first `MIN_SET_UPS`, after that only while set-up has cost
    /// less than `SET_UP_CAP_S` in total — so a 60 ms exact deployment is
    /// timed every round and a 3 s HNSW build three times.
    pub fn wants_set_up(&self) -> bool {
        self.setup_s.len() < MIN_SET_UPS || self.setup_s.iter().sum::<f64>() < SET_UP_CAP_S
    }

    /// Shuts the current deployment down, if any, and brings a new one up
    /// from the checkpoint, timed — what a monthly roll-out does.
    pub fn deploy(&mut self, corpus: &Corpus, ckpt: &Path) -> io::Result<()> {
        drop(self.online.take());
        let (up, cost) = bring_up(&self.fw, ckpt, corpus.log.clone())?;
        self.setup_s.push(cost.total_s);
        self.online = Some(up);
        Ok(())
    }

    /// Offers `slice_s` seconds of the workload's traffic; the first tenth
    /// (connections and caches settling after the pause) is discarded.
    pub fn slice(&mut self, opts: &Options, round: u64, slice_s: f64, out: &mut Outcome) {
        let online = self
            .online
            .as_ref()
            .expect("deployed before the first slice");
        let load = offer(
            opts,
            online,
            slice_s,
            0.1 * slice_s,
            round,
            &Recorder::new(false),
        );
        count_operations(&load, out);
        self.loads.push(load);
    }

    /// Reports what the client saw over all slices and checks the answers.
    pub fn finish(self, opts: &Options, out: &mut Outcome) -> io::Result<()> {
        let w = opts.workload;
        out.set("setup_s", median(&self.setup_s));
        let ms: Vec<f64> = self.setup_s.iter().map(|s| s * 1e3).collect();
        out.note(
            "online.set_up_ms",
            format!("{} set-ups: {}", ms.len(), spread_note(&ms)),
        );
        for (recommend, p50) in [(true, "recommend_p50_us"), (false, "target_p50_us")] {
            let lat: Vec<f64> = self
                .loads
                .iter()
                .flat_map(|l| l.latencies(recommend))
                .collect();
            if lat.is_empty() {
                return Err(io::Error::other(
                    "a route got no 200 in the measured intervals",
                ));
            }
            out.set(p50, median(&lat));
            let route = if recommend { "recommend" } else { "target" };
            // the tail is printed, not gated: on a shared box it is the
            // neighbours' bursts, and moved by 10-40% between runs
            out.note(
                format!("online.{route}_latency_us"),
                format!(
                    "{} samples: p50 {:.1}, p90 {:.1}, p99 {:.1}",
                    lat.len(),
                    median(&lat),
                    percentile(&lat, 0.9),
                    percentile(&lat, 0.99)
                ),
            );
            // the p50 of each slice, so drift within the run shows
            let by_slice: Vec<String> = self
                .loads
                .iter()
                .map(|l| {
                    let lat = l.latencies(recommend);
                    if lat.is_empty() {
                        "-".to_string()
                    } else {
                        format!("{:.1}", median(&lat))
                    }
                })
                .collect();
            out.note(
                format!("online.{route}_p50_us_by_slice"),
                by_slice.join(" "),
            );
        }
        // pooled over the run; slice by slice beside it, so that a stall of
        // the box (they come, and last up to a second) shows as one
        let good_in = |l: &Load| {
            l.measured()
                .filter(|s| s.status == 200 && s.latency_us <= w.traffic.limit_us)
                .count() as f64
        };
        let measured_s: f64 = self.loads.iter().map(|l| l.measured_s).sum();
        out.set(
            "goodput_rps",
            self.loads.iter().map(good_in).sum::<f64>() / measured_s,
        );
        let by_slice: Vec<String> = self
            .loads
            .iter()
            .map(|l| format!("{:.1}", good_in(l) / l.measured_s))
            .collect();
        out.note("online.goodput_rps_by_slice", by_slice.join(" "));
        if let Offer::Paced { .. } = w.traffic.offer {
            let late: Vec<f64> = self
                .loads
                .iter()
                .flat_map(|l| l.measured().map(|s| s.lateness_us))
                .collect();
            let p99 = percentile(&late, 0.99);
            out.note("online.lateness_p99_us", format!("{p99:.1}"));
            if p99 > 1_000.0 {
                out.warnings
                    .push(format!("the generator ran late: lateness p99 {p99:.0} us"));
            }
        }

        let online = self.online.expect("deployed before the first slice");
        let state = online.server.model().current();
        let recall = check_answers(opts, &self.loads, &state, out);
        out.check(recall >= RECALL_FLOOR, || {
            format!("online recall_at_10 {recall:.4} below {RECALL_FLOOR}")
        });
        // offline-audience reports the i8-vs-f32 recall of its own phase instead
        if w.name != "offline-audience" {
            out.set("recall_at_10", recall);
        }
        out.note("online.recall_at_10", format!("{recall:.4}"));
        online.server.shutdown();
        Ok(())
    }
}

/// Sum of the values of every series `name` whose label set contains
/// `label` in an exposition body.
fn scrape(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(['{', ' ']))
                && l.contains(label)
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Mean of a histogram family over the interval between two scrapes.
fn scrape_mean(before: &str, after: &str, family: &str, label: &str) -> f64 {
    let delta = |suffix: &str| {
        let name = format!("{family}{suffix}");
        scrape(after, &name, label) - scrape(before, &name, label)
    };
    ratio(delta("_sum"), delta("_count"))
}

/// One replayed stage timing.
struct Stage {
    recommend: bool,
    name: &'static str,
    us: f64,
}

/// Runs recorded requests through the public functions the server calls,
/// one root span per request and one child per stage.
fn replay(load: &Load, state: &ServingState, limit: usize, rec: &Recorder) -> Vec<Stage> {
    let fitted = &state.fitted;
    let mut stages = Vec::new();
    for (i, request) in load.requests.iter().take(limit).enumerate() {
        let id = REPLAY_REQUESTS + i as u64;
        let recommend = request.is_recommend();
        let root = rec.open_root("replay", id, Instant::now());
        let mut stage = |name: &'static str, us: f64| {
            stages.push(Stage {
                recommend,
                name,
                us,
            })
        };
        let (parsed, us) = rec.timed("serve.http_parse", id, Some(root), || {
            read_request(&mut Cursor::new(&request.wire)).expect("recorded request parses")
        });
        stage("serve.http_parse", us);
        let (_, us) = rec.timed("data.json_parse", id, Some(root), || {
            Json::parse(&parsed.body).expect("recorded body parses")
        });
        stage("data.json_parse", us);
        let k = request.k;
        let body = match &request.query {
            Query::Recommend(history) => {
                let p = fitted.item_pipeline();
                let (query, us) =
                    rec.timed("core.embed_one", id, Some(root), || p.embed_one(history));
                stage("core.embed_one", us);
                let (hits, us) = rec.timed("ann.retrieve_items", id, Some(root), || {
                    p.retrieve_one(&query, p.fetch_k(k))
                });
                stage("ann.retrieve_items", us);
                let (hits, us) = rec.timed("rerank.apply_items", id, Some(root), || {
                    p.rerank(&query, hits, k)
                });
                stage("rerank.apply_items", us);
                let (body, us) =
                    rec.timed("serve.encode", id, Some(root), || recommend_body(k, &hits));
                stage("serve.encode", us);
                body
            }
            Query::Target(item) => {
                let p = fitted.user_pipeline();
                let (query, us) = rec.timed("core.gather", id, Some(root), || p.gather(&[*item]));
                stage("core.gather", us);
                let (hits, us) = rec.timed("ann.retrieve_users", id, Some(root), || {
                    p.retrieve_one(&query, p.fetch_k(k))
                });
                stage("ann.retrieve_users", us);
                let (hits, us) = rec.timed("rerank.apply_users", id, Some(root), || {
                    p.rerank(&query, hits, k)
                });
                stage("rerank.apply_users", us);
                let (users, us) = rec.timed("core.translate", id, Some(root), || p.translate(hits));
                stage("core.translate", us);
                let (body, us) =
                    rec.timed("serve.encode", id, Some(root), || target_body(k, &users));
                stage("serve.encode", us);
                body
            }
        };
        let (_, us) = rec.timed("serve.http_write", id, Some(root), || {
            let mut wire = Vec::with_capacity(body.len() + 128);
            write_response(&mut wire, 200, "application/json", &body).expect("write to a Vec");
            std::hint::black_box(wire)
        });
        stage("serve.http_write", us);
        rec.finish_root(root, Instant::now());
    }
    stages
}

/// The traced online phase: one set-up with its parts timed, a short
/// interval with `unimatch_obs` off and a longer one with it on (root span
/// per request, `/metrics` scraped around it), `/healthz` round trips, the
/// in-process replay, and a `/reload` under traffic.
pub fn traced(
    opts: &Options,
    corpus: &Corpus,
    ckpt: &Path,
    rec: &Recorder,
    out: &mut Outcome,
) -> io::Result<()> {
    let w = opts.workload;
    let fw = deploy_framework(&w.deploy, RowFormat::F32, opts.seed, corpus.log.num_items());

    let (loaded, load_us) = rec.timed("core.checkpoint_load", 0, None, || {
        load_checkpoint_with_format_and_retry(ckpt, RowFormat::F32, false, &RetryPolicy::default())
    });
    drop(loaded?);
    let t0 = Instant::now();
    let (online, cost) = bring_up(&fw, ckpt, corpus.log.clone())?;
    rec.record("core.set_up", 0, None, t0, Instant::now());
    out.set("core.checkpoint_load_ms", load_us / 1e3);
    out.set(
        "core.serving_build_ms",
        (cost.from_checkpoint_s * 1e3 - load_us / 1e3).max(0.0),
    );
    out.set(
        "core.checkpoint_bytes",
        std::fs::metadata(ckpt)?.len() as f64,
    );

    // obs off, then obs on: the difference is what tracing costs. The
    // workload's online share of the seconds, but never so little that a
    // median rests on a handful of samples.
    let budget = opts.budgets()[1].max(2.0);
    let (off_s, on_s) = (0.3 * budget, 0.7 * budget);
    unimatch_obs::set_enabled(false);
    let quiet = offer(
        opts,
        &online,
        off_s,
        0.15 * off_s,
        101,
        &Recorder::new(false),
    );
    count_operations(&quiet, out);
    unimatch_obs::set_enabled(true);
    let before = String::from_utf8_lossy(&client::get(&online.addr, "/metrics").body).into_owned();
    let load = offer(opts, &online, on_s, (0.15 * on_s).min(3.0), 100, rec);
    let after = String::from_utf8_lossy(&client::get(&online.addr, "/metrics").body).into_owned();
    count_operations(&load, out);
    let (quiet_lat, traced_lat) = (quiet.all_latencies(), load.all_latencies());
    if quiet_lat.is_empty() || traced_lat.is_empty() {
        return Err(io::Error::other("no 200 in a traced-pass interval"));
    }
    out.set(
        "obs.trace_overhead_share",
        median(&traced_lat) / median(&quiet_lat) - 1.0,
    );

    let connects: Vec<f64> = load.measured().map(|s| s.connect_us).collect();
    out.set("client.connect_p50_us", median(&connects));
    let lateness: Vec<f64> = load.measured().map(|s| s.lateness_us).collect();
    let lateness_p99 = percentile(&lateness, 0.99);
    out.set("client.lateness_p99_us", lateness_p99);
    if lateness_p99 > 1_000.0 {
        out.warnings.push(format!(
            "the generator ran late: lateness p99 {lateness_p99:.0} us"
        ));
    }

    // what the server counted over the same interval
    let query_routes = "route=\""; // recommend and target carry a route label
    out.set(
        "serve.batch_size_mean",
        scrape_mean(&before, &after, "unimatch_batch_size", query_routes),
    );
    let hits = scrape(&after, "unimatch_embedding_cache_hits_total", "")
        - scrape(&before, "unimatch_embedding_cache_hits_total", "");
    let misses = scrape(&after, "unimatch_embedding_cache_misses_total", "")
        - scrape(&before, "unimatch_embedding_cache_misses_total", "");
    out.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
    let server_mean = scrape_mean(&before, &after, "unimatch_request_latency_us", query_routes);
    out.set("serve.server_latency_mean_us", server_mean);
    let delta =
        |name: &str, label: &str| scrape(&after, name, label) - scrape(&before, name, label);
    out.set(
        "serve.shed_count",
        delta("unimatch_requests_shed_total", "queue_full")
            + delta("unimatch_requests_shed_total", "brownout"),
    );
    out.set(
        "serve.expired_count",
        delta("unimatch_requests_shed_total", "deadline"),
    );
    out.set(
        "serve.degraded_count",
        delta("unimatch_degraded_responses_total", ""),
    );
    // one observation per retrieval call, i.e. per batch, on every backend
    out.set(
        "ann.search_us_mean",
        scrape_mean(&before, &after, "unimatch_retrieval_search_us", ""),
    );
    out.set(
        "ann.hnsw_visited_mean",
        scrape_mean(
            &before,
            &after,
            "unimatch_ann_visited_nodes",
            "index=\"hnsw\"",
        ),
    );
    out.set(
        "ann.shard_search_us_mean",
        scrape_mean(&before, &after, "unimatch_shard_search_us", ""),
    );
    out.set(
        "ann.shard_merge_us_mean",
        scrape_mean(&before, &after, "unimatch_shard_merge_us", ""),
    );
    out.set(
        "rerank.stage_us_mean",
        scrape_mean(&before, &after, "unimatch_rerank_stage_us", ""),
    );
    // every sample, warm-up included: the server counted those too
    let client_mean = mean(
        &load
            .samples
            .iter()
            .filter(|s| s.status == 200)
            .map(|s| s.latency_us)
            .collect::<Vec<_>>(),
    );
    out.check(server_mean <= client_mean, || {
        format!(
            "server-side mean latency {server_mean:.1} us above the client's {client_mean:.1} us"
        )
    });

    // connect + connection-thread spawn + parse + write, no queue
    let rtts: Vec<f64> = (0..if opts.smoke { 50 } else { 300 })
        .map(|i| {
            let (reply, us) = rec.timed("serve.healthz", 2_000_000_000 + i, None, || {
                client::get(&online.addr, "/healthz")
            });
            out.attempted += 1;
            out.failed += u64::from(reply.status != 200);
            us
        })
        .collect();
    let healthz_rtt = median(&rtts);
    out.set("serve.healthz_rtt_p50_us", healthz_rtt);

    // the same requests, in process, stage by stage
    let state = online.server.model().current();
    let stages = replay(&load, &state, if opts.smoke { 200 } else { 2_000 }, rec);
    let p50 = |recommend: Option<bool>, name: &str| {
        let us: Vec<f64> = stages
            .iter()
            .filter(|s| s.name == name && recommend.is_none_or(|r| r == s.recommend))
            .map(|s| s.us)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            median(&us)
        }
    };
    for (metric, name) in [
        ("serve.http_parse_us", "serve.http_parse"),
        ("data.json_parse_us", "data.json_parse"),
        ("core.embed_one_us", "core.embed_one"),
        ("core.gather_us", "core.gather"),
        ("ann.retrieve_items_us", "ann.retrieve_items"),
        ("ann.retrieve_users_us", "ann.retrieve_users"),
        ("rerank.apply_items_us", "rerank.apply_items"),
        ("rerank.apply_users_us", "rerank.apply_users"),
        ("core.translate_us", "core.translate"),
        ("serve.encode_us", "serve.encode"),
        ("serve.http_write_us", "serve.http_write"),
    ] {
        out.set(metric, p50(None, name));
    }
    let shared = [
        "serve.http_parse",
        "data.json_parse",
        "serve.encode",
        "serve.http_write",
    ];
    let inproc = |recommend: bool, own: &[&str]| -> f64 {
        shared
            .iter()
            .chain(own)
            .map(|name| p50(Some(recommend), name))
            .sum()
    };
    let inproc_recommend = inproc(
        true,
        &["core.embed_one", "ann.retrieve_items", "rerank.apply_items"],
    );
    let inproc_target = inproc(
        false,
        &[
            "core.gather",
            "ann.retrieve_users",
            "rerank.apply_users",
            "core.translate",
        ],
    );
    out.set("serve.inproc_recommend_us", inproc_recommend);
    out.set("serve.inproc_target_us", inproc_target);
    let (e2e_recommend, e2e_target) = (load.latencies(true), load.latencies(false));
    if e2e_recommend.is_empty() || e2e_target.is_empty() {
        return Err(io::Error::other(
            "a route got no 200 in the traced interval",
        ));
    }
    // the tail, over both intervals of this pass (what tracing adds to a
    // request is small beside what moves a p99), so that on the serve
    // workloads a thousand samples per route stand behind it
    let tail = |recommend: bool| {
        let mut lat = quiet.latencies(recommend);
        lat.extend(load.latencies(recommend));
        lat
    };
    let (tail_recommend, tail_target) = (tail(true), tail(false));
    out.set("serve.recommend_p99_us", percentile(&tail_recommend, 0.99));
    out.set("serve.target_p99_us", percentile(&tail_target, 0.99));
    let backed = tail_recommend.len().min(tail_target.len());
    out.note("online.p99_samples_per_route", format!("at least {backed}"));
    if backed < 1_000 && !opts.smoke {
        out.warnings
            .push(format!("a p99 rests on {backed} samples, fewer than 1000"));
    }
    let residual_recommend = median(&e2e_recommend) - inproc_recommend;
    let residual_target = median(&e2e_target) - inproc_target;
    out.set("serve.residual_recommend_us", residual_recommend);
    out.set("serve.residual_target_us", residual_target);
    out.set(
        "serve.queue_est_us",
        (residual_recommend + residual_target) / 2.0 - healthz_rtt,
    );
    // a stage sum above the end-to-end figure would mean the replay
    // measures something the server does not do
    out.check(residual_recommend >= 0.0 && residual_target >= 0.0, || {
        format!("negative residual: recommend {residual_recommend:.1} us, target {residual_target:.1} us")
    });
    out.note(
        "online.traced_recommend_p50_us",
        format!("{:.1}", median(&e2e_recommend)),
    );
    out.note(
        "online.traced_target_p50_us",
        format!("{:.1}", median(&e2e_target)),
    );
    out.note(
        "online.untraced_p50_us",
        format!("{:.1}", median(&quiet_lat)),
    );

    // the monthly roll-out: reload the checkpoint while traffic continues
    // (one admin connection beside the client's)
    let reload_s = if opts.smoke { 1.0 } else { 3.0 };
    let (reload_us, during) = std::thread::scope(|scope| {
        let admin = scope.spawn(|| {
            let wire = b"POST /reload HTTP/1.1\r\nHost: bench\r\nContent-Length: 2\r\n\r\n{}";
            rec.timed("core.reload", 0, None, || client::call(&online.addr, wire))
        });
        let during = offer(opts, &online, reload_s, 0.0, 102, &Recorder::new(false));
        let (reply, us) = admin.join().expect("reload thread panicked");
        out.check(reply.status == 200, || {
            format!("/reload answered {}", reply.status)
        });
        (us, during)
    });
    count_operations(&during, out);
    out.set("core.reload_ms", reload_us / 1e3);
    online.server.shutdown();
    Ok(())
}
