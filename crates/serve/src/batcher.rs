//! The micro-batching admission queue.
//!
//! Connection threads do not call the model directly: they enqueue a
//! [`Job`] and block on its reply channel. One batcher thread per query
//! route runs the same loop ([`run_batcher`]) over that route's queue,
//! coalescing every job that arrives within a short window (or until a
//! maximum batch size) into **one** pipeline call — so the
//! `unimatch-parallel` layer amortizes its thread fan-out across
//! concurrent callers instead of once per request. A window of zero
//! never waits for a batch-mate: an idle server answers a lone request
//! at once, and under load the jobs that queued while the previous batch
//! executed are the next batch.
//!
//! `/recommend` and `/target` are the same query against two towers; the
//! only route-specific steps are which pipeline answers and how the query
//! embeddings are materialised (histories through the *embed* stage,
//! items through *gather*), a `match` on the route.
//!
//! Correctness invariants:
//!
//! * one model snapshot per batch — the batcher pins `ModelHandle::current`
//!   once per batch, so a hot-swap never splits a batch across versions;
//! * results are identical to unbatched calls — jobs are grouped by `k`
//!   and answered through the tower's [`MatchPipeline`] (the same stage
//!   sequence behind `recommend_items` / `target_users`), so outputs
//!   match them element for element;
//! * every job carries an admission deadline — jobs that out-wait it in
//!   the queue are answered [`JobError::Expired`] (→ 503) instead of
//!   executed, and each dequeue releases one slot of the queue-occupancy
//!   counter the server sheds (→ 429) against;
//! * every answer carries a `degraded` flag — `true` when a shard was
//!   missing from the merge (quorum-tolerated failure) or an active
//!   brownout rung changed response content; healthy full-quality
//!   batches are bitwise identical to the unchecked pipeline runners;
//! * when a shadow is armed ([`crate::shadow`]), each successful answer
//!   is considered for deterministic sampling *after* its result is
//!   final — mirroring never changes a reply and never blocks (a full
//!   mirror queue drops and counts).

use crate::brownout::BrownoutState;
use crate::metrics::{Family, Metrics, Route};
use crate::shadow::ShadowState;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unimatch_core::serving::ServingState;
use unimatch_core::{DegradeOptions, MatchPipeline, ModelHandle};
use unimatch_faults::FaultPoint;

/// Chaos-testing seam: a latency fault armed at `serve.batch` stalls the
/// batcher between collecting a batch and executing it — the way an
/// overloaded executor looks to the admission queue. Disarmed cost is one
/// relaxed atomic load per batch.
const BATCH_FAULT: FaultPoint = FaultPoint::new("serve.batch");

/// A request-level failure, mapped to an HTTP status by the server.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The request is invalid against the current model (→ 400).
    BadRequest(String),
    /// Execution failed (→ 500).
    Internal(String),
    /// The request out-waited its deadline in the admission queue
    /// (→ 503 with `Retry-After`): answering it now would hand the
    /// client a result it has already given up on.
    Expired,
}

/// A batcher answer: the ranked `(id, score)` list plus its `degraded`
/// flag (`true` when a shard was missing from the merge or a brownout
/// rung changed content).
pub type JobResult = Result<(Vec<(u32, f32)>, bool), JobError>;

/// What a query asks about — the one thing that differs between the two
/// query routes.
#[derive(Clone, Debug)]
pub enum Query {
    /// `/recommend`: a user's purchase history (dense item ids, oldest
    /// first), answered with items.
    History(Vec<u32>),
    /// `/target`: a dense item id, answered with users.
    Item(u32),
}

impl Query {
    /// The route this query arrives on and is accounted under.
    pub fn route(&self) -> Route {
        match self {
            Query::History(_) => Route::Recommend,
            Query::Item(_) => Route::Target,
        }
    }

    /// Checks the query and `k` against a model serving `num_items`
    /// items; the message becomes the `400` body.
    pub fn validate(&self, k: usize, num_items: u32) -> Result<(), String> {
        match self {
            Query::History(history) => {
                if history.is_empty() {
                    return Err("history must be non-empty".into());
                }
                if let Some(&bad) = history.iter().find(|&&i| i >= num_items) {
                    return Err(format!(
                        "history item {bad} outside the model's {num_items}-item vocabulary"
                    ));
                }
            }
            Query::Item(item) => {
                if *item >= num_items {
                    return Err(format!(
                        "item {item} outside the model's {num_items}-item vocabulary"
                    ));
                }
            }
        }
        if k == 0 {
            return Err("k must be at least 1".into());
        }
        Ok(())
    }
}

/// An enqueued query request.
pub struct Job {
    /// What is asked.
    pub query: Query,
    /// Number of results requested.
    pub k: usize,
    /// Load-shedding deadline: jobs still queued past this instant are
    /// answered [`JobError::Expired`] instead of executed.
    pub deadline: Instant,
    /// Where the batcher delivers the result.
    pub reply: Sender<JobResult>,
}

/// Batching parameters (see `ServeConfig`).
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// How long the batcher waits for co-travellers after the first job;
    /// zero takes what is already queued and runs.
    pub window: Duration,
    /// Hard cap on jobs per batch.
    pub max_batch: usize,
}

/// Collects one batch: blocks for the first job, then drains until the
/// window closes and the queue is empty, the batch is full, or the
/// channel disconnects. Every dequeued job releases one slot of `depth`,
/// the admission-side queue occupancy counter the server sheds against.
fn collect_batch(rx: &Receiver<Job>, cfg: &BatchConfig, depth: &AtomicUsize) -> Option<Vec<Job>> {
    let first = rx.recv().ok()?;
    depth.fetch_sub(1, Ordering::SeqCst);
    let deadline = Instant::now() + cfg.window;
    let mut batch = vec![first];
    while batch.len() < cfg.max_batch {
        let left = deadline.saturating_duration_since(Instant::now());
        // a closed window still takes the backlog, it just stops waiting
        let next = if left.is_zero() { rx.try_recv().ok() } else { rx.recv_timeout(left).ok() };
        let Some(job) = next else { break };
        depth.fetch_sub(1, Ordering::SeqCst);
        batch.push(job);
    }
    Some(batch)
}

/// Answers every job in `jobs` with the same error.
fn fail_all<'a>(jobs: impl IntoIterator<Item = &'a Job>, error: JobError) {
    for job in jobs {
        let _ = job.reply.send(Err(error.clone()));
    }
}

/// One route's batcher loop. Runs until every [`Sender`] for `rx` is
/// dropped **and** the queue is drained — exactly the graceful-shutdown
/// contract: accepted requests are answered even while the server is
/// going down.
#[allow(clippy::too_many_arguments)]
pub fn run_batcher(
    route: Route,
    rx: Receiver<Job>,
    handle: Arc<ModelHandle>,
    metrics: Arc<Metrics>,
    cfg: BatchConfig,
    depth: Arc<AtomicUsize>,
    brownout: Option<Arc<BrownoutState>>,
    shadow: Option<Arc<ShadowState>>,
) {
    while let Some(batch) = collect_batch(&rx, &cfg, &depth) {
        BATCH_FAULT.inject_latency();
        // jobs whose deadline passed while they queued are answered, not run
        let now = Instant::now();
        let (batch, expired): (Vec<Job>, Vec<Job>) =
            batch.into_iter().partition(|job| now < job.deadline);
        for job in expired {
            metrics.inc(const { Family::RequestsShed.with("deadline") });
            let _ = job.reply.send(Err(JobError::Expired));
        }
        if batch.is_empty() {
            continue;
        }
        metrics.observe(Family::BatchSize.at(route.index()), batch.len() as u64);
        let state = handle.current();
        // sample the brownout level once per batch — one model snapshot,
        // one degradation level
        let degrade = brownout.as_deref().map_or(DegradeOptions::NONE, BrownoutState::degrade);
        let jobs = batch.len() as u64;
        let start = Instant::now();
        execute(route, batch, &state, &metrics, degrade, shadow.as_deref());
        metrics.observe_service(start.elapsed().as_micros() as u64 / jobs);
    }
}

/// Materialises the `jobs.len() × dim` query rows in job order:
/// histories through *embed* (one batched forward pass), items through
/// *gather*.
fn query_rows(route: Route, pipeline: &MatchPipeline<'_>, jobs: &[Job]) -> Vec<f32> {
    match route {
        Route::Recommend => {
            let histories: Vec<&[u32]> = jobs
                .iter()
                .map(|job| match &job.query {
                    Query::History(history) => history.as_slice(),
                    Query::Item(_) => unreachable!("the recommend queue only carries histories"),
                })
                .collect();
            pipeline.embed(&histories)
        }
        _ => {
            let items: Vec<u32> = jobs
                .iter()
                .map(|job| match job.query {
                    Query::Item(item) => item,
                    Query::History(_) => unreachable!("the target queue only carries items"),
                })
                .collect();
            pipeline.gather(&items)
        }
    }
}

/// Answers one batch from one model snapshot: validate → materialise the
/// query rows (*embed* or *gather*) → one checked pipeline run
/// per distinct `k` → translate → reply.
fn execute(
    route: Route,
    batch: Vec<Job>,
    state: &ServingState,
    metrics: &Metrics,
    degrade: DegradeOptions,
    shadow: Option<&ShadowState>,
) {
    let fitted = &state.fitted;
    let pipeline = match route {
        Route::Recommend => fitted.item_pipeline(),
        _ => fitted.user_pipeline(),
    };
    let num_items = fitted.num_items() as u32;
    let d = pipeline.dim();

    // validate; invalid jobs are answered immediately and drop out
    let mut valid: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        match job.query.validate(job.k, num_items) {
            Ok(()) => valid.push(job),
            Err(msg) => {
                let _ = job.reply.send(Err(JobError::BadRequest(msg)));
            }
        }
    }
    if valid.is_empty() {
        return;
    }

    let materialised = catch_unwind(AssertUnwindSafe(|| query_rows(route, &pipeline, &valid)));
    let Ok(queries) = materialised else {
        fail_all(&valid, JobError::Internal("embedding forward pass panicked".into()));
        return;
    };

    // one retrieval per distinct k, jobs kept in arrival order within each
    let content_degraded = pipeline.degrade_affects_content(degrade);
    let mut by_k: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, job) in valid.iter().enumerate() {
        by_k.entry(job.k).or_default().push(i);
    }
    for (k, indices) in by_k {
        let mut flat: Vec<f32> = Vec::with_capacity(indices.len() * d);
        for &i in &indices {
            flat.extend_from_slice(&queries[i * d..(i + 1) * d]);
        }
        let group = indices.iter().map(|&i| &valid[i]);
        match catch_unwind(AssertUnwindSafe(|| pipeline.run_checked(&flat, k, degrade))) {
            Ok(Ok((lists, health))) => {
                // shards past the label table share its last, overflow series
                let overflow = Family::ShardErrors.row().label_values.len() - 1;
                for &(shard, _) in &health.failures {
                    metrics.inc(Family::ShardErrors.at((shard as usize).min(overflow)));
                }
                let flag = health.degraded() || content_degraded;
                for (job, hits) in group.zip(lists) {
                    let answer = pipeline.translate(hits);
                    if flag {
                        metrics.inc(if health.degraded() {
                            const { Family::DegradedResponses.with("shard") }
                        } else {
                            const { Family::DegradedResponses.with("brownout") }
                        });
                    }
                    if let Some(sh) = shadow.filter(|s| s.sample()) {
                        sh.submit(&job.query, k, &answer);
                    }
                    let _ = job.reply.send(Ok((answer, flag)));
                }
            }
            Ok(Err(quorum)) => fail_all(group, JobError::Internal(quorum.to_string())),
            Err(_) => fail_all(group, JobError::Internal("ANN search panicked".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use unimatch_core::{UniMatch, UniMatchConfig};
    use unimatch_data::DatasetProfile;

    /// A `/target` job tagged by its item id, so batches show arrival order.
    fn item_job(item: u32) -> Job {
        Job { query: Query::Item(item), k: 1, deadline: Instant::now(), reply: channel().0 }
    }

    fn items(batch: &[Job]) -> Vec<u32> {
        batch
            .iter()
            .map(|job| match job.query {
                Query::Item(item) => item,
                Query::History(_) => unreachable!("item_job only"),
            })
            .collect()
    }

    /// With the window closed the backlog is still one batch, not five.
    #[test]
    fn a_backlog_is_taken_in_arrival_order_up_to_max_batch() {
        let (tx, rx) = channel();
        let depth = AtomicUsize::new(0);
        for item in 0..5 {
            depth.fetch_add(1, Ordering::SeqCst);
            tx.send(item_job(item)).expect("queue open");
        }
        let cfg = BatchConfig { window: Duration::ZERO, max_batch: 3 };
        let first = collect_batch(&rx, &cfg, &depth).expect("queued jobs");
        assert_eq!(items(&first), [0, 1, 2]);
        assert_eq!(depth.load(Ordering::SeqCst), 2);
        let second = collect_batch(&rx, &cfg, &depth).expect("queued jobs");
        assert_eq!(items(&second), [3, 4]);
        assert_eq!(depth.load(Ordering::SeqCst), 0);
    }

    /// A zero window must not round up to a timer tick: the default 2 ms
    /// would show as 400 ms over these 200 collections; the bound sits 4×
    /// under that and ~1000× over what 200 `recv` + `try_recv` pairs take.
    #[test]
    fn a_zero_window_does_not_keep_a_lone_job_waiting() {
        let (tx, rx) = channel();
        let depth = AtomicUsize::new(0);
        let cfg = BatchConfig { window: Duration::ZERO, max_batch: 64 };
        let start = Instant::now();
        for item in 0..200 {
            depth.fetch_add(1, Ordering::SeqCst);
            tx.send(item_job(item)).expect("queue open");
            // `tx` stays alive: an empty queue, not a closed one, ends the batch
            let batch = collect_batch(&rx, &cfg, &depth).expect("one queued job");
            assert_eq!(items(&batch), [item]);
        }
        let elapsed = start.elapsed();
        assert!(elapsed.as_millis() < 100, "200 lone collections took {elapsed:?}");
        assert_eq!(depth.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_closed_and_drained_queue_ends_the_loop() {
        let (tx, rx) = channel();
        let depth = AtomicUsize::new(1);
        tx.send(item_job(7)).expect("queue open");
        drop(tx);
        let cfg = BatchConfig { window: Duration::ZERO, max_batch: 64 };
        // what was accepted before the close is still answered
        assert_eq!(items(&collect_batch(&rx, &cfg, &depth).expect("drain")), [7]);
        assert!(collect_batch(&rx, &cfg, &depth).is_none());
        assert_eq!(depth.load(Ordering::SeqCst), 0);
    }

    /// The tower reads the last `max_seq_len` ids: a hostile-length
    /// history embeds to the bytes of its suffix, batched or alone.
    #[test]
    fn a_long_history_embeds_to_the_bytes_of_its_served_suffix() {
        let log = DatasetProfile::EComp.generate(0.05, 17).filter_min_interactions(3);
        let cfg = UniMatchConfig { max_seq_len: 4, epochs_per_month: 1, ..Default::default() };
        let fitted = UniMatch::new(cfg).fit(log);
        let pipeline = fitted.item_pipeline();
        let d = pipeline.dim();
        let job = |history: Vec<u32>| Job {
            query: Query::History(history),
            k: 3,
            deadline: Instant::now(),
            reply: channel().0,
        };
        let long: Vec<u32> = (0..50_000).map(|i| i % 7).chain([3, 4, 5, 6]).collect();
        let jobs = [job(vec![1, 2, 3, 4, 5, 6]), job(long), job(vec![2])];

        let rows = query_rows(Route::Recommend, &pipeline, &jobs);
        assert_eq!(rows.len(), 3 * d);
        let suffix = pipeline.embed_one(&[3, 4, 5, 6]);
        assert_eq!(rows[..d], suffix, "a short prefix is not read");
        assert_eq!(rows[d..2 * d], suffix, "a 50 000-id prefix is not read");
        assert_eq!(rows[2 * d..], pipeline.embed_one(&[2]), "shorter than the window");
    }
}
