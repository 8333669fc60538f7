//! Shadow deployments: mirror a deterministic sample of live traffic to
//! a second [`MatchPipeline`](unimatch_core::MatchPipeline) off the
//! critical path.
//!
//! ```text
//!                 primary batcher ──► reply to client   (critical path)
//!                        │
//!            sampled? ── ┴─► bounded queue ──► shadow worker thread
//!                                                  │
//!                                   second ModelHandle (own checkpoint,
//!                                   retriever, store format, rerank)
//!                                                  │
//!                              paired overlap@k / score-delta / lag
//!                              → unimatch_shadow_* series on /metrics
//! ```
//!
//! Design constraints, in order:
//!
//! 1. **The primary path must not notice.** Sampling is one counter
//!    increment plus a multiply; submission is a `try_send` on a bounded
//!    channel that *drops* (and counts) rather than blocks when the
//!    shadow falls behind. The shadow never touches a primary reply.
//! 2. **Sampling is deterministic.** The decision for the N-th answered
//!    request is a pure function of N (a splitmix64 stream thresholded
//!    at the sample rate), so a replayed traffic tape selects the same
//!    requests — paired metrics are reproducible run to run.
//! 3. **Comparisons are paired.** Each mirrored job carries the primary
//!    answer it is compared against, so overlap@k and score deltas are
//!    computed request by request, not from aggregate distributions. An
//!    A/A shadow (same checkpoint, same configuration) reports
//!    overlap 1.0 and score delta 0 exactly.

use crate::batcher::Query;
use crate::metrics::{Family, Metrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;
use unimatch_core::{FittedUniMatch, ModelHandle};

/// What the server needs to arm a shadow deployment (see
/// [`crate::Server::start_with_shadow`]).
pub struct ShadowSpec {
    /// The shadow deployment: its own checkpoint, retriever, store
    /// format, and rerank chain behind a hot-swappable handle.
    pub handle: Arc<ModelHandle>,
    /// Fraction of answered query requests mirrored to the shadow, in
    /// `[0, 1]`. `0` disables the plane entirely (no thread, no queue —
    /// serving is byte-identical to a shadow-less build).
    pub sample_rate: f64,
    /// Bound of the mirror queue; sampled jobs arriving with the queue
    /// full are dropped (and counted) instead of backpressuring the
    /// primary batcher.
    pub queue_bound: usize,
}

impl ShadowSpec {
    /// A spec with the default queue bound (256).
    pub fn new(handle: Arc<ModelHandle>, sample_rate: f64) -> ShadowSpec {
        ShadowSpec { handle, sample_rate, queue_bound: 256 }
    }
}

/// One mirrored request: the input plus the primary answer it will be
/// compared against.
pub struct ShadowJob {
    /// The request's query.
    pub query: Query,
    /// The requested k.
    pub k: usize,
    /// The primary's `(id, score)` list, as sent to the client.
    pub primary: Vec<(u32, f32)>,
    /// When the primary batcher enqueued the mirror (lag anchor).
    pub enqueued: Instant,
}

/// The sampling seed of the deterministic mirror stream. Fixed: the
/// decision sequence depends only on request ordinals, never on wall
/// clock or deployment.
const SAMPLE_SEED: u64 = 0x5ead_0f7e_a11c;

/// The batcher-facing half of the shadow plane: the sampler and the
/// bounded submission queue. Shared by both route batchers.
pub struct ShadowState {
    sample_rate: f64,
    /// `sample()` fires when the splitmix64 draw falls below this.
    threshold: u64,
    /// Ordinal of the next answered request considered for sampling.
    counter: AtomicU64,
    tx: SyncSender<ShadowJob>,
    metrics: Arc<Metrics>,
}

impl ShadowState {
    /// Builds the state plus the receiver its worker thread drains.
    pub fn new(
        sample_rate: f64,
        queue_bound: usize,
        metrics: Arc<Metrics>,
    ) -> (Arc<ShadowState>, Receiver<ShadowJob>) {
        let rate = sample_rate.clamp(0.0, 1.0);
        let threshold = if rate >= 1.0 { u64::MAX } else { (rate * u64::MAX as f64) as u64 };
        let (tx, rx) = sync_channel(queue_bound.max(1));
        (
            Arc::new(ShadowState {
                sample_rate: rate,
                threshold,
                counter: AtomicU64::new(0),
                tx,
                metrics,
            }),
            rx,
        )
    }

    /// The configured mirror fraction.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Deterministically decides whether the next answered request is
    /// mirrored: the N-th call hashes N through splitmix64 and compares
    /// against the rate threshold. At rate 1.0 every call fires.
    pub fn sample(&self) -> bool {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if self.threshold == u64::MAX {
            return true;
        }
        splitmix64(n ^ SAMPLE_SEED) < self.threshold
    }

    /// Mirrors one answered query (clones the inputs; never blocks — a
    /// full queue drops and counts).
    pub fn submit(&self, query: &Query, k: usize, primary: &[(u32, f32)]) {
        let job = ShadowJob {
            query: query.clone(),
            k,
            primary: primary.to_vec(),
            enqueued: Instant::now(),
        };
        if self.tx.try_send(job).is_err() {
            self.metrics.inc(Family::ShadowDropped.at(0));
        }
    }
}

/// The standard splitmix64 mixer — a bijective avalanche over `u64`, so
/// thresholding its output samples uniformly over request ordinals.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One query answered in process, outside the batcher — the shadow's
/// side of a pair.
fn answer(fitted: &FittedUniMatch, query: &Query, k: usize) -> Vec<(u32, f32)> {
    match query {
        Query::History(history) => {
            fitted.recommend_items(history, k).into_iter().map(|h| (h.id, h.score)).collect()
        }
        Query::Item(item) => fitted.target_users(*item, k),
    }
}

/// The shadow worker loop: drains mirrored jobs, answers each through
/// the shadow deployment's pipeline, and records the paired deltas.
/// Exits when every submission handle is dropped (server shutdown).
pub fn run_shadow_worker(rx: Receiver<ShadowJob>, handle: Arc<ModelHandle>, metrics: Arc<Metrics>) {
    while let Ok(ShadowJob { query, k, primary, enqueued }) = rx.recv() {
        let state = handle.current();
        metrics.observe(Family::ShadowLag.at(0), enqueued.elapsed().as_micros() as u64);
        // a shadow checkpoint with a smaller vocabulary cannot answer
        // this request; count it as dropped
        if query.validate(k, state.fitted.num_items() as u32).is_err() {
            metrics.inc(Family::ShadowDropped.at(0));
            continue;
        }
        let started = Instant::now();
        let shadow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            answer(&state.fitted, &query, k)
        }));
        metrics.observe(Family::ShadowExec.at(0), started.elapsed().as_micros() as u64);
        match shadow {
            Ok(answer) => {
                let (overlap, delta) =
                    paired_deltas(k, primary.iter().copied(), answer.iter().copied());
                metrics.inc(Family::ShadowPairs.at(query.route().index()));
                metrics.add(Family::ShadowOverlapSumMilli.at(0), overlap);
                metrics.add(Family::ShadowScoreDeltaSumMicro.at(0), delta);
            }
            Err(_) => metrics.inc(Family::ShadowDropped.at(0)),
        }
    }
}

/// The paired comparison behind one `unimatch_shadow_pairs_total`
/// observation: overlap@k in milli-units (`|ids(primary) ∩ ids(shadow)|
/// / k`, so identical lists of length k score 1000) and the mean
/// absolute score delta over the intersection in micro-units. Pure and
/// order-insensitive — only membership and per-id scores matter.
pub fn paired_deltas(
    k: usize,
    primary: impl Iterator<Item = (u32, f32)>,
    shadow: impl Iterator<Item = (u32, f32)>,
) -> (u64, u64) {
    let primary: Vec<(u32, f32)> = primary.collect();
    let mut matched = 0u64;
    let mut delta_sum = 0.0f64;
    for (id, score) in shadow {
        if let Some(&(_, p)) = primary.iter().find(|&&(pid, _)| pid == id) {
            matched += 1;
            delta_sum += (f64::from(p) - f64::from(score)).abs();
        }
    }
    let overlap_milli = if k == 0 { 0 } else { matched * 1000 / k as u64 };
    let delta_micro = if matched == 0 {
        0
    } else {
        ((delta_sum / matched as f64) * 1e6).round().min(u64::MAX as f64) as u64
    };
    (overlap_milli, delta_micro)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_tracks_the_rate() {
        let metrics = Arc::new(Metrics::new());
        let (a, _rx_a) = ShadowState::new(0.25, 8, metrics.clone());
        let (b, _rx_b) = ShadowState::new(0.25, 8, metrics.clone());
        let run_a: Vec<bool> = (0..4000).map(|_| a.sample()).collect();
        let run_b: Vec<bool> = (0..4000).map(|_| b.sample()).collect();
        assert_eq!(run_a, run_b, "two states at the same rate must sample identically");
        let hits = run_a.iter().filter(|&&s| s).count();
        assert!(
            (800..1200).contains(&hits),
            "rate 0.25 over 4000 draws should select ~1000, got {hits}"
        );

        let (all, _rx) = ShadowState::new(1.0, 8, metrics.clone());
        assert!((0..100).all(|_| all.sample()), "rate 1.0 must mirror everything");
        let (none, _rx) = ShadowState::new(0.0, 8, metrics);
        assert!((0..100).all(|_| !none.sample()), "rate 0.0 must mirror nothing");
    }

    #[test]
    fn paired_deltas_score_identity_and_divergence() {
        let a = [(1u32, 0.9f32), (2, 0.8), (3, 0.7)];
        // A/A: overlap 1.0, delta 0 — order must not matter
        let shuffled = [(3u32, 0.7f32), (1, 0.9), (2, 0.8)];
        assert_eq!(paired_deltas(3, a.iter().copied(), shuffled.iter().copied()), (1000, 0));
        // disjoint: overlap 0, no matched scores
        let b = [(7u32, 0.9f32), (8, 0.8), (9, 0.7)];
        assert_eq!(paired_deltas(3, a.iter().copied(), b.iter().copied()), (0, 0));
        // partial: 2 of 3 shared, mean |Δ| = (0.1 + 0.3) / 2 = 0.2
        let c = [(1u32, 0.8f32), (2, 0.5), (9, 0.7)];
        let (overlap, delta) = paired_deltas(3, a.iter().copied(), c.iter().copied());
        assert_eq!(overlap, 666);
        assert!((199_000..201_000).contains(&delta), "mean delta ≈ 0.2 in micro-units: {delta}");
        // shadow shorter than k counts against overlap
        let short = [(1u32, 0.9f32)];
        assert_eq!(paired_deltas(3, a.iter().copied(), short.iter().copied()).0, 333);
    }

    #[test]
    fn full_queue_drops_instead_of_blocking() {
        let metrics = Arc::new(Metrics::new());
        let (state, rx) = ShadowState::new(1.0, 2, metrics.clone());
        for _ in 0..5 {
            state.submit(&Query::Item(1), 3, &[(1, 0.5)]);
        }
        let dropped = || metrics.get(Family::ShadowDropped.at(0));
        assert_eq!(dropped(), 3, "bound 2 holds 2 of 5 submissions");
        drop(rx);
        state.submit(&Query::Item(1), 3, &[(1, 0.5)]);
        assert_eq!(dropped(), 4, "closed queue also drops");
    }
}
