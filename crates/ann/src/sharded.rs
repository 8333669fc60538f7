//! Row-range sharding over any [`Retriever`] backend.
//!
//! [`ShardedRetriever`] partitions one [`EmbeddingStore`] into N
//! contiguous row ranges, builds an independent backend index over a
//! zero-copy [`EmbeddingStore::view_rows`] view of each range, hands every
//! query batch to each shard's checked batch search through
//! `unimatch-parallel`, and k-way merges the per-shard top-k lists under
//! the canonical ordering contract (score descending, lowest id on ties).
//!
//! ## Exactness
//!
//! For an exact backend the merged result is **bitwise identical** to the
//! unsharded search:
//!
//! * scores — [`crate::kernel::dot`] is a fixed sequential reduction over
//!   `dim`, and sharding splits *rows*, never a row, so every candidate's
//!   score is computed from exactly the same bytes in exactly the same
//!   order;
//! * membership — if a row is dropped inside its shard, the k rows that
//!   beat it there (under score-then-lowest-id order) also precede it
//!   globally, so it cannot belong to the global top-k either;
//! * order — shard row ranges are contiguous and ascending, so each
//!   shard's list is sorted by `(score desc, global id asc)`, and the
//!   merge resolves cross-shard ties by global id exactly as one big
//!   stable scan would.
//!
//! For the approximate backend (HNSW) each shard builds its *own*
//! graph over its row range, so sharded recall differs from the
//! single-index build in general — but configured to be effectively
//! exact (`ef ≥ rows`) it inherits the same bitwise guarantee, which
//! the sharded differential suite pins.
//!
//! ## Failure isolation
//!
//! The fan-out is *fallible*: each shard's search runs inside a panic
//! capture, behind the `ann.shard.search` chaos seams. A shard that
//! errors or panics is dropped from the k-way merge instead of failing
//! the whole query. A *slow* shard is not: the scoped fan-out joins every
//! shard before merging, so no per-shard clock could shorten the wait.
//! The [`ShardPolicy`]'s `min_shards` quorum decides what a partial
//! fan-out means:
//!
//! * **strict** (the default, `min_shards = None`): any shard failure
//!   fails the query — exactly the pre-policy contract;
//! * **quorum `m`**: as long as ≥ `m` shards answered, the merge returns
//!   the partial top-k and the [`ShardHealth`] report flags it degraded,
//!   naming each dropped shard and why.
//!
//! With no faults armed the isolated path is byte-identical to the
//! original fan-out (same scores, same order), and its only extra cost
//! is one relaxed atomic load per shard plus the unwind guard.
//!
//! ## Observability
//!
//! With the global `unimatch-obs` flag on, every search records one
//! `unimatch_shard_search_us{shard="s"}` span per shard and one
//! `unimatch_shard_merge_us` span for the merge, alongside the backend's
//! own series — the data `/metrics` consumers use to spot a straggler
//! shard or a merge that grew past its budget.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use crate::index::{query_count, Hit, QuorumError, Retriever, ShardFailureKind, ShardHealth};
use crate::store::EmbeddingStore;
use unimatch_faults::{FaultKind, FaultPoint};
use unimatch_obs as obs;
use unimatch_parallel::par_map_indexed;

/// Interned per-shard label bodies (the obs registry keys series by
/// `'static` string identity, so labels must come from a fixed table).
const SHARD_LABELS: [&str; 16] = [
    "shard=\"0\"",
    "shard=\"1\"",
    "shard=\"2\"",
    "shard=\"3\"",
    "shard=\"4\"",
    "shard=\"5\"",
    "shard=\"6\"",
    "shard=\"7\"",
    "shard=\"8\"",
    "shard=\"9\"",
    "shard=\"10\"",
    "shard=\"11\"",
    "shard=\"12\"",
    "shard=\"13\"",
    "shard=\"14\"",
    "shard=\"15\"",
];

/// Label for shard indices past the interned table.
const SHARD_OVERFLOW_LABEL: &str = "shard=\"16+\"";

/// The `shard="…"` label body for shard `s`.
fn shard_label(s: usize) -> &'static str {
    SHARD_LABELS.get(s).copied().unwrap_or(SHARD_OVERFLOW_LABEL)
}

/// Chaos seam fired once per shard per fan-out: a plan targeting
/// `ann.shard.search` hits *every* shard (a correlated storm), while the
/// indexed variants below wedge exactly one shard.
const SHARD_FAULT: FaultPoint = FaultPoint::new("ann.shard.search");

/// Per-shard chaos seams (`ann.shard.search.N`): arming one wedges only
/// shard N, which is how the degraded-serving suite proves the other
/// shards keep answering. Shards past the table only honor the
/// un-indexed `ann.shard.search` point.
const SHARD_FAULT_NAMES: [&str; 16] = [
    "ann.shard.search.0",
    "ann.shard.search.1",
    "ann.shard.search.2",
    "ann.shard.search.3",
    "ann.shard.search.4",
    "ann.shard.search.5",
    "ann.shard.search.6",
    "ann.shard.search.7",
    "ann.shard.search.8",
    "ann.shard.search.9",
    "ann.shard.search.10",
    "ann.shard.search.11",
    "ann.shard.search.12",
    "ann.shard.search.13",
    "ann.shard.search.14",
    "ann.shard.search.15",
];

/// Consults both the blanket and the per-shard chaos seam for shard `s`.
/// Disarmed cost: one relaxed atomic load.
fn shard_fault(s: usize) -> Option<FaultKind> {
    if !unimatch_faults::armed() {
        return None;
    }
    SHARD_FAULT
        .fire()
        .or_else(|| SHARD_FAULT_NAMES.get(s).and_then(|name| FaultPoint::should_fire(name)))
}

/// Failure-isolation policy for a sharded fan-out.
///
/// The default (`min_shards: None`) reproduces the strict pre-policy
/// contract: any shard failure fails the whole query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Minimum healthy shards required to answer at all. `None` means
    /// every shard must answer (strict); `Some(m)` tolerates up to
    /// `shards - m` failures, returning a degraded partial top-k.
    pub min_shards: Option<usize>,
}

/// N backend indexes over contiguous row ranges of one shared arena,
/// searched in parallel and merged under the canonical top-k order.
///
/// Build one with [`ShardedRetriever::build`], supplying the closure that
/// turns each shard's store view into a backend index (the same closure
/// shape `RetrieverKind` uses for whole-store builds):
///
/// ```
/// use std::sync::Arc;
/// use unimatch_ann::{BruteForceIndex, EmbeddingStore, Retriever, ShardPolicy, ShardedRetriever};
///
/// let store = Arc::new(EmbeddingStore::from_vec(
///     vec![1.0, 0.0, 0.0, 1.0, 0.7, 0.7, -1.0, 0.0],
///     2,
/// ));
/// let sharded = ShardedRetriever::build(&store, 2, ShardPolicy::default(), |view| {
///     Box::new(BruteForceIndex::over(view))
/// });
/// assert_eq!(sharded.shards(), 2);
/// let hits = sharded.search(&[1.0, 0.1], 2);
/// assert_eq!(hits[0].id, 0); // global row ids, same as unsharded
/// ```
pub struct ShardedRetriever {
    shards: Vec<Box<dyn Retriever>>,
    /// Global row id of each shard's local row 0 (ascending).
    offsets: Vec<u32>,
    len: usize,
    dim: usize,
    backend: &'static str,
    policy: ShardPolicy,
}

impl ShardedRetriever {
    /// Partitions `store` into `shards` contiguous row ranges (sizes
    /// differing by at most one row) and builds one backend index per
    /// range via `build_shard`, each over a zero-copy view of the shared
    /// arena, searched under the failure-isolation `policy`.
    ///
    /// `shards` is clamped to the row count (an empty store builds one
    /// empty shard). Shards are built in ascending row order, so a
    /// build closure threading an `&mut` RNG stays deterministic. A
    /// `min_shards` larger than the (clamped) shard count is itself
    /// clamped at search time, so a healthy fan-out always meets it.
    ///
    /// # Panics
    /// Panics if `shards == 0`, or if `build_shard` returns an index
    /// whose `len`/`dim` disagree with the view it was given.
    pub fn build<F>(
        store: &Arc<EmbeddingStore>,
        shards: usize,
        policy: ShardPolicy,
        mut build_shard: F,
    ) -> Self
    where
        F: FnMut(Arc<EmbeddingStore>) -> Box<dyn Retriever>,
    {
        assert!(shards > 0, "shards must be positive");
        let rows = store.rows();
        let n = shards.min(rows).max(1);
        let mut built: Vec<Box<dyn Retriever>> = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n);
        for s in 0..n {
            let start = s * rows / n;
            let end = (s + 1) * rows / n;
            let view = Arc::new(store.view_rows(start, end));
            let index = build_shard(view);
            assert_eq!(index.len(), end - start, "shard {s}: index len != view rows");
            assert_eq!(index.dim(), store.dim(), "shard {s}: index dim != store dim");
            built.push(index);
            offsets.push(start as u32);
        }
        let backend = built[0].backend();
        ShardedRetriever { shards: built, offsets, len: rows, dim: store.dim(), backend, policy }
    }

    /// Runs one shard's search under the isolation envelope: chaos seams
    /// first (latency sleeps in place, an I/O fault fails the shard, a
    /// crash fault panics inside the capture below), then the search
    /// itself inside `catch_unwind`. `AssertUnwindSafe` is sound here
    /// because `op` only reads through `&self` — a captured panic cannot
    /// leave observable index state half-written.
    fn run_shard<T>(&self, s: usize, op: impl FnOnce() -> T) -> Result<T, ShardFailureKind> {
        let fault = shard_fault(s);
        match fault {
            Some(FaultKind::IoError) => return Err(ShardFailureKind::Io),
            Some(FaultKind::LatencyUs(us)) => {
                std::thread::sleep(Duration::from_micros(us));
            }
            _ => {}
        }
        let crash = matches!(fault, Some(FaultKind::Crash));
        catch_unwind(AssertUnwindSafe(|| {
            if crash {
                panic!("injected crash at fault point {}", SHARD_FAULT.name());
            }
            op()
        }))
        .map_err(|_| ShardFailureKind::Panic)
    }

    /// Effective quorum for this call: the configured `min_shards`
    /// (strict = all shards) clamped to the real fan-out width, or 1 when
    /// the caller relaxed it.
    fn required_shards(&self, relax_quorum: bool) -> usize {
        let n = self.shards.len();
        if relax_quorum {
            1
        } else {
            self.policy.min_shards.unwrap_or(n).clamp(1, n)
        }
    }

    /// Folds per-shard outcomes into `(per-shard payloads, health)`,
    /// failing the whole call when fewer shards than the quorum answered.
    /// Failed shards yield `None` payloads so merge callers skip them by
    /// position (keeping shard index = offset index).
    fn assemble<T>(
        &self,
        outcomes: Vec<Result<T, ShardFailureKind>>,
        relax_quorum: bool,
    ) -> Result<(Vec<Option<T>>, ShardHealth), QuorumError> {
        let total = outcomes.len();
        let mut payloads = Vec::with_capacity(total);
        let mut health = ShardHealth::healthy(total);
        for (s, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(v) => payloads.push(Some(v)),
                Err(kind) => {
                    health.failures.push((s as u32, kind));
                    payloads.push(None);
                }
            }
        }
        let required = self.required_shards(relax_quorum);
        if health.healthy_shards() < required {
            return Err(QuorumError { healthy: health.healthy_shards(), required, total });
        }
        Ok((payloads, health))
    }
}

/// K-way merges per-shard top-k lists (each sorted by `(score desc, id
/// asc)` with globally unique ids) into the global top-k under the same
/// order. Candidates compare under [`crate::order::canonical`]
/// (`f32::total_cmp`), so a NaN that slips out of a backend orders
/// deterministically (above +inf) instead of comparing "equal to
/// everything" and destabilizing the merge.
fn merge_topk(lists: &[&[Hit]], k: usize) -> Vec<Hit> {
    use std::cmp::Ordering;
    if lists.len() == 1 {
        let mut out = lists[0].to_vec();
        out.truncate(k);
        return out;
    }
    let total: usize = lists.iter().map(|l| l.len()).sum();
    let mut out = Vec::with_capacity(k.min(total));
    let mut cursors = vec![0usize; lists.len()];
    while out.len() < k {
        let mut best: Option<(usize, Hit)> = None;
        for (li, list) in lists.iter().enumerate() {
            if let Some(&h) = list.get(cursors[li]) {
                let better = match &best {
                    None => true,
                    Some((_, b)) => crate::order::canonical(&h, b) == Ordering::Less,
                };
                if better {
                    best = Some((li, h));
                }
            }
        }
        let Some((li, h)) = best else { break };
        cursors[li] += 1;
        out.push(h);
    }
    out
}

impl Retriever for ShardedRetriever {
    fn len(&self) -> usize {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// The *inner* backend's name — a sharded index serves the same
    /// metric label as its unsharded counterpart; the fan-out is
    /// reported separately through [`Retriever::shards`].
    fn backend(&self) -> &'static str {
        self.backend
    }

    fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Fans the whole batch across shards (each shard answers every
    /// query over its row range; nested per-query parallelism inside a
    /// shard runs inline), then merges per query. Failed shards (I/O
    /// fault, captured panic) are dropped from every query's merge and
    /// named in the health report; fewer healthy shards than the
    /// effective quorum fails the whole batch instead.
    fn search_batch_checked(
        &self,
        queries: &[f32],
        k: usize,
        relax_quorum: bool,
    ) -> Result<(Vec<Vec<Hit>>, ShardHealth), QuorumError> {
        let nq = query_count(queries, self.dim);
        let work = nq * self.len * self.dim * 2;
        let outcomes: Vec<Result<Vec<Vec<Hit>>, ShardFailureKind>> =
            par_map_indexed(self.shards.len(), work, |s| {
                let _span = obs::span_us("unimatch_shard_search_us", shard_label(s));
                self.run_shard(s, || {
                    let offset = self.offsets[s];
                    // a nested fan-out that misses its own quorum fails
                    // this shard like any other panic
                    let (mut lists, _) = self.shards[s]
                        .search_batch_checked(queries, k, relax_quorum)
                        .unwrap_or_else(|e| panic!("shard {s}: {e}"));
                    for hits in &mut lists {
                        for h in hits {
                            h.id += offset;
                        }
                    }
                    lists
                })
            });
        let (per_shard, health) = self.assemble(outcomes, relax_quorum)?;
        let _merge_span = obs::span_us("unimatch_shard_merge_us", "");
        let mut scratch: Vec<&[Hit]> = Vec::with_capacity(self.shards.len());
        let merged = (0..nq)
            .map(|q| {
                scratch.clear();
                scratch.extend(per_shard.iter().filter_map(|lists| {
                    lists.as_ref().map(|l| l[q].as_slice())
                }));
                merge_topk(&scratch, k)
            })
            .collect();
        Ok((merged, health))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;
    use unimatch_faults::{self as faults, FaultPlan, FaultRule};

    /// Serializes tests that arm the process-global fault plan — and,
    /// since every sharded search consults it, the tests that expect a
    /// healthy fan-out.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn store(rows: usize, dim: usize, seed: u64) -> Arc<EmbeddingStore> {
        let mut state = seed;
        let data: Vec<f32> = (0..rows * dim)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Arc::new(EmbeddingStore::from_vec(data, dim))
    }

    fn sharded_exact(store: &Arc<EmbeddingStore>, n: usize) -> ShardedRetriever {
        ShardedRetriever::build(store, n, ShardPolicy::default(), |view| {
            Box::new(BruteForceIndex::over(view))
        })
    }

    fn sharded_quorum(store: &Arc<EmbeddingStore>, n: usize, min: usize) -> ShardedRetriever {
        let policy = ShardPolicy { min_shards: Some(min) };
        ShardedRetriever::build(store, n, policy, |view| Box::new(BruteForceIndex::over(view)))
    }

    #[test]
    fn matches_unsharded_bitwise() {
        let _guard = fault_lock();
        let s = store(61, 8, 0x5eed);
        let whole = BruteForceIndex::over(s.clone());
        for n in [1, 2, 3, 7] {
            let sharded = sharded_exact(&s, n);
            assert_eq!(sharded.len(), 61);
            assert_eq!(sharded.shards(), n);
            for k in [0, 1, 5, 61, 100] {
                let a = whole.search(s.row(3), k);
                let b = sharded.search(s.row(3), k);
                assert_eq!(a.len(), b.len(), "n={n} k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.id, y.id, "n={n} k={k}");
                    assert_eq!(x.score.to_bits(), y.score.to_bits(), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn batch_matches_per_query() {
        let _guard = fault_lock();
        let s = store(40, 4, 0xf00d);
        let sharded = sharded_exact(&s, 3);
        let queries: Vec<f32> = (0..6).flat_map(|q| s.row(q * 5).to_vec()).collect();
        let batched = sharded.search_batch(&queries, 7);
        for (q, hits) in batched.iter().enumerate() {
            let single = sharded.search(&queries[q * 4..(q + 1) * 4], 7);
            assert_eq!(hits, &single, "query {q}");
        }
    }

    #[test]
    fn ties_across_shard_boundaries_keep_lowest_global_ids() {
        let _guard = fault_lock();
        // Rows 0..6 all identical: every score ties, so the global top-3
        // must be ids 0,1,2 regardless of where the shard cuts fall.
        let data = [1.0f32, 0.0].repeat(6);
        let s = Arc::new(EmbeddingStore::from_vec(data, 2));
        for n in [1, 2, 3, 4] {
            let sharded = sharded_exact(&s, n);
            let ids: Vec<u32> = sharded.search(&[1.0, 0.0], 3).iter().map(|h| h.id).collect();
            assert_eq!(ids, vec![0, 1, 2], "n={n}");
        }
    }

    #[test]
    fn more_shards_than_rows_clamps() {
        let _guard = fault_lock();
        let s = store(3, 2, 9);
        let sharded = sharded_exact(&s, 8);
        assert_eq!(sharded.shards(), 3);
        assert_eq!(sharded.search(s.row(0), 10).len(), 3);
    }

    #[test]
    fn empty_store_builds_one_empty_shard() {
        let _guard = fault_lock();
        let s = Arc::new(EmbeddingStore::zeroed(0, 4));
        let sharded = sharded_exact(&s, 4);
        assert_eq!(sharded.shards(), 1);
        assert!(sharded.is_empty());
        assert!(sharded.search(&[0.0; 4], 5).is_empty());
    }

    #[test]
    fn shard_views_share_the_parent_arena() {
        let s = store(10, 2, 1);
        let mut seen = 0;
        ShardedRetriever::build(&s, 2, ShardPolicy::default(), |view| {
            assert!(view.shares_arena(&s));
            seen += 1;
            Box::new(BruteForceIndex::over(view))
        });
        assert_eq!(seen, 2);
    }

    #[test]
    #[should_panic(expected = "shards must be positive")]
    fn zero_shards_rejected() {
        sharded_exact(&store(4, 2, 2), 0);
    }

    #[test]
    fn merge_is_exhaustive_when_k_exceeds_total() {
        let lists: Vec<Vec<Hit>> = vec![
            vec![Hit { id: 0, score: 0.9 }, Hit { id: 1, score: 0.1 }],
            vec![Hit { id: 2, score: 0.5 }],
        ];
        let refs: Vec<&[Hit]> = lists.iter().map(|l| l.as_slice()).collect();
        let merged = merge_topk(&refs, 10);
        let ids: Vec<u32> = merged.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![0, 2, 1]);
    }

    #[test]
    fn merge_orders_nan_scores_deterministically() {
        // total_cmp puts +NaN above +inf; under the old partial_cmp
        // comparator ("NaN == everything") the outcome depended on list
        // arrival order. Either way the merge must terminate and keep
        // every element exactly once.
        let lists: Vec<Vec<Hit>> = vec![
            vec![Hit { id: 0, score: f32::NAN }, Hit { id: 3, score: 0.2 }],
            vec![Hit { id: 1, score: 0.9 }, Hit { id: 2, score: 0.5 }],
        ];
        let refs: Vec<&[Hit]> = lists.iter().map(|l| l.as_slice()).collect();
        let merged = merge_topk(&refs, 10);
        let ids: Vec<u32> = merged.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "NaN sorts first under total_cmp");
        // Swapping the lists must not change the merged order.
        let swapped: Vec<&[Hit]> = vec![refs[1], refs[0]];
        let ids2: Vec<u32> = merge_topk(&swapped, 10).iter().map(|h| h.id).collect();
        assert_eq!(ids, ids2, "merge order must not depend on shard order");
    }

    #[test]
    fn io_fault_on_one_shard_degrades_under_quorum() {
        let _guard = fault_lock();
        let s = store(30, 4, 0xabc);
        let whole = BruteForceIndex::over(s.clone());
        let sharded = sharded_quorum(&s, 3, 1);
        faults::set_plan(FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new("ann.shard.search.0", FaultKind::IoError)
                .with_probability(1.0)],
        });
        let (lists, health) =
            sharded.search_batch_checked(s.row(2), 5, false).expect("quorum of 1 met");
        faults::clear();
        assert!(health.degraded());
        assert_eq!(health.total, 3);
        assert_eq!(health.failures, vec![(0, ShardFailureKind::Io)]);
        // The partial answer is exactly the full answer minus shard 0's rows.
        let expected: Vec<Hit> = whole
            .search(s.row(2), 30)
            .into_iter()
            .filter(|h| h.id >= 10)
            .take(5)
            .collect();
        assert_eq!(lists[0], expected);
    }

    #[test]
    fn strict_policy_fails_the_query_on_any_shard_failure() {
        let _guard = fault_lock();
        let s = store(20, 4, 0x11);
        let sharded = sharded_exact(&s, 2);
        faults::set_plan(FaultPlan {
            seed: 2,
            rules: vec![FaultRule::new("ann.shard.search.1", FaultKind::IoError)
                .with_probability(1.0)],
        });
        let err = sharded.search_batch_checked(s.row(0), 3, false).expect_err("strict policy");
        faults::clear();
        assert_eq!(err, QuorumError { healthy: 1, required: 2, total: 2 });
    }

    #[test]
    fn relax_quorum_overrides_a_strict_policy() {
        let _guard = fault_lock();
        let s = store(20, 4, 0x12);
        let sharded = sharded_exact(&s, 2);
        faults::set_plan(FaultPlan {
            seed: 3,
            rules: vec![FaultRule::new("ann.shard.search.1", FaultKind::IoError)
                .with_probability(1.0)],
        });
        let (lists, health) =
            sharded.search_batch_checked(s.row(0), 3, true).expect("relaxed quorum of 1");
        faults::clear();
        assert!(health.degraded());
        assert!(lists[0].iter().all(|h| h.id < 10), "only shard 0 rows remain");
    }

    #[test]
    fn shard_panic_is_captured_as_a_failure() {
        let _guard = fault_lock();
        let s = store(24, 4, 0x13);
        let sharded = sharded_quorum(&s, 2, 1);
        faults::set_plan(FaultPlan {
            seed: 4,
            rules: vec![
                FaultRule::new("ann.shard.search.0", FaultKind::Crash).with_probability(1.0)
            ],
        });
        let (_, health) =
            sharded.search_batch_checked(s.row(1), 4, false).expect("one healthy shard");
        faults::clear();
        assert_eq!(health.failures, vec![(0, ShardFailureKind::Panic)]);
    }

    #[test]
    fn blanket_shard_fault_misses_quorum_everywhere() {
        let _guard = fault_lock();
        let s = store(24, 4, 0x15);
        let sharded = sharded_quorum(&s, 3, 1);
        faults::set_plan(FaultPlan {
            seed: 6,
            rules: vec![
                FaultRule::new("ann.shard.search", FaultKind::IoError).with_probability(1.0)
            ],
        });
        let err = sharded.search_batch_checked(s.row(0), 4, false).expect_err("all shards down");
        faults::clear();
        assert_eq!(err.healthy, 0);
        assert_eq!(err.total, 3);
    }

    #[test]
    fn healthy_checked_path_is_bitwise_identical_and_reports_healthy() {
        let _guard = fault_lock();
        let s = store(50, 8, 0x16);
        let sharded = sharded_quorum(&s, 4, 2);
        let plain = sharded.search_batch(s.row(7), 9);
        let (checked, health) = sharded.search_batch_checked(s.row(7), 9, false).expect("healthy");
        assert!(!health.degraded());
        assert_eq!(health.total, 4);
        assert_eq!(plain, checked);
    }
}
