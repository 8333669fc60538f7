//! The common retrieval interface: maximum-inner-product / cosine top-k
//! search over unit-normalized embeddings.
//!
//! Every index implements [`Retriever`]; serving code (the `unimatch-core`
//! batch-inference pipeline, the serve handlers, the examples, the bench
//! harness) programs against the trait so brute force and HNSW are
//! interchangeable. Besides the per-query [`Retriever::search`], the trait
//! provides [`Retriever::search_batch`], which answers many queries in one
//! call and fans them out across threads via `unimatch-parallel` when the
//! total scoring work crosses the configured threshold. The batched
//! results are *identical* to calling `search` per query — parallelism
//! only changes which thread scores which query, never the scores or the
//! ordering.
//!
//! The historical `AnnIndex` name remains available as an alias of
//! [`Retriever`] from the crate root.

use std::fmt;

use unimatch_faults::FaultPoint;
use unimatch_obs as obs;
use unimatch_parallel::par_map_indexed;

/// Chaos-testing seam: a latency fault armed at `ann.search` models a slow
/// index (cold page cache, an overloaded shard). Disarmed cost is one
/// relaxed atomic load per batch.
const SEARCH_FAULT: FaultPoint = FaultPoint::new("ann.search");

/// Why one shard's contribution to a fan-out was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFailureKind {
    /// The shard's search reported an I/O error (injected or real).
    Io,
    /// The shard's search panicked; the fan-out captured the unwind.
    Panic,
}

/// Health report of one checked search fan-out: how many partitions were
/// asked, and which of them failed (with the reason). An empty failure
/// list means the answer is complete; a non-empty one means the hits are
/// a *partial* top-k over the shards that did answer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Partitions the fan-out covers (1 for unsharded backends).
    pub total: usize,
    /// `(shard index, reason)` for every dropped shard.
    pub failures: Vec<(u32, ShardFailureKind)>,
}

impl ShardHealth {
    /// A fully healthy fan-out over `total` partitions.
    pub fn healthy(total: usize) -> ShardHealth {
        ShardHealth { total, failures: Vec::new() }
    }

    /// True when at least one shard was dropped (the answer is partial).
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Shards that answered.
    pub fn healthy_shards(&self) -> usize {
        self.total - self.failures.len()
    }
}

/// Fewer shards answered than the quorum policy requires; the query has
/// no usable (even partial) result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumError {
    /// Shards that answered.
    pub healthy: usize,
    /// Minimum healthy shards the effective policy demanded.
    pub required: usize,
    /// Total shards in the fan-out.
    pub total: usize,
}

impl fmt::Display for QuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard quorum missed: {}/{} shards healthy, policy requires {}",
            self.healthy, self.total, self.required
        )
    }
}

impl std::error::Error for QuorumError {}

/// Per-call options for [`Retriever::search_batch_checked`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchOptions {
    /// Relax the quorum to a single healthy shard for this call — the
    /// brownout ladder's "answer from whatever is still standing" step.
    /// Ignored by unsharded backends.
    pub relax_quorum: bool,
}

/// A scored search hit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// Row id of the matched vector.
    pub id: u32,
    /// Inner-product score (cosine similarity for unit vectors).
    pub score: f32,
}

/// A top-k nearest-neighbour retriever over a fixed set of vectors.
///
/// UniMatch's two-tower separation exists precisely so serving can run
/// through an index like this (Sec. III-B1): item embeddings are indexed
/// once, user queries arrive online (IR); or vice versa (UT).
///
/// Implementations score against a shared [`crate::EmbeddingStore`]; the
/// exact reference implementation is [`crate::BruteForceIndex`], and every
/// backend is expected to agree with it up to its documented approximation
/// (exact backends bit-for-bit, ANN backends on recall).
///
/// The `Sync` supertrait keeps the trait object-safe (`dyn Retriever` is
/// used by the serving layer, the examples, and pipeline tests) while
/// allowing the default [`Retriever::search_batch`] to share `&self`
/// across threads.
pub trait Retriever: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimension.
    fn dim(&self) -> usize;

    /// Stable backend name (`"bruteforce"`, `"hnsw"`), used for
    /// metric labels and surfaced through serving introspection.
    fn backend(&self) -> &'static str;

    /// Pre-formatted `index="…"` label for obs series (static because the
    /// metrics registry interns label sets by pointer).
    fn obs_label(&self) -> &'static str {
        match self.backend() {
            "bruteforce" => "index=\"bruteforce\"",
            "hnsw" => "index=\"hnsw\"",
            _ => "index=\"other\"",
        }
    }

    /// Number of partitions answering each search: 1 for every plain
    /// backend; [`crate::ShardedRetriever`] reports its fan-out.
    /// Surfaced through serving introspection (`/healthz`).
    fn shards(&self) -> usize {
        1
    }

    /// The `k` highest-inner-product vectors for `query`, best first.
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit>;

    /// Answers one row-major batch of queries (`queries.len()` must be a
    /// multiple of [`Retriever::dim`]), returning one hit list per query
    /// in input order.
    ///
    /// The default implementation fans the queries out over threads with
    /// `unimatch-parallel` when `n_queries × len × dim` multiply-adds exceed
    /// the global work threshold, and falls back to a plain loop otherwise.
    /// Either way each query is answered by the same [`Retriever::search`]
    /// code, so results are identical to the sequential path. Exact
    /// backends override this with the blocked kernel
    /// ([`crate::kernel::top_k_exact`]), which carries the same guarantee.
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        SEARCH_FAULT.inject_latency();
        let _span = obs::span_us("unimatch_retrieval_search_us", self.obs_label());
        let d = self.dim();
        assert!(d > 0, "search_batch on an index with zero dimension");
        assert_eq!(
            queries.len() % d,
            0,
            "query batch length {} is not a multiple of dim {}",
            queries.len(),
            d
        );
        let nq = queries.len() / d;
        // 2 flops per multiply-add; exact for brute force, an upper bound
        // for HNSW, which walks a graph.
        let work = nq * self.len() * d * 2;
        par_map_indexed(nq, work, |i| self.search(&queries[i * d..(i + 1) * d], k))
    }

    /// Fallible form of [`Retriever::search_batch`] that also reports
    /// fan-out health. Unsharded backends have no partitions to isolate,
    /// so the default implementation delegates to the infallible path and
    /// always reports a healthy single-partition fan-out;
    /// [`crate::ShardedRetriever`] overrides it with per-shard failure
    /// isolation and a quorum policy.
    fn search_batch_checked(
        &self,
        queries: &[f32],
        k: usize,
        opts: SearchOptions,
    ) -> Result<(Vec<Vec<Hit>>, ShardHealth), QuorumError> {
        let _ = opts;
        Ok((self.search_batch(queries, k), ShardHealth::healthy(self.shards())))
    }
}

/// Fires the `ann.search` latency fault and opens the batch retrieval
/// span — for implementations that override [`Retriever::search_batch`]
/// and must keep the chaos/obs seams identical to the default path.
pub(crate) fn batch_entry_hooks(label: &'static str) -> obs::Span {
    SEARCH_FAULT.inject_latency();
    obs::span_us("unimatch_retrieval_search_us", label)
}
