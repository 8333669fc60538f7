//! The common retrieval interface: maximum-inner-product / cosine top-k
//! search over unit-normalized embeddings.
//!
//! Every index implements [`Retriever`]; serving code (the `unimatch-core`
//! query pipeline, the examples, the test suites) programs against the
//! trait so brute force, HNSW and the sharded fan-out are interchangeable.
//! A backend implements one search, [`Retriever::search_batch_checked`]: a
//! row-major batch of queries in, one hit list per query and the fan-out's
//! [`ShardHealth`] out. [`Retriever::search`] (a batch of one) and
//! [`Retriever::search_batch`] (a missed quorum panics) are forwards over
//! it that no backend overrides, so a single query and a batch run the
//! same code and agree bit for bit.
//!
//! This layer has no fault point and no per-call span: the `ann.search`
//! fault and the `unimatch_retrieval_search_us` span sit in
//! `unimatch-core`'s `MatchPipeline`, which every serving retrieval goes
//! through, so each fires once per retrieval at any backend and shard
//! count.
//!
//! The historical `AnnIndex` name remains available as an alias of
//! [`Retriever`] from the crate root.

use std::fmt;

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
/// letting a backend share `&self` across the threads of a batch.
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

    /// Answers one row-major batch of queries (`queries.len()` must be a
    /// multiple of [`Retriever::dim`]): the `k` highest-inner-product rows
    /// per query, best first, in input order, and the fan-out's health.
    /// The one search a backend implements.
    ///
    /// Unsharded backends report one healthy partition and ignore
    /// `relax_quorum`. [`crate::ShardedRetriever`] drops failed shards from
    /// the merge and fails the call when fewer answered than its policy
    /// requires, or than one when `relax_quorum` is set (the brownout
    /// ladder's "answer from whatever is still standing" step).
    fn search_batch_checked(
        &self,
        queries: &[f32],
        k: usize,
        relax_quorum: bool,
    ) -> Result<(Vec<Vec<Hit>>, ShardHealth), QuorumError>;

    /// [`Retriever::search_batch_checked`] under the configured quorum,
    /// without the health report; a missed quorum panics.
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        match self.search_batch_checked(queries, k, false) {
            Ok((lists, _)) => lists,
            Err(e) => panic!("sharded search failed: {e}"),
        }
    }

    /// The `k` highest-inner-product vectors for `query`, best first: a
    /// batch of one.
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim(), "query dim mismatch");
        self.search_batch(query, k).swap_remove(0)
    }
}

/// The number of `dim`-wide queries in a row-major batch.
///
/// # Panics
/// Panics when `dim` is 0 or the batch is ragged.
pub(crate) fn query_count(queries: &[f32], dim: usize) -> usize {
    assert!(dim > 0, "search_batch on an index with zero dimension");
    assert_eq!(
        queries.len() % dim,
        0,
        "query batch length {} is not a multiple of dim {}",
        queries.len(),
        dim
    );
    queries.len() / dim
}
