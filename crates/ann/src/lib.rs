//! # unimatch-ann
//!
//! The retrieval engine serving UniMatch embeddings: the two-tower
//! architecture keeps user and item representations separable precisely
//! so retrieval can run through an index like these (Sec. III-B1 of the
//! paper, citing \[25\]).
//!
//! Three layers:
//!
//! * [`EmbeddingStore`] — the shared, 32-byte-aligned, row-major
//!   embedding arena every backend scores against (one copy of the
//!   vectors, however many indexes are built over it). Rows can be
//!   stored full-precision or quantized ([`RowFormat`]: `f32` / per-row
//!   affine `i8`);
//! * [`kernel`] — the single exact-scoring kernel: the workspace's one
//!   [`kernel::dot`], the blocked/tiled [`kernel::top_k_exact`], and its
//!   store-aware twin [`kernel::top_k_exact_store`] whose inner loop is
//!   the fused dequant-dot for quantized rows;
//! * [`Retriever`] — the backend-agnostic search trait, implemented by
//!   [`BruteForceIndex`] (exact scan, the correctness baseline) and
//!   [`HnswIndex`] (hierarchical navigable small-world graph). A backend
//!   implements one search, the checked batch
//!   ([`Retriever::search_batch_checked`]); a single query is a batch of
//!   one.
//!
//! All backends perform maximum-inner-product top-k over unit vectors
//! (equivalently cosine similarity). `AnnIndex` remains as an alias of
//! [`Retriever`] for code written against the pre-engine API.
//!
//! On top of the backends, [`ShardedRetriever`] partitions a store into
//! contiguous row ranges (zero-copy [`EmbeddingStore::view_rows`] views
//! of one arena), searches the per-range indexes in parallel, and k-way
//! merges the results under the canonical `(score desc, lowest id)`
//! order — bitwise identical to the unsharded search for exact backends.
//! It too implements only the checked batch, and calls each shard's.
//!
//! The per-retrieval seam is not in this crate: `unimatch-core`'s
//! `MatchPipeline` fires the `ann.search` fault and opens the
//! `unimatch_retrieval_search_us` span once around each index call.
//!
//! The crate reads and writes no files: stores are built in memory from
//! the checkpoint the serving layer decodes.

#![warn(missing_docs)]

pub mod bruteforce;
pub mod hnsw;
pub mod index;
pub mod kernel;
pub mod order;
pub mod sharded;
pub mod store;

pub use bruteforce::BruteForceIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use index::{
    Hit, QuorumError, Retriever, Retriever as AnnIndex, ShardFailureKind, ShardHealth,
};
pub use kernel::{dot, top_k_exact, top_k_exact_store};
pub use order::{canonical, sort_canonical};
pub use sharded::{ShardPolicy, ShardedRetriever};
pub use store::{i8_decode, i8_encode, i8_row_params, EmbeddingStore, RowFormat, STORE_ALIGN};
