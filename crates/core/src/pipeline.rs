//! The canonical query pipeline: **embed → retrieve → rerank → respond**
//! as one composable object.
//!
//! Every surface that answers a UniMatch query —
//! [`FittedUniMatch::recommend_items`](crate::FittedUniMatch::recommend_items)
//! and [`target_users`](crate::FittedUniMatch::target_users), the serving
//! batcher, the campaign planner, the offline evaluators, and a serving
//! shadow deployment — executes the *same* [`MatchPipeline`], so a
//! behavior exists in exactly one place and two configurations can be
//! compared stage by stage:
//!
//! ```text
//!            ┌────────┐   ┌──────────────────┐   ┌────────┐   ┌───────────┐
//! history ──►│ embed  │──►│ retrieve         │──►│ rerank │──►│ translate │──► hits / (id, score)
//! item id ──►│ gather │   │ (sharded, quorum │   │ (chain │   │ (row →    │
//!            └────────┘   │  checked, over-  │   │  + de- │   │  external │
//!                         │  fetched)        │   │  grade)│   │  id)      │
//!                         └──────────────────┘   └────────┘   └───────────┘
//! ```
//!
//! A pipeline borrows its parts (index, store, chain, marginals) for the
//! duration of a call — it is a cheap, copy-on-construct *view* over a
//! deployment, not an owner. [`FittedUniMatch::item_pipeline`] and
//! [`FittedUniMatch::user_pipeline`] build the two tower-specific views;
//! [`MatchPipeline::over`] builds a standalone view for offline
//! comparisons (e.g. the backend-delta evaluation sweeps custom
//! HNSW indexes over a deployment's stores).
//!
//! Determinism contract: the composed runners (`run`, `run_one`,
//! `run_checked`) are the stages below called in order, so their results
//! are bitwise identical to composing the stages by hand — pinned by
//! `tests/pipeline_parity.rs`.
//!
//! Every retrieval — `retrieve_one`, `retrieve`, `run_one`, `run`,
//! `run_checked` — is one call to the same private fetch, which makes
//! exactly one [`Retriever::search_batch_checked`] call (a single query is
//! a batch of one) and around it:
//!
//! * clamps the fetch depth to the number of indexed rows: `k` arrives
//!   from outside the process (an HTTP body), and an index sizes its
//!   candidate heap from it;
//! * fires the `ann.search` fault point;
//! * opens the `unimatch_retrieval_search_us` span, labelled with the
//!   backend.
//!
//! So chaos drills and traces see one seam per retrieval, whatever the
//! backend or shard count.
//!
//! [`FittedUniMatch::item_pipeline`]: crate::FittedUniMatch::item_pipeline
//! [`FittedUniMatch::user_pipeline`]: crate::FittedUniMatch::user_pipeline

use crate::evaluate::embed_histories;
use unimatch_ann::{EmbeddingStore, Hit, QuorumError, Retriever, ShardHealth};
use unimatch_data::SeqBatch;
use unimatch_faults::FaultPoint;
use unimatch_models::TwoTower;
use unimatch_obs as obs;
use unimatch_rerank::{query_tag, BusinessRules, RerankChain, RerankContext, StageSkip};

/// Chaos-testing seam: a latency fault armed at `ann.search` models a slow
/// index (cold page cache, an overloaded shard). It fires once per
/// retrieval, before the index is called; disarmed, it costs one relaxed
/// atomic load.
const SEARCH_FAULT: FaultPoint = FaultPoint::new("ann.search");

/// What a fallible, degradable batch query returns: per-query result
/// lists plus the fan-out's [`ShardHealth`], or a [`QuorumError`] when
/// too few shards answered.
pub type CheckedBatch<T> = Result<(Vec<Vec<T>>, ShardHealth), QuorumError>;

/// Serving-time degradation knobs for one batched answer — the brownout
/// controller's hooks into the pipeline. [`DegradeOptions::NONE`] (the
/// default) is guaranteed bitwise invisible: every checked call with it
/// produces exactly the bytes of its unchecked counterpart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradeOptions {
    /// Skip `explore` re-ranking stages.
    pub skip_explore: bool,
    /// Skip `mmr` re-ranking stages.
    pub skip_mmr: bool,
    /// Over-fetch with [`RerankChain::fetch_k_reduced`] instead of the
    /// full headroom.
    pub shrink_overfetch: bool,
    /// Accept an answer from a single healthy shard (overrides the
    /// configured quorum for this call).
    pub relax_quorum: bool,
}

impl DegradeOptions {
    /// Full quality — no degradation.
    pub const NONE: DegradeOptions = DegradeOptions {
        skip_explore: false,
        skip_mmr: false,
        shrink_overfetch: false,
        relax_quorum: false,
    };

    /// The rerank-stage skip set these options imply.
    pub fn stage_skip(self) -> StageSkip {
        StageSkip { explore: self.skip_explore, mmr: self.skip_mmr }
    }
}

/// Where a pipeline's query embeddings come from — the *embed* stage.
pub enum QuerySource<'a> {
    /// Queries are histories, embedded through the user tower (the IR
    /// direction).
    Tower {
        /// The trained two-tower model.
        model: &'a TwoTower,
        /// History truncation length the model was fitted with.
        max_seq_len: usize,
    },
    /// Queries are rows gathered from an embedding store by id (the UT
    /// direction: item rows querying the user index).
    Rows(&'a EmbeddingStore),
    /// The caller supplies pre-embedded queries; [`MatchPipeline::embed`]
    /// and [`MatchPipeline::gather`] panic.
    External,
}

/// One tower's query pipeline: a borrowed view over an index, its
/// backing store, and the re-ranking chain, exposing the stage sequence
/// both as composed runners (`run*`) and as individual stages for
/// callers that interleave their own work (e.g. the serving batcher's
/// grouping by `k` between *embed* and *retrieve*).
pub struct MatchPipeline<'a> {
    source: QuerySource<'a>,
    index: &'a dyn Retriever,
    store: &'a EmbeddingStore,
    rerank: &'a RerankChain,
    log_marginals: Option<&'a [f32]>,
    external_ids: Option<&'a [u32]>,
    rules: Option<&'a BusinessRules>,
    seed: u64,
}

impl<'a> MatchPipeline<'a> {
    /// A standalone pipeline over an index, the store its hit rows point
    /// into, and a re-ranking chain — with no embed source, no
    /// marginals, no rules, and seed 0. The offline-comparison
    /// entry point; attach the optional parts with the `with_*`
    /// builders.
    pub fn over(
        index: &'a dyn Retriever,
        store: &'a EmbeddingStore,
        rerank: &'a RerankChain,
    ) -> MatchPipeline<'a> {
        MatchPipeline {
            source: QuerySource::External,
            index,
            store,
            rerank,
            log_marginals: None,
            external_ids: None,
            rules: None,
            seed: 0,
        }
    }

    /// Attaches the embed stage's input source.
    pub fn with_source(mut self, source: QuerySource<'a>) -> Self {
        self.source = source;
        self
    }

    /// Attaches row-aligned `log p̂(·)` marginals (read by the debias
    /// stage).
    pub fn with_marginals(mut self, log_marginals: &'a [f32]) -> Self {
        self.log_marginals = Some(log_marginals);
        self
    }

    /// Attaches a row → external-id table (the user tower's pool rows;
    /// also consulted by [`MatchPipeline::translate`]).
    pub fn with_external_ids(mut self, external_ids: &'a [u32]) -> Self {
        self.external_ids = Some(external_ids);
        self
    }

    /// Attaches business rules for the chain's filter/cap stages.
    pub fn with_rules(mut self, rules: Option<&'a BusinessRules>) -> Self {
        self.rules = rules;
        self
    }

    /// Sets the deployment seed of the deterministic exploration stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    // ---- stage: embed / gather -------------------------------------------

    /// Embedding dimension of the query space.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Number of indexed rows (the retrieval candidate count).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// The chain's over-fetch for a caller-requested `k` (identity
    /// chains fetch exactly `k`).
    pub fn fetch_k(&self, k: usize) -> usize {
        self.rerank.fetch_k(k)
    }

    /// Whether `degrade` can change response *content* on this pipeline —
    /// true when it shrinks a non-identity chain's over-fetch or skips a
    /// stage the chain actually runs. Quorum relaxation alone never
    /// changes bytes on a healthy fan-out, so it does not count; a
    /// fan-out that actually lost shards is flagged through
    /// [`ShardHealth`] instead.
    pub fn degrade_affects_content(&self, degrade: DegradeOptions) -> bool {
        (degrade.shrink_overfetch && !self.rerank.is_identity())
            || self.rerank.skip_affects(degrade.stage_skip())
    }

    /// *Embed*, batched: histories through the tower in parallel chunks,
    /// flattened in input order (`n × dim`). Panics unless the source is
    /// [`QuerySource::Tower`].
    pub fn embed(&self, histories: &[&[u32]]) -> Vec<f32> {
        match self.source {
            QuerySource::Tower { model, max_seq_len } => {
                embed_histories(model, histories, max_seq_len)
            }
            _ => panic!("this pipeline has no tower to embed histories with"),
        }
    }

    /// *Embed*, single query: one forward pass, identical bytes to the
    /// batched path's row for the same history.
    pub fn embed_one(&self, history: &[u32]) -> Vec<f32> {
        match self.source {
            QuerySource::Tower { model, max_seq_len } => {
                let batch = SeqBatch::from_histories(&[history], max_seq_len);
                model.infer_users(&batch).into_vec()
            }
            _ => panic!("this pipeline has no tower to embed histories with"),
        }
    }

    /// *Gather*: query rows decoded from the source store by id,
    /// flattened in input order (no re-inference). Panics unless the
    /// source is [`QuerySource::Rows`].
    pub fn gather(&self, ids: &[u32]) -> Vec<f32> {
        match self.source {
            QuerySource::Rows(store) => ids
                .iter()
                .flat_map(|&i| store.decode_row(i as usize).into_owned())
                .collect(),
            _ => panic!("this pipeline has no row store to gather queries from"),
        }
    }

    // ---- stage: retrieve --------------------------------------------------

    /// The one index call behind every retrieval: the depth clamped to
    /// the indexed row count, the `ann.search` fault, and the
    /// `unimatch_retrieval_search_us` span around one checked batch.
    fn fetch(&self, queries: &[f32], depth: usize, relax_quorum: bool) -> CheckedBatch<Hit> {
        SEARCH_FAULT.inject_latency();
        let _span = obs::span_us("unimatch_retrieval_search_us", self.index.obs_label());
        self.index.search_batch_checked(queries, depth.min(self.len()), relax_quorum)
    }

    /// *Retrieve*, single query at an explicit fetch depth (clamped to
    /// the indexed row count): a batch of one.
    pub fn retrieve_one(&self, query: &[f32], fetch: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim(), "query dim mismatch");
        self.retrieve(query, fetch).swap_remove(0)
    }

    /// *Retrieve*, batched at an explicit fetch depth (clamped to the
    /// indexed row count) with **no** chain — also the raw baseline the
    /// offline evaluators compare against. Panicking form: a missed
    /// shard quorum propagates.
    pub fn retrieve(&self, queries: &[f32], fetch: usize) -> Vec<Vec<Hit>> {
        or_panic(self.fetch(queries, fetch, false))
    }

    // ---- stage: rerank ----------------------------------------------------

    /// *Rerank*: the configured chain over one query's retrieval result.
    /// Identity chains return `hits` untouched — same allocation, same
    /// bytes — so an unconfigured deployment is bitwise unchanged.
    pub fn rerank(&self, query: &[f32], hits: Vec<Hit>, k: usize) -> Vec<Hit> {
        self.rerank_skipping(query, hits, k, StageSkip::NONE)
    }

    /// [`MatchPipeline::rerank`] minus the stages in `skip`.
    fn rerank_skipping(&self, query: &[f32], hits: Vec<Hit>, k: usize, skip: StageSkip) -> Vec<Hit> {
        if self.rerank.is_identity() {
            return hits;
        }
        let ctx = RerankContext {
            store: Some(self.store),
            log_marginals: self.log_marginals,
            external_ids: self.external_ids,
            rules: self.rules,
            seed: self.seed,
            query_tag: query_tag(query),
            k,
        };
        self.rerank.apply_degraded(&ctx, hits, skip)
    }

    // ---- stage: respond ---------------------------------------------------

    /// *Translate*: hit rows to `(external_id, score)` pairs through the
    /// store's id mapping (identity for the item tower, pool row → user
    /// id for the user tower).
    pub fn translate(&self, hits: Vec<Hit>) -> Vec<(u32, f32)> {
        hits.into_iter().map(|h| (self.store.id_of_row(h.id as usize), h.score)).collect()
    }

    // ---- composed runners -------------------------------------------------

    /// Embedded single query → over-fetched retrieval → chain → top-k:
    /// [`MatchPipeline::run`] on a batch of one.
    pub fn run_one(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim(), "query dim mismatch");
        self.run(query, k).swap_remove(0)
    }

    /// Batched queries (`n × dim` flat) → over-fetched retrieval → chain
    /// → top-k per query, in input order. Identical to
    /// [`MatchPipeline::run_one`] per row; a missed shard quorum panics
    /// (use [`MatchPipeline::run_checked`] to handle it).
    pub fn run(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        or_panic(self.run_checked(queries, k, DegradeOptions::NONE))
    }

    /// Fallible, degradable form of [`MatchPipeline::run`]: the
    /// retrieval fan-out runs under shard failure isolation and the
    /// returned [`ShardHealth`] reports any dropped shards; `degrade`
    /// applies the brownout ladder's quality reductions. With
    /// [`DegradeOptions::NONE`] and a healthy fan-out the hit lists are
    /// exactly [`MatchPipeline::run`]'s.
    pub fn run_checked(
        &self,
        queries: &[f32],
        k: usize,
        degrade: DegradeOptions,
    ) -> CheckedBatch<Hit> {
        let dim = self.store.dim();
        let fetch = if degrade.shrink_overfetch {
            self.rerank.fetch_k_reduced(k)
        } else {
            self.rerank.fetch_k(k)
        };
        let (lists, health) = self.fetch(queries, fetch, degrade.relax_quorum)?;
        let skip = degrade.stage_skip();
        let reranked = lists
            .into_iter()
            .enumerate()
            .map(|(q, hits)| self.rerank_skipping(&queries[q * dim..(q + 1) * dim], hits, k, skip))
            .collect();
        Ok((reranked, health))
    }
}

/// The lists of a checked batch; a missed shard quorum panics.
fn or_panic<T>(batch: CheckedBatch<T>) -> Vec<Vec<T>> {
    match batch {
        Ok((lists, _)) => lists,
        Err(e) => panic!("sharded search failed: {e}"),
    }
}
