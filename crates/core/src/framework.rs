//! The user-facing UniMatch framework: one model, both marketing tasks.
//!
//! ```text
//! raw logs ──► prepare ──► incremental bbcNCE training ──► embeddings
//!                                                      ├─► item ANN index ──► recommend_items (IR)
//!                                                      └─► user ANN index ──► target_users    (UT)
//! ```

use crate::evaluate::embed_histories;
use crate::pipeline::{MatchPipeline, QuerySource};
use crate::prepare::PreparedData;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use unimatch_ann::{
    BruteForceIndex, EmbeddingStore, Hit, HnswConfig, HnswIndex, Retriever,
    RowFormat, ShardPolicy, ShardedRetriever,
};
use unimatch_data::{InteractionLog, Marginals};
use unimatch_eval::UserPool;
use unimatch_rerank::{BusinessRules, RerankChain};
use unimatch_losses::{BiasConfig, MultinomialLoss};
use unimatch_models::{Aggregator, ContextExtractor, ModelConfig, TwoTower};
use unimatch_parallel::Parallelism;
use unimatch_train::{AdamConfig, TrainConfig, TrainError, TrainLoss, Trainer};

/// Framework configuration. Defaults follow the paper's production choice:
/// Youtube-DNN + mean pooling trained with bbcNCE, d = 16.
#[derive(Clone, Debug)]
pub struct UniMatchConfig {
    /// Embedding dimension of the model `fit` creates. Serving and
    /// resuming take the shape from the model they are handed.
    pub embed_dim: usize,
    /// Softmax temperature τ.
    pub temperature: f32,
    /// Batch size.
    pub batch_size: usize,
    /// Epochs per incremental month.
    pub epochs_per_month: usize,
    /// History truncation length of the model `fit` creates (see
    /// [`UniMatchConfig::embed_dim`]).
    pub max_seq_len: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Loss (defaults to bbcNCE — the whole point of the framework).
    pub loss: TrainLoss,
    /// Context extractor.
    pub extractor: ContextExtractor,
    /// Aggregator.
    pub aggregator: Aggregator,
    /// Master seed.
    pub seed: u64,
    /// Thread configuration for the compute kernels, installed globally at
    /// the start of every `fit`/`resume`/`serve`.
    /// [`Parallelism::sequential`] reproduces the single-threaded behavior
    /// exactly; the default auto-detects the core count.
    pub parallelism: Parallelism,
    /// Which retrieval backend serves both towers' searches.
    pub retriever: RetrieverKind,
    /// Row-range shard count for both towers' retrieval indexes. `1`
    /// builds one index per tower (the historical layout); `N > 1` wraps
    /// each tower in a [`ShardedRetriever`] — N backend indexes over
    /// zero-copy views of the tower's arena, searched in parallel and
    /// merged under the canonical top-k order. Exact retrieval results
    /// are bitwise independent of this setting; it is a
    /// throughput/latency knob (see docs/OPERATIONS.md).
    pub shards: usize,
    /// Failure-isolation policy for sharded fan-outs (the `min_shards`
    /// quorum; see [`ShardPolicy`]). The default is strict — every shard
    /// must answer — which reproduces the historical behavior exactly.
    /// Ignored when `shards == 1`.
    pub shard_policy: ShardPolicy,
    /// Post-retrieval re-ranking pipeline (see [`unimatch_rerank`]).
    /// The default (empty spec, no rules) is the identity chain, which
    /// is bitwise invisible at every call site.
    pub rerank: RerankConfig,
    /// Row format of both towers' serving stores. [`RowFormat::F32`]
    /// (the default) is the bit-exact reference; `I8` quantizes the
    /// embedding arenas after training — smaller tables scored through
    /// the fused dequant-dot kernel, recall-gated by the quant
    /// differential suite (see docs/OPERATIONS.md for the trade-offs).
    pub store: RowFormat,
}

/// Configuration of the post-retrieval re-ranking pipeline.
#[derive(Clone, Debug, Default)]
pub struct RerankConfig {
    /// Chain spec (e.g. `debias@0.5,mmr@0.3,cap:category=3,explore@0.1`;
    /// see the grammar in `unimatch-rerank`). Must parse — validate with
    /// [`RerankChain::parse`] before constructing a framework; an
    /// invalid spec panics when the serving indexes are built. Empty =
    /// identity chain.
    pub spec: String,
    /// Business rules (allow/deny sets, category assignments) for the
    /// `filter`/`cap` stages, pre-loaded by the caller — building the
    /// serving indexes never touches the filesystem.
    pub rules: Option<Arc<BusinessRules>>,
}

/// The retrieval backend built over each tower's embedding store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RetrieverKind {
    /// Exact blocked scan (`BruteForceIndex`) — bit-reproducible scores,
    /// the reference the approximate backend is measured against, and
    /// the measured winner at the benchmarked corpus size (see
    /// docs/OPERATIONS.md).
    #[default]
    Exact,
    /// HNSW graph (the paper's production choice for online serving).
    Hnsw,
}

impl RetrieverKind {
    /// Parses a CLI/config name (`exact`, `hnsw`).
    pub fn parse(name: &str) -> Option<RetrieverKind> {
        match name {
            "exact" | "bruteforce" => Some(RetrieverKind::Exact),
            "hnsw" => Some(RetrieverKind::Hnsw),
            _ => None,
        }
    }

    /// The stable backend name ([`Retriever::backend`] of the index this
    /// kind builds).
    pub fn name(self) -> &'static str {
        match self {
            RetrieverKind::Exact => "bruteforce",
            RetrieverKind::Hnsw => "hnsw",
        }
    }

    /// Builds an index of this kind over a shared store, wrapped in a
    /// [`ShardedRetriever`] when `shards > 1` (one backend index per
    /// contiguous row range, each over a zero-copy view of `store`).
    fn build(
        self,
        store: Arc<EmbeddingStore>,
        shards: usize,
        policy: ShardPolicy,
        rng: &mut StdRng,
    ) -> Box<dyn Retriever> {
        if shards > 1 {
            Box::new(ShardedRetriever::build(&store, shards, policy, |view| {
                self.build_one(view, rng)
            }))
        } else {
            self.build_one(store, rng)
        }
    }

    /// Builds one unsharded index of this kind over a shared store.
    fn build_one(self, store: Arc<EmbeddingStore>, rng: &mut StdRng) -> Box<dyn Retriever> {
        match self {
            RetrieverKind::Exact => Box::new(BruteForceIndex::over(store)),
            RetrieverKind::Hnsw => {
                Box::new(HnswIndex::build_over(store, HnswConfig::default(), rng))
            }
        }
    }
}

impl Default for UniMatchConfig {
    fn default() -> Self {
        UniMatchConfig {
            embed_dim: 16,
            temperature: 0.15,
            batch_size: 64,
            epochs_per_month: 2,
            max_seq_len: 20,
            lr: 0.01,
            loss: TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
            extractor: ContextExtractor::YoutubeDnn,
            aggregator: Aggregator::Mean,
            seed: 42,
            parallelism: Parallelism::auto(),
            retriever: RetrieverKind::default(),
            shards: 1,
            shard_policy: ShardPolicy::default(),
            rerank: RerankConfig::default(),
            store: RowFormat::F32,
        }
    }
}

/// A trained UniMatch deployment: the model, both towers' embedding
/// stores, and a retrieval index over each store.
pub struct FittedUniMatch {
    /// The trained model.
    pub model: TwoTower,
    /// One pseudo-user per distinct user, aligned with `user_index` rows.
    pub user_pool: UserPool,
    /// The item-tower embedding arena (row = item id).
    item_store: Arc<EmbeddingStore>,
    /// The user-tower embedding arena (row = pool index, id = user id).
    user_store: Arc<EmbeddingStore>,
    /// Retrieval index over item embeddings (serves IR).
    item_index: Box<dyn Retriever>,
    /// Retrieval index over pool-user embeddings (serves UT).
    user_index: Box<dyn Retriever>,
    max_seq_len: usize,
    /// Post-retrieval re-ranking chain, applied to every search result
    /// before it leaves this struct. Identity unless configured.
    rerank: RerankChain,
    /// Business rules for the chain's filter/cap stages (item side only).
    rerank_rules: Option<Arc<BusinessRules>>,
    /// Training marginals — from the prepared data when training, and on
    /// the serving path the checkpoint's persisted section or, without
    /// one, the same counts read off the serving log.
    marginals: Arc<Marginals>,
    /// `log p̂(i)` aligned with item-store rows (row = item id).
    item_log_p: Vec<f32>,
    /// `log p̂(u)` aligned with user-store rows (row = pool index).
    user_log_p: Vec<f32>,
    /// Seed component of the deterministic exploration stream.
    rerank_seed: u64,
}

/// The framework: configure once, [`UniMatch::fit`] per merchant.
#[derive(Clone, Debug, Default)]
pub struct UniMatch {
    /// Configuration.
    pub config: UniMatchConfig,
}

impl UniMatch {
    /// A framework with the default (paper production) configuration.
    pub fn new(config: UniMatchConfig) -> Self {
        UniMatch { config }
    }

    /// Trains on a merchant's interaction log and builds both serving
    /// indexes. One `fit` serves IR *and* UT — the paper's cost story.
    pub fn fit(&self, log: InteractionLog) -> FittedUniMatch {
        let prepared = PreparedData::from_log(log, self.config.max_seq_len);
        let model = self.new_model(prepared.num_items());
        self.train_then_serve(model, prepared, None)
    }

    /// The freshly initialized model `fit`/`fit_durable` start from: the
    /// one place the configuration's shape becomes a model's.
    pub(crate) fn new_model(&self, num_items: usize) -> TwoTower {
        let cfg = &self.config;
        let model_cfg = ModelConfig {
            num_items,
            embed_dim: cfg.embed_dim,
            max_seq_len: cfg.max_seq_len,
            extractor: cfg.extractor,
            aggregator: cfg.aggregator,
            temperature: cfg.temperature,
            normalize: true,
        };
        TwoTower::new(model_cfg, &mut StdRng::seed_from_u64(cfg.seed))
    }

    /// The production monthly update: resumes training from last cycle's
    /// model, consuming only the months strictly after `trained_through`,
    /// and rebuilds the serving indexes. One month of data from a
    /// checkpoint instead of a yearly from-scratch retrain — the 1/12
    /// factor of Sec. IV-B5.
    ///
    /// The log must use the same dense item universe the model was trained
    /// on (new items require a fresh `fit`). Histories are truncated to
    /// the model's own `max_seq_len`, whatever the configuration says.
    pub fn resume(
        &self,
        model: TwoTower,
        log: InteractionLog,
        trained_through: u32,
    ) -> FittedUniMatch {
        assert!(
            (log.num_items() as usize) <= model.config().num_items,
            "log contains items outside the model's vocabulary; refit instead"
        );
        let prepared = PreparedData::from_log(log, model.config().max_seq_len);
        self.train_then_serve(model, prepared, Some(trained_through))
    }

    /// Builds the serving indexes around an existing model WITHOUT any
    /// training — the CLI / serving-only path (e.g. reloading a persisted
    /// checkpoint to answer queries). The deployment is shaped by the
    /// model (`embed_dim`, `max_seq_len`), not by the configuration. The
    /// log is never windowed: the user pool and the training marginals
    /// are read straight off its timelines ([`UserPool::from_log`],
    /// [`Marginals::from_log`]).
    pub fn serve(&self, model: TwoTower, log: InteractionLog) -> FittedUniMatch {
        self.config.parallelism.install_global();
        let pool = UserPool::from_log(&log, model.config().max_seq_len);
        self.build_serving_with(model, pool, Marginals::from_log(&log), None)
    }

    /// [`UniMatch::serve`], but reusing an item-embedding store already
    /// materialized elsewhere — the checkpoint-direct path: the store the
    /// checkpoint loader returns alongside the model is indexed as-is,
    /// with no re-inference over the item tower — and with the
    /// checkpoint's persisted marginals, when it carries the optional
    /// section, in place of the ones counted off the serving log, so the
    /// debias stage sees exactly the training-time `p̂(i)`/`p̂(u)` tables.
    ///
    /// The store must hold this model's normalized item embeddings
    /// (`rows == num_items`, `dim == embed_dim`); the loader guarantees
    /// that for stores it returns alongside the model.
    pub fn serve_with_store_and_marginals(
        &self,
        model: TwoTower,
        log: &InteractionLog,
        item_store: Arc<EmbeddingStore>,
        marginals: Option<Marginals>,
    ) -> FittedUniMatch {
        self.config.parallelism.install_global();
        let pool = UserPool::from_log(log, model.config().max_seq_len);
        let marginals = marginals.unwrap_or_else(|| Marginals::from_log(log));
        self.build_serving_with(model, pool, marginals, Some(item_store))
    }

    /// The core of `fit`/`resume`: trains the months after `resume_after`
    /// (all of them for `None`), then builds the serving indexes. A bad
    /// training config panics with its [`TrainError`] before the first
    /// step. The durable runner ([`crate::durable`]) shares
    /// [`UniMatch::new_model`], [`UniMatch::train_config`] and
    /// [`UniMatch::build_serving_with`] with this path.
    fn train_then_serve(
        &self,
        model: TwoTower,
        prepared: PreparedData,
        resume_after: Option<u32>,
    ) -> FittedUniMatch {
        self.config.parallelism.install_global();
        let train_config = self.train_config(model.config().max_seq_len);
        let trained = Trainer::try_new(model, train_config)
            .and_then(|mut trainer| {
                trainer.train_incremental_from(&prepared.split, &prepared.marginals, resume_after)?;
                Ok(trainer.model)
            })
            .unwrap_or_else(|e: TrainError| panic!("UniMatch training failed: {e}"));
        let pool = UserPool::from_log(&prepared.log, prepared.max_seq_len);
        self.build_serving_with(trained, pool, prepared.marginals, None)
    }

    /// The [`TrainConfig`] this framework configuration implies for a
    /// model truncating histories at `max_seq_len`.
    pub(crate) fn train_config(&self, max_seq_len: usize) -> TrainConfig {
        let cfg = &self.config;
        TrainConfig {
            batch_size: cfg.batch_size,
            epochs_per_month: cfg.epochs_per_month,
            max_seq_len,
            optimizer: AdamConfig::with_lr(cfg.lr),
            loss: cfg.loss,
            seed: cfg.seed ^ 0x7ea1,
        }
    }

    /// Builds the serving stores and indexes over both towers around a
    /// trained model, its user pool and its training marginals,
    /// optionally reusing a pre-built item store (the checkpoint-direct
    /// load path) instead of re-running item inference. A supplied store
    /// must match the model's item count and embedding dimension. The
    /// model is the one source of shape: the configuration's
    /// `embed_dim`/`max_seq_len` are not consulted.
    pub(crate) fn build_serving_with(
        &self,
        model: TwoTower,
        user_pool: UserPool,
        marginals: Marginals,
        item_store: Option<Arc<EmbeddingStore>>,
    ) -> FittedUniMatch {
        let cfg = &self.config;
        let (embed_dim, max_seq_len) = (model.config().embed_dim, model.config().max_seq_len);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1d);
        let item_store = match item_store {
            Some(store) => {
                assert_eq!(store.dim(), embed_dim, "item store dim mismatch");
                assert_eq!(
                    store.rows(),
                    model.config().num_items,
                    "item store row count mismatch"
                );
                store
            }
            None => Arc::new(item_store_of(&model)),
        };
        // Requantize only on a format mismatch: a store already in the
        // configured format (the checkpoint loader's f32 store on an f32
        // deployment) is indexed as-is, keeping checkpoint→serve zero-copy.
        let item_store = if item_store.format() == cfg.store {
            item_store
        } else {
            Arc::new(item_store.quantize(cfg.store))
        };
        let item_index =
            cfg.retriever.build(item_store.clone(), cfg.shards, cfg.shard_policy, &mut rng);
        let user_store = user_store_of(&model, &user_pool);
        let user_store = Arc::new(if cfg.store == RowFormat::F32 {
            user_store
        } else {
            user_store.quantize(cfg.store)
        });
        let user_index =
            cfg.retriever.build(user_store.clone(), cfg.shards, cfg.shard_policy, &mut rng);

        let rerank = RerankChain::parse(&cfg.rerank.spec)
            .unwrap_or_else(|e| panic!("invalid rerank spec {:?}: {e}", cfg.rerank.spec));
        let marginals = Arc::new(marginals);
        let item_log_p: Vec<f32> =
            (0..item_store.rows()).map(|r| marginals.log_pi(r as u32)).collect();
        let user_log_p: Vec<f32> =
            user_pool.users().iter().map(|&u| marginals.log_pu(u)).collect();

        FittedUniMatch {
            model,
            user_pool,
            item_store,
            user_store,
            item_index,
            user_index,
            max_seq_len,
            rerank,
            rerank_rules: cfg.rerank.rules.clone(),
            marginals,
            item_log_p,
            user_log_p,
            rerank_seed: cfg.seed,
        }
    }
}

/// The item tower's f32 serving store: [`TwoTower::infer_items`] in an
/// aligned arena (row = item id).
pub(crate) fn item_store_of(model: &TwoTower) -> EmbeddingStore {
    EmbeddingStore::from_rows(model.infer_items().data(), model.config().embed_dim)
}

/// The user tower's f32 serving store: every pool history embedded by
/// `model` (row = pool index, id = user id).
pub(crate) fn user_store_of(model: &TwoTower, pool: &UserPool) -> EmbeddingStore {
    let histories: Vec<&[u32]> = pool.histories().iter().map(|h| h.as_slice()).collect();
    let embeddings = embed_histories(model, &histories, model.config().max_seq_len);
    EmbeddingStore::with_ids(&embeddings, model.config().embed_dim, pool.users().to_vec())
}

impl FittedUniMatch {
    /// The item-tower (IR) view of the canonical query pipeline: embeds
    /// histories through the user tower, retrieves from the item index,
    /// re-ranks with the configured chain over the item store's
    /// marginals and business rules.
    pub fn item_pipeline(&self) -> MatchPipeline<'_> {
        MatchPipeline::over(self.item_index.as_ref(), &self.item_store, &self.rerank)
            .with_source(QuerySource::Tower {
                model: &self.model,
                max_seq_len: self.max_seq_len,
            })
            .with_marginals(&self.item_log_p)
            .with_rules(self.rerank_rules.as_deref())
            .with_seed(self.rerank_seed)
    }

    /// The user-tower (UT) view of the canonical query pipeline: gathers
    /// query rows from the item store, retrieves from the user index,
    /// re-ranks over the user store's marginals (business rules describe
    /// items, so UT runs without them), and translates pool rows to user
    /// ids.
    pub fn user_pipeline(&self) -> MatchPipeline<'_> {
        MatchPipeline::over(self.user_index.as_ref(), &self.user_store, &self.rerank)
            .with_source(QuerySource::Rows(&self.item_store))
            .with_marginals(&self.user_log_p)
            .with_external_ids(self.user_pool.users())
            .with_seed(self.rerank_seed)
    }

    /// IR: top-k items for a user's purchase history.
    pub fn recommend_items(&self, history: &[u32], k: usize) -> Vec<Hit> {
        assert!(!history.is_empty(), "recommend_items needs a non-empty history");
        let pipeline = self.item_pipeline();
        let query = pipeline.embed_one(history);
        pipeline.run_one(&query, k)
    }

    /// UT: top-k `(user_id, score)` targets for an item. The query row
    /// comes straight from the item store — no per-call re-inference over
    /// the item tower.
    pub fn target_users(&self, item: u32, k: usize) -> Vec<(u32, f32)> {
        let pipeline = self.user_pipeline();
        let hits = pipeline.run_one(&self.item_store.decode_row(item as usize), k);
        pipeline.translate(hits)
    }

    /// The history truncation length the model was fitted with. Queries
    /// longer than this are truncated to the most recent
    /// `max_seq_len` events by the embedding batcher, exactly as during
    /// training.
    pub fn max_seq_len(&self) -> usize {
        self.max_seq_len
    }

    /// Number of indexed items.
    pub fn num_items(&self) -> usize {
        self.item_index.len()
    }

    /// Number of pool users.
    pub fn num_pool_users(&self) -> usize {
        self.user_index.len()
    }

    /// The item-tower embedding arena (row = item id, normalized exactly
    /// as `TwoTower::infer_items` would produce).
    pub fn item_store(&self) -> &Arc<EmbeddingStore> {
        &self.item_store
    }

    /// The user-tower embedding arena (row = pool index, id = user id).
    pub fn user_store(&self) -> &Arc<EmbeddingStore> {
        &self.user_store
    }

    /// Canonical spec of the configured re-ranking chain (`""` for the
    /// identity chain).
    pub fn rerank_spec(&self) -> &str {
        self.rerank.spec()
    }

    /// The training marginals this deployment serves with — persisted
    /// alongside the model by `fit`, re-attached from the checkpoint's
    /// optional section on the serving path.
    pub fn marginals(&self) -> &Marginals {
        &self.marginals
    }

    /// Backend name of the serving retrieval indexes
    /// (`"bruteforce"` / `"hnsw"`).
    pub fn retriever_backend(&self) -> &'static str {
        self.item_index.backend()
    }

    /// Shard fan-out of the serving retrieval indexes (1 = unsharded).
    pub fn retriever_shards(&self) -> usize {
        self.item_index.shards()
    }

    /// Row format of the serving embedding stores (`f32`/`i8`).
    pub fn store_format(&self) -> RowFormat {
        self.item_store.format()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimatch_data::DatasetProfile;

    fn fitted() -> FittedUniMatch {
        let log = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
        let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
        UniMatch::new(cfg).fit(log)
    }

    #[test]
    fn fit_serves_both_tasks() {
        let f = fitted();
        assert!(f.num_items() > 10);
        assert!(f.num_pool_users() > 50);

        let recs = f.recommend_items(&[1, 2, 3], 5);
        assert_eq!(recs.len(), 5);
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(recs.iter().all(|h| (h.id as usize) < f.num_items()));

        let targets = f.target_users(recs[0].id, 5);
        assert_eq!(targets.len(), 5);
        assert!(targets.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn split_embed_and_search_matches_direct_calls() {
        let f = fitted();
        let hists: Vec<&[u32]> = vec![&[1, 2, 3], &[4, 5], &[2], &[7, 1]];
        let direct: Vec<_> = hists.iter().map(|h| f.recommend_items(h, 4)).collect();
        let pipeline = f.item_pipeline();
        let split = pipeline.run(&pipeline.embed(&hists), 4);
        assert_eq!(direct, split);
    }

    #[test]
    fn embed_one_is_unit_norm() {
        let f = fitted();
        let e = f.item_pipeline().embed_one(&[4, 5]);
        let n: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "non-empty history")]
    fn empty_history_rejected() {
        fitted().recommend_items(&[], 3);
    }

    #[test]
    fn identity_chain_is_bitwise_invisible() {
        let f = fitted();
        assert_eq!(f.rerank_spec(), "");
        let hists: Vec<&[u32]> = vec![&[1, 2, 3], &[4, 5]];
        let pipeline = f.item_pipeline();
        let queries = pipeline.embed(&hists);
        // the public APIs and the raw index search must agree byte for byte
        let raw = pipeline.retrieve(&queries, 5);
        assert_eq!(pipeline.run(&queries, 5), raw);
        assert_eq!(f.recommend_items(&[1, 2, 3], 5), raw[0]);
    }

    #[test]
    fn rerank_chain_reshapes_results_deterministically() {
        let log = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
        let cfg = UniMatchConfig {
            max_seq_len: 8,
            epochs_per_month: 1,
            retriever: RetrieverKind::Exact,
            rerank: RerankConfig {
                spec: "debias@2,mmr@0.3,explore@0.2".to_string(),
                rules: None,
            },
            ..Default::default()
        };
        let f = UniMatch::new(cfg.clone()).fit(log.clone());
        assert_eq!(f.rerank_spec(), "debias@2,mmr@0.3,explore@0.2");

        let a = f.recommend_items(&[1, 2, 3], 5);
        let b = f.recommend_items(&[1, 2, 3], 5);
        assert_eq!(a.len(), 5);
        assert_eq!(a, b, "a fixed seed pins the chain byte for byte");
        // batch answers match the direct path exactly
        let hists: Vec<&[u32]> = vec![&[1, 2, 3], &[4, 5]];
        let pipeline = f.item_pipeline();
        let batch = pipeline.run(&pipeline.embed(&hists), 5);
        assert_eq!(batch[0], a);

        // UT runs through the chain too, and stays deterministic
        let t = f.target_users(a[0].id, 5);
        assert_eq!(t, f.target_users(a[0].id, 5));
        assert_eq!(t.len(), 5);
        let users = f.user_pipeline();
        let batch = users.run(&users.gather(&[a[0].id]), 5).remove(0);
        assert_eq!(users.translate(batch), t);

        // the chain actually changes the ranking vs an identity deployment
        let raw = UniMatch::new(UniMatchConfig { rerank: RerankConfig::default(), ..cfg })
            .fit(log)
            .recommend_items(&[1, 2, 3], 5);
        assert_ne!(a, raw, "a debias+mmr+explore chain must reshape the top-k");
    }

    #[test]
    fn rerank_rules_filter_and_cap_items() {
        use unimatch_rerank::BusinessRules;
        use unimatch_data::json::Json;
        let log = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
        let base = UniMatchConfig {
            max_seq_len: 8,
            epochs_per_month: 1,
            retriever: RetrieverKind::Exact,
            ..Default::default()
        };
        let raw = UniMatch::new(base.clone()).fit(log.clone());
        let top = raw.recommend_items(&[1, 2, 3], 5);
        let banned = top[0].id;
        let rules = BusinessRules::parse(
            &Json::parse(format!("{{\"deny\":[{banned}]}}").as_bytes()).unwrap(),
        )
        .unwrap();
        let cfg = UniMatchConfig {
            rerank: RerankConfig {
                spec: "filter".to_string(),
                rules: Some(Arc::new(rules)),
            },
            ..base
        };
        let f = UniMatch::new(cfg).fit(log);
        let hits = f.recommend_items(&[1, 2, 3], 5);
        assert_eq!(hits.len(), 5, "overfetch refills the list after the filter");
        assert!(hits.iter().all(|h| h.id != banned), "denied item must not surface");
    }

    /// A bit-exact copy (`TwoTower` is not `Clone`).
    fn copy_of(model: &TwoTower) -> TwoTower {
        crate::persist::model_from_json(&crate::persist::model_to_json(model)).expect("round trip")
    }

    fn assert_same_answers(got: &FittedUniMatch, want: &FittedUniMatch) {
        let bits = |lists: Vec<Vec<Hit>>| -> Vec<Vec<(u32, u32)>> {
            lists.iter().map(|l| l.iter().map(|h| (h.id, h.score.to_bits())).collect()).collect()
        };
        // longer than the model's max_seq_len, so truncation is on the path
        let hists: Vec<&[u32]> = vec![&[1, 2, 3, 4, 5, 6, 7], &[4, 5], &[2]];
        let (g, w) = (got.item_pipeline(), want.item_pipeline());
        assert_eq!(bits(g.run(&g.embed(&hists), 6)), bits(w.run(&w.embed(&hists), 6)));
        let (g, w) = (got.user_pipeline(), want.user_pipeline());
        assert_eq!(bits(g.run(&g.gather(&[0, 3]), 6)), bits(w.run(&w.gather(&[0, 3]), 6)));
        assert_eq!(got.max_seq_len(), want.max_seq_len());
    }

    /// A dim-8 / `max_seq_len`-5 model fitted through the second-to-last
    /// month, the full log, the config it was fitted under and one that
    /// differs only in shape (the defaults, dim 16 / 20).
    fn shaped_setup() -> (TwoTower, InteractionLog, UniMatchConfig, UniMatchConfig) {
        let full = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
        let cutoff = unimatch_data::calendar::month_start(full.span_months() - 2);
        let matching = UniMatchConfig {
            embed_dim: 8,
            max_seq_len: 5,
            epochs_per_month: 1,
            retriever: RetrieverKind::Exact,
            ..Default::default()
        };
        let mismatched = UniMatchConfig {
            embed_dim: UniMatchConfig::default().embed_dim,
            max_seq_len: UniMatchConfig::default().max_seq_len,
            ..matching.clone()
        };
        let model = UniMatch::new(matching.clone()).fit(full.filtered(|r| r.day < cutoff)).model;
        assert_eq!((model.config().embed_dim, model.config().max_seq_len), (8, 5));
        (model, full, matching, mismatched)
    }

    #[test]
    fn serving_takes_its_shape_from_the_model() {
        let (model, log, matching, mismatched) = shaped_setup();
        let want = UniMatch::new(matching).serve(copy_of(&model), log.clone());
        let got = UniMatch::new(mismatched).serve(model, log);
        assert_same_answers(&got, &want);
    }

    #[test]
    fn resuming_takes_its_shape_from_the_model() {
        let (model, log, matching, mismatched) = shaped_setup();
        let trained_through = log.span_months() - 4;
        let want = UniMatch::new(matching).resume(copy_of(&model), log.clone(), trained_through);
        let got = UniMatch::new(mismatched).resume(model, log, trained_through);
        assert_eq!(
            crate::persist::model_to_json(&got.model),
            crate::persist::model_to_json(&want.model),
            "the new months must be trained on histories of the model's length"
        );
        assert_same_answers(&got, &want);
    }

    #[test]
    #[should_panic(expected = "invalid rerank spec")]
    fn invalid_rerank_spec_panics_at_build() {
        let log = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
        let cfg = UniMatchConfig {
            max_seq_len: 8,
            epochs_per_month: 1,
            rerank: RerankConfig { spec: "bogus@1".to_string(), rules: None },
            ..Default::default()
        };
        UniMatch::new(cfg).fit(log);
    }
}
