//! Model evaluation under the paper's protocol: embeds test users/items
//! with the trained towers and runs the IR / UT ranking tasks.

use crate::framework::{item_store_of, user_store_of, FittedUniMatch, UniMatchConfig};
use crate::pipeline::MatchPipeline;
use crate::prepare::PreparedData;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use unimatch_ann::{
    BruteForceIndex, EmbeddingStore, Hit, HnswConfig, HnswIndex, Retriever, RowFormat,
};
use unimatch_data::{InteractionLog, SeqBatch, TemporalSplit};
use unimatch_rerank::RerankChain;
use unimatch_eval::{
    build_ir_cases, build_ut_cases, catalog_coverage, evaluate_single_positive_cases,
    exposure_gini, popularity_stats, retrieved_popularity, score_candidates, top_n_candidates,
    CaseMetrics, EmbeddingMatrix, MetricAccumulator, PopularityStats, ProtocolConfig, UserPool,
};
use unimatch_models::TwoTower;
use unimatch_parallel::par_map_indexed;
use unimatch_tensor::ParamSet;

/// How many pseudo-users to embed per forward pass during evaluation.
const EMBED_CHUNK: usize = 256;

/// IR + UT metrics of one evaluation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalOutcome {
    /// Item-recommendation metrics.
    pub ir: CaseMetrics,
    /// User-targeting metrics.
    pub ut: CaseMetrics,
    /// Number of IR cases.
    pub ir_cases: usize,
    /// Number of UT cases.
    pub ut_cases: usize,
}

impl EvalOutcome {
    /// The paper's AVG column: mean of IR and UT NDCG.
    pub fn avg_ndcg(&self) -> f64 {
        (self.ir.ndcg + self.ut.ndcg) / 2.0
    }
}

/// Tab. XI popularity audit of one run's retrievals.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetrievalAudit {
    /// Popularity of items retrieved in IR.
    pub ir_item_popularity: PopularityStats,
    /// Activeness of users retrieved in UT.
    pub ut_user_activeness: PopularityStats,
}

/// Embeds a list of histories into a flat `[N * d]` buffer, chunked.
///
/// Chunks of 256 histories are embedded independently (the user tower is
/// read-only during inference), so the chunk queue is distributed over
/// threads by `unimatch-parallel` once the workload is large enough. The
/// per-chunk forward pass is unchanged, so the output is identical to the
/// sequential loop.
pub fn embed_histories(model: &TwoTower, histories: &[&[u32]], max_seq_len: usize) -> Vec<f32> {
    let d = model.config().embed_dim;
    let n_chunks = histories.len().div_ceil(EMBED_CHUNK);
    // rough per-user forward cost: seq_len embedding rows pooled into d dims
    let work = histories.len() * max_seq_len * d * 16;
    let chunks = par_map_indexed(n_chunks, work, |ci| {
        let chunk = &histories[ci * EMBED_CHUNK..((ci + 1) * EMBED_CHUNK).min(histories.len())];
        let batch = SeqBatch::from_histories(chunk, max_seq_len);
        model.infer_users(&batch).into_vec()
    });
    let mut out = Vec::with_capacity(histories.len() * d);
    for chunk in chunks {
        out.extend_from_slice(&chunk);
    }
    out
}

/// Full evaluation of a model (or of checkpoint parameters via
/// [`evaluate_params`]) on a split.
pub fn evaluate(
    model: &TwoTower,
    split: &TemporalSplit,
    protocol: &ProtocolConfig,
    max_seq_len: usize,
    seed: u64,
) -> EvalOutcome {
    evaluate_inner(model, split, protocol, max_seq_len, seed, None).0
}

/// Evaluation that additionally audits the popularity/activeness of
/// retrieved entities (Tab. XI). `trailing_counts` are the interaction
/// counts of items (`.0`) and users (`.1`) over the trailing window.
pub fn evaluate_with_audit(
    model: &TwoTower,
    split: &TemporalSplit,
    protocol: &ProtocolConfig,
    max_seq_len: usize,
    seed: u64,
    trailing_counts: (&[u64], &[u64]),
) -> (EvalOutcome, RetrievalAudit) {
    let (outcome, audit) =
        evaluate_inner(model, split, protocol, max_seq_len, seed, Some(trailing_counts));
    (outcome, audit.expect("audit requested"))
}

/// Evaluates checkpoint parameters by temporarily swapping them into the
/// model (the Fig. 3 pathway).
pub fn evaluate_params(
    model: &mut TwoTower,
    params: &ParamSet,
    split: &TemporalSplit,
    protocol: &ProtocolConfig,
    max_seq_len: usize,
    seed: u64,
) -> EvalOutcome {
    let saved = std::mem::replace(&mut model.params, params.clone());
    let outcome = evaluate(model, split, protocol, max_seq_len, seed);
    model.params = saved;
    outcome
}

/// One side of a raw-vs-reranked comparison: ranking accuracy plus
/// aggregate diversity and popularity of everything retrieved.
#[derive(Clone, Copy, Debug, Default)]
pub struct RerankSide {
    /// Mean IR ranking metrics over all cases.
    pub ir: CaseMetrics,
    /// Fraction of the catalog appearing in at least one list.
    pub coverage: f64,
    /// Gini coefficient of exposure across retrieved items.
    pub gini: f64,
    /// Popularity (trailing interaction count) of retrieved items.
    pub popularity: PopularityStats,
}

/// The re-ranking chain's eval gate: the same fitted deployment answering
/// the same IR cases with the chain off (`raw`) and on (`reranked`).
#[derive(Clone, Debug, Default)]
pub struct RerankEval {
    /// Full-catalog retrieval without the chain.
    pub raw: RerankSide,
    /// The same queries through the configured chain.
    pub reranked: RerankSide,
    /// Number of IR cases evaluated.
    pub cases: usize,
    /// The canonical chain spec under test.
    pub spec: String,
}

impl RerankEval {
    /// Relative change in mean retrieved popularity (negative = the chain
    /// surfaces less-popular items — what a debias stage is for).
    pub fn popularity_lift(&self) -> f64 {
        if self.raw.popularity.mean > 0.0 {
            self.reranked.popularity.mean / self.raw.popularity.mean - 1.0
        } else {
            0.0
        }
    }
}

/// Evaluates a fitted deployment's re-ranking chain against its own raw
/// retrieval: every IR case is answered over the **full catalog** (not the
/// sampled-negative protocol — the chain's filters and exploration need
/// the real candidate space), once raw and once through the chain, and
/// each side is scored for accuracy, diversity, and popularity.
/// `item_counts` are trailing interaction counts per item id.
pub fn evaluate_ir_rerank(
    fitted: &FittedUniMatch,
    split: &TemporalSplit,
    protocol: &ProtocolConfig,
    seed: u64,
    item_counts: &[u64],
) -> RerankEval {
    // the gate keeps the caller's cutoff: lists are full-catalog, so it is
    // clamped to the catalog only, not to the negative count
    let top_n = protocol.top_n.min(fitted.num_items()).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let cases = full_catalog_ir_cases(&fitted.model, split, protocol, &mut rng);
    // both sides drive the same canonical pipeline — the chain-off side
    // runs the retrieve stage bare, the chain-on side the full sequence
    let pipeline = fitted.item_pipeline();
    let score_side = |lists: &[Vec<Hit>]| {
        let retrieved: Vec<u32> = lists.iter().flatten().map(|h| h.id).collect();
        RerankSide {
            ir: score_lists(lists, &cases.positives, top_n),
            coverage: catalog_coverage(&retrieved, fitted.num_items()),
            gini: exposure_gini(&retrieved),
            popularity: popularity_stats(&retrieved_popularity(&retrieved, item_counts)),
        }
    };
    RerankEval {
        raw: score_side(&pipeline.retrieve(&cases.queries, top_n)),
        reranked: score_side(&pipeline.run(&cases.queries, top_n)),
        cases: cases.positives.len(),
        spec: fitted.rerank_spec().to_string(),
    }
}

/// The seeded full-catalog IR case set the rerank gate and both sweeps
/// answer: one query per test user — its history through `model`'s user
/// tower — and the one item that counts as relevant for it.
struct FullCatalogIr {
    /// Flat `[cases × embed_dim]` query matrix.
    queries: Vec<f32>,
    /// The relevant item of each case.
    positives: Vec<u32>,
    /// The protocol's cutoff clamped to the item pool and the catalog.
    top_n: usize,
}

fn full_catalog_ir_cases(
    model: &TwoTower,
    split: &TemporalSplit,
    protocol: &ProtocolConfig,
    rng: &mut StdRng,
) -> FullCatalogIr {
    let clamped = protocol.clamped(unimatch_eval::item_pool(split).len());
    let cases = build_ir_cases(split, &clamped, rng);
    let histories: Vec<&[u32]> = cases.iter().map(|c| c.history.as_slice()).collect();
    FullCatalogIr {
        queries: embed_histories(model, &histories, model.config().max_seq_len),
        positives: cases.iter().map(|c| c.candidates[0]).collect(),
        top_n: clamped.top_n.min(model.config().num_items).max(1),
    }
}

/// Mean ranking metrics of single-positive full-catalog lists: list `q`
/// is relevant exactly where it holds `positives[q]`.
fn score_lists(lists: &[Vec<Hit>], positives: &[u32], top_n: usize) -> CaseMetrics {
    let mut acc = MetricAccumulator::new();
    for (&positive, hits) in positives.iter().zip(lists) {
        let relevant: Vec<bool> = hits.iter().map(|h| h.id == positive).collect();
        acc.add(unimatch_eval::case_metrics(&relevant, 1, top_n));
    }
    acc.mean()
}

/// End-metric accuracy of one serving store format: the same seeded
/// full-catalog IR cases answered by an exact-retriever deployment whose
/// item store is encoded in [`StoreFormatEval::format`], plus deltas
/// against the exact-f32 oracle.
#[derive(Clone, Copy, Debug)]
pub struct StoreFormatEval {
    /// The row encoding under test.
    pub format: RowFormat,
    /// Mean IR ranking metrics over all cases.
    pub ir: CaseMetrics,
    /// `recall − recall(f32)`. Exactly `0.0` for the f32 entry.
    pub delta_recall: f64,
    /// `ndcg − ndcg(f32)`. Exactly `0.0` for the f32 entry.
    pub delta_ndcg: f64,
}

/// Quantization's end-metric cost, measured end to end (the first slice
/// of the retriever-aware evaluation): for every [`RowFormat`] an
/// exact-retriever deployment is built over the same model and log with
/// its item store encoded in that format, and all deployments answer the
/// same seeded **full-catalog** IR cases through the fused dequant-dot
/// scoring path they would use in production. Entries follow
/// [`RowFormat::ALL`] order (f32 first) and carry recall/NDCG deltas
/// against the f32 entry, so `recall@N(i8) − recall@N(f32)` reads off
/// directly.
///
/// Every deployment is the exact retriever over the model's item store
/// (index approximation never pollutes the format comparison; exact
/// results are shard-invariant, so `base`'s fan-out is immaterial).
/// `base` supplies the compute-thread configuration.
pub fn evaluate_store_formats(
    model: &TwoTower,
    log: &InteractionLog,
    base: &UniMatchConfig,
    protocol: &ProtocolConfig,
    seed: u64,
) -> Vec<StoreFormatEval> {
    base.parallelism.install_global();
    let split = PreparedData::from_log(log.clone(), model.config().max_seq_len).split;
    // user embeddings come from the model towers, not the store — one
    // shared query matrix keeps every format answering identical queries
    let cases = full_catalog_ir_cases(model, &split, protocol, &mut StdRng::seed_from_u64(seed));
    let f32_store = item_store_of(model);
    let chain = RerankChain::identity();
    let mut out: Vec<StoreFormatEval> = RowFormat::ALL
        .into_iter()
        .map(|format| {
            let store = Arc::new(f32_store.quantize(format));
            let index = BruteForceIndex::over(store.clone());
            let lists =
                MatchPipeline::over(&index, &store, &chain).retrieve(&cases.queries, cases.top_n);
            StoreFormatEval {
                format,
                ir: score_lists(&lists, &cases.positives, cases.top_n),
                delta_recall: 0.0,
                delta_ndcg: 0.0,
            }
        })
        .collect();
    let oracle = out[0].ir;
    for e in &mut out {
        e.delta_recall = e.ir.recall - oracle.recall;
        e.delta_ndcg = e.ir.ndcg - oracle.ndcg;
    }
    out
}

/// End-metric accuracy of one index backend at one operating point: the
/// same seeded full-catalog IR and UT cases answered by that backend's
/// indexes over one shared pair of embedding stores, plus deltas against
/// the exact (brute-force) oracle.
#[derive(Clone, Copy, Debug)]
pub struct BackendEval {
    /// Stable backend name (`"bruteforce"` / `"hnsw"`).
    pub backend: &'static str,
    /// The swept search-time parameter (`"ef_search"`, empty for the
    /// exact oracle).
    pub param: &'static str,
    /// The parameter's value at this operating point (0 for the oracle).
    pub value: usize,
    /// Mean IR ranking metrics over all cases.
    pub ir: CaseMetrics,
    /// Mean UT ranking metrics over all cases.
    pub ut: CaseMetrics,
    /// `ir.recall − ir.recall(exact)`. Exactly `0.0` for the oracle.
    pub delta_ir_recall: f64,
    /// `ir.ndcg − ir.ndcg(exact)`.
    pub delta_ir_ndcg: f64,
    /// `ut.recall − ut.recall(exact)`.
    pub delta_ut_recall: f64,
    /// `ut.ndcg − ut.ndcg(exact)`.
    pub delta_ut_ndcg: f64,
}

impl BackendEval {
    /// `"bruteforce"` or `"hnsw ef_search=32"`-style display label.
    pub fn label(&self) -> String {
        if self.param.is_empty() {
            self.backend.to_string()
        } else {
            format!("{} {}={}", self.backend, self.param, self.value)
        }
    }
}

/// What every point of the backend sweep shares: both towers' stores,
/// materialized once, and the seeded IR and UT case sets answered over
/// them.
struct BackendSweep {
    item_store: Arc<EmbeddingStore>,
    user_store: Arc<EmbeddingStore>,
    /// IR histories through the towers.
    ir: FullCatalogIr,
    /// UT queries gathered from the item store, flat `[cases × embed_dim]`.
    ut_queries: Vec<f32>,
    ut_positives: Vec<u32>,
    ut_top_n: usize,
}

impl BackendSweep {
    fn prepare(
        model: &TwoTower,
        log: &InteractionLog,
        protocol: &ProtocolConfig,
        seed: u64,
    ) -> BackendSweep {
        let split = PreparedData::from_log(log.clone(), model.config().max_seq_len).split;
        let item_store = Arc::new(item_store_of(model));
        let user_pool = UserPool::build(&split, model.config().max_seq_len);
        let user_store = Arc::new(user_store_of(model, &user_pool));

        let mut rng = StdRng::seed_from_u64(seed);
        let ir = full_catalog_ir_cases(model, &split, protocol, &mut rng);

        let ut_protocol = protocol.clamped(user_pool.len());
        let ut_cases = build_ut_cases(&split, &user_pool, &ut_protocol, &mut rng);
        let ut_queries: Vec<f32> = ut_cases
            .iter()
            .flat_map(|c| item_store.decode_row(c.item as usize).into_owned())
            .collect();
        BackendSweep {
            ut_positives: ut_cases.iter().map(|c| c.candidates[0] as u32).collect(),
            ut_top_n: ut_protocol.top_n.min(user_pool.len()).max(1),
            item_store,
            user_store,
            ir,
            ut_queries,
        }
    }

    /// Builds both towers' HNSW indexes the way the deployment builder
    /// seeds them: item index first, user index second, off one derived
    /// rng.
    fn build_hnsw(&self, base: &UniMatchConfig, cfg: HnswConfig) -> (HnswIndex, HnswIndex) {
        let mut rng = StdRng::seed_from_u64(base.seed ^ 0x1d);
        let items = HnswIndex::build_over(self.item_store.clone(), cfg, &mut rng);
        let users = HnswIndex::build_over(self.user_store.clone(), cfg, &mut rng);
        (items, users)
    }

    /// Answers the shared cases through one pair of indexes (deltas are
    /// filled in once the oracle's entry is known).
    fn answer(
        &self,
        (backend, param, value): (&'static str, &'static str, usize),
        item_index: &dyn Retriever,
        user_index: &dyn Retriever,
    ) -> BackendEval {
        let chain = RerankChain::identity();
        let ir_lists = MatchPipeline::over(item_index, &self.item_store, &chain)
            .retrieve(&self.ir.queries, self.ir.top_n);
        let ut_lists = MatchPipeline::over(user_index, &self.user_store, &chain)
            .retrieve(&self.ut_queries, self.ut_top_n);
        BackendEval {
            backend,
            param,
            value,
            ir: score_lists(&ir_lists, &self.ir.positives, self.ir.top_n),
            ut: score_lists(&ut_lists, &self.ut_positives, self.ut_top_n),
            delta_ir_recall: 0.0,
            delta_ir_ndcg: 0.0,
            delta_ut_recall: 0.0,
            delta_ut_ndcg: 0.0,
        }
    }
}

/// The `ef_search` operating points of the HNSW sweep.
const EF_SEARCH_SWEEP: [usize; 3] = [8, 32, 128];

/// The index backend's end-metric cost, measured end to end (the second
/// slice of the retriever-aware evaluation, after
/// [`evaluate_store_formats`]): both towers' stores are materialized
/// once from the model and log, and then the *same* seeded full-catalog IR
/// **and** UT cases are answered through a [`MatchPipeline`] per backend
/// operating point — HNSW at an `ef_search` sweep, at realistic (not
/// effectively-exact) settings — each over the very same pair of
/// embedding stores. The first entry is the brute-force oracle; every
/// entry carries recall/NDCG deltas against it, so `recall@N(hnsw, ef=8)
/// − recall@N(exact)` reads off directly.
///
/// Indexes are built unsharded: exact results are shard-invariant by
/// construction, and sharding an approximate backend changes its graph
/// layout — a deployment knob, not a search-quality knob, so it is
/// held fixed here. `base` supplies the seed the indexes are built from
/// and the compute-thread configuration; the stores are f32 and owned,
/// so index approximation is the only variable.
pub fn evaluate_backend_deltas(
    model: &TwoTower,
    log: &InteractionLog,
    base: &UniMatchConfig,
    protocol: &ProtocolConfig,
    seed: u64,
) -> Vec<BackendEval> {
    base.parallelism.install_global();
    let sweep = BackendSweep::prepare(model, log, protocol, seed);

    let mut out = vec![sweep.answer(
        ("bruteforce", "", 0),
        &BruteForceIndex::over(sweep.item_store.clone()),
        &BruteForceIndex::over(sweep.user_store.clone()),
    )];
    // `ef_search` is read at search time only: one graph per tower
    // serves every point of the sweep
    let (mut item_index, mut user_index) = sweep.build_hnsw(base, HnswConfig::default());
    for ef in EF_SEARCH_SWEEP {
        item_index.set_ef_search(ef);
        user_index.set_ef_search(ef);
        out.push(sweep.answer(("hnsw", "ef_search", ef), &item_index, &user_index));
    }

    let oracle = out[0];
    for e in &mut out {
        e.delta_ir_recall = e.ir.recall - oracle.ir.recall;
        e.delta_ir_ndcg = e.ir.ndcg - oracle.ir.ndcg;
        e.delta_ut_recall = e.ut.recall - oracle.ut.recall;
        e.delta_ut_ndcg = e.ut.ndcg - oracle.ut.ndcg;
    }
    out
}

fn evaluate_inner(
    model: &TwoTower,
    split: &TemporalSplit,
    protocol: &ProtocolConfig,
    max_seq_len: usize,
    seed: u64,
    trailing_counts: Option<(&[u64], &[u64])>,
) -> (EvalOutcome, Option<RetrievalAudit>) {
    let dim = model.config().embed_dim;
    let mut rng = StdRng::seed_from_u64(seed);

    // ---- IR ---------------------------------------------------------------
    let ir_protocol = protocol.clamped(unimatch_eval::item_pool(split).len());
    let ir_cases = build_ir_cases(split, &ir_protocol, &mut rng);
    let item_matrix_t = model.infer_items();
    let item_matrix = EmbeddingMatrix::new(item_matrix_t.data(), dim);
    let histories: Vec<&[u32]> = ir_cases.iter().map(|c| c.history.as_slice()).collect();
    let user_queries = embed_histories(model, &histories, max_seq_len);
    let query_matrix = EmbeddingMatrix::new(&user_queries, dim);
    let ir_candidates: Vec<Vec<u32>> = ir_cases.iter().map(|c| c.candidates.clone()).collect();
    let ir =
        evaluate_single_positive_cases(query_matrix, item_matrix, &ir_candidates, ir_protocol.top_n);

    // ---- UT ---------------------------------------------------------------
    let pool = UserPool::build(split, max_seq_len);
    let ut_protocol = protocol.clamped(pool.len());
    let ut_cases = build_ut_cases(split, &pool, &ut_protocol, &mut rng);
    let pool_histories: Vec<&[u32]> = pool.histories().iter().map(|h| h.as_slice()).collect();
    let pool_embeddings = embed_histories(model, &pool_histories, max_seq_len);
    let pool_matrix = EmbeddingMatrix::new(&pool_embeddings, dim);
    let ut_candidates: Vec<Vec<u32>> = ut_cases
        .iter()
        .map(|c| c.candidates.iter().map(|&ix| ix as u32).collect())
        .collect();
    let ut_query_buf: Vec<f32> = ut_cases
        .iter()
        .flat_map(|c| item_matrix.row(c.item as usize).iter().copied())
        .collect();
    let ut_query_matrix = EmbeddingMatrix::new(&ut_query_buf, dim);
    let ut = evaluate_single_positive_cases(
        ut_query_matrix,
        pool_matrix,
        &ut_candidates,
        ut_protocol.top_n,
    );

    let outcome = EvalOutcome {
        ir,
        ut,
        ir_cases: ir_cases.len(),
        ut_cases: ut_cases.len(),
    };

    let audit = trailing_counts.map(|(item_counts, user_counts)| {
        // collect top-n retrieved entity ids across all cases; cases are
        // independent, so they fan out over threads in input order
        let neg = protocol.negatives + 1;
        let ir_retrieved: Vec<u32> = par_map_indexed(
            ir_cases.len(),
            ir_cases.len() * neg * dim * 2,
            |q| {
                let c = &ir_cases[q];
                let scores = score_candidates(query_matrix.row(q), item_matrix, &c.candidates);
                top_n_candidates(&scores, ir_protocol.top_n)
                    .into_iter()
                    .map(|ix| c.candidates[ix])
                    .collect::<Vec<u32>>()
            },
        )
        .into_iter()
        .flatten()
        .collect();
        let ut_retrieved: Vec<u32> = par_map_indexed(
            ut_cases.len(),
            ut_cases.len() * neg * dim * 2,
            |q| {
                let c = &ut_cases[q];
                let cands: Vec<u32> = c.candidates.iter().map(|&ix| ix as u32).collect();
                let scores = score_candidates(ut_query_matrix.row(q), pool_matrix, &cands);
                top_n_candidates(&scores, ut_protocol.top_n)
                    .into_iter()
                    .map(|ix| pool.user(c.candidates[ix]))
                    .collect::<Vec<u32>>()
            },
        )
        .into_iter()
        .flatten()
        .collect();
        RetrievalAudit {
            ir_item_popularity: popularity_stats(&retrieved_popularity(&ir_retrieved, item_counts)),
            ut_user_activeness: popularity_stats(&retrieved_popularity(&ut_retrieved, user_counts)),
        }
    });

    (outcome, audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::UniMatch;
    use crate::prepare::PreparedData;
    use rand::SeedableRng;
    use unimatch_data::DatasetProfile;
    use unimatch_models::{ModelConfig, TwoTower};

    fn setup() -> (PreparedData, TwoTower) {
        let p = PreparedData::synthetic(DatasetProfile::EComp, 0.15, 11);
        let mut rng = StdRng::seed_from_u64(1);
        let model = TwoTower::new(
            ModelConfig::youtube_dnn_mean(p.num_items(), p.max_seq_len, 0.2),
            &mut rng,
        );
        (p, model)
    }

    #[test]
    fn untrained_model_produces_valid_metrics() {
        // NOTE: an *untrained* two-tower can still beat chance here —
        // repurchase-heavy histories overlap their own targets, so a mean
        // of random item embeddings correlates with the positive. We only
        // assert validity, not chance-level performance.
        let (p, model) = setup();
        let protocol = ProtocolConfig { top_n: 10, negatives: 49 };
        let out = evaluate(&model, &p.split, &protocol, p.max_seq_len, 5);
        assert!(out.ir_cases > 0 && out.ut_cases > 0);
        for m in [out.ir, out.ut] {
            assert!((0.0..=1.0).contains(&m.recall));
            assert!((0.0..=1.0).contains(&m.ndcg));
            assert!(m.ndcg <= m.recall + 1e-9, "NDCG cannot exceed recall for 1 positive");
        }
    }

    #[test]
    fn evaluation_is_deterministic_per_seed() {
        let (p, model) = setup();
        let protocol = ProtocolConfig { top_n: 5, negatives: 20 };
        let a = evaluate(&model, &p.split, &protocol, p.max_seq_len, 7);
        let b = evaluate(&model, &p.split, &protocol, p.max_seq_len, 7);
        assert_eq!(a.ir, b.ir);
        assert_eq!(a.ut, b.ut);
    }

    #[test]
    fn audit_returns_positive_popularity() {
        let (p, model) = setup();
        let protocol = ProtocolConfig { top_n: 5, negatives: 20 };
        let item_counts = p.log.item_counts();
        let user_counts = p.log.user_counts();
        let (_, audit) = evaluate_with_audit(
            &model,
            &p.split,
            &protocol,
            p.max_seq_len,
            9,
            (&item_counts, &user_counts),
        );
        assert!(audit.ir_item_popularity.mean > 0.0);
        assert!(audit.ut_user_activeness.mean > 0.0);
    }

    #[test]
    fn rerank_eval_compares_raw_and_chained_sides() {
        use crate::framework::{RerankConfig, RetrieverKind, UniMatch, UniMatchConfig};
        let log = DatasetProfile::EComp.generate(0.15, 11).filter_min_interactions(3);
        let counts = log.item_counts();
        let cfg = UniMatchConfig {
            max_seq_len: 8,
            epochs_per_month: 1,
            retriever: RetrieverKind::Exact,
            rerank: RerankConfig { spec: "debias@2,explore@0.2".to_string(), rules: None },
            ..Default::default()
        };
        let fitted = UniMatch::new(cfg).fit(log.clone());
        let protocol = ProtocolConfig { top_n: 10, negatives: 20 };
        let split = PreparedData::from_log(log, 8).split;
        let eval = evaluate_ir_rerank(&fitted, &split, &protocol, 5, &counts);
        assert!(eval.cases > 0);
        assert_eq!(eval.spec, "debias@2,explore@0.2");
        for side in [&eval.raw, &eval.reranked] {
            assert!((0.0..=1.0).contains(&side.ir.recall));
            assert!((0.0..=1.0).contains(&side.coverage));
            assert!((0.0..=1.0).contains(&side.gini));
        }
        // a strong debias must actually move retrieved popularity
        assert!(
            eval.popularity_lift() < 0.0,
            "debias@2 should surface less-popular items: lift {}",
            eval.popularity_lift()
        );
        // deterministic under a fixed seed
        let again = evaluate_ir_rerank(&fitted, &split, &protocol, 5, &counts);
        assert_eq!(eval.reranked.ir, again.reranked.ir);
        assert_eq!(eval.reranked.gini, again.reranked.gini);
    }

    #[test]
    fn store_format_eval_reports_deltas_vs_f32() {
        let log = DatasetProfile::EComp.generate(0.15, 11).filter_min_interactions(3);
        let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
        let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
        let protocol = ProtocolConfig { top_n: 10, negatives: 20 };
        let evals = evaluate_store_formats(&fitted.model, &log, &cfg, &protocol, 5);
        assert_eq!(evals.len(), RowFormat::ALL.len());
        assert_eq!(evals[0].format, RowFormat::F32);
        assert_eq!(evals[0].delta_recall, 0.0);
        assert_eq!(evals[0].delta_ndcg, 0.0);
        for e in &evals {
            assert!((0.0..=1.0).contains(&e.ir.recall));
            assert!((0.0..=1.0).contains(&e.ir.ndcg));
            assert_eq!(e.delta_recall, e.ir.recall - evals[0].ir.recall);
            assert_eq!(e.delta_ndcg, e.ir.ndcg - evals[0].ir.ndcg);
        }
        // int8's per-row affine grid costs at most a few list positions
        assert_eq!(evals[1].format, RowFormat::I8);
        assert!(evals[1].delta_recall.abs() <= 0.10, "i8 delta {}", evals[1].delta_recall);
        // deterministic under a fixed seed
        let again = evaluate_store_formats(&fitted.model, &log, &cfg, &protocol, 5);
        for (a, b) in evals.iter().zip(&again) {
            assert_eq!(a.ir, b.ir);
        }
    }

    #[test]
    fn backend_delta_eval_reports_deltas_vs_exact() {
        let log = DatasetProfile::EComp.generate(0.15, 11).filter_min_interactions(3);
        let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
        let fitted = UniMatch::new(cfg.clone()).fit(log.clone());
        let protocol = ProtocolConfig { top_n: 10, negatives: 20 };
        let evals = evaluate_backend_deltas(&fitted.model, &log, &cfg, &protocol, 5);
        // exact oracle + 3 hnsw ef points
        assert_eq!(evals.len(), 4);
        assert_eq!(evals[0].backend, "bruteforce");
        assert_eq!(evals[0].delta_ir_recall, 0.0);
        assert_eq!(evals[0].delta_ut_ndcg, 0.0);
        for e in &evals {
            for m in [e.ir, e.ut] {
                assert!((0.0..=1.0).contains(&m.recall), "{}: recall {}", e.label(), m.recall);
                assert!((0.0..=1.0).contains(&m.ndcg), "{}: ndcg {}", e.label(), m.ndcg);
            }
            assert_eq!(e.delta_ir_recall, e.ir.recall - evals[0].ir.recall);
            assert_eq!(e.delta_ut_recall, e.ut.recall - evals[0].ut.recall);
        }
        // the sweep covers HNSW at 3 points, and a generous ef keeps it
        // within shouting distance of exact
        let hnsw: Vec<&BackendEval> =
            evals.iter().filter(|e| e.backend == "hnsw").collect();
        assert_eq!(hnsw.len(), 3);
        assert!(
            hnsw[2].delta_ir_recall.abs() <= 0.5,
            "ef=128 delta {} suspiciously far from exact",
            hnsw[2].delta_ir_recall
        );
        // the sweep shares one graph per tower; each point answers as a
        // pair of indexes built for it alone does
        let sweep = BackendSweep::prepare(&fitted.model, &log, &protocol, 5);
        for (point, ef_search) in hnsw.iter().zip(EF_SEARCH_SWEEP) {
            let (items, users) =
                sweep.build_hnsw(&cfg, HnswConfig { ef_search, ..HnswConfig::default() });
            let alone = sweep.answer(("hnsw", "ef_search", ef_search), &items, &users);
            assert_eq!(point.value, ef_search);
            assert_eq!(point.ir, alone.ir, "{}", point.label());
            assert_eq!(point.ut, alone.ut, "{}", point.label());
        }
        // deterministic under a fixed seed
        let again = evaluate_backend_deltas(&fitted.model, &log, &cfg, &protocol, 5);
        for (a, b) in evals.iter().zip(&again) {
            assert_eq!(a.ir, b.ir);
            assert_eq!(a.ut, b.ut);
        }
    }

    #[test]
    fn evaluate_params_restores_model() {
        let (p, mut model) = setup();
        let protocol = ProtocolConfig { top_n: 5, negatives: 20 };
        let fresh = model.params.clone();
        let other = {
            let mut rng = StdRng::seed_from_u64(99);
            TwoTower::new(
                ModelConfig::youtube_dnn_mean(p.num_items(), p.max_seq_len, 0.2),
                &mut rng,
            )
            .params
        };
        let _ = evaluate_params(&mut model, &other, &p.split, &protocol, p.max_seq_len, 3);
        let id = fresh.ids().next().expect("params");
        assert_eq!(model.params.get(id).data(), fresh.get(id).data());
    }
}
