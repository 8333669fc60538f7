//! Model evaluation under the paper's protocol: embeds test users/items
//! with the trained towers and runs the IR / UT ranking tasks — over
//! sampled negatives ([`evaluate`]), or over the full catalog through a
//! deployment's serving pipelines ([`evaluate_deployment`]).

use crate::framework::FittedUniMatch;
use crate::pipeline::MatchPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch_data::{SeqBatch, TemporalSplit};
use unimatch_eval::{
    build_ir_cases, build_ut_cases, catalog_coverage, evaluate_single_positive_cases,
    exposure_gini, popularity_stats, retrieved_popularity, score_candidates, top_n_candidates,
    CaseMetrics, EmbeddingMatrix, MetricAccumulator, PopularityStats, ProtocolConfig, UserPool,
};
use unimatch_models::TwoTower;
use unimatch_parallel::par_map_indexed;

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

/// Full evaluation of a model on a split.
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

/// One tower's full-catalog lists, scored: ranking accuracy plus the
/// diversity and popularity of everything retrieved.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TowerEval {
    /// Mean ranking metrics over the tower's cases.
    pub metrics: CaseMetrics,
    /// Number of cases answered.
    pub cases: usize,
    /// Fraction of the searched candidates (items for IR, pool users for
    /// UT) appearing in at least one list.
    pub coverage: f64,
    /// Gini coefficient of exposure across retrieved entities.
    pub gini: f64,
    /// Trailing interaction counts of retrieved entities: popularity of
    /// items (IR) or activeness of users (UT).
    pub popularity: PopularityStats,
}

impl TowerEval {
    /// Relative change in mean retrieved popularity against `reference`
    /// (negative = this deployment surfaces less-popular entities — what
    /// a debias stage is for).
    pub fn popularity_lift(&self, reference: &TowerEval) -> f64 {
        if reference.popularity.mean > 0.0 {
            self.popularity.mean / reference.popularity.mean - 1.0
        } else {
            0.0
        }
    }
}

/// A deployment's end metrics on the seeded full-catalog IR and UT cases.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeploymentEval {
    /// Item recommendation through [`FittedUniMatch::item_pipeline`].
    pub ir: TowerEval,
    /// User targeting through [`FittedUniMatch::user_pipeline`].
    pub ut: TowerEval,
}

/// Scores a deployment the way it serves: every IR and UT case is
/// answered over the **full catalog** (not the sampled-negative protocol —
/// filters and exploration need the real candidate space) by the
/// deployment's own [`MatchPipeline::run`], so its backend, shard
/// fan-out, store format and re-ranking chain all count.
///
/// The cases depend on `split`, `protocol` and `seed` only, so two
/// deployments of one checkpoint answer the same queries: IR cases are
/// drawn first, then UT cases against `fitted.user_pool`, both off one
/// rng seeded with `seed`. Each tower's cutoff is `protocol.top_n`
/// clamped to the candidates it searches. `item_counts` / `user_counts`
/// are trailing interaction counts per item / user id.
pub fn evaluate_deployment(
    fitted: &FittedUniMatch,
    split: &TemporalSplit,
    protocol: &ProtocolConfig,
    seed: u64,
    (item_counts, user_counts): (&[u64], &[u64]),
) -> DeploymentEval {
    let mut rng = StdRng::seed_from_u64(seed);
    let ir_protocol = protocol.clamped(unimatch_eval::item_pool(split).len());
    let ir_cases = build_ir_cases(split, &ir_protocol, &mut rng);
    let pool = &fitted.user_pool;
    let ut_cases = build_ut_cases(split, pool, &protocol.clamped(pool.len()), &mut rng);

    let items = fitted.item_pipeline();
    let histories: Vec<&[u32]> = ir_cases.iter().map(|c| c.history.as_slice()).collect();
    let queries = items.embed(&histories);
    let positives: Vec<u32> = ir_cases.iter().map(|c| c.candidates[0]).collect();
    let ir = score_tower(&items, &queries, &positives, protocol.top_n, item_counts);

    let users = fitted.user_pipeline();
    let query_items: Vec<u32> = ut_cases.iter().map(|c| c.item).collect();
    let queries = users.gather(&query_items);
    let positives: Vec<u32> = ut_cases.iter().map(|c| c.candidates[0] as u32).collect();
    let ut = score_tower(&users, &queries, &positives, protocol.top_n, user_counts);
    DeploymentEval { ir, ut }
}

/// Answers `queries` through `pipeline` and scores the lists: list `q` is
/// relevant exactly where it holds row `positives[q]`. Popularity is read
/// off the translated ids.
fn score_tower(
    pipeline: &MatchPipeline<'_>,
    queries: &[f32],
    positives: &[u32],
    top_n: usize,
    counts: &[u64],
) -> TowerEval {
    let top_n = top_n.min(pipeline.len());
    let mut acc = MetricAccumulator::new();
    let mut retrieved = Vec::new();
    for (&positive, hits) in positives.iter().zip(pipeline.run(queries, top_n)) {
        let relevant: Vec<bool> = hits.iter().map(|h| h.id == positive).collect();
        acc.add(unimatch_eval::case_metrics(&relevant, 1, top_n));
        retrieved.extend(pipeline.translate(hits).into_iter().map(|(id, _)| id));
    }
    TowerEval {
        metrics: acc.mean(),
        cases: positives.len(),
        coverage: catalog_coverage(&retrieved, pipeline.len()),
        gini: exposure_gini(&retrieved),
        popularity: popularity_stats(&retrieved_popularity(&retrieved, counts)),
    }
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
    fn deployments_are_scored_against_the_exact_f32_reference() {
        use crate::framework::{RerankConfig, RetrieverKind, UniMatchConfig};
        use crate::persist::{model_from_json, model_to_json};
        use unimatch_ann::RowFormat;
        let log = DatasetProfile::EComp.generate(0.15, 11).filter_min_interactions(3);
        let counts = (log.item_counts(), log.user_counts());
        let base = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
        // every deployment serves the one fit, decoded from its checkpoint
        let checkpoint = model_to_json(&UniMatch::new(base.clone()).fit(log.clone()).model);
        let split = PreparedData::from_log(log.clone(), 8).split;
        let protocol = ProtocolConfig { top_n: 10, negatives: 20 };
        let eval = |cfg: UniMatchConfig| {
            let model = model_from_json(&checkpoint).expect("checkpoint decodes");
            let fitted = UniMatch::new(cfg).serve(model, log.clone());
            evaluate_deployment(&fitted, &split, &protocol, 5, (&counts.0, &counts.1))
        };
        let reference = eval(base.clone());
        assert!(reference.ir.cases > 0 && reference.ut.cases > 0);
        for tower in [reference.ir, reference.ut] {
            assert!((0.0..=1.0).contains(&tower.metrics.recall));
            assert!((0.0..=1.0).contains(&tower.metrics.ndcg));
            assert!((0.0..=1.0).contains(&tower.coverage));
            assert!((0.0..=1.0).contains(&tower.gini));
            assert!(tower.popularity.mean > 0.0);
        }

        let chain = |spec: &str| RerankConfig { spec: spec.to_string(), rules: None };
        let debias = "debias@2,explore@0.2";
        // each deployment's check against the reference
        type Check = fn(&DeploymentEval, &DeploymentEval);
        let cases: [(&str, UniMatchConfig, Check); 5] = [
            ("identity", base.clone(), |d, r| assert_eq!(d, r)),
            // exact retrieval is shard-invariant: bit for bit the reference
            ("exact ×2", UniMatchConfig { shards: 2, ..base.clone() }, |d, r| assert_eq!(d, r)),
            // int8's per-row affine grid costs at most a few list positions
            ("i8", UniMatchConfig { store: RowFormat::I8, ..base.clone() }, |d, r| {
                let delta = d.ir.metrics.recall - r.ir.metrics.recall;
                assert!(delta.abs() <= 0.10, "i8 IR recall delta {delta}");
            }),
            // the default ef_search stays within shouting distance of exact
            ("hnsw", UniMatchConfig { retriever: RetrieverKind::Hnsw, ..base.clone() }, |d, r| {
                let delta = d.ir.metrics.recall - r.ir.metrics.recall;
                assert!(delta.abs() <= 0.5, "hnsw IR recall delta {delta}");
            }),
            // a strong debias must actually move retrieved popularity
            (debias, UniMatchConfig { rerank: chain(debias), ..base.clone() }, |d, r| {
                let lift = d.ir.popularity_lift(&r.ir);
                assert!(lift < 0.0, "debias@2 should surface less-popular items: lift {lift}");
            }),
        ];
        for (name, cfg, check) in cases {
            let deployment = eval(cfg.clone());
            assert_eq!(deployment.ir.cases, reference.ir.cases, "{name}");
            assert_eq!(deployment.ut.cases, reference.ut.cases, "{name}");
            check(&deployment, &reference);
            assert_eq!(deployment, eval(cfg), "{name}: same seed, same result");
        }
    }
}
