//! Differential suite for the one query path.
//!
//! `FittedUniMatch` answers queries through exactly two pipeline views,
//! `item_pipeline()` (IR) and `user_pipeline()` (UT), plus the two
//! single-query conveniences `recommend_items` / `target_users`. This
//! suite pins, **bitwise**, that every way of asking is the same stage
//! sequence (embed/gather → retrieve → rerank → translate):
//!
//! * `run` equals `run_one` per row, and the batched *embed* equals
//!   `embed_one` per row;
//! * `run_checked` with `DegradeOptions::NONE` equals the stages composed
//!   by hand (and so `run`), reporting a healthy fan-out;
//! * `recommend_items` / `target_users` equal the composed stages;
//! * a degraded run really diverges, and is flagged as content-affecting;
//! * a hostile `k` is clamped to the indexed row count on every backend;
//!
//! across the full deployment matrix
//!
//! * index backend: exact / HNSW,
//! * shard fan-out: 1 / 3,
//! * store row format: f32 / i8,
//! * re-ranking: identity / full chain (debias + mmr + explore).
//!
//! Scores are compared via `f32::to_bits`, not `==`, so `-0.0`/`NaN`
//! drift or a re-accumulated dot product would fail the suite.

use unimatch::ann::Hit;
use unimatch::core::{
    load_checkpoint, save_model_with_marginals, DegradeOptions, FittedUniMatch,
    MatchPipeline, RerankConfig, RetrieverKind, RowFormat, UniMatch, UniMatchConfig,
};
use unimatch::data::{DatasetProfile, InteractionLog, SeqBatch};
use unimatch::models::{Aggregator, ContextExtractor};
use unimatch::tensor::Graph;

const SEED: u64 = 42;
const MAX_SEQ_LEN: usize = 8;
const FULL_CHAIN: &str = "debias@0.5,mmr@0.3,explore@0.1";

fn base_config(
    kind: RetrieverKind,
    shards: usize,
    store: RowFormat,
    spec: &str,
) -> UniMatchConfig {
    UniMatchConfig {
        epochs_per_month: 1,
        max_seq_len: MAX_SEQ_LEN,
        seed: SEED,
        retriever: kind,
        shards,
        store,
        rerank: RerankConfig { spec: spec.to_string(), rules: None },
        ..Default::default()
    }
}

/// Trains once and persists a marginals-bearing checkpoint; every
/// deployment variant reloads from this single artifact (the serving
/// build re-encodes the f32 store per format), so a divergence between
/// a runner and the composed stages cannot be blamed on training noise.
fn checkpoint() -> (std::path::PathBuf, InteractionLog) {
    static CKPT: std::sync::OnceLock<(std::path::PathBuf, InteractionLog)> =
        std::sync::OnceLock::new();
    CKPT.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("unimatch_pipeline_parity_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.json");
        let log = DatasetProfile::EComp.generate(0.1, 4).filter_min_interactions(3);
        let fitted =
            UniMatch::new(base_config(RetrieverKind::Exact, 1, RowFormat::F32, "")).fit(log.clone());
        save_model_with_marginals(&fitted.model, Some(fitted.marginals()), &path)
            .expect("save checkpoint");
        (path, log)
    })
    .clone()
}

fn serve_variant(
    kind: RetrieverKind,
    shards: usize,
    store: RowFormat,
    spec: &str,
) -> FittedUniMatch {
    let (path, log) = checkpoint();
    let (model, item_store, marginals) = load_checkpoint(&path).expect("load checkpoint");
    UniMatch::new(base_config(kind, shards, store, spec))
        .serve_with_store_and_marginals(model, &log, item_store, marginals)
}

fn assert_hits_bitwise(got: &[Hit], want: &[Hit], site: &str) {
    assert_eq!(got.len(), want.len(), "{site}: length diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!((g.id, g.score.to_bits()), (w.id, w.score.to_bits()), "{site}");
    }
}

fn assert_pairs_bitwise(got: &[(u32, f32)], want: &[(u32, f32)], site: &str) {
    assert_eq!(got.len(), want.len(), "{site}: length diverged");
    for ((gu, gs), (wu, ws)) in got.iter().zip(want) {
        assert_eq!((gu, gs.to_bits()), (wu, ws.to_bits()), "{site}");
    }
}

/// The deployment matrix every parity check below runs over.
fn matrix() -> Vec<(RetrieverKind, usize, RowFormat, &'static str)> {
    let mut out = Vec::new();
    for kind in [RetrieverKind::Exact, RetrieverKind::Hnsw] {
        for shards in [1usize, 3] {
            for store in [RowFormat::F32, RowFormat::I8] {
                for spec in ["", FULL_CHAIN] {
                    out.push((kind, shards, store, spec));
                }
            }
        }
    }
    out
}

/// Composes the checked runner's stages by hand: one batched retrieval
/// at the chain's fetch depth, then the chain per row.
fn manual_run(pipeline: &MatchPipeline<'_>, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
    let d = pipeline.dim();
    pipeline
        .retrieve(queries, pipeline.fetch_k(k))
        .into_iter()
        .enumerate()
        .map(|(i, hits)| pipeline.rerank(&queries[i * d..(i + 1) * d], hits, k))
        .collect()
}

#[test]
fn item_pipeline_runners_equal_the_composed_stages() {
    let histories: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5], vec![0], vec![7, 8, 9, 10]];
    let refs: Vec<&[u32]> = histories.iter().map(|h| h.as_slice()).collect();
    let k = 10;
    for (kind, shards, store, spec) in matrix() {
        let fitted = serve_variant(kind, shards, store, spec);
        let site = format!("{}/shards={shards}/{}/chain={spec:?}", kind.name(), store.name());
        let pipeline = fitted.item_pipeline();
        if spec.is_empty() {
            assert_eq!(pipeline.fetch_k(k), k, "{site}: identity chain must not over-fetch");
        } else {
            assert!(pipeline.fetch_k(k) > k, "{site}: chain must over-fetch");
        }

        // single: embed_one → retrieve_one → rerank is recommend_items and run_one
        for h in &refs {
            let query = pipeline.embed_one(h);
            let hits = pipeline.retrieve_one(&query, pipeline.fetch_k(k));
            let want = pipeline.rerank(&query, hits, k);
            assert_hits_bitwise(&fitted.recommend_items(h, k), &want, &format!("{site} single"));
            assert_hits_bitwise(&pipeline.run_one(&query, k), &want, &format!("{site} run_one"));
        }

        // batched: embed → run, and each batch row equals its single and
        // the autodiff tape's forward (the production tower infers
        // without the tape, so the tape is the reference here)
        let queries = pipeline.embed(&refs);
        let want = pipeline.run(&queries, k);
        let d = pipeline.dim();
        let model = &fitted.model;
        assert_eq!(
            (model.config().extractor, model.config().aggregator),
            (ContextExtractor::YoutubeDnn, Aggregator::Mean),
            "{site}: the fixture must be the production tower"
        );
        let mut graph = Graph::new();
        let tape = model.user_tower(&mut graph, &SeqBatch::from_histories(&refs, MAX_SEQ_LEN));
        let tape = graph.value(tape);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (i, h) in refs.iter().enumerate() {
            let row = &queries[i * d..(i + 1) * d];
            assert_eq!(bits(&pipeline.embed_one(h)), bits(row), "{site}: embed row {i} vs embed_one");
            assert_eq!(bits(tape.row(i)), bits(row), "{site}: embed row {i} vs the tape");
            assert_hits_bitwise(
                &pipeline.run_one(row, k),
                &want[i],
                &format!("{site} batch-vs-single row {i}"),
            );
            assert_hits_bitwise(
                &fitted.recommend_items(h, k),
                &want[i],
                &format!("{site} recommend_items-vs-batch row {i}"),
            );
        }

        // checked with no degradation: the hand-composed stages' bytes +
        // a healthy fan-out
        let manual = manual_run(&pipeline, &queries, k);
        let (lists, health) =
            pipeline.run_checked(&queries, k, DegradeOptions::NONE).expect("all shards healthy");
        assert!(!health.degraded(), "{site}: healthy run reported degraded");
        for (i, list) in lists.iter().enumerate() {
            assert_hits_bitwise(list, &manual[i], &format!("{site} checked-vs-manual row {i}"));
            assert_hits_bitwise(list, &want[i], &format!("{site} checked-vs-run row {i}"));
        }
    }
}

#[test]
fn user_pipeline_runners_equal_the_composed_stages() {
    let items = [1u32, 2, 5, 9];
    let k = 12;
    for (kind, shards, store, spec) in matrix() {
        let fitted = serve_variant(kind, shards, store, spec);
        let site = format!("{}/shards={shards}/{}/chain={spec:?}", kind.name(), store.name());
        let pipeline = fitted.user_pipeline();

        // single: gather → retrieve_one → rerank → translate is
        // target_users and run_one
        let mut singles = Vec::new();
        for &item in &items {
            let query = pipeline.gather(&[item]);
            let hits = pipeline.retrieve_one(&query, pipeline.fetch_k(k));
            let want = pipeline.translate(pipeline.rerank(&query, hits, k));
            assert_pairs_bitwise(&fitted.target_users(item, k), &want, &format!("{site} single"));
            assert_pairs_bitwise(
                &pipeline.translate(pipeline.run_one(&query, k)),
                &want,
                &format!("{site} run_one"),
            );
            singles.push(want);
        }

        // batched + checked: one gather feeds both shapes
        let queries = pipeline.gather(&items);
        let translate_all = |lists: Vec<Vec<Hit>>| -> Vec<Vec<(u32, f32)>> {
            lists.into_iter().map(|hits| pipeline.translate(hits)).collect()
        };
        let got = translate_all(pipeline.run(&queries, k));
        let manual = translate_all(manual_run(&pipeline, &queries, k));
        let (checked, health) =
            pipeline.run_checked(&queries, k, DegradeOptions::NONE).expect("all shards healthy");
        assert!(!health.degraded(), "{site}: healthy run reported degraded");
        let checked = translate_all(checked);
        for i in 0..items.len() {
            assert_pairs_bitwise(&got[i], &singles[i], &format!("{site} batch-vs-single row {i}"));
            assert_pairs_bitwise(&checked[i], &manual[i], &format!("{site} checked row {i}"));
            assert_pairs_bitwise(&checked[i], &got[i], &format!("{site} checked-vs-run row {i}"));
        }
    }
}

#[test]
fn a_hostile_k_is_clamped_to_the_indexed_rows() {
    // `k` arrives in request bodies. Unclamped, an index sizes its
    // candidate heap from it (HNSW: `ef = max(ef_search, k)`), and a
    // non-identity chain multiplies it first.
    let items = [1u32, 2];
    for (kind, shards, store, spec) in matrix() {
        let fitted = serve_variant(kind, shards, store, spec);
        let site = format!("{}/shards={shards}/{}/chain={spec:?}", kind.name(), store.name());
        for pipeline in [fitted.item_pipeline(), fitted.user_pipeline()] {
            let queries = fitted.user_pipeline().gather(&items);
            let d = pipeline.dim();
            let everything = pipeline.run(&queries, pipeline.len());
            for k in [usize::MAX / 16, usize::MAX] {
                let (lists, _) = pipeline
                    .run_checked(&queries, k, DegradeOptions::NONE)
                    .expect("all shards healthy");
                for (i, list) in lists.iter().enumerate() {
                    assert!(list.len() <= pipeline.len(), "{site}: more hits than rows");
                    assert_hits_bitwise(
                        &pipeline.run_one(&queries[i * d..(i + 1) * d], k),
                        list,
                        &format!("{site} hostile run_one row {i}"),
                    );
                    if spec.is_empty() {
                        // with no chain, "everything" is exactly the k = rows answer
                        assert_hits_bitwise(list, &everything[i], &format!("{site} k={k}"));
                    }
                }
                assert!(pipeline.retrieve_one(&queries[..d], k).len() <= pipeline.len());
                assert!(pipeline.retrieve(&queries, k).iter().all(|l| l.len() <= pipeline.len()));
            }
        }
    }
}

#[test]
fn composed_runners_equal_manual_stage_sequences() {
    // One chained deployment, stages interleaved by hand exactly as the
    // composed runners document themselves: `run` must be `run_one` per
    // row, `retrieve` must be retrieval at exactly k with no chain.
    let fitted = serve_variant(RetrieverKind::Exact, 1, RowFormat::F32, FULL_CHAIN);
    let pipeline = fitted.item_pipeline();
    let histories: Vec<Vec<u32>> = (0..6u32).map(|i| vec![i, i + 1, i + 2]).collect();
    let refs: Vec<&[u32]> = histories.iter().map(|h| h.as_slice()).collect();
    let k = 8;
    let queries = pipeline.embed(&refs);
    let d = pipeline.dim();

    let raw = pipeline.retrieve(&queries, k);
    let composed = pipeline.run(&queries, k);
    for (i, _) in refs.iter().enumerate() {
        let row = &queries[i * d..(i + 1) * d];
        assert_hits_bitwise(
            &pipeline.retrieve_one(row, k),
            &raw[i],
            &format!("retrieve row {i} must be plain k-deep retrieval"),
        );
        let over = pipeline.retrieve_one(row, pipeline.fetch_k(k));
        let manual = pipeline.rerank(row, over, k);
        assert_hits_bitwise(&composed[i], &manual, &format!("run row {i} vs manual stages"));
        assert_eq!(composed[i].len(), k.min(pipeline.len()), "row {i} truncated to k");
    }
    assert!(!pipeline.is_empty(), "fixture index must not be empty");
    assert_eq!(pipeline.len(), fitted.num_items(), "item pipeline indexes the catalog");
}

#[test]
fn degrade_none_is_bitwise_invisible_and_skips_change_content() {
    let fitted = serve_variant(RetrieverKind::Exact, 1, RowFormat::F32, FULL_CHAIN);
    let pipeline = fitted.item_pipeline();
    let histories: Vec<Vec<u32>> = (0..8u32).map(|i| vec![i, i + 3]).collect();
    let refs: Vec<&[u32]> = histories.iter().map(|h| h.as_slice()).collect();
    let queries = pipeline.embed(&refs);
    let k = 10;

    let clean = pipeline.run(&queries, k);
    let (none, _) =
        pipeline.run_checked(&queries, k, DegradeOptions::NONE).expect("healthy");
    for (i, list) in none.iter().enumerate() {
        assert_hits_bitwise(list, &clean[i], &format!("DegradeOptions::NONE row {i}"));
    }

    // skipping explore must actually change bytes somewhere (the chain
    // has an explore stage) and must be flagged as content-affecting
    let degrade = DegradeOptions { skip_explore: true, ..DegradeOptions::NONE };
    assert!(pipeline.degrade_affects_content(degrade), "skip_explore must affect content");
    assert!(!pipeline.degrade_affects_content(DegradeOptions::NONE));
    let relax = DegradeOptions { relax_quorum: true, ..DegradeOptions::NONE };
    assert!(!pipeline.degrade_affects_content(relax), "quorum relaxation alone changes no bytes");
    let identity = serve_variant(RetrieverKind::Exact, 1, RowFormat::F32, "");
    assert!(
        !identity.item_pipeline().degrade_affects_content(degrade),
        "an identity chain has no stage to skip"
    );
    let (skipped, _) = pipeline.run_checked(&queries, k, degrade).expect("healthy");
    let diverged = skipped
        .iter()
        .zip(&clean)
        .any(|(s, c)| {
            s.len() != c.len()
                || s.iter().zip(c.iter()).any(|(a, b)| {
                    (a.id, a.score.to_bits()) != (b.id, b.score.to_bits())
                })
        });
    assert!(diverged, "skipping explore changed nothing across 8 queries");
}
