//! Differential suite for the post-retrieval re-ranking pipeline.
//!
//! The chain sits between the retrieval engine and every caller, so the
//! two properties that matter are proved at the call sites a user feels:
//!
//! 1. **Identity is invisible.** An unconfigured deployment (empty
//!    `--rerank` spec) must be bitwise identical to raw top-k retrieval
//!    for every backend (exact/HNSW) and shard count — the chain
//!    must not over-fetch, re-sort, or even re-allocate.
//! 2. **Chains are seeded functions.** A configured chain with a fixed
//!    seed must produce byte-identical results across process restarts
//!    and observability settings, and a different seed must actually
//!    change what exploration does.
//!
//! Each identity test mirrors `build_serving_with`'s index construction
//! exactly (same `seed ^ 0x1d` RNG, item index built before user index,
//! same default backend configs) so the oracle is the pre-chain serving
//! path, not a weaker re-derivation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch::ann::{
    BruteForceIndex, EmbeddingStore, Hit, HnswConfig, HnswIndex, Retriever, ShardPolicy,
    ShardedRetriever,
};
use unimatch::core::{
    load_checkpoint, save_model_with_marginals, FittedUniMatch, RerankConfig, RetrieverKind,
    UniMatch, UniMatchConfig,
};
use unimatch::data::{DatasetProfile, InteractionLog};
use unimatch::rerank::BusinessRules;

const SEED: u64 = 42;

fn base_config(kind: RetrieverKind, shards: usize, spec: &str) -> UniMatchConfig {
    UniMatchConfig {
        epochs_per_month: 1,
        max_seq_len: 8,
        seed: SEED,
        retriever: kind,
        shards,
        rerank: RerankConfig { spec: spec.to_string(), rules: None },
        ..Default::default()
    }
}

/// Trains once and persists a marginals-bearing checkpoint; every serving
/// variant under test reloads from this single artifact, so any
/// divergence between variants is the chain's doing, not training noise.
/// `OnceLock` serializes the write across the binary's parallel tests.
fn checkpoint() -> (std::path::PathBuf, InteractionLog) {
    static CKPT: std::sync::OnceLock<(std::path::PathBuf, InteractionLog)> =
        std::sync::OnceLock::new();
    CKPT.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("unimatch_rerank_parity_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.json");
        let log = DatasetProfile::EComp.generate(0.1, 4).filter_min_interactions(3);
        let fitted = UniMatch::new(base_config(RetrieverKind::Exact, 1, "")).fit(log.clone());
        save_model_with_marginals(&fitted.model, Some(fitted.marginals()), &path)
            .expect("save checkpoint");
        (path, log)
    })
    .clone()
}

fn serve_variant(kind: RetrieverKind, shards: usize, spec: &str, seed: u64) -> FittedUniMatch {
    let (path, log) = checkpoint();
    let (model, store, marginals) = load_checkpoint(&path).expect("load checkpoint");
    let mut cfg = base_config(kind, shards, spec);
    cfg.seed = seed;
    UniMatch::new(cfg).serve_with_store_and_marginals(model, &log, store, marginals)
}

/// One unsharded index, exactly as `RetrieverKind::build_one` does it.
fn mirror_one(kind: RetrieverKind, store: Arc<EmbeddingStore>, rng: &mut StdRng) -> Box<dyn Retriever> {
    match kind {
        RetrieverKind::Exact => Box::new(BruteForceIndex::over(store)),
        RetrieverKind::Hnsw => Box::new(HnswIndex::build_over(store, HnswConfig::default(), rng)),
    }
}

/// The serving facade's index pair, rebuilt outside the facade: same RNG
/// stream (`seed ^ 0x1d`), item index first, shard split second.
fn mirror_indexes(
    fitted: &FittedUniMatch,
    kind: RetrieverKind,
    shards: usize,
) -> (Box<dyn Retriever>, Box<dyn Retriever>) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1d);
    let build = |store: &Arc<EmbeddingStore>, rng: &mut StdRng| -> Box<dyn Retriever> {
        if shards > 1 {
            Box::new(ShardedRetriever::build(store, shards, ShardPolicy::default(), |view| mirror_one(kind, view, rng)))
        } else {
            mirror_one(kind, store.clone(), rng)
        }
    };
    let item = build(fitted.item_store(), &mut rng);
    let user = build(fitted.user_store(), &mut rng);
    (item, user)
}

fn assert_hits_bitwise(got: &[Hit], want: &[Hit], site: &str) {
    assert_eq!(got.len(), want.len(), "{site}: length diverged");
    for (g, w) in got.iter().zip(want) {
        assert_eq!((g.id, g.score.to_bits()), (w.id, w.score.to_bits()), "{site}");
    }
}

#[test]
fn identity_chain_is_bitwise_raw_top_k_across_backends_and_shards() {
    for kind in [RetrieverKind::Exact, RetrieverKind::Hnsw] {
        for shards in [1usize, 3] {
            let fitted = serve_variant(kind, shards, "", SEED);
            assert_eq!(fitted.rerank_spec(), "", "empty spec must stay identity");
            let (item_index, user_index) = mirror_indexes(&fitted, kind, shards);
            let site = format!("{}/shards={shards}", kind.name());

            // IR, single and batched
            let histories: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5], vec![0]];
            let refs: Vec<&[u32]> = histories.iter().map(|h| h.as_slice()).collect();
            let pipeline = fitted.item_pipeline();
            let batched = pipeline.run(&pipeline.embed(&refs), 10);
            for (i, h) in histories.iter().enumerate() {
                let query = pipeline.embed_one(h);
                let want = item_index.search(&query, 10);
                assert_hits_bitwise(&fitted.recommend_items(h, 10), &want, &format!("{site} IR"));
                assert_hits_bitwise(&batched[i], &want, &format!("{site} IR batch"));
            }

            // UT, single and batched
            let items = [1u32, 2, 5];
            let pipeline = fitted.user_pipeline();
            let batched: Vec<Vec<(u32, f32)>> = pipeline
                .run(&pipeline.gather(&items), 12)
                .into_iter()
                .map(|hits| pipeline.translate(hits))
                .collect();
            for (i, &item) in items.iter().enumerate() {
                let query = fitted.item_store().row(item as usize);
                let want: Vec<(u32, f32)> = user_index
                    .search(query, 12)
                    .into_iter()
                    .map(|h| (fitted.user_store().id_of_row(h.id as usize), h.score))
                    .collect();
                let got = fitted.target_users(item, 12);
                assert_eq!(got.len(), want.len(), "{site} UT");
                for ((gu, gs), (wu, ws)) in got.iter().zip(&want) {
                    assert_eq!((gu, gs.to_bits()), (wu, ws.to_bits()), "{site} UT");
                }
                assert_eq!(batched[i], got, "{site} UT batch");
            }
        }
    }
}

#[test]
fn debias_stage_reweights_the_raw_scores_arithmetically() {
    // Exact backend so the over-fetched raw list is itself bit-exact;
    // the chained result must then be `score − 1·log p̂(i)` re-sorted
    // under the canonical order and truncated to k.
    let fitted = serve_variant(RetrieverKind::Exact, 1, "debias@1", SEED);
    let (item_index, _) = mirror_indexes(&fitted, RetrieverKind::Exact, 1);
    let k = 10;
    let fetch_k = (k * 4).max(k + 16);
    for history in [vec![1u32, 2, 3], vec![7, 8]] {
        let query = fitted.item_pipeline().embed_one(&history);
        let mut want: Vec<Hit> = item_index
            .search(&query, fetch_k)
            .into_iter()
            .map(|h| Hit { id: h.id, score: h.score - fitted.marginals().log_pi(h.id) })
            .collect();
        want.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        want.truncate(k);
        assert_hits_bitwise(&fitted.recommend_items(&history, k), &want, "debias IR");
    }
}

#[test]
fn chained_results_are_seed_deterministic_and_seed_sensitive() {
    let spec = "debias@0.5,mmr@0.3,explore@0.4";
    let a = serve_variant(RetrieverKind::Exact, 1, spec, SEED);
    let b = serve_variant(RetrieverKind::Exact, 1, spec, SEED);
    let other = serve_variant(RetrieverKind::Exact, 1, spec, SEED + 1);
    let histories: Vec<Vec<u32>> = (0..12u32).map(|i| vec![i, i + 1, i + 2]).collect();
    let mut diverged = false;
    for h in &histories {
        let ra = a.recommend_items(h, 10);
        assert_hits_bitwise(&b.recommend_items(h, 10), &ra, "rebuild determinism");
        let ta = a.target_users(h[0], 10);
        assert_eq!(other.target_users(h[0], 10).len(), ta.len());
        if other.recommend_items(h, 10) != ra {
            diverged = true;
        }
    }
    assert!(diverged, "a different seed must change exploration somewhere across 12 queries");
}

#[test]
fn observability_toggle_never_changes_chained_bytes() {
    // The per-stage spans must be pure observers: flipping the global
    // obs flag cannot move a single bit of the reranked response.
    let spec = "debias@0.5,mmr@0.3,explore@0.2";
    let fitted = serve_variant(RetrieverKind::Exact, 1, spec, SEED);
    let history = vec![1u32, 2, 3];
    let was = unimatch::obs::enabled();
    unimatch::obs::set_enabled(false);
    let dark = fitted.recommend_items(&history, 10);
    unimatch::obs::set_enabled(true);
    let lit = fitted.recommend_items(&history, 10);
    unimatch::obs::set_enabled(was);
    assert_hits_bitwise(&lit, &dark, "obs toggle");
}

#[test]
fn rules_filter_caps_and_refills_from_the_overfetch() {
    // Deny the top raw hit and cap categories; the chain must refill to
    // a full k from the over-fetched tail, never serve a denied id, and
    // respect the per-category cap.
    let fitted = serve_variant(RetrieverKind::Exact, 1, "", SEED);
    let (item_index, _) = mirror_indexes(&fitted, RetrieverKind::Exact, 1);
    let history = vec![1u32, 2, 3];
    let query = fitted.item_pipeline().embed_one(&history);
    let raw = item_index.search(&query, 10);
    let denied = raw[0].id;
    let n = fitted.num_items() as u32;
    let categories: Vec<String> = (0..n).map(|id| format!("[{},{}]", id, id % 7)).collect();
    let rules_json = format!("{{\"deny\":[{denied}],\"categories\":[{}]}}", categories.join(","));
    let rules = BusinessRules::parse(
        &unimatch::data::json::Json::parse(rules_json.as_bytes()).expect("json"),
    )
    .expect("rules");

    let (path, log) = checkpoint();
    let (model, store, marginals) = load_checkpoint(&path).expect("load checkpoint");
    let mut cfg = base_config(RetrieverKind::Exact, 1, "filter,cap:category=2");
    cfg.rerank.rules = Some(Arc::new(rules));
    let chained =
        UniMatch::new(cfg).serve_with_store_and_marginals(model, &log, store, marginals);

    let got = chained.recommend_items(&history, 10);
    assert_eq!(got.len(), 10, "filter must refill to k from the over-fetch");
    assert!(got.iter().all(|h| h.id != denied), "denied id served");
    for cat in 0..7u32 {
        let served = got.iter().filter(|h| h.id % 7 == cat).count();
        assert!(served <= 2, "category {cat} served {served} > cap 2");
    }
}
