//! Cross-layer differential suite for the unified retrieval engine.
//!
//! The refactor routed every scoring path — batch inference, the serving
//! facade's IR/UT calls, campaign audience queries, and checkpoint
//! loading — through `unimatch_ann`'s `EmbeddingStore` + `Retriever`
//! engine. Each test here replays one *call site* against the
//! pre-refactor oracle (sequential dot + stable sort, ties to the lowest
//! id) and requires bitwise agreement, so an engine regression is caught
//! at the layer a user would feel it, not just inside the ann crate.

// the retrieval suites' oracle, shared rather than copied
#[path = "../crates/ann/tests/common/mod.rs"]
mod common;

use common::{assert_bitwise, oracle_top_k};
use unimatch::core::{
    build_targeting_list, load_checkpoint, save_model, CampaignSpec, PreparedData, RetrieverKind,
    UniMatch, UniMatchConfig,
};
use unimatch::data::DatasetProfile;
use unimatch::eval::ranking::EmbeddingMatrix;

fn exact_fitted() -> (unimatch::core::FittedUniMatch, unimatch::data::InteractionLog) {
    let log = DatasetProfile::EComp.generate(0.12, 6).filter_min_interactions(3);
    let cfg = UniMatchConfig {
        epochs_per_month: 1,
        max_seq_len: 8,
        retriever: RetrieverKind::Exact,
        ..Default::default()
    };
    (UniMatch::new(cfg).fit(log.clone()), log)
}

#[test]
fn batch_inference_top_k_matches_the_oracle() {
    let dim = 8;
    let mk = |n: usize, seed: u64| -> Vec<f32> {
        // deterministic pseudo-random floats without an RNG dependency
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n * dim)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    };
    let queries = mk(150, 3);
    let targets = mk(600, 4);
    let got = unimatch::ann::top_k_exact(&queries, &targets, dim, 9);
    for (qi, q) in queries.chunks(dim).enumerate() {
        assert_bitwise(&got[qi], &oracle_top_k(q, &targets, dim, 9), &format!("query {qi}"));
    }
}

#[test]
fn target_users_is_the_oracle_over_the_user_store() {
    let (fitted, _log) = exact_fitted();
    assert_eq!(fitted.retriever_backend(), "bruteforce");
    let item = 1u32;
    let k = 12;
    let store = fitted.user_store();
    let query = fitted.item_store().row(item as usize).to_vec();
    let want: Vec<(u32, f32)> = oracle_top_k(&query, store.as_slice(), store.dim(), k)
        .into_iter()
        .map(|hit| (store.id_of_row(hit.id as usize), hit.score))
        .collect();
    let got = fitted.target_users(item, k);
    assert_eq!(got.len(), want.len());
    for ((gu, gs), (wu, ws)) in got.iter().zip(&want) {
        assert_eq!((gu, gs.to_bits()), (wu, ws.to_bits()));
    }
    // and the batched UT path returns the same bits
    let pipeline = fitted.user_pipeline();
    let batched = pipeline.run(&pipeline.gather(&[item]), k).remove(0);
    assert_eq!(pipeline.translate(batched), got);
}

#[test]
fn recommend_items_exact_matches_hit_for_hit_across_batch_sizes() {
    let (fitted, _log) = exact_fitted();
    let histories: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5], vec![0]];
    let refs: Vec<&[u32]> = histories.iter().map(|h| h.as_slice()).collect();
    let pipeline = fitted.item_pipeline();
    let batched = pipeline.run(&pipeline.embed(&refs), 10);
    for (i, h) in histories.iter().enumerate() {
        let single = fitted.recommend_items(h, 10);
        assert_eq!(batched[i].len(), single.len());
        for (b, s) in batched[i].iter().zip(&single) {
            assert_eq!((b.id, b.score.to_bits()), (s.id, s.score.to_bits()));
        }
    }
}

#[test]
fn audience_lists_reduce_to_the_user_pipeline_on_the_subject_embedding() {
    let (fitted, log) = exact_fitted();
    let spec = CampaignSpec::item("promo", 2, 15);
    let list = build_targeting_list(&fitted, &log, &spec);
    // replay subject_query by hand: normalized single-item store row
    let store = fitted.item_store();
    let row = store.row(2);
    let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    let query: Vec<f32> = row.iter().map(|x| x / norm).collect();
    let pipeline = fitted.user_pipeline();
    let direct = pipeline.translate(pipeline.run_one(&query, 15));
    assert_eq!(list.users.len(), 15);
    for ((lu, ls), (du, ds)) in list.users.iter().zip(&direct) {
        assert_eq!((lu, ls.to_bits()), (du, ds.to_bits()));
    }
}

#[test]
fn checkpoint_store_reproduces_the_fit_path_bit_for_bit() {
    let (fitted, _log) = exact_fitted();
    let dir = std::env::temp_dir()
        .join(format!("unimatch_retrieval_engine_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("model.json");
    save_model(&fitted.model, &path).expect("save checkpoint");

    // the store decoded straight from the checkpoint's embedding section —
    // no ParamSet, no item-tower forward pass
    let (_, store, _) = load_checkpoint(&path).expect("load checkpoint");
    let fit_store = fitted.item_store();
    assert_eq!(store.rows(), fit_store.rows());
    assert_eq!(store.dim(), fit_store.dim());
    for (a, b) in store.as_slice().iter().zip(fit_store.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "checkpoint store diverged from infer_items");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_split_ranks_with_the_engine_dot() {
    // The eval ranking pool scores candidates through the same canonical
    // dot as the engine; a handful of spot checks pin the equivalence.
    let (fitted, log) = exact_fitted();
    let prepared = PreparedData::from_log(log, 8);
    let _ = prepared; // split construction exercised; scoring parity below
    let store = fitted.item_store();
    let matrix = EmbeddingMatrix::new(store.as_slice(), store.dim());
    let query = store.row(0);
    let candidates: Vec<u32> = (0..store.rows() as u32).collect();
    let scores = unimatch::eval::ranking::score_candidates(query, matrix, &candidates);
    for (i, s) in scores.iter().enumerate() {
        let want = unimatch::ann::dot(query, store.row(i));
        assert_eq!(s.to_bits(), want.to_bits(), "candidate {i}");
    }
}
