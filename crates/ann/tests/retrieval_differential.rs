//! Differential suite for the retrieval engine: the blocked exact kernel
//! and every [`Retriever`] backend against a naive stable-sort oracle.
//!
//! The pre-refactor call sites (batch inference, eval ranking pools, the
//! serving handlers) each carried their own `dot` + sort/heap loop with
//! one shared contract: scores are the sequential `iter().zip().sum()`
//! dot product, ranking is score-descending with ties broken by lowest
//! id. This suite pins that contract onto the unified engine — any
//! accumulation reorder, tile-boundary bug, or tie-break drift fails a
//! bitwise assertion here.

mod common;

// `cloud` is not normalized — it exercises ties less, so the tie cases
// below construct duplicates explicitly.
use common::{assert_bitwise, cloud, oracle_top_k};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use unimatch_ann::{
    dot, top_k_exact, BruteForceIndex, EmbeddingStore, HnswConfig, HnswIndex, Retriever,
    STORE_ALIGN,
};

#[test]
fn kernel_matches_stable_sort_oracle_bit_for_bit() {
    // Sizes straddle the kernel's query-block (128) and target-tile (512)
    // boundaries so every tiling edge case is crossed.
    for (nq, nt, dim, k) in [(1, 7, 4, 3), (33, 600, 16, 10), (130, 520, 8, 25), (257, 1, 5, 4)] {
        let queries = cloud(nq, dim, nq as u64);
        let targets = cloud(nt, dim, nt as u64 + 1);
        let got = top_k_exact(&queries, &targets, dim, k);
        assert_eq!(got.len(), nq);
        for (qi, q) in queries.chunks(dim).enumerate() {
            let want = oracle_top_k(q, &targets, dim, k);
            assert_bitwise(&got[qi], &want, &format!("nq={nq} nt={nt} query {qi}: kernel vs oracle"));
        }
    }
}

#[test]
fn every_backend_scores_bitwise_like_the_single_dot() {
    let (n, dim, k) = (1_200, 12, 15);
    let data = cloud(n, dim, 7);
    let queries = cloud(20, dim, 8);
    let store = Arc::new(EmbeddingStore::from_rows(&data, dim));
    let mut rng = StdRng::seed_from_u64(9);
    let bf = BruteForceIndex::over(store.clone());
    let hnsw = HnswIndex::build_over(store.clone(), HnswConfig::default(), &mut rng);
    let backends: [&dyn Retriever; 2] = [&bf, &hnsw];
    for index in backends {
        let name = index.backend();
        for (qi, q) in queries.chunks(dim).enumerate() {
            for h in index.search(q, k) {
                let want = dot(q, store.row(h.id as usize));
                assert_eq!(
                    h.score.to_bits(),
                    want.to_bits(),
                    "{name} query {qi} id {}: score must be the canonical dot",
                    h.id
                );
            }
        }
    }
}

#[test]
fn exact_backend_equals_oracle_ids_and_scores() {
    let (n, dim, k) = (700, 16, 12);
    let data = cloud(n, dim, 17);
    let queries = cloud(40, dim, 18);
    let bf = BruteForceIndex::over(Arc::new(EmbeddingStore::from_rows(&data, dim)));
    let batched = bf.search_batch(&queries, k);
    for (qi, q) in queries.chunks(dim).enumerate() {
        let want = oracle_top_k(q, &data, dim, k);
        assert_bitwise(&batched[qi], &want, &format!("batched {qi}"));
        assert_bitwise(&bf.search(q, k), &want, &format!("per-query {qi}"));
    }
}

#[test]
fn tied_scores_keep_the_lowest_ids_on_the_exact_path() {
    // Four copies of the same row: any k < 4 must keep the lowest ids, in
    // ascending order — the stable-sort contract the old call sites had.
    let dim = 6;
    let row = cloud(1, dim, 77);
    let mut data = Vec::new();
    for _ in 0..4 {
        data.extend_from_slice(&row);
    }
    data.extend_from_slice(&cloud(5, dim, 78)); // distinct tail
    let query = row.clone();
    let bf = BruteForceIndex::over(Arc::new(EmbeddingStore::from_rows(&data, dim)));
    let hits = bf.search(&query, 3);
    let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
    assert_eq!(ids, vec![0, 1, 2], "ties must resolve to the lowest ids");
    let batched = bf.search_batch(&query, 3);
    let ids: Vec<u32> = batched[0].iter().map(|h| h.id).collect();
    assert_eq!(ids, vec![0, 1, 2], "batched path must tie-break identically");
}

/// A corpus where a duplicated row fills the low ids and a strictly
/// better row sits at a higher id: row `BEST` scores 1.0 against the
/// probe, rows `0..4` and `30` are one duplicated row scoring 0.5, the
/// rest score far lower. Returns `(data, probe, dim)`.
fn late_best_after_duplicates() -> (Vec<f32>, Vec<f32>, usize) {
    const BEST: usize = 20;
    let dim = 4;
    let mut data = cloud(40, dim, 0x71e5);
    for x in &mut data {
        *x *= 0.05;
    }
    for r in [0, 1, 2, 3, 30] {
        data[r * dim..(r + 1) * dim].copy_from_slice(&[0.5, 0.0, 0.0, 0.0]);
    }
    data[BEST * dim..(BEST + 1) * dim].copy_from_slice(&[1.0, 0.0, 0.0, 0.0]);
    (data, vec![1.0, 0.0, 0.0, 0.0], dim)
}

#[test]
fn a_late_better_row_evicts_the_highest_tied_id_on_every_backend() {
    // When the better row arrives, the heap is full of tied duplicates;
    // the one displaced must be the highest id, or the answer diverges
    // from the stable-sort oracle (k=2 must be [20, 0], never [20, 1]).
    let (data, probe, dim) = late_best_after_duplicates();
    let rows = data.len() / dim;
    let store = Arc::new(EmbeddingStore::from_rows(&data, dim));
    let mut rng = StdRng::seed_from_u64(12);
    let bf = BruteForceIndex::over(store.clone());
    // effectively exact: the beam admits every node
    let hnsw = HnswIndex::build_over(
        store,
        HnswConfig { m: 16, ef_construction: 128, ef_search: rows },
        &mut rng,
    );
    let backends: [&dyn Retriever; 2] = [&bf, &hnsw];
    for index in backends {
        let name = index.backend();
        for k in [1, 2, 3, 5, 6, 7] {
            let want = oracle_top_k(&probe, &data, dim, k);
            for (path, got) in
                [("search", index.search(&probe, k)), ("batch", index.search_batch(&probe, k).remove(0))]
            {
                assert_bitwise(&got, &want, &format!("{name} {path} k={k}: tie eviction vs oracle"));
            }
        }
    }
    let ids: Vec<u32> = top_k_exact(&probe, &data, dim, 2)[0].iter().map(|h| h.id).collect();
    assert_eq!(ids, vec![20, 0]);
}

#[test]
fn k_larger_than_corpus_and_k_zero_are_total() {
    let dim = 4;
    let data = cloud(3, dim, 5);
    let queries = cloud(2, dim, 6);
    let store = Arc::new(EmbeddingStore::from_rows(&data, dim));
    let mut rng = StdRng::seed_from_u64(4);
    let bf = BruteForceIndex::over(store.clone());
    let hnsw = HnswIndex::build_over(store, HnswConfig::default(), &mut rng);
    let backends: [&dyn Retriever; 2] = [&bf, &hnsw];
    for index in backends {
        let name = index.backend();
        // k beyond the corpus returns the whole corpus, ranked
        let hits = index.search(&queries[..dim], 50);
        assert_eq!(hits.len(), 3, "{name}: k > corpus returns every row");
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score), "{name}: sorted");
        // k == 0 returns nothing, everywhere
        assert!(index.search(&queries[..dim], 0).is_empty(), "{name}: k=0");
        let batched = index.search_batch(&queries, 0);
        assert!(batched.iter().all(Vec::is_empty), "{name}: batched k=0");
    }
    // the kernel agrees on both edges
    let all = top_k_exact(&queries, &data, dim, 50);
    assert!(all.iter().all(|h| h.len() == 3));
    assert!(top_k_exact(&queries, &data, dim, 0).iter().all(Vec::is_empty));
}

#[test]
fn store_rows_are_aligned_and_id_mapped() {
    let dim = 5;
    let data = cloud(8, dim, 91);
    let ids = vec![40u32, 7, 19, 3, 88, 52, 61, 14];
    let store = EmbeddingStore::with_ids(&data, dim, ids.clone());
    assert_eq!(store.as_slice().as_ptr() as usize % STORE_ALIGN, 0, "arena must be 32B-aligned");
    for (row, &id) in ids.iter().enumerate() {
        assert_eq!(store.id_of_row(row), id);
        assert_eq!(store.row_of_id(id), Some(row));
        assert_eq!(store.row(row), &data[row * dim..(row + 1) * dim]);
    }
    assert_eq!(store.row_of_id(999), None);
    // without an id map, ids are the row indexes
    let plain = EmbeddingStore::from_rows(&data, dim);
    assert_eq!(plain.id_of_row(3), 3);
    assert_eq!(plain.row_of_id(7), Some(7));
    assert_eq!(plain.row_of_id(8), None);
}

#[test]
fn all_backends_share_one_arena() {
    let dim = 8;
    let store = Arc::new(EmbeddingStore::from_rows(&cloud(300, dim, 33), dim));
    let mut rng = StdRng::seed_from_u64(34);
    let bf = BruteForceIndex::over(store.clone());
    let hnsw = HnswIndex::build_over(store.clone(), HnswConfig::default(), &mut rng);
    assert!(Arc::ptr_eq(bf.store(), &store), "bruteforce must not copy the arena");
    assert!(Arc::ptr_eq(hnsw.store(), &store), "hnsw must not copy the arena");
}
