//! `search_batch` must return exactly what per-query `search` returns, for
//! every index type, whether the batch runs inline or fans out over
//! threads; and the HNSW graph, whose inserts are planned in parallel
//! batches, must not depend on how many threads planned them.
//!
//! The parallel configuration is process-global, so everything lives in a
//! single `#[test]` — cargo runs test functions of one binary concurrently
//! and two functions installing different configurations would race.

mod common;

use std::sync::Arc;

use common::{assert_bitwise, unit_cloud};
use rand::SeedableRng;
use unimatch_ann::{
    AnnIndex, BruteForceIndex, EmbeddingStore, Hit, HnswConfig, HnswIndex, RowFormat,
};
use unimatch_parallel::Parallelism;

fn assert_hits_equal(a: &[Vec<Hit>], b: &[Vec<Hit>], index_name: &str) {
    assert_eq!(a.len(), b.len(), "{index_name}: result count mismatch");
    for (q, (ha, hb)) in a.iter().zip(b).enumerate() {
        assert_bitwise(ha, hb, &format!("{index_name} query {q}"));
    }
}

#[test]
fn search_batch_matches_per_query_search() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xba7c4);
    let (n, dim, nq, k) = (400, 12, 37, 8);
    let data = unit_cloud(n, dim, 0xba7c5);
    let queries = unit_cloud(nq, dim, 0xba7c6);

    let bf = BruteForceIndex::new(data.clone(), dim);
    let hnsw = HnswIndex::build(data, dim, HnswConfig::default(), &mut rng);

    for (name, index) in [("bruteforce", &bf as &dyn AnnIndex), ("hnsw", &hnsw)] {
        let per_query: Vec<Vec<Hit>> = (0..nq)
            .map(|i| index.search(&queries[i * dim..(i + 1) * dim], k))
            .collect();

        // inline path: the whole batch is under the default work threshold
        // only for tiny inputs, so force both decisions explicitly
        Parallelism::sequential().install_global();
        let sequential = index.search_batch(&queries, k);
        assert_hits_equal(&per_query, &sequential, name);

        // forced fan-out: 4 workers, threshold 1 → every batch splits
        Parallelism::threads(4).with_min_work(1).install_global();
        let parallel = index.search_batch(&queries, k);
        assert_hits_equal(&per_query, &parallel, name);

        Parallelism::auto().install_global();
    }

    // ragged batches are rejected
    let bad = std::panic::catch_unwind(|| bf.search_batch(&queries[..dim + 1], k));
    assert!(bad.is_err(), "ragged query batch must panic");

    // empty batch is a no-op
    assert!(bf.search_batch(&[], k).is_empty());

    // the graph is the same at 1, 2 and 4 planning threads
    let f32_store = EmbeddingStore::from_vec(unit_cloud(1_500, dim, 0xba7c7), dim);
    let i8_store = f32_store.quantize(RowFormat::I8);
    for (name, store) in [("f32", Arc::new(f32_store)), ("i8", Arc::new(i8_store))] {
        let build = |threads: Parallelism| {
            threads.install_global();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xba7c8);
            let index = HnswIndex::build_over(store.clone(), HnswConfig::default(), &mut rng);
            Parallelism::auto().install_global();
            index
        };
        let sequential = build(Parallelism::sequential());
        for threads in [2, 4] {
            let fanned = build(Parallelism::threads(threads).with_min_work(1));
            assert_eq!(fanned.entry_point(), sequential.entry_point(), "{name}, {threads} threads");
            for node in 0..store.rows() {
                assert_eq!(
                    fanned.neighbour_lists(node),
                    sequential.neighbour_lists(node),
                    "{name}, {threads} threads: node {node}"
                );
            }
        }
    }
}
