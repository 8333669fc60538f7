//! `search_batch` must return exactly what per-query `search` returns, for
//! every index type, whether the batch runs inline or fans out over
//! threads.
//!
//! The parallel configuration is process-global, so everything lives in a
//! single `#[test]` — cargo runs test functions of one binary concurrently
//! and two functions installing different configurations would race.

mod common;

use common::{assert_bitwise, unit_cloud};
use rand::SeedableRng;
use unimatch_ann::{AnnIndex, BruteForceIndex, Hit, HnswConfig, HnswIndex};
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
}
