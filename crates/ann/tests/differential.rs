//! Differential tests: the approximate index (HNSW) against the
//! brute-force oracle on seeded corpora.
//!
//! Two contracts:
//! 1. **Recall** — at serving-grade parameters, recall@10 ≥ 0.95 against
//!    exact search.
//! 2. **Score fidelity** — every score an index returns must be *bitwise*
//!    equal to the exact dot product of the query with that row. The
//!    approximate index prunes which rows get scored, never how a row is
//!    scored; any drift (reordered accumulation, fused ops) would break
//!    the serving layer's byte-identity guarantees.

mod common;

use common::{assert_bitwise, exact_dot, unit_cloud};
use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch_ann::{AnnIndex, BruteForceIndex, HnswConfig, HnswIndex};

/// Mean recall@k of `index` against `oracle` over all `queries`, while
/// asserting bitwise score fidelity and sorted output for every hit.
fn recall_and_fidelity(
    index: &dyn AnnIndex,
    oracle: &BruteForceIndex,
    data: &[f32],
    queries: &[f32],
    dim: usize,
    k: usize,
    name: &str,
) -> f64 {
    let mut recalled = 0usize;
    let mut total = 0usize;
    for (qi, q) in queries.chunks(dim).enumerate() {
        let exact: std::collections::HashSet<u32> =
            oracle.search(q, k).iter().map(|h| h.id).collect();
        let hits = index.search(q, k);
        assert!(hits.len() <= k, "{name} query {qi}: more than k hits");
        assert!(
            hits.windows(2).all(|w| w[0].score >= w[1].score),
            "{name} query {qi}: hits not sorted descending"
        );
        let mut seen = std::collections::HashSet::new();
        for h in &hits {
            assert!(seen.insert(h.id), "{name} query {qi}: duplicate id {}", h.id);
            let row = &data[h.id as usize * dim..(h.id as usize + 1) * dim];
            let reference = exact_dot(q, row);
            assert_eq!(
                h.score.to_bits(),
                reference.to_bits(),
                "{name} query {qi}: score for id {} is {} but the exact dot product is {} — \
                 returned scores must be bitwise-exact",
                h.id,
                h.score,
                reference
            );
        }
        recalled += hits.iter().filter(|h| exact.contains(&h.id)).count();
        total += k;
    }
    recalled as f64 / total as f64
}

#[test]
fn hnsw_matches_bruteforce_with_high_recall_and_exact_scores() {
    let (n, dim, k) = (3_000, 16, 10);
    let data = unit_cloud(n, dim, 11);
    let queries = unit_cloud(60, dim, 12);
    let oracle = BruteForceIndex::new(data.clone(), dim);
    let mut rng = StdRng::seed_from_u64(13);
    let hnsw = HnswIndex::build(
        data.clone(),
        dim,
        HnswConfig { m: 16, ef_construction: 128, ef_search: 100 },
        &mut rng,
    );
    let recall = recall_and_fidelity(&hnsw, &oracle, &data, &queries, dim, k, "hnsw");
    assert!(recall >= 0.95, "hnsw recall@{k} = {recall:.3}, needs >= 0.95");
}

#[test]
fn bruteforce_scores_are_the_exact_dot_products() {
    // The oracle itself must satisfy the fidelity contract (recall is
    // trivially 1.0 against itself).
    let (n, dim, k) = (500, 8, 10);
    let data = unit_cloud(n, dim, 31);
    let queries = unit_cloud(25, dim, 32);
    let oracle = BruteForceIndex::new(data.clone(), dim);
    let recall = recall_and_fidelity(&oracle, &oracle, &data, &queries, dim, k, "bruteforce");
    assert_eq!(recall, 1.0);
}

#[test]
fn search_batch_is_identical_to_sequential_search() {
    // The parallel batched path must return exactly what per-query calls
    // return, for every index type.
    let (n, dim, k) = (800, 16, 10);
    let data = unit_cloud(n, dim, 41);
    let queries = unit_cloud(32, dim, 42);
    let mut rng = StdRng::seed_from_u64(43);
    let bf = BruteForceIndex::new(data.clone(), dim);
    let hnsw = HnswIndex::build(data, dim, HnswConfig::default(), &mut rng);
    let indexes: [(&str, &dyn AnnIndex); 2] = [("bruteforce", &bf), ("hnsw", &hnsw)];
    for (name, ix) in indexes {
        let batched = ix.search_batch(&queries, k);
        for (qi, q) in queries.chunks(dim).enumerate() {
            assert_bitwise(&batched[qi], &ix.search(q, k), &format!("{name} query {qi}"));
        }
    }
}
