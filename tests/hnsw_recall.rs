//! The batched HNSW build must not trade recall for its speed. Rows are
//! inserted in batches planned against a graph frozen at the batch's
//! start, so a row cannot link to a batch-mate; this suite holds the
//! shipped graph's recall@10 at `ef_search` 50 to that of the sequential
//! build (the reference builder with one row per batch), on a clustered
//! corpus where a missed neighbour costs recall.
//!
//! At d = 16 every rule tried recalls ~0.999 here, so the corpus is
//! d = 32 with wide clusters, where recall sits near 0.99. Over four seeds
//! the shipped rule stayed within 0.0015 of the sequential build, while a
//! rule that plans as many rows as the graph holds lost 0.012–0.018.

// the reference builder and the exact oracle, shared with the ann suites
#[path = "../crates/ann/tests/common/mod.rs"]
mod common;

use std::sync::Arc;

use common::oracle_top_k;
use common::reference_hnsw::RefHnsw;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch::ann::{EmbeddingStore, Hit, HnswConfig, HnswIndex};

const ROWS: usize = 4_000;
const DIM: usize = 32;
const CLUSTERS: usize = 40;
const QUERIES: usize = 500;
const K: usize = 10;

/// `n` unit vectors around `CLUSTERS` seeded unit centres.
fn clustered(n: usize, centres: &[f32], seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * DIM);
    for _ in 0..n {
        let c = rng.gen_range(0..CLUSTERS);
        let v: Vec<f32> = centres[c * DIM..(c + 1) * DIM]
            .iter()
            .map(|x| x + 0.6 * rng.gen_range(-1.0f32..1.0))
            .collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
        data.extend(v.into_iter().map(|x| x / norm));
    }
    data
}

/// Mean recall@K against the oracle and mean visited count of `search`.
fn measure(
    rows: &[f32],
    queries: &[f32],
    search: impl Fn(&[f32]) -> (Vec<Hit>, usize),
) -> (f64, f64) {
    let (mut found, mut visited) = (0usize, 0usize);
    for q in queries.chunks(DIM) {
        let exact: Vec<u32> = oracle_top_k(q, rows, DIM, K).iter().map(|h| h.id).collect();
        let (hits, walked) = search(q);
        found += hits.iter().filter(|h| exact.contains(&h.id)).count();
        visited += walked;
    }
    let n = (queries.len() / DIM) as f64;
    (found as f64 / (n * K as f64), visited as f64 / n)
}

#[test]
fn batched_graph_recalls_as_well_as_the_sequential_build() {
    let centres = common::unit_cloud(CLUSTERS, DIM, 71);
    let rows = clustered(ROWS, &centres, 72);
    let queries = clustered(QUERIES, &centres, 73);
    let store = Arc::new(EmbeddingStore::from_vec(rows.clone(), DIM));
    let cfg = HnswConfig { ef_search: 50, ..HnswConfig::default() };

    let shipped = HnswIndex::build_over(store.clone(), cfg, &mut StdRng::seed_from_u64(74));
    let sequential = RefHnsw::build_over(store, cfg, &mut StdRng::seed_from_u64(74), |_| 1);

    let (batched_recall, batched_visited) =
        measure(&rows, &queries, |q| shipped.search_counting(q, K));
    let (sequential_recall, sequential_visited) =
        measure(&rows, &queries, |q| sequential.search(q, K));
    println!(
        "recall@{K} at ef_search 50: batched {batched_recall:.4} (visited {batched_visited:.1}), \
         sequential {sequential_recall:.4} (visited {sequential_visited:.1})"
    );
    assert!(
        batched_recall >= sequential_recall - 0.005,
        "batched build recall {batched_recall:.4} fell below sequential {sequential_recall:.4}"
    );
}
