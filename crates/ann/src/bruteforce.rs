//! Exact brute-force search: the correctness baseline the approximate
//! indexes are measured against, and the required exact reference
//! implementation of [`Retriever`].

use std::sync::Arc;

use crate::index::{batch_entry_hooks, Hit, Retriever};
use crate::kernel::{top_k_exact_store, TopK};
use crate::store::EmbeddingStore;
use unimatch_obs as obs;

/// A flat, exact inner-product index over a shared [`EmbeddingStore`].
#[derive(Clone, Debug)]
pub struct BruteForceIndex {
    store: Arc<EmbeddingStore>,
}

impl BruteForceIndex {
    /// Builds from a row-major buffer of `n * dim` floats.
    pub fn new(data: Vec<f32>, dim: usize) -> Self {
        BruteForceIndex::over(Arc::new(EmbeddingStore::from_vec(data, dim)))
    }

    /// Builds over an existing shared store (no copy).
    pub fn over(store: Arc<EmbeddingStore>) -> Self {
        BruteForceIndex { store }
    }

    /// The embedding arena this index scores against.
    pub fn store(&self) -> &Arc<EmbeddingStore> {
        &self.store
    }
}

impl Retriever for BruteForceIndex {
    fn len(&self) -> usize {
        self.store.rows()
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn backend(&self) -> &'static str {
        "bruteforce"
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim(), "query dim mismatch");
        let _search_span = obs::span_us("unimatch_ann_search_us", "index=\"bruteforce\"");
        let mut top = TopK::new(k);
        for r in 0..self.len() {
            top.push(r as u32, self.store.score_row(query, r));
        }
        if obs::enabled() {
            obs::registry::counter_labeled("unimatch_ann_searches_total", "index=\"bruteforce\"")
                .inc();
            obs::registry::histogram(
                "unimatch_ann_visited_nodes",
                "index=\"bruteforce\"",
                obs::COUNT_BOUNDS,
            )
            .observe(self.len() as u64);
        }
        top.into_sorted()
    }

    /// Exact batch search through the blocked kernel
    /// ([`crate::kernel::top_k_exact_store`]): same scores and ordering
    /// as the per-query path, but targets are streamed tile-by-tile
    /// across each query block instead of re-read per query. Works over
    /// every row format — quantized stores score through the
    /// fused dequant-dot inner loop.
    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        let _span = batch_entry_hooks(self.obs_label());
        let d = self.dim();
        assert!(d > 0, "search_batch on an index with zero dimension");
        assert_eq!(
            queries.len() % d,
            0,
            "query batch length {} is not a multiple of dim {}",
            queries.len(),
            d
        );
        let nq = queries.len() / d;
        let hits = top_k_exact_store(queries, &self.store, k);
        if obs::enabled() {
            obs::registry::counter_labeled("unimatch_ann_searches_total", "index=\"bruteforce\"")
                .add(nq as u64);
            let visited = obs::registry::histogram(
                "unimatch_ann_visited_nodes",
                "index=\"bruteforce\"",
                obs::COUNT_BOUNDS,
            );
            for _ in 0..nq {
                visited.observe(self.len() as u64);
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_top_k() {
        let data = vec![
            1.0, 0.0, // id 0
            0.0, 1.0, // id 1
            0.7, 0.7, // id 2
            -1.0, 0.0, // id 3
        ];
        let ix = BruteForceIndex::new(data, 2);
        let hits = ix.search(&[1.0, 0.1], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 2);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn k_larger_than_n() {
        let ix = BruteForceIndex::new(vec![1.0, 0.0], 2);
        let hits = ix.search(&[1.0, 0.0], 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn batch_override_matches_per_query_search() {
        let data: Vec<f32> = (0..64).map(|i| ((i * 37 % 19) as f32) / 19.0 - 0.5).collect();
        let ix = BruteForceIndex::new(data, 4);
        let queries: Vec<f32> = (0..12).map(|i| ((i * 13 % 7) as f32) / 7.0 - 0.5).collect();
        let batched = ix.search_batch(&queries, 5);
        for (i, q) in queries.chunks(4).enumerate() {
            let single = ix.search(q, 5);
            assert_eq!(batched[i].len(), single.len());
            for (b, s) in batched[i].iter().zip(&single) {
                assert_eq!(b.id, s.id);
                assert_eq!(b.score.to_bits(), s.score.to_bits());
            }
        }
    }

    #[test]
    fn shares_a_store_without_copying() {
        let store = Arc::new(EmbeddingStore::from_vec(vec![1.0, 0.0, 0.0, 1.0], 2));
        let ix = BruteForceIndex::over(store.clone());
        assert!(Arc::ptr_eq(ix.store(), &store));
        assert_eq!(ix.len(), 2);
    }
}
