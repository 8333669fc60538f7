//! Exact brute-force search: the correctness baseline the approximate
//! indexes are measured against, and the required exact reference
//! implementation of [`Retriever`].

use std::sync::Arc;

use crate::index::{query_count, Hit, QuorumError, Retriever, ShardHealth};
use crate::kernel::top_k_exact_store;
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

    /// Exact search through the blocked kernel
    /// ([`crate::kernel::top_k_exact_store`]): target tiles are streamed
    /// once per query block instead of re-read per query, and quantized
    /// stores score through the fused dequant-dot inner loop. A single
    /// query is a block of one.
    fn search_batch_checked(
        &self,
        queries: &[f32],
        k: usize,
        _relax_quorum: bool,
    ) -> Result<(Vec<Vec<Hit>>, ShardHealth), QuorumError> {
        let nq = query_count(queries, self.dim());
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
        Ok((hits, ShardHealth::healthy(1)))
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
    fn batch_matches_batches_of_one() {
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
