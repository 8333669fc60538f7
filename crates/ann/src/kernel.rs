//! The one exact-scoring kernel behind every retrieval path.
//!
//! Historically each crate carried its own `dot` + top-k loop (brute
//! force scan, HNSW neighbour scoring, the batch-inference
//! block loop, the eval ranking pools). They all computed the same thing;
//! this module is the single shared implementation: [`dot`], the
//! crate-internal `TopK` bounded heap, and [`top_k_exact`] — a
//! blocked/tiled exact scorer that answers a whole query batch with
//! `unimatch-parallel` chunking.
//!
//! Determinism contract: for a given `(queries, targets, dim, k)`,
//! [`top_k_exact`] returns bit-identical scores and identical ids no
//! matter the thread count or tiling. The kernel tiles over *queries*
//! and *targets* only — never over `dim`, so each score is one
//! sequential multiply-add reduction — and visits targets in ascending
//! id order per query, so the heap admission sequence matches a naive
//! scan exactly.

use crate::index::Hit;
use unimatch_parallel::par_map_indexed;

/// Queries handled per parallel chunk (amortizes the per-task overhead;
/// matches the historical batch-inference block size).
const QUERY_BLOCK: usize = 128;

/// Target rows scored per tile before moving to the next query — sized
/// so a tile of 16-dim rows (~32 KiB) stays L1/L2-resident across the
/// queries of a block.
const TARGET_TILE: usize = 512;

/// Dot product over slices — the only `dot` in the workspace.
///
/// A plain sequential multiply-add reduction: the fixed association
/// order is what makes every retrieval path bit-reproducible.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Shared helper: maintain the top-k of a score stream with a small binary
/// heap whose root is the *worst* retained hit under the engine's
/// canonical [`crate::order`].
///
/// Admission and eviction both follow [`crate::order::canonical`]: a
/// candidate enters only when it orders strictly before the worst
/// retained hit, and the hit it displaces is the canonically worst one
/// (lowest score, highest id among ties). The retained set is therefore
/// exactly what a full canonical sort would keep, whatever order the
/// rows are visited in.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstFirst>,
}

/// A hit ordered by [`crate::order::canonical`], so a max-heap's root is
/// the canonically worst entry.
#[derive(Debug, PartialEq)]
struct WorstFirst(Hit);

impl Eq for WorstFirst {}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        crate::order::canonical(&self.0, &other.0)
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TopK {
    pub fn new(k: usize) -> Self {
        TopK { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    #[inline]
    pub fn push(&mut self, id: u32, score: f32) {
        // Nearly every row of a scan scores plainly below the boundary of
        // a full heap, which a float compare settles (it implies the
        // canonical order); only ties, signed zeros and NaNs need the
        // full comparison.
        if self.heap.len() >= self.k && self.heap.peek().is_some_and(|w| score < w.0.score) {
            return;
        }
        self.push_contender(WorstFirst(Hit { id, score }));
    }

    /// The rare half of [`TopK::push`]: fills the heap, or replaces the
    /// worst retained hit when `hit` orders strictly before it.
    fn push_contender(&mut self, hit: WorstFirst) {
        if self.heap.len() < self.k {
            self.heap.push(hit);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if hit < *worst {
                *worst = hit;
            }
        }
    }

    /// Current k-th best score (lower bound for admission).
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::NEG_INFINITY
        } else {
            self.heap.peek().map_or(f32::NEG_INFINITY, |w| w.0.score)
        }
    }

    /// Drains into a list sorted under the engine's canonical
    /// [`crate::order`] (score descending, ids ascending on ties — the
    /// same order a stable descending sort of the full score array would
    /// produce).
    pub fn into_sorted(self) -> Vec<Hit> {
        let mut v: Vec<Hit> = self.heap.into_iter().map(|w| w.0).collect();
        crate::order::sort_canonical(&mut v);
        v
    }
}

/// The one blocked loop behind both exact entry points: `score(query, t)`
/// is the row scorer, monomorphised per caller (a slice [`dot`] for f32
/// buffers, the fused dequant-dot for quantized stores).
///
/// Queries are processed in 128-row blocks fanned out through
/// `unimatch-parallel` (work estimate `nq × nt × dim × 2` flops); within
/// a block, target rows are re-streamed in 512-row tiles so the targets
/// stay cache-resident while every query of the block consumes them.
fn top_k_blocked(
    queries: &[f32],
    dim: usize,
    nt: usize,
    k: usize,
    score: impl Fn(&[f32], usize) -> f32 + Sync + Copy,
) -> Vec<Vec<Hit>> {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(queries.len() % dim, 0, "query buffer not a multiple of dim");
    let nq = queries.len() / dim;
    let k = k.min(nt);
    if nq == 0 {
        return Vec::new();
    }
    let n_blocks = nq.div_ceil(QUERY_BLOCK);
    let work = nq * nt * dim * 2;
    let per_block: Vec<Vec<Vec<Hit>>> = par_map_indexed(n_blocks, work, |b| {
        // by value into the block's frame: what the scorer captured (the
        // target slice, or a store reference) lives in registers for the
        // scan instead of behind the closure environment
        let score_row = score;
        let q_start = b * QUERY_BLOCK;
        let q_end = (q_start + QUERY_BLOCK).min(nq);
        let mut tops: Vec<TopK> = (q_start..q_end).map(|_| TopK::new(k)).collect();
        let mut t_start = 0;
        while t_start < nt {
            let t_end = (t_start + TARGET_TILE).min(nt);
            for (top, q) in tops.iter_mut().zip(q_start..q_end) {
                let query = &queries[q * dim..(q + 1) * dim];
                for t in t_start..t_end {
                    top.push(t as u32, score_row(query, t));
                }
            }
            t_start = t_end;
        }
        tops.into_iter().map(TopK::into_sorted).collect()
    });
    per_block.into_iter().flatten().collect()
}

/// Exact blocked top-k: scores every query against every target row and
/// returns the `k` best hits per query, best first.
///
/// `queries` and `targets` are row-major `n × dim` buffers, scanned by
/// the blocked query × target-tile loop. Results are bit-identical to a
/// naive one-query-at-a-time scan (see the module docs for why).
pub fn top_k_exact(queries: &[f32], targets: &[f32], dim: usize, k: usize) -> Vec<Vec<Hit>> {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(targets.len() % dim, 0, "target buffer not a multiple of dim");
    top_k_blocked(queries, dim, targets.len() / dim, k, move |query, t| {
        // `query.len()` is `dim`; reading it off the slice keeps the
        // scorer's captures down to the target buffer
        let dim = query.len();
        dot(query, &targets[t * dim..(t + 1) * dim])
    })
}

/// Exact blocked top-k over an [`EmbeddingStore`](crate::EmbeddingStore)
/// in any row format: the store-aware twin of [`top_k_exact`].
///
/// For `f32` stores this delegates to [`top_k_exact`] over the store's
/// slice, so results are bit-identical to the historical path. For
/// quantized stores it runs the same query-block × target-tile loop
/// with the store's fused dequant-dot
/// ([`score_row`](crate::EmbeddingStore::score_row)) as the inner
/// kernel — rows are
/// decoded inside the multiply-add loop, never materialized as `f32`,
/// and each score is one sequential reduction, so the determinism
/// contract (bit-identical across thread counts and tilings) carries
/// over unchanged.
pub fn top_k_exact_store(
    queries: &[f32],
    store: &crate::EmbeddingStore,
    k: usize,
) -> Vec<Vec<Hit>> {
    if store.format() == crate::RowFormat::F32 {
        return top_k_exact(queries, store.as_slice(), store.dim(), k);
    }
    top_k_blocked(queries, store.dim(), store.rows(), k, move |query, t| store.score_row(query, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_best() {
        let mut t = TopK::new(2);
        for (id, s) in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7)] {
            t.push(id, s);
        }
        let hits = t.into_sorted();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 3);
    }

    #[test]
    fn topk_threshold_tracks_worst_kept() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f32::NEG_INFINITY);
        t.push(0, 0.3);
        t.push(1, 0.8);
        assert_eq!(t.threshold(), 0.3);
        t.push(2, 0.5);
        assert_eq!(t.threshold(), 0.5);
    }

    #[test]
    fn topk_fewer_candidates_than_k() {
        let mut t = TopK::new(5);
        t.push(7, 0.2);
        let hits = t.into_sorted();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
    }

    #[test]
    fn topk_boundary_ties_keep_the_lowest_ids() {
        // a better score arriving must displace the *highest* id of the
        // tied worst scores, as a full canonical sort would
        let mut t = TopK::new(2);
        for (id, s) in [(0, 0.5), (1, 0.5), (2, 0.9)] {
            t.push(id, s);
        }
        let ids: Vec<u32> = t.into_sorted().iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![2, 0]);

        // rows visited out of id order (HNSW graph walks): a lower id tying the
        // boundary score must still be admitted
        let mut t = TopK::new(2);
        for (id, s) in [(7, 0.5), (9, 0.9), (3, 0.5)] {
            t.push(id, s);
        }
        let ids: Vec<u32> = t.into_sorted().iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![9, 3]);
    }

    #[test]
    fn topk_equals_the_canonical_sort_for_any_visit_order_and_bit_pattern() {
        // ties, both zeros, both NaNs and the infinities, visited in a
        // scrambled id order: every k must keep what the full sort keeps
        let scores = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            0.5,
            0.5,
            -0.5,
            1.0,
            0.0,
        ];
        let visited: Vec<Hit> = (0..scores.len())
            .map(|i| (i * 7) % scores.len())
            .map(|id| Hit { id: id as u32, score: scores[id] })
            .collect();
        for k in 0..=scores.len() + 1 {
            let mut t = TopK::new(k);
            for h in &visited {
                t.push(h.id, h.score);
            }
            let mut want = visited.clone();
            crate::order::sort_canonical(&mut want);
            want.truncate(k);
            let bits = |hits: &[Hit]| -> Vec<(u32, u32)> {
                hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
            };
            assert_eq!(bits(&t.into_sorted()), bits(&want), "k={k}");
        }
    }

    #[test]
    fn topk_ties_sort_by_id_ascending() {
        let mut t = TopK::new(3);
        for id in [5, 1, 3] {
            t.push(id, 0.5);
        }
        let ids: Vec<u32> = t.into_sorted().iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    /// Naive oracle: full stable sort, descending by score.
    fn oracle(queries: &[f32], targets: &[f32], dim: usize, k: usize) -> Vec<Vec<Hit>> {
        let nt = targets.len() / dim;
        queries
            .chunks(dim)
            .map(|q| {
                let mut scored: Vec<Hit> = (0..nt)
                    .map(|t| Hit {
                        id: t as u32,
                        score: dot(q, &targets[t * dim..(t + 1) * dim]),
                    })
                    .collect();
                scored.sort_by(|a, b| {
                    b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal)
                });
                scored.truncate(k.min(nt));
                scored
            })
            .collect()
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn blocked_kernel_matches_naive_oracle_bit_for_bit() {
        let dim = 7;
        // Sizes straddle both the query block and the target tile.
        for (nq, nt) in [(1, 1), (3, 50), (130, 600), (257, 513)] {
            let queries = pseudo_random(nq * dim, 0x5eed);
            let targets = pseudo_random(nt * dim, 0xf00d);
            for k in [1, 5, nt + 3] {
                let got = top_k_exact(&queries, &targets, dim, k);
                let want = oracle(&queries, &targets, dim, k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.len(), w.len(), "nq={nq} nt={nt} k={k}");
                    for (gh, wh) in g.iter().zip(w) {
                        assert_eq!(gh.id, wh.id, "nq={nq} nt={nt} k={k}");
                        assert_eq!(
                            gh.score.to_bits(),
                            wh.score.to_bits(),
                            "nq={nq} nt={nt} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tied_scores_keep_lowest_ids() {
        // Duplicate rows: ids 0/2/4 identical, 1/3 identical.
        let targets = vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
        let hits = &top_k_exact(&[1.0, 0.0], &targets, 2, 2)[0];
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn k_zero_and_empty_inputs() {
        assert!(top_k_exact(&[], &[1.0, 0.0], 2, 3).is_empty());
        let hits = top_k_exact(&[1.0, 0.0], &[], 2, 3);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].is_empty());
        let hits = top_k_exact(&[1.0, 0.0], &[1.0, 0.0], 2, 0);
        assert!(hits[0].is_empty());
    }

    #[test]
    fn store_kernel_matches_flat_kernel_for_f32() {
        let dim = 5;
        let queries = pseudo_random(37 * dim, 0xabc);
        let targets = pseudo_random(600 * dim, 0xdef);
        let store = crate::EmbeddingStore::from_rows(&targets, dim);
        let flat = top_k_exact(&queries, &targets, dim, 7);
        let via_store = top_k_exact_store(&queries, &store, 7);
        assert_eq!(flat.len(), via_store.len());
        for (a, b) in flat.iter().zip(&via_store) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn store_kernel_matches_naive_scan_for_quantized() {
        // Same oracle contract as the flat kernel, but the "truth" is a
        // naive one-row-at-a-time fused scan over the quantized store.
        let dim = 6;
        let queries = pseudo_random(140 * dim, 0x111);
        let targets = pseudo_random(531 * dim, 0x222);
        let store = crate::EmbeddingStore::from_rows(&targets, dim).quantize(crate::RowFormat::I8);
        let got = top_k_exact_store(&queries, &store, 9);
        for (q, hits) in got.iter().enumerate() {
            let query = &queries[q * dim..(q + 1) * dim];
            let mut top = TopK::new(9);
            for t in 0..store.rows() {
                top.push(t as u32, store.score_row(query, t));
            }
            let want = top.into_sorted();
            assert_eq!(hits.len(), want.len(), "q={q}");
            for (g, w) in hits.iter().zip(&want) {
                assert_eq!(g.id, w.id, "q={q}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "q={q}");
            }
        }
    }
}
