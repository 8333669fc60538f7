//! Fixtures shared by the retrieval test suites (and, through a
//! `#[path]` include, by the facade's `tests/retrieval_engine.rs` and
//! `tests/hnsw_recall.rs`): seeded corpora, the naive full-sort oracle,
//! the bitwise hit-list comparison, and the reference HNSW builder.

#![allow(dead_code)] // each suite uses its own subset

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_ann::{sort_canonical, Hit};

/// Seeded row-major vectors in `[-1, 1)` (not normalized).
pub fn cloud(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Seeded row-major unit vectors.
pub fn unit_cloud(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
        data.extend(v.into_iter().map(|x| x / norm));
    }
    data
}

/// The reference score: the sequential `iter().zip().sum()` dot product,
/// written out here so it stays independent of the engine's `dot`.
pub fn exact_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The oracle every scoring call site reduces to: score all rows with
/// [`exact_dot`], sort the whole list canonically (score descending,
/// ties to the lowest id), truncate to `k`.
pub fn oracle_top_k(query: &[f32], rows: &[f32], dim: usize, k: usize) -> Vec<Hit> {
    let mut scored: Vec<Hit> = rows
        .chunks(dim)
        .enumerate()
        .map(|(i, row)| Hit { id: i as u32, score: exact_dot(query, row) })
        .collect();
    sort_canonical(&mut scored);
    scored.truncate(k);
    scored
}

/// Asserts two hit lists agree on length, ids and score bits.
pub fn assert_bitwise(a: &[Hit], b: &[Hit], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: hit counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.id, y.id, "{context}: id diverges at rank {i}");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{context}: score bits diverge at rank {i} (id {})",
            x.id
        );
    }
}

/// The HNSW builder and walker as they stood before the stamped scratch
/// and the score-once prune (PR 24), kept as the reference the shipped
/// index is pinned to by `hnsw_graph.rs`: a fresh `HashSet` and candidate
/// heap per `search_layer` call, a prune whose comparator re-scores both
/// sides of every comparison, rows copied out with `into_owned()`.
/// `search_layer` is that code verbatim; its `insert` is split at the
/// point where it stops reading the graph and starts writing it, into
/// `plan` (the descent and the beams) and `commit` (the links and prunes,
/// on the layers the plan recorded). `RefTopK` is the engine's
/// crate-private top-k helper, copied alongside.
///
/// `build_over` takes the batch rule: after the first row, it plans
/// `batch_rows(inserted)` rows one after another against the graph as it
/// stood when the batch began, then commits them in row order. With
/// `|_| 1` every plan is committed before the next is made, which is the
/// unsplit `insert` loop.
pub mod reference_hnsw {
    use rand::Rng;
    use std::sync::Arc;
    use unimatch_ann::{canonical, sort_canonical, EmbeddingStore, Hit, HnswConfig};

    struct RefTopK {
        k: usize,
        heap: std::collections::BinaryHeap<WorstFirst>,
    }

    #[derive(PartialEq)]
    struct WorstFirst(Hit);

    impl Eq for WorstFirst {}

    impl Ord for WorstFirst {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            canonical(&self.0, &other.0)
        }
    }

    impl PartialOrd for WorstFirst {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl RefTopK {
        fn new(k: usize) -> Self {
            RefTopK { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
        }

        fn push(&mut self, id: u32, score: f32) {
            if self.heap.len() >= self.k && self.heap.peek().is_some_and(|w| score < w.0.score) {
                return;
            }
            let hit = WorstFirst(Hit { id, score });
            if self.heap.len() < self.k {
                self.heap.push(hit);
            } else if let Some(mut worst) = self.heap.peek_mut() {
                if hit < *worst {
                    *worst = hit;
                }
            }
        }

        fn threshold(&self) -> f32 {
            if self.heap.len() < self.k {
                f32::NEG_INFINITY
            } else {
                self.heap.peek().map_or(f32::NEG_INFINITY, |w| w.0.score)
            }
        }

        fn into_sorted(self) -> Vec<Hit> {
            let mut v: Vec<Hit> = self.heap.into_iter().map(|w| w.0).collect();
            sort_canonical(&mut v);
            v
        }
    }

    pub struct RefNode {
        pub neighbours: Vec<Vec<u32>>,
    }

    pub struct RefHnsw {
        store: Arc<EmbeddingStore>,
        pub nodes: Vec<RefNode>,
        pub entry: u32,
        pub max_layer: usize,
        /// Commits whose plan connected on fewer layers than the graph had
        /// by then: a batch-mate committed before them raised the top.
        pub stale_tops: usize,
        cfg: HnswConfig,
    }

    /// One insert's beams, `(layer, found)` from the top connected layer
    /// down to 0.
    type RefPlan = Vec<(usize, Vec<Hit>)>;

    impl RefHnsw {
        pub fn build_over(
            store: Arc<EmbeddingStore>,
            cfg: HnswConfig,
            rng: &mut impl Rng,
            batch_rows: impl Fn(usize) -> usize,
        ) -> Self {
            let n = store.rows();
            assert!(n > 0, "cannot build HNSW over an empty set");
            let nodes = Vec::with_capacity(n);
            let mut index = RefHnsw { store, nodes, entry: 0, max_layer: 0, stale_tops: 0, cfg };
            let ml = 1.0 / (cfg.m as f64).ln();
            // an insert draws nothing, so drawing every level first reads
            // the stream the interleaved loop did
            let levels: Vec<usize> = (0..n)
                .map(|_| (-rng.gen_range(f64::EPSILON..1.0).ln() * ml).floor() as usize)
                .collect();
            let mut next = 0;
            while next < n {
                let end = if next == 0 { 1 } else { (next + batch_rows(next)).min(n) };
                let plans: Vec<RefPlan> =
                    (next..end).map(|r| index.plan(r as u32, levels[r])).collect();
                for (r, plan) in (next..end).zip(plans) {
                    index.commit(r as u32, levels[r], plan);
                }
                next = end;
            }
            index
        }

        fn score(&self, q: &[f32], r: u32) -> f32 {
            self.store.score_row(q, r as usize)
        }

        fn search_layer(
            &self,
            q: &[f32],
            entry: u32,
            ef: usize,
            layer: usize,
            visited_count: &mut usize,
        ) -> Vec<Hit> {
            let mut visited = std::collections::HashSet::new();
            visited.insert(entry);
            *visited_count += 1;
            let mut candidates = std::collections::BinaryHeap::new(); // max-heap by score
            let entry_score = self.score(q, entry);
            candidates.push(ScoredId(entry_score, entry));
            let mut best = RefTopK::new(ef);
            best.push(entry, entry_score);

            while let Some(ScoredId(score, id)) = candidates.pop() {
                if score < best.threshold() {
                    break;
                }
                if layer >= self.nodes[id as usize].neighbours.len() {
                    continue;
                }
                for &nb in &self.nodes[id as usize].neighbours[layer] {
                    if visited.insert(nb) {
                        *visited_count += 1;
                        let s = self.score(q, nb);
                        if s > best.threshold() {
                            best.push(nb, s);
                            candidates.push(ScoredId(s, nb));
                        }
                    }
                }
            }
            best.into_sorted()
        }

        fn plan(&self, id: u32, level: usize) -> RefPlan {
            if self.nodes.is_empty() {
                return Vec::new();
            }
            let q: Vec<f32> = self.store.decode_row(id as usize).into_owned();

            // descend from the top to level+1 greedily
            let mut ep = self.entry;
            let mut layer = self.max_layer;
            while layer > level {
                let found = self.search_layer(&q, ep, 1, layer, &mut 0);
                if let Some(h) = found.first() {
                    ep = h.id;
                }
                layer -= 1;
            }

            // connect on layers min(level, max_layer)..=0
            let top = level.min(self.max_layer);
            let mut plan = Vec::with_capacity(top + 1);
            for l in (0..=top).rev() {
                let found = self.search_layer(&q, ep, self.cfg.ef_construction, l, &mut 0);
                if let Some(h) = found.first() {
                    ep = h.id;
                }
                plan.push((l, found));
            }
            plan
        }

        fn commit(&mut self, id: u32, level: usize, plan: RefPlan) {
            let node = RefNode { neighbours: vec![Vec::new(); level + 1] };
            if self.nodes.is_empty() {
                self.nodes.push(node);
                self.entry = id;
                self.max_layer = level;
                return;
            }
            self.nodes.push(node);
            if plan.len() < level.min(self.max_layer) + 1 {
                self.stale_tops += 1;
            }

            for (l, found) in plan {
                let m_max = if l == 0 { 2 * self.cfg.m } else { self.cfg.m };
                let selected: Vec<u32> =
                    found.iter().take(m_max).map(|h| h.id).filter(|&n| n != id).collect();
                for &nb in &selected {
                    self.nodes[id as usize].neighbours[l].push(nb);
                    let nb_list = &mut self.nodes[nb as usize].neighbours[l];
                    nb_list.push(id);
                    if nb_list.len() > m_max {
                        // prune the neighbour's list back to its best m_max
                        let origin: Vec<f32> = self.store.decode_row(nb as usize).into_owned();
                        let mut list = std::mem::take(&mut self.nodes[nb as usize].neighbours[l]);
                        list.sort_by(|&a, &b| {
                            let sa = self.store.score_row(&origin, a as usize);
                            let sb = self.store.score_row(&origin, b as usize);
                            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
                        });
                        list.truncate(m_max);
                        self.nodes[nb as usize].neighbours[l] = list;
                    }
                }
            }

            if level > self.max_layer {
                self.max_layer = level;
                self.entry = id;
            }
        }

        /// The search of `Retriever for HnswIndex`, returning the
        /// visited count it fed the histogram.
        pub fn search(&self, query: &[f32], k: usize) -> (Vec<Hit>, usize) {
            let mut visited = 0usize;
            let mut ep = self.entry;
            for layer in (1..=self.max_layer).rev() {
                if let Some(h) = self.search_layer(query, ep, 1, layer, &mut visited).first() {
                    ep = h.id;
                }
            }
            let ef = self.cfg.ef_search.max(k);
            let mut hits = self.search_layer(query, ep, ef, 0, &mut visited);
            hits.truncate(k);
            (hits, visited)
        }
    }

    #[derive(PartialEq)]
    struct ScoredId(f32, u32);

    impl Eq for ScoredId {}

    impl Ord for ScoredId {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.1.cmp(&other.1))
        }
    }

    impl PartialOrd for ScoredId {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
}
