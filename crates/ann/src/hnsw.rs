//! HNSW (hierarchical navigable small world) graph index for
//! maximum-inner-product search over unit vectors.
//!
//! A faithful, compact implementation of Malkov & Yashunin's algorithm:
//! exponentially-thinned layers, greedy descent from the top layer, and a
//! beam (`ef`) search on layer 0.
//!
//! # Batched inserts: plan in parallel, commit in row order
//!
//! Row 0 is the first entry point. The rest go in by batches: once
//! `inserted` rows are in the graph, the next `batch_rows(inserted)`
//! rows — `(inserted / 16).clamp(1, 256)`, so rows 1–31 one at a time —
//! are inserted together in two halves.
//!
//! * **Plan** (read-only, one row per `par_map_indexed` unit, each worker
//!   on a scratch from the index's free-list): the greedy descent from
//!   the entry point, then one `ef_construction` beam per layer the row
//!   connects on. Every row of a batch walks the graph as it stood when
//!   the batch began: no batch-mate is linked yet, so none is reachable.
//! * **Commit** (in row order, on the calling thread): the links and
//!   prunes of each plan, on the layers that plan recorded, then the
//!   entry-point update when the row tops the graph. A batch-mate
//!   committed earlier may have raised the top layer meanwhile; the
//!   commit must not re-derive its layers from it.
//!
//! A row therefore never links to a batch-mate directly; it meets them
//! through the reverse edges later rows add. What that costs in recall
//! is pinned by `tests/hnsw_recall.rs` against the one-row-per-batch
//! build.
//!
//! # The graph is a pure function of its inputs
//!
//! The built graph — every node's per-layer neighbour list in order, the
//! entry point and the top layer — is a function of exactly three
//! things: the store's row bytes (format included), the [`HnswConfig`],
//! and the rng stream handed to [`HnswIndex::build_over`] (one
//! `gen_range` per row, in row order, for the level draw). The batch rule
//! is a function of the row count alone, plans come back in row order,
//! and a nested or single-threaded region plans the batch inline, so the
//! graph is the same at any thread count. A search is a function of the
//! graph, the query and `ef_search`. Neither depends on which scratch a
//! walk was handed, or on how many searches ran before: the bookkeeping
//! below (visited stamps, the reused candidate heap, the flat layout, the
//! build-time edge scores) changes what a walk costs, never which rows it
//! scores, in which order, or what it keeps. `crates/ann/tests/hnsw_graph.rs`
//! pins this against the textbook builder, split into plan and commit and
//! batched by the same rule; `batch_equivalence.rs` builds at 1, 2 and 4
//! threads.
//!
//! # Layout
//!
//! The adjacency is two flat arrays of fixed-stride rows, not a list per
//! node. Layer 0 is one row of `2m` id slots per node. A node whose level
//! is `L ≥ 1` also owns `L` consecutive rows of `m` slots in the upper
//! array, one per layer above 0; about one node in `m` has any. Every row
//! keeps its length beside it, so a node's neighbours on a layer are one
//! slice of one array, and [`HnswIndex::graph_bytes`] is the graph's
//! exact size.
//!
//! # Edge scores exist only during the build
//!
//! While the graph is built, every slot also holds the score of its edge:
//! the one the inserting node's beam computed. That score is the one the
//! neighbour would compute back, bit for bit: `score_row` multiplies
//! dimension by dimension and sums in dimension order, `x * y == y * x`
//! exactly, and a decoded i8 query value is [`crate::i8_decode`], the same
//! `zero + scale * code` the fused loop computes. So no prune scores a
//! row: a full list runs the textbook stable sort over the stored scores.
//! The scores are freed before [`HnswIndex::build_over`] returns; the
//! built index is immutable.
//!
//! # Scratch memory
//!
//! A walk marks visited rows in an epoch-stamped array — 4 bytes × rows,
//! zeroed only when the 32-bit epoch wraps — instead of hashing ids into
//! a fresh set per layer. The index keeps returned scratches in a
//! free-list, so a warm index allocates nothing proportional to `rows`
//! per search; the list holds at most one scratch per search that was
//! ever in flight at once (4 B × rows each, plus a beam-sized heap). The
//! build's planning workers draw from the same list, which is cut back to
//! one scratch when the build returns.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use crate::index::{query_count, Hit, QuorumError, Retriever, ShardHealth};
use crate::kernel::TopK;
use crate::store::EmbeddingStore;
use rand::Rng;
use unimatch_obs as obs;
use unimatch_parallel::par_map_indexed;

/// HNSW build/search parameters.
#[derive(Clone, Copy, Debug)]
pub struct HnswConfig {
    /// Max neighbours per node on upper layers (layer 0 gets `2 * m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search.
    pub ef_search: usize,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, ef_construction: 100, ef_search: 50 }
    }
}

/// Neighbour lists of one array: `stride` id slots per row, the first
/// `lens[row]` of them in use.
#[derive(Debug)]
struct Rows {
    stride: usize,
    ids: Vec<u32>,
    lens: Vec<u32>,
}

impl Rows {
    fn new(rows: usize, stride: usize) -> Self {
        Rows { stride, ids: vec![0; rows * stride], lens: vec![0; rows] }
    }

    #[inline]
    fn get(&self, row: usize) -> &[u32] {
        let start = row * self.stride;
        &self.ids[start..start + self.lens[row] as usize]
    }

    /// Adds edge `id` to `row`; `scores` is this array's build-time twin.
    fn link(&mut self, scores: &mut [f32], row: usize, id: u32, score: f32, sorter: &mut Sorter) {
        let slots = row * self.stride..(row + 1) * self.stride;
        let len = self.lens[row] as usize;
        let len = link(&mut self.ids[slots.clone()], &mut scores[slots], len, id, score, sorter);
        self.lens[row] = len as u32;
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.ids.as_slice()) + std::mem::size_of_val(self.lens.as_slice())
    }
}

/// The buffer a prune sorts in.
type Sorter = Vec<(f32, u32)>;

/// What only the build needs: every slot's edge score, shaped like the
/// two [`Rows`] arrays, and the prune's sort buffer.
struct EdgeScores {
    layer0: Vec<f32>,
    upper: Vec<f32>,
    sorter: Sorter,
}

/// The beams of one insert, planned against the graph as it stood when
/// the insert's batch began: entry `l` is layer `l`'s beam, best first,
/// cut to the layer's row stride, for every layer the node connects on.
type Plan = Vec<Vec<Hit>>;

/// How many rows the build plans together once `inserted` rows are in the
/// graph: one at a time up to row 31, then a sixteenth of the graph, at
/// most 256. Public only so the reference builder the graph-pinning tests
/// compare against batches the same way.
#[doc(hidden)]
pub fn batch_rows(inserted: usize) -> usize {
    (inserted / 16).clamp(1, 256)
}

/// Adds the edge `(score, id)` to the list `ids[..len]`, whose edge scores
/// are `scores[..len]` and which holds at most `ids.len()` entries;
/// returns the new length. A full list keeps what the textbook prune
/// keeps: the first `ids.len()` entries of a stable descending sort of
/// the list followed by the new edge.
fn link(
    ids: &mut [u32],
    scores: &mut [f32],
    len: usize,
    id: u32,
    score: f32,
    sorter: &mut Sorter,
) -> usize {
    let cap = ids.len();
    if len < cap {
        ids[len] = id;
        scores[len] = score;
        return len + 1;
    }
    sorter.clear();
    sorter.extend(scores.iter().copied().zip(ids.iter().copied()));
    sorter.push((score, id));
    sorter.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
    for (slot, &(s, i)) in sorter[..cap].iter().enumerate() {
        scores[slot] = s;
        ids[slot] = i;
    }
    cap
}

/// The working memory of one graph walk, reused across walks.
#[derive(Debug, Default)]
struct Scratch {
    /// `stamps[r] == epoch` ⇔ row `r` was visited by the current
    /// [`HnswIndex::search_layer`] call.
    stamps: Vec<u32>,
    epoch: u32,
    /// The beam's frontier, a max-heap by score.
    candidates: BinaryHeap<ScoredId>,
}

impl Scratch {
    /// Starts an empty visited set over `rows` rows and an empty frontier.
    fn begin(&mut self, rows: usize) {
        if self.stamps.len() < rows {
            self.stamps.resize(rows, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // the epoch wrapped: stamps of 2^32 walks ago would read as
            // current, so forget them all and restart above the zero fill
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.candidates.clear();
    }

    /// Marks `id` visited; true when this walk had not seen it.
    #[inline]
    fn visit(&mut self, id: u32) -> bool {
        let stamp = &mut self.stamps[id as usize];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }
}

/// The HNSW index, scoring against a shared [`EmbeddingStore`].
#[derive(Debug)]
pub struct HnswIndex {
    store: Arc<EmbeddingStore>,
    /// Layer 0: row `r` is node `r`'s list, `2m` slots.
    layer0: Rows,
    /// Layers above 0, `m` slots per row: node `r`'s layer `l ≥ 1` is row
    /// `upper_first[r] + l - 1`.
    upper: Rows,
    /// Node `r`'s upper rows are `upper_first[r]..upper_first[r + 1]`, so
    /// their count is its level.
    upper_first: Vec<u32>,
    entry: u32,
    max_layer: usize,
    cfg: HnswConfig,
    /// Scratches not in use: a search pops one (or starts a new one) and
    /// pushes it back. Owned by the index rather than the thread because
    /// the sharded fan-out searches on scoped threads that live for one
    /// call and would pay the 4 B × rows zero-fill every time.
    scratches: Mutex<Vec<Scratch>>,
}

impl HnswIndex {
    /// Builds the graph by inserting every row of an owned buffer.
    pub fn build(data: Vec<f32>, dim: usize, cfg: HnswConfig, rng: &mut impl Rng) -> Self {
        HnswIndex::build_over(Arc::new(EmbeddingStore::from_vec(data, dim)), cfg, rng)
    }

    /// Builds the graph over an existing shared store (no vector copy; the
    /// graph structure and the walk scratch are the only per-index
    /// allocations).
    pub fn build_over(store: Arc<EmbeddingStore>, cfg: HnswConfig, rng: &mut impl Rng) -> Self {
        let _build_span =
            obs::span_us_bounded("unimatch_ann_build_us", "index=\"hnsw\"", obs::BUILD_BOUNDS_US);
        let n = store.rows();
        assert!(n > 0, "cannot build HNSW over an empty set");
        // every level is drawn before the first insert, which draws
        // nothing, so the stream is the one an interleaved build reads
        let ml = 1.0 / (cfg.m as f64).ln();
        let levels: Vec<usize> = (0..n)
            .map(|_| (-rng.gen_range(f64::EPSILON..1.0).ln() * ml).floor() as usize)
            .collect();
        let mut upper_first = Vec::with_capacity(n + 1);
        upper_first.push(0u32);
        let mut upper_rows = 0usize;
        for &level in &levels {
            upper_rows += level;
            upper_first.push(u32::try_from(upper_rows).expect("upper rows fit u32"));
        }

        let mut index = HnswIndex {
            store,
            layer0: Rows::new(n, 2 * cfg.m),
            upper: Rows::new(upper_rows, cfg.m),
            upper_first,
            entry: 0,
            max_layer: levels[0],
            cfg,
            scratches: Mutex::new(Vec::new()),
        };
        let mut scores = EdgeScores {
            layer0: vec![0.0; index.layer0.ids.len()],
            upper: vec![0.0; index.upper.ids.len()],
            sorter: Vec::new(),
        };
        // a beam scores up to `ef_construction · 2m` rows per layer
        let work_per_row = cfg.ef_construction * 2 * cfg.m * index.store.dim() * 2;
        let mut next = 1;
        while next < n {
            let end = (next + batch_rows(next)).min(n);
            let plans = par_map_indexed(end - next, (end - next) * work_per_row, |i| {
                let mut scratch = index.check_out();
                let plan = index.plan((next + i) as u32, levels[next + i], &mut scratch);
                index.check_in(scratch);
                plan
            });
            for (r, plan) in (next..end).zip(plans) {
                index.commit(&mut scores, r as u32, levels[r], plan);
            }
            next = end;
        }
        // the first search starts warm, on one scratch however many
        // workers planned
        index.free_list().truncate(1);
        index
    }

    /// The embedding arena this index scores against.
    pub fn store(&self) -> &Arc<EmbeddingStore> {
        &self.store
    }

    /// Sets the search beam width. `ef_search` is read at search time
    /// only, so one built graph serves a whole `ef_search` sweep.
    pub fn set_ef_search(&mut self, ef_search: usize) {
        self.cfg.ef_search = ef_search;
    }

    /// Bytes of the graph: layer-0 slots and lengths, upper-layer slots
    /// and lengths, and the per-node index into the upper rows. Every
    /// array is allocated at its final length, so this is what the graph
    /// holds, to the byte; the store and the walk scratches are not in it.
    pub fn graph_bytes(&self) -> usize {
        let index = std::mem::size_of_val(self.upper_first.as_slice());
        self.layer0.bytes() + self.upper.bytes() + index
    }

    /// The entry node and the top layer (graph-pinning tests).
    #[doc(hidden)]
    pub fn entry_point(&self) -> (u32, usize) {
        (self.entry, self.max_layer)
    }

    /// Node `node`'s neighbour lists, layer 0 first (graph-pinning tests).
    #[doc(hidden)]
    pub fn neighbour_lists(&self, node: usize) -> Vec<Vec<u32>> {
        let level = (self.upper_first[node + 1] - self.upper_first[node]) as usize;
        (0..=level).map(|l| self.neighbours(node as u32, l).to_vec()).collect()
    }

    /// Node `id`'s neighbours on `layer`; empty above its level.
    #[inline]
    fn neighbours(&self, id: u32, layer: usize) -> &[u32] {
        let id = id as usize;
        if layer == 0 {
            return self.layer0.get(id);
        }
        let row = self.upper_first[id] as usize + layer - 1;
        if row < self.upper_first[id + 1] as usize {
            self.upper.get(row)
        } else {
            &[]
        }
    }

    fn free_list(&self) -> std::sync::MutexGuard<'_, Vec<Scratch>> {
        // every update is one push or pop, so a poisoned list is intact
        self.scratches.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn check_out(&self) -> Scratch {
        self.free_list().pop().unwrap_or_default()
    }

    fn check_in(&self, scratch: Scratch) {
        self.free_list().push(scratch);
    }

    fn score(&self, q: &[f32], r: u32) -> f32 {
        self.store.score_row(q, r as usize)
    }

    /// Greedy beam search on one layer; returns up to `ef` best (score desc).
    /// `visited_count` accumulates how many distinct nodes were scored —
    /// the work metric the observability layer reports per search.
    fn search_layer(
        &self,
        scratch: &mut Scratch,
        q: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        visited_count: &mut usize,
    ) -> Vec<Hit> {
        scratch.begin(self.store.rows());
        scratch.visit(entry);
        *visited_count += 1;
        let entry_score = self.score(q, entry);
        scratch.candidates.push(ScoredId(entry_score, entry));
        let mut best = TopK::new(ef);
        best.push(entry, entry_score);

        while let Some(ScoredId(score, id)) = scratch.candidates.pop() {
            if score < best.threshold() {
                break;
            }
            for &nb in self.neighbours(id, layer) {
                if scratch.visit(nb) {
                    *visited_count += 1;
                    let s = self.score(q, nb);
                    if s > best.threshold() {
                        best.push(nb, s);
                        scratch.candidates.push(ScoredId(s, nb));
                    }
                }
            }
        }
        best.into_sorted()
    }

    /// The read-only half of inserting node `id` at `level`: the greedy
    /// descent, then one `ef_construction` beam per layer the node
    /// connects on, each cut to that layer's row stride.
    fn plan(&self, id: u32, level: usize, scratch: &mut Scratch) -> Plan {
        // borrowed, not copied, when the store is f32
        let q = self.store.decode_row(id as usize);

        // descend from the top to level+1 greedily
        let mut ep = self.entry;
        let mut layer = self.max_layer;
        while layer > level {
            let found = self.search_layer(scratch, &q, ep, 1, layer, &mut 0);
            if let Some(h) = found.first() {
                ep = h.id;
            }
            layer -= 1;
        }

        // connect on layers min(level, max_layer)..=0
        let top = level.min(self.max_layer);
        let mut found = vec![Vec::new(); top + 1];
        for l in (0..=top).rev() {
            let mut hits = self.search_layer(scratch, &q, ep, self.cfg.ef_construction, l, &mut 0);
            if let Some(h) = hits.first() {
                ep = h.id;
            }
            hits.truncate(if l == 0 { self.layer0.stride } else { self.upper.stride });
            found[l] = hits;
        }
        found
    }

    /// The writing half: links node `id` on the layers its plan recorded
    /// (never `level.min(self.max_layer)` again — a batch-mate committed
    /// before it may have raised the top layer since the plan was made),
    /// then makes it the entry if it tops the graph.
    fn commit(&mut self, scores: &mut EdgeScores, id: u32, level: usize, plan: Plan) {
        for (l, found) in plan.iter().enumerate() {
            let (rows, slot_scores) = if l == 0 {
                (&mut self.layer0, &mut scores.layer0)
            } else {
                (&mut self.upper, &mut scores.upper)
            };
            let upper_first = &self.upper_first;
            let row_of = |node: u32| match l {
                0 => node as usize,
                _ => upper_first[node as usize] as usize + l - 1,
            };
            // an edge's score is the same bits from either end
            for h in found.iter().filter(|h| h.id != id) {
                rows.link(slot_scores, row_of(id), h.id, h.score, &mut scores.sorter);
                rows.link(slot_scores, row_of(h.id), id, h.score, &mut scores.sorter);
            }
        }

        if level > self.max_layer {
            self.max_layer = level;
            self.entry = id;
        }
    }

    /// One query's walk on `scratch`: the hits and how many distinct
    /// nodes it scored.
    fn search_on(&self, scratch: &mut Scratch, query: &[f32], k: usize) -> (Vec<Hit>, usize) {
        let mut visited = 0usize;
        let mut ep = self.entry;
        for layer in (1..=self.max_layer).rev() {
            if let Some(h) = self.search_layer(scratch, query, ep, 1, layer, &mut visited).first() {
                ep = h.id;
            }
        }
        let ef = self.cfg.ef_search.max(k);
        let mut hits = self.search_layer(scratch, query, ep, ef, 0, &mut visited);
        hits.truncate(k);
        (hits, visited)
    }

    /// One query's walk: its hits and how many distinct nodes it scored
    /// (public for the graph-pinning tests; the batch files the count in
    /// a histogram).
    #[doc(hidden)]
    pub fn search_counting(&self, query: &[f32], k: usize) -> (Vec<Hit>, usize) {
        assert_eq!(query.len(), self.dim(), "query dim mismatch");
        let mut scratch = self.check_out();
        let answer = self.search_on(&mut scratch, query, k);
        self.check_in(scratch);
        answer
    }
}

#[derive(Debug, PartialEq)]
struct ScoredId(f32, u32);

impl Eq for ScoredId {}

impl Ord for ScoredId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for ScoredId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Retriever for HnswIndex {
    fn len(&self) -> usize {
        self.layer0.lens.len()
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn backend(&self) -> &'static str {
        "hnsw"
    }

    /// One graph walk per query, fanned out over threads with
    /// `unimatch-parallel` when `n_queries × len × dim` multiply-adds (an
    /// upper bound: a walk scores a fraction of the rows) cross the global
    /// work threshold. Each walk is timed and counted on its own.
    fn search_batch_checked(
        &self,
        queries: &[f32],
        k: usize,
        _relax_quorum: bool,
    ) -> Result<(Vec<Vec<Hit>>, ShardHealth), QuorumError> {
        let d = self.dim();
        let nq = query_count(queries, d);
        let work = nq * self.len() * d * 2;
        let lists = par_map_indexed(nq, work, |i| {
            let _search_span = obs::span_us("unimatch_ann_search_us", "index=\"hnsw\"");
            let (hits, visited) = self.search_counting(&queries[i * d..(i + 1) * d], k);
            if obs::enabled() {
                obs::registry::counter_labeled("unimatch_ann_searches_total", "index=\"hnsw\"")
                    .inc();
                obs::registry::histogram(
                    "unimatch_ann_visited_nodes",
                    "index=\"hnsw\"",
                    obs::COUNT_BOUNDS,
                )
                .observe(visited as u64);
            }
            hits
        });
        Ok((lists, ShardHealth::healthy(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit_cloud(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
            data.extend(v.into_iter().map(|x| x / norm));
        }
        data
    }

    #[test]
    fn single_vector() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ix = HnswIndex::build(vec![1.0, 0.0], 2, HnswConfig::default(), &mut rng);
        let hits = ix.search(&[1.0, 0.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn exact_on_small_sets() {
        // With ef >= n the beam covers everything reachable; on a small
        // connected graph that is exact.
        let data = unit_cloud(50, 8, 1);
        let bf = BruteForceIndex::new(data.clone(), 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = HnswConfig { m: 8, ef_construction: 64, ef_search: 64 };
        let hnsw = HnswIndex::build(data, 8, cfg, &mut rng);
        let q = unit_cloud(1, 8, 3);
        let exact: Vec<u32> = bf.search(&q, 5).iter().map(|h| h.id).collect();
        let approx: Vec<u32> = hnsw.search(&q, 5).iter().map(|h| h.id).collect();
        assert_eq!(exact, approx);
    }

    #[test]
    fn good_recall_on_larger_set() {
        let data = unit_cloud(2000, 16, 4);
        let bf = BruteForceIndex::new(data.clone(), 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let hnsw = HnswIndex::build(data, 16, HnswConfig::default(), &mut rng);
        let queries = unit_cloud(20, 16, 6);
        let mut hit_count = 0;
        for q in queries.chunks(16) {
            let exact: Vec<u32> = bf.search(q, 10).iter().map(|h| h.id).collect();
            hit_count += hnsw.search(q, 10).iter().filter(|h| exact.contains(&h.id)).count();
        }
        let recall = hit_count as f64 / 200.0;
        assert!(recall > 0.85, "recall@10 = {recall}");
    }

    #[test]
    fn results_sorted_descending() {
        let data = unit_cloud(300, 8, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ix = HnswIndex::build(data, 8, HnswConfig::default(), &mut rng);
        let q = unit_cloud(1, 8, 9);
        let hits = ix.search(&q, 10);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn graph_bytes_is_slots_lengths_and_the_upper_index() {
        for (rows, m, seed) in [(1usize, 16usize, 30u64), (300, 4, 31), (900, 16, 32)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = HnswConfig { m, ..HnswConfig::default() };
            let ix = HnswIndex::build(unit_cloud(rows, 8, seed), 8, cfg, &mut rng);
            let upper_rows: usize = (0..rows).map(|r| ix.neighbour_lists(r).len() - 1).sum();
            // layer 0: 2m slots + a length per node; upper: m slots + a
            // length per (node, layer ≥ 1); one index entry per node + 1
            let want = rows * (2 * m * 4 + 4) + upper_rows * (m * 4 + 4) + (rows + 1) * 4;
            assert_eq!(ix.graph_bytes(), want, "{rows} rows, m = {m}");
        }
    }

    /// Hit ids, score bits and the visited count of one query.
    type Answer = (Vec<(u32, u32)>, usize);

    fn bits(hits: &[Hit]) -> Vec<(u32, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    fn answer_on(ix: &HnswIndex, scratch: &mut Scratch, q: &[f32], k: usize) -> Answer {
        let (hits, visited) = ix.search_on(scratch, q, k);
        (bits(&hits), visited)
    }

    #[test]
    fn scratch_survives_the_epoch_wrap() {
        let data = unit_cloud(400, 8, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let ix = HnswIndex::build(data, 8, HnswConfig::default(), &mut rng);
        let queries = unit_cloud(12, 8, 12);
        let fresh: Vec<Answer> =
            queries.chunks(8).map(|q| answer_on(&ix, &mut Scratch::default(), q, 10)).collect();

        // a scratch 2^32 walks old: every row carries the stamp of some
        // early epoch, which a wrap that did not zero the array would
        // take for a visit once the epoch counts up to it again
        let mut scratch = Scratch {
            stamps: (0..400).map(|r| 1 + r % 4).collect(),
            epoch: u32::MAX - 1,
            ..Scratch::default()
        };
        let walks_per_search = ix.max_layer as u32 + 1;
        for (q, want) in queries.chunks(8).zip(&fresh) {
            assert_eq!(&answer_on(&ix, &mut scratch, q, 10), want);
        }
        // MAX - 1 -> MAX -> (wrap, zero-fill) 1 -> 2 ...: n walks end at
        // epoch n - 1, so the array was zeroed exactly once
        assert_eq!(scratch.epoch, 12 * walks_per_search - 1);
        assert!(scratch.stamps.iter().all(|&s| s <= scratch.epoch));
    }

    #[test]
    fn shared_index_answers_every_thread_alike_and_keeps_one_scratch_each() {
        const THREADS: usize = 8;
        let data = unit_cloud(600, 8, 13);
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let ix = HnswIndex::build(data, 8, HnswConfig::default(), &mut rng);
        let queries = unit_cloud(200, 8, 15);
        let alone: Vec<_> = queries.chunks(8).map(|q| bits(&ix.search(q, 10))).collect();
        assert_eq!(ix.free_list().len(), 1);

        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for (q, want) in queries.chunks(8).zip(&alone) {
                        assert_eq!(&bits(&ix.search(q, 10)), want);
                    }
                });
            }
        });
        let parked = ix.free_list().len();
        assert!((1..=THREADS).contains(&parked), "{parked} scratches parked");
    }

    #[test]
    fn one_scratch_serves_indexes_of_growing_row_counts() {
        let mut scratch = Scratch::default();
        let mut high_water = 0;
        // the last index is smaller: the stamps must not shrink under it
        for (rows, seed) in [(10usize, 20u64), (120, 21), (900, 22), (50, 23)] {
            let data = unit_cloud(rows, 8, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ix = HnswIndex::build(data, 8, HnswConfig::default(), &mut rng);
            let q = unit_cloud(1, 8, seed + 100);
            let shared = answer_on(&ix, &mut scratch, &q, 5);
            assert_eq!(shared, answer_on(&ix, &mut Scratch::default(), &q, 5), "{rows} rows");
            high_water = high_water.max(rows);
            assert_eq!(scratch.stamps.len(), high_water, "{rows} rows");
        }
    }
}
