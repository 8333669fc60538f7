//! Pins the HNSW *graph*, not just its recall: the shipped index against
//! the reference builder in `common::reference_hnsw` (the textbook code it
//! replaced, split into plan and commit and batched by the shipped rule),
//! edge for edge and walk for walk.
//!
//! `differential.rs` and the recall gates would pass a different graph
//! with the same recall; this suite does not. For every seeded case —
//! rows × dim × `m` × `ef_construction` × store (f32, i8, and a
//! `view_rows` window of each) — every node's per-layer neighbour list in
//! order, the entry point and the top layer are equal, and 50 queries
//! return the same ids, the same score bits and the same visited count.
//! The corpora carry duplicated rows, so score ties (the prune's stable
//! sort, the beam's admission order) are exercised, not avoided. A corpus
//! drawn from six distinct rows makes nearly every prune a tie-break, and
//! one `#[ignore]`d case, which `ci.sh` runs in release with the build
//! fanned out over 4 workers, pins the graph at the serving user tower's
//! size. `m` 2 and 3 draw levels high enough that two rows of one batch
//! both rise above the top layer the batch was planned against; the sweep
//! requires that this happens.

mod common;

use std::sync::Arc;

use common::reference_hnsw::RefHnsw;
use common::unit_cloud;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_ann::hnsw::batch_rows;
use unimatch_ann::{EmbeddingStore, HnswConfig, HnswIndex, RowFormat};

const QUERIES: usize = 50;
const K: usize = 10;
/// Rows before and after the window of the `view_rows` cases.
const MARGIN: usize = 3;

/// `rows` unit vectors, every tenth one repeated in the row after it.
fn corpus(rows: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut data = unit_cloud(rows, dim, seed);
    for r in (0..rows.saturating_sub(1)).step_by(10) {
        data.copy_within(r * dim..(r + 1) * dim, (r + 1) * dim);
    }
    data
}

/// The four stores of one case: whole and windowed, f32 and i8.
fn stores(rows: usize, dim: usize, seed: u64) -> Vec<(&'static str, Arc<EmbeddingStore>)> {
    let whole = EmbeddingStore::from_vec(corpus(rows, dim, seed), dim);
    let padded = EmbeddingStore::from_vec(corpus(rows + 2 * MARGIN, dim, seed ^ 0x77), dim);
    let window = |s: &EmbeddingStore| Arc::new(s.view_rows(MARGIN, MARGIN + rows));
    vec![
        ("i8", Arc::new(whole.quantize(RowFormat::I8))),
        ("f32", Arc::new(whole)),
        ("f32 window", window(&padded)),
        ("i8 window", window(&padded.quantize(RowFormat::I8))),
    ]
}

/// Asserts the shipped index equals the batched reference; returns the
/// reference's count of commits that a batch-mate's raised top outran.
fn assert_same_index(store: &Arc<EmbeddingStore>, cfg: HnswConfig, seed: u64, case: &str) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = RefHnsw::build_over(store.clone(), cfg, &mut rng, batch_rows);
    let shipped = HnswIndex::build_over(store.clone(), cfg, &mut StdRng::seed_from_u64(seed));

    assert_eq!(shipped.entry_point(), (reference.entry, reference.max_layer), "{case}: entry");
    assert_eq!(reference.nodes.len(), store.rows(), "{case}: node count");
    for (n, node) in reference.nodes.iter().enumerate() {
        assert_eq!(shipped.neighbour_lists(n), node.neighbours.as_slice(), "{case}: node {n}");
    }

    let dim = store.dim();
    let mut queries = unit_cloud(QUERIES - 1, dim, seed ^ 0x51);
    // one query is a stored row: its own node scores highest, duplicates tie
    queries.extend_from_slice(&store.decode_row(store.rows() / 2));
    for (qi, q) in queries.chunks(dim).enumerate() {
        let (want, want_visited) = reference.search(q, K);
        let (got, got_visited) = shipped.search_counting(q, K);
        assert_eq!(got_visited, want_visited, "{case}: query {qi} visited count");
        common::assert_bitwise(&got, &want, &format!("{case}: query {qi}"));
    }
    reference.stale_tops
}

#[test]
fn shipped_graph_and_walks_equal_the_reference_builder() {
    let (mut cases, mut stale_tops) = (0u64, 0usize);
    for rows in [1usize, 2, 50, 2_000] {
        for dim in [2usize, 16] {
            for m in [2usize, 3, 4, 16] {
                for ef_construction in [8usize, 100] {
                    cases += 1;
                    let cfg = HnswConfig { m, ef_construction, ..HnswConfig::default() };
                    for (name, store) in stores(rows, dim, cases) {
                        let case =
                            format!("{name} rows={rows} dim={dim} m={m} ef_c={ef_construction}");
                        stale_tops += assert_same_index(&store, cfg, 1_000 + cases, &case);
                    }
                }
            }
        }
    }
    assert!(stale_tops > 0, "no batch-mate committed above a top another one raised");
}

#[test]
fn a_corpus_of_few_distinct_rows_builds_the_reference_graph() {
    // 300 rows drawn from 6 vectors: most edge scores tie, so nearly every
    // prune decides between equal scores by list order alone
    const ROWS: usize = 300;
    const DISTINCT: usize = 6;
    let mut cases = 0u64;
    for dim in [2usize, 16] {
        for m in [4usize, 16] {
            for ef_construction in [8usize, 100] {
                cases += 1;
                let palette = unit_cloud(DISTINCT, dim, 2_000 + cases);
                let mut rng = StdRng::seed_from_u64(cases);
                let mut data = Vec::with_capacity(ROWS * dim);
                for _ in 0..ROWS {
                    let v = rng.gen_range(0..DISTINCT);
                    data.extend_from_slice(&palette[v * dim..(v + 1) * dim]);
                }
                let f32_store = EmbeddingStore::from_vec(data, dim);
                let i8_store = Arc::new(f32_store.quantize(RowFormat::I8));
                let cfg = HnswConfig { m, ef_construction, ..HnswConfig::default() };
                for (name, store) in [("f32", Arc::new(f32_store)), ("i8", i8_store)] {
                    let case =
                        format!("case {cases}: {name} dim={dim} m={m} ef_c={ef_construction}");
                    assert_same_index(&store, cfg, 3_000 + cases, &case);
                }
            }
        }
    }
}

#[test]
#[ignore = "serving scale: run in release, as ci.sh does"]
fn the_user_tower_sized_graph_equals_the_reference_builder() {
    // the serving user tower's shape: at 17 443 rows the upper layers are
    // deeper than any case above reaches
    let (rows, dim) = (17_443, 16);
    let whole = EmbeddingStore::from_vec(corpus(rows, dim, 4_000), dim);
    let i8_store = Arc::new(whole.quantize(RowFormat::I8));
    for (name, store) in [("f32", Arc::new(whole)), ("i8", i8_store)] {
        assert_same_index(&store, HnswConfig::default(), 4_001, &format!("{name} rows={rows}"));
    }
}

#[test]
fn the_beam_width_is_a_search_time_setting() {
    // one graph swept by `set_ef_search` answers as an index built at
    // that `ef_search` does
    let store = Arc::new(EmbeddingStore::from_vec(corpus(400, 16, 9), 16));
    let queries = unit_cloud(QUERIES, 16, 10);
    let base = HnswConfig::default();
    let mut swept = HnswIndex::build_over(store.clone(), base, &mut StdRng::seed_from_u64(3));
    for ef_search in [8usize, 32, 128] {
        swept.set_ef_search(ef_search);
        let cfg = HnswConfig { ef_search, ..base };
        let mut rng = StdRng::seed_from_u64(3);
        let built = RefHnsw::build_over(store.clone(), cfg, &mut rng, batch_rows);
        for (qi, q) in queries.chunks(16).enumerate() {
            let (want, want_visited) = built.search(q, K);
            let (got, got_visited) = swept.search_counting(q, K);
            assert_eq!(got_visited, want_visited, "ef={ef_search}: query {qi} visited count");
            common::assert_bitwise(&got, &want, &format!("ef={ef_search}: query {qi}"));
        }
    }
}
