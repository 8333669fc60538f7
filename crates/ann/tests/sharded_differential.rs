//! Differential suite: a [`ShardedRetriever`] must return **bitwise**
//! identical results to the unsharded search it partitions.
//!
//! For the exact backend that guarantee is unconditional (see the
//! exactness argument in `unimatch_ann::sharded`). For HNSW it holds
//! once the backend is configured to be effectively exact — `ef_search
//! ≥ rows` walks the whole (connected) graph — because then both
//! arrangements reduce to the same canonical top-k over the same
//! scores. The matrix here pins that contract across shard counts, k
//! regimes (0, below / above shard size, above corpus size), tie layouts
//! straddling shard boundaries, and id-mapped stores.

mod common;

use std::sync::Arc;

use common::{assert_bitwise, unit_cloud};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_ann::{
    BruteForceIndex, EmbeddingStore, Hit, HnswConfig, HnswIndex, Retriever, ShardPolicy,
    ShardedRetriever,
};

const DIM: usize = 8;
/// Deliberately not divisible by any tested shard count, so row-range
/// boundaries land unevenly.
const ROWS: usize = 61;
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
/// 0, tiny, bigger than a 7-way shard (~9 rows), exactly the corpus,
/// past the corpus.
const KS: [usize; 5] = [0, 3, 20, ROWS, ROWS + 40];

/// Runs the full (shard count × k) matrix for one backend pair: the
/// unsharded index and a factory for the sharded one. Both `search` and
/// `search_batch` are compared, so the shard-fan-out batch path is
/// exercised too.
fn run_matrix(
    store: &Arc<EmbeddingStore>,
    whole: &dyn Retriever,
    mut sharded_for: impl FnMut(usize) -> ShardedRetriever,
    backend: &str,
) {
    let queries: Vec<f32> = (0..5).flat_map(|q| store.row(q * 11).to_vec()).collect();
    for n in SHARD_COUNTS {
        let sharded = sharded_for(n);
        assert_eq!(sharded.shards(), n, "{backend}: wrong fan-out");
        assert_eq!(sharded.backend(), whole.backend(), "{backend}: label drift");
        for k in KS {
            for (qi, q) in queries.chunks(DIM).enumerate() {
                let context = format!("{backend} n={n} k={k} q={qi}");
                assert_bitwise(&whole.search(q, k), &sharded.search(q, k), &context);
            }
            let a = whole.search_batch(&queries, k);
            let b = sharded.search_batch(&queries, k);
            for (qi, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_bitwise(x, y, &format!("{backend} batch n={n} k={k} q={qi}"));
            }
        }
    }
}

#[test]
fn exact_backend_is_bitwise_identical_sharded() {
    let store = Arc::new(EmbeddingStore::from_vec(unit_cloud(ROWS, DIM, 0xacc), DIM));
    let whole = BruteForceIndex::over(store.clone());
    run_matrix(
        &store,
        &whole,
        |n| ShardedRetriever::build(&store, n, ShardPolicy::default(), |view| Box::new(BruteForceIndex::over(view))),
        "bruteforce",
    );
}

#[test]
fn hnsw_effectively_exact_is_bitwise_identical_sharded() {
    let store = Arc::new(EmbeddingStore::from_vec(unit_cloud(ROWS, DIM, 0xbee), DIM));
    // ef ≥ rows: the layer-0 beam admits every reachable node, so a
    // connected graph returns the true canonical top-k regardless of its
    // (rng-dependent) structure — which is what makes the unsharded and
    // per-shard graphs comparable at all.
    let cfg = HnswConfig { m: 16, ef_construction: 128, ef_search: ROWS };
    let whole = HnswIndex::build_over(store.clone(), cfg, &mut StdRng::seed_from_u64(1));
    run_matrix(
        &store,
        &whole,
        |n| {
            let mut rng = StdRng::seed_from_u64(2);
            ShardedRetriever::build(&store, n, ShardPolicy::default(), |view| {
                Box::new(HnswIndex::build_over(view, cfg, &mut rng))
            })
        },
        "hnsw",
    );
}

/// Blocks of identical rows placed so every tested shard count cuts
/// through at least one block: the canonical order then demands the
/// lowest global ids win, which only survives sharding if per-shard
/// lists translate ids correctly *and* the merge breaks ties by id.
#[test]
fn ties_straddling_shard_boundaries_resolve_to_lowest_ids() {
    let mut data = Vec::with_capacity(ROWS * DIM);
    let mut rng = StdRng::seed_from_u64(0xdead);
    for r in 0..ROWS {
        // Rows 5..15 and 28..40 are constant blocks (they straddle the
        // 2-way cut at 30 and the 7-way cuts at 8 and 34); the rest are
        // distinct filler with lower scores against the probe query.
        if (5..15).contains(&r) {
            data.extend_from_slice(&[1.0; DIM].map(|x: f32| x / (DIM as f32).sqrt()));
        } else if (28..40).contains(&r) {
            let mut v = [1.0; DIM];
            v[0] = -1.0;
            let norm = (DIM as f32).sqrt();
            data.extend(v.iter().map(|x| x / norm));
        } else {
            let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-9);
            data.extend(v.into_iter().map(|x| x / norm));
        }
    }
    let store = Arc::new(EmbeddingStore::from_vec(data, DIM));
    let whole = BruteForceIndex::over(store.clone());
    let probe: Vec<f32> = [1.0; DIM].iter().map(|x| x / (DIM as f32).sqrt()).collect();
    for n in SHARD_COUNTS {
        let sharded =
            ShardedRetriever::build(&store, n, ShardPolicy::default(), |view| Box::new(BruteForceIndex::over(view)));
        for k in [4, 10, 25] {
            let a = whole.search(&probe, k);
            let b = sharded.search(&probe, k);
            assert_bitwise(&a, &b, &format!("ties n={n} k={k}"));
        }
        // the first block ties at the top: ranks 0..4 must be ids 5..9
        let ids: Vec<u32> = sharded.search(&probe, 5).iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![5, 6, 7, 8, 9], "n={n}: tied block must yield lowest ids");
    }
}

/// A duplicated row fills the low ids of the first shard and a strictly
/// better row arrives later, in another shard. Unsharded, the better row
/// displaces one of the tied duplicates from a full heap; sharded, the
/// merge picks the duplicates by lowest id. Both must keep the same ones.
#[test]
fn a_late_better_row_after_duplicates_is_identical_sharded() {
    let mut data = unit_cloud(ROWS, DIM, 0x7135);
    let dup: Vec<f32> = data[..DIM].to_vec();
    for r in [1, 2, 3, 45] {
        data[r * DIM..(r + 1) * DIM].copy_from_slice(&dup);
    }
    // the probe is row 50 itself, so row 50 strictly beats every other
    // row; scale the duplicates' direction toward it so they tie for second
    let probe: Vec<f32> = data[50 * DIM..51 * DIM].to_vec();
    let blend: Vec<f32> = probe.iter().zip(&dup).map(|(p, d)| 0.9 * p + 0.1 * d).collect();
    let norm = blend.iter().map(|x| x * x).sum::<f32>().sqrt();
    let blend: Vec<f32> = blend.iter().map(|x| x / norm).collect();
    for r in [0, 1, 2, 3, 45] {
        data[r * DIM..(r + 1) * DIM].copy_from_slice(&blend);
    }
    let store = Arc::new(EmbeddingStore::from_vec(data, DIM));
    let whole = BruteForceIndex::over(store.clone());
    let ids = |hits: &[Hit]| hits.iter().map(|h| h.id).collect::<Vec<u32>>();
    assert_eq!(ids(&whole.search(&probe, 3)), vec![50, 0, 1], "unsharded keeps the lowest tied ids");
    for n in SHARD_COUNTS {
        let sharded =
            ShardedRetriever::build(&store, n, ShardPolicy::default(), |view| Box::new(BruteForceIndex::over(view)));
        for k in [2, 3, 4, 6, 7] {
            assert_bitwise(
                &whole.search(&probe, k),
                &sharded.search(&probe, k),
                &format!("late-best n={n} k={k}"),
            );
            assert_bitwise(
                &whole.search_batch(&probe, k)[0],
                &sharded.search_batch(&probe, k)[0],
                &format!("late-best batch n={n} k={k}"),
            );
        }
    }
}

/// Retriever hits carry *row* ids; external-id translation happens in
/// the serving layer against the parent store's id map. Sharding must
/// keep row ids global (so that translation still lands on the right
/// external id) even though shard views drop the map.
#[test]
fn id_mapped_stores_translate_identically_sharded() {
    let data = unit_cloud(ROWS, DIM, 0x1d);
    let ids: Vec<u32> = (0..ROWS as u32).map(|r| 1_000 + 7 * r).collect();
    let store = Arc::new(EmbeddingStore::with_ids(&data, DIM, ids));
    let whole = BruteForceIndex::over(store.clone());
    for n in SHARD_COUNTS {
        let sharded =
            ShardedRetriever::build(&store, n, ShardPolicy::default(), |view| Box::new(BruteForceIndex::over(view)));
        for (qi, q) in data.chunks(DIM).take(4).enumerate() {
            let a = whole.search(q, 9);
            let b = sharded.search(q, 9);
            assert_bitwise(&a, &b, &format!("idmap n={n} q={qi}"));
            let translate = |hits: &[Hit]| -> Vec<u32> {
                hits.iter().map(|h| store.id_of_row(h.id as usize)).collect()
            };
            assert_eq!(translate(&a), translate(&b), "idmap n={n} q={qi}: external ids diverge");
            // sanity: the probe row itself ranks first and translates to
            // its own external id
            assert_eq!(translate(&b)[0], 1_000 + 7 * qi as u32, "idmap n={n} q={qi}");
        }
    }
}
