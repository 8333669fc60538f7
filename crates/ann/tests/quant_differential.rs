//! Differential suite for quantized stores: every backend (exact,
//! HNSW), sharded 1-way and 3-way, single-query and batched, searched
//! over the i8 store and gated on recall@10 ≥ 0.95 against the exact-f32
//! oracle. HNSW is configured effectively exact (`ef_search ≥ rows`) so
//! the gate measures quantization loss alone, not index approximation.
//!
//! A bitwise contract rides along: quantized scores are deterministic
//! across independent retriever builds and runs.

mod common;

use std::sync::Arc;

use common::{assert_bitwise, unit_cloud};
use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch_ann::{
    BruteForceIndex, EmbeddingStore, Hit, HnswConfig, HnswIndex, Retriever, RowFormat,
    ShardPolicy, ShardedRetriever,
};

const DIM: usize = 16;
/// Deliberately not divisible by 3, so shard boundaries land unevenly.
const ROWS: usize = 250;
const K: usize = 10;
const N_QUERIES: usize = 40;
const SHARD_COUNTS: [usize; 2] = [1, 3];

/// One backend's retrievers, keyed by the shard count they were built with.
type ShardedBackends = Vec<(usize, Box<dyn Retriever>)>;

/// Effectively-exact retrievers of every backend over one store, plus a
/// sharded arrangement per tested shard count.
fn build_backends(store: &Arc<EmbeddingStore>) -> Vec<(&'static str, ShardedBackends)> {
    let hnsw_cfg = HnswConfig { m: 16, ef_construction: 128, ef_search: ROWS };
    let mut out: Vec<(&'static str, ShardedBackends)> = Vec::new();
    for backend in ["exact", "hnsw"] {
        let mut arrangements: ShardedBackends = Vec::new();
        for n in SHARD_COUNTS {
            let retriever: Box<dyn Retriever> = match backend {
                "exact" => Box::new(ShardedRetriever::build(store, n, ShardPolicy::default(), |view| {
                    Box::new(BruteForceIndex::over(view))
                })),
                _ => {
                    let mut rng = StdRng::seed_from_u64(11);
                    Box::new(ShardedRetriever::build(store, n, ShardPolicy::default(), |view| {
                        Box::new(HnswIndex::build_over(view, hnsw_cfg, &mut rng))
                    }))
                }
            };
            arrangements.push((n, retriever));
        }
        out.push((backend, arrangements));
    }
    out
}

fn recall_against(oracle: &[Vec<Hit>], lists: &[Vec<Hit>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (o, l) in oracle.iter().zip(lists) {
        let truth: std::collections::HashSet<u32> = o.iter().map(|h| h.id).collect();
        total += truth.len();
        hit += l.iter().filter(|h| truth.contains(&h.id)).count();
    }
    hit as f64 / total.max(1) as f64
}

/// The recall gate each format must clear against the exact-f32 oracle.
fn gate(format: RowFormat) -> f64 {
    match format {
        RowFormat::F32 => 1.0,
        RowFormat::I8 => 0.95,
    }
}

#[test]
fn every_backend_meets_the_recall_gate_over_quantized_stores() {
    let data = unit_cloud(ROWS, DIM, 0x9a27);
    let queries = unit_cloud(N_QUERIES, DIM, 0x9a28);
    let f32_store = Arc::new(EmbeddingStore::from_vec(data, DIM));

    // the oracle: exact top-k over the unquantized store
    let oracle_index = BruteForceIndex::over(f32_store.clone());
    let oracle: Vec<Vec<Hit>> =
        queries.chunks(DIM).map(|q| oracle_index.search(q, K)).collect();

    for format in RowFormat::ALL {
        let store = if format == RowFormat::F32 {
            f32_store.clone()
        } else {
            Arc::new(f32_store.quantize(format))
        };
        for (backend, arrangements) in build_backends(&store) {
            for (shards, retriever) in arrangements {
                let single: Vec<Vec<Hit>> =
                    queries.chunks(DIM).map(|q| retriever.search(q, K)).collect();
                let batched = retriever.search_batch(&queries, K);
                for (mode, lists) in [("single", &single), ("batch", &batched)] {
                    let recall = recall_against(&oracle, lists);
                    assert!(
                        recall >= gate(format),
                        "{} {backend} shards={shards} {mode}: recall@{K} {recall:.4} \
                         below gate {:.2}",
                        format.name(),
                        gate(format)
                    );
                }
                // single and batched answers agree bitwise: the batch path
                // is a fan-out over the same kernel, not a different one
                for (qi, (a, b)) in single.iter().zip(&batched).enumerate() {
                    assert_bitwise(
                        a,
                        b,
                        &format!("{} {backend} shards={shards} q={qi}", format.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn quantized_search_is_bitwise_deterministic_across_builds() {
    let data = unit_cloud(ROWS, DIM, 0xde7);
    let queries = unit_cloud(N_QUERIES, DIM, 0xde8);
    let f32_store = Arc::new(EmbeddingStore::from_vec(data, DIM));
    // two fully independent quantize → build → search pipelines
    let run = || -> Vec<Vec<Vec<Hit>>> {
        let store = Arc::new(f32_store.quantize(RowFormat::I8));
        build_backends(&store)
            .iter()
            .flat_map(|(_, arrangements)| {
                arrangements
                    .iter()
                    .map(|(_, r)| r.search_batch(&queries, K))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), b.len());
    for (ai, bi) in a.iter().zip(&b) {
        for (qi, (x, y)) in ai.iter().zip(bi).enumerate() {
            assert_bitwise(x, y, &format!("i8 rerun q={qi}"));
        }
    }
}
