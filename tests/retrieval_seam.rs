//! Pins the retrieval seam. Every `MatchPipeline` retrieval — `retrieve_one`,
//! `retrieve`, `run_one`, `run`, `run_checked` — fires the `ann.search`
//! fault point exactly once, on every backend, shard count and row format;
//! and the sources declare that point, and name the
//! `unimatch_retrieval_search_us` span, in exactly one file.
//!
//! The plan is armed process-wide with `set_plan`, not per thread: a
//! sharded fan-out searches its shards on worker threads, which a plan
//! armed with `set_plan_for_this_thread` cannot see, and a fault fired
//! there must count too. That is why this suite is a test binary of its
//! own, and why every counting case runs inside one test.

mod common;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use common::rust_sources;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch::ann::{
    BruteForceIndex, EmbeddingStore, HnswConfig, HnswIndex, Retriever, RowFormat, ShardPolicy,
    ShardedRetriever,
};
use unimatch::core::{DegradeOptions, MatchPipeline};
use unimatch::faults::{self, FaultPlan};
use unimatch::parallel::Parallelism;
use unimatch::rerank::RerankChain;

const ROWS: usize = 300;
const DIM: usize = 8;
const K: usize = 5;

fn store(format: RowFormat) -> Arc<EmbeddingStore> {
    let mut rng = StdRng::seed_from_u64(11);
    let data: Vec<f32> = (0..ROWS * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Arc::new(EmbeddingStore::from_vec(data, DIM).quantize(format))
}

fn index(kind: &str, store: &Arc<EmbeddingStore>, shards: usize) -> Box<dyn Retriever> {
    let mut rng = StdRng::seed_from_u64(12);
    let mut one = |view: Arc<EmbeddingStore>| -> Box<dyn Retriever> {
        match kind {
            "exact" => Box::new(BruteForceIndex::over(view)),
            _ => Box::new(HnswIndex::build_over(view, HnswConfig::default(), &mut rng)),
        }
    };
    if shards == 1 {
        one(store.clone())
    } else {
        Box::new(ShardedRetriever::build(store, shards, ShardPolicy::default(), one))
    }
}

#[test]
fn every_pipeline_retrieval_fires_ann_search_once() {
    // shard fan-outs leave the calling thread whatever the batch size
    Parallelism::threads(2).with_min_work(1).install_global();
    let chain = RerankChain::identity();
    faults::set_plan(FaultPlan::parse("ann.search=latency:1@1.0", 1).expect("plan"));
    for kind in ["exact", "hnsw"] {
        for shards in [1usize, 2] {
            for format in [RowFormat::F32, RowFormat::I8] {
                let store = store(format);
                let index = index(kind, &store, shards);
                assert_eq!(index.shards(), shards);
                let pipeline = MatchPipeline::over(index.as_ref(), &store, &chain);
                let one = store.decode_row(3).into_owned();
                let batch: Vec<f32> =
                    [7, 50, 299].iter().flat_map(|&r| store.decode_row(r).into_owned()).collect();
                let calls: [(&str, &dyn Fn()); 5] = [
                    ("retrieve_one", &|| drop(pipeline.retrieve_one(&one, K))),
                    ("retrieve", &|| drop(pipeline.retrieve(&batch, K))),
                    ("run_one", &|| drop(pipeline.run_one(&one, K))),
                    ("run", &|| drop(pipeline.run(&batch, K))),
                    ("run_checked", &|| {
                        pipeline.run_checked(&batch, K, DegradeOptions::NONE).expect("healthy");
                    }),
                ];
                for (name, call) in calls {
                    let before = faults::fired_total();
                    call();
                    assert_eq!(
                        faults::fired_total() - before,
                        1,
                        "{kind}/shards={shards}/{}: {name} must fire ann.search once",
                        format.name()
                    );
                }
            }
        }
    }
    faults::clear();
}

/// The code lines (comments dropped) of every non-benchmark source file.
fn code_files() -> Vec<(PathBuf, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("src"), &mut files);
    for member in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
        if member.file_name() != "benchmark" {
            rust_sources(&member.path().join("src"), &mut files);
        }
    }
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("read source");
            let code: Vec<&str> =
                text.lines().filter(|l| !l.trim_start().starts_with("//")).collect();
            (path, code.join("\n"))
        })
        .collect()
}

#[test]
fn the_seam_is_declared_in_one_file() {
    let files = code_files();
    assert!(!files.is_empty());
    for needle in [r#"FaultPoint::new("ann.search")"#, r#""unimatch_retrieval_search_us""#] {
        let holders: Vec<&PathBuf> =
            files.iter().filter(|(_, code)| code.contains(needle)).map(|(p, _)| p).collect();
        assert_eq!(holders.len(), 1, "{needle} must appear in exactly one file: {holders:?}");
    }
}
