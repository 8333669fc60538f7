//! Serving-path deep dive: compare the two retrieval backends (brute
//! force, HNSW) on trained item embeddings — recall vs. the exact scan and
//! rough query latency, the trade-off behind Sec. III-B1's architecture
//! choice.
//!
//! ```text
//! cargo run --release --example ann_serving
//! ```

use std::time::Instant;
use unimatch::ann::{AnnIndex, BruteForceIndex, HnswConfig, HnswIndex};
use unimatch::core::{UniMatch, UniMatchConfig};
use unimatch::data::DatasetProfile;
use unimatch::eval::Table;
use rand::SeedableRng;

fn main() {
    // Train embeddings with the default framework on a mid-sized catalog.
    let log = DatasetProfile::Books.generate(0.5, 3).filter_min_interactions(3);
    let fitted = UniMatch::new(UniMatchConfig::default()).fit(log);
    let items = fitted.model.infer_items();
    let dim = items.shape().dim(1);
    let n = items.shape().dim(0);
    println!("indexing {n} trained item embeddings (d = {dim})\n");

    let data = items.data().to_vec();
    let bf = BruteForceIndex::new(data.clone(), dim);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let hnsw = HnswIndex::build(data, dim, HnswConfig::default(), &mut rng);

    // queries: user embeddings for random histories
    let pipeline = fitted.item_pipeline();
    let queries: Vec<Vec<f32>> = (0..200)
        .map(|k| pipeline.embed_one(&[(k % 97) as u32, ((k * 7) % 89) as u32]))
        .collect();

    let mut table = Table::new("serving indexes: recall@10 vs exact + mean query time", &[
        "index", "recall@10", "µs/query",
    ]);
    let mut bench = |name: &str, index: &dyn AnnIndex| {
        let t0 = Instant::now();
        let mut hits = 0usize;
        for q in &queries {
            let exact: std::collections::HashSet<u32> =
                bf.search(q, 10).iter().map(|h| h.id).collect();
            hits += index.search(q, 10).iter().filter(|h| exact.contains(&h.id)).count();
        }
        let us = t0.elapsed().as_micros() as f64 / queries.len() as f64;
        table.row(vec![
            name.into(),
            format!("{:.3}", hits as f64 / (queries.len() * 10) as f64),
            format!("{us:.0}"),
        ]);
    };
    bench("brute force", &bf);
    bench("HNSW (ef 50)", &hnsw);
    println!("{}", table.render());
    println!(
        "(brute-force recall is 1.0 by construction but costs O(catalog); \
         the approximate index trades a little recall for a sublinear scan — \
         at production catalog sizes this is what makes two-tower serving viable.)"
    );
}
