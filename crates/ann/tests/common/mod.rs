//! Fixtures shared by the retrieval test suites (and, through a
//! `#[path]` include, by the facade's `tests/retrieval_engine.rs`):
//! seeded corpora, the naive full-sort oracle, and the bitwise hit-list
//! comparison.

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
