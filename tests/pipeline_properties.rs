//! Cross-crate property tests: invariants of the data pipeline on
//! arbitrary logs, and protocol invariants on arbitrary splits.
//!
//! Each property loops over a fixed number of inputs, case `n` drawn
//! from its own `StdRng::seed_from_u64(n)`; a failure names its case,
//! and looping over that one number replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch::data::windowing::{build_samples, WindowConfig};
use unimatch::data::{temporal_split, Interaction, InteractionLog, Marginals};

const CASES: u64 = 64;

/// 10 to 199 records over at most 20 users, 15 items and 150 days.
fn arbitrary_log(rng: &mut StdRng) -> InteractionLog {
    let records = (0..rng.gen_range(10usize..200))
        .map(|_| Interaction {
            user: rng.gen_range(0u32..20),
            item: rng.gen_range(0u32..15),
            day: rng.gen_range(0u32..150),
        })
        .collect();
    InteractionLog::new(records)
}

#[test]
fn windowing_never_leaks_future_items() {
    for case in 0..CASES {
        let log = arbitrary_log(&mut StdRng::seed_from_u64(case));
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        for s in &samples {
            // every history item must exist in the user's log strictly
            // before the target day
            let timeline = log.timeline_of(s.user);
            for &h in s.history.iter() {
                assert!(
                    timeline.iter().any(|r| r.item == h && r.day < s.day),
                    "case {case}: history item {h} not strictly before day {} for user {}",
                    s.day,
                    s.user
                );
            }
        }
    }
}

#[test]
fn windowing_emits_one_sample_per_eligible_interaction() {
    for case in 0..CASES {
        let log = arbitrary_log(&mut StdRng::seed_from_u64(case));
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        // eligible = interactions with at least one strictly-earlier record
        let mut eligible = 0usize;
        for (_, timeline) in log.timelines() {
            for r in timeline {
                if timeline.iter().any(|p| p.day < r.day) {
                    eligible += 1;
                }
            }
        }
        assert_eq!(samples.len(), eligible, "case {case}");
    }
}

#[test]
fn split_partitions_samples() {
    for case in 0..CASES {
        let log = arbitrary_log(&mut StdRng::seed_from_u64(case));
        let span = log.span_months().max(3);
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        let in_span = samples.iter().filter(|s| s.month() < span).count();
        let split = temporal_split(samples, span);
        assert_eq!(split.train.len() + split.test.len(), in_span, "case {case}");
        for s in &split.train {
            assert!(s.month() < split.test_month, "case {case}");
        }
        for s in &split.test {
            assert_eq!(s.month(), split.test_month, "case {case}");
        }
    }
}

#[test]
fn marginals_are_log_probabilities() {
    // a log that windows to no sample is redrawn from the next case, not counted
    let window = WindowConfig { max_seq_len: 8, min_history: 1 };
    let checked = (0u64..)
        .map(|case| {
            let log = arbitrary_log(&mut StdRng::seed_from_u64(case));
            (case, build_samples(&log, &window), log)
        })
        .filter(|(_, samples, _)| !samples.is_empty())
        .take(CASES as usize);
    for (case, samples, log) in checked {
        let m = Marginals::from_samples(&samples, log.num_users(), log.num_items());
        // seen-entity probabilities sum to 1
        let sum_u: f64 = m.user_probs().iter().sum();
        let sum_i: f64 = m.item_probs().iter().sum();
        // unseen entities contribute their floor mass; filter via counts
        assert!(sum_u >= 0.99, "case {case}: user probs sum {sum_u}");
        assert!(sum_i >= 0.99, "case {case}: item probs sum {sum_i}");
        for s in &samples {
            assert!(m.log_pu(s.user) <= 0.0, "case {case}");
            assert!(m.log_pi(s.target) <= 0.0, "case {case}");
        }
    }
}

mod ann_properties {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use unimatch::ann::{AnnIndex, BruteForceIndex, HnswConfig, HnswIndex};

    const CASES: u64 = 16;

    fn unit_vectors(rng: &mut StdRng, n: usize, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for row in v.chunks_mut(dim) {
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in row {
                *x /= norm;
            }
        }
        v
    }

    #[test]
    fn indexes_return_sorted_valid_hits() {
        for case in 0..CASES {
            let data = unit_vectors(&mut StdRng::seed_from_u64(case), 64, 8);
            let bf = BruteForceIndex::new(data.clone(), 8);
            let mut rng = StdRng::seed_from_u64(3);
            let hnsw = HnswIndex::build(
                data.clone(),
                8,
                HnswConfig { m: 8, ef_construction: 64, ef_search: 64 },
                &mut rng,
            );
            let query = &data[..8];
            for index in [&bf as &dyn AnnIndex, &hnsw] {
                let hits = index.search(query, 10);
                assert!(!hits.is_empty(), "case {case}");
                assert!(hits.windows(2).all(|w| w[0].score >= w[1].score), "case {case}");
                assert!(hits.iter().all(|h| (h.id as usize) < 64), "case {case}");
                // no duplicate ids
                let ids: std::collections::HashSet<u32> = hits.iter().map(|h| h.id).collect();
                assert_eq!(ids.len(), hits.len(), "case {case}");
            }
        }
    }
}
