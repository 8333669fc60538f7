//! Cross-crate property tests: invariants of the data pipeline on
//! arbitrary logs, and protocol invariants on arbitrary splits.

use proptest::prelude::*;
use unimatch::data::windowing::{build_samples, WindowConfig};
use unimatch::data::{temporal_split, Interaction, InteractionLog, Marginals};

fn arbitrary_log() -> impl Strategy<Value = InteractionLog> {
    proptest::collection::vec(
        (0u32..20, 0u32..15, 0u32..150).prop_map(|(user, item, day)| Interaction { user, item, day }),
        10..200,
    )
    .prop_map(InteractionLog::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windowing_never_leaks_future_items(log in arbitrary_log()) {
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        for s in &samples {
            // every history item must exist in the user's log strictly
            // before the target day
            let timeline = log.timeline_of(s.user);
            for &h in &s.history {
                prop_assert!(
                    timeline.iter().any(|r| r.item == h && r.day < s.day),
                    "history item {h} not strictly before day {} for user {}",
                    s.day,
                    s.user
                );
            }
        }
    }

    #[test]
    fn windowing_emits_one_sample_per_eligible_interaction(log in arbitrary_log()) {
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
        prop_assert_eq!(samples.len(), eligible);
    }

    #[test]
    fn split_partitions_samples(log in arbitrary_log()) {
        let span = log.span_months().max(3);
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        let split = temporal_split(&samples, span);
        let in_span = samples.iter().filter(|s| s.month() < span).count();
        prop_assert_eq!(split.train.len() + split.test.len(), in_span);
        for s in &split.train {
            prop_assert!(s.month() < split.test_month);
        }
        for s in &split.test {
            prop_assert_eq!(s.month(), split.test_month);
        }
    }

    #[test]
    fn marginals_are_log_probabilities(log in arbitrary_log()) {
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        prop_assume!(!samples.is_empty());
        let m = Marginals::from_samples(&samples, log.num_users(), log.num_items());
        // seen-entity probabilities sum to 1
        let sum_u: f64 = m.user_probs().iter().sum();
        let sum_i: f64 = m.item_probs().iter().sum();
        // unseen entities contribute their floor mass; filter via counts
        prop_assert!(sum_u >= 0.99, "user probs sum {sum_u}");
        prop_assert!(sum_i >= 0.99, "item probs sum {sum_i}");
        for s in &samples {
            prop_assert!(m.log_pu(s.user) <= 0.0);
            prop_assert!(m.log_pi(s.target) <= 0.0);
        }
    }
}

mod ann_properties {
    use proptest::prelude::*;
    use unimatch::ann::{AnnIndex, BruteForceIndex, HnswConfig, HnswIndex};

    fn unit_vectors(n: usize, dim: usize) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(-1.0f32..1.0, n * dim).prop_map(move |mut v| {
            for row in v.chunks_mut(dim) {
                let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                for x in row {
                    *x /= norm;
                }
            }
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn indexes_return_sorted_valid_hits(data in unit_vectors(64, 8)) {
            let bf = BruteForceIndex::new(data.clone(), 8);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            use rand::SeedableRng as _;
            let hnsw = HnswIndex::build(data.clone(), 8, HnswConfig { m: 8, ef_construction: 64, ef_search: 64 }, &mut rng);
            let query = &data[..8];
            for index in [&bf as &dyn AnnIndex, &hnsw] {
                let hits = index.search(query, 10);
                prop_assert!(!hits.is_empty());
                prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
                prop_assert!(hits.iter().all(|h| (h.id as usize) < 64));
                // no duplicate ids
                let ids: std::collections::HashSet<u32> = hits.iter().map(|h| h.id).collect();
                prop_assert_eq!(ids.len(), hits.len());
            }
        }
    }
}
