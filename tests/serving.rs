//! Serving-path integration: the fitted framework's ANN answers agree
//! with exact brute-force ranking over the same embeddings.

use unimatch::ann::{AnnIndex, BruteForceIndex};
use unimatch::core::{UniMatch, UniMatchConfig};
use unimatch::data::DatasetProfile;

#[test]
fn recommend_items_agrees_with_bruteforce() {
    let log = DatasetProfile::EComp.generate(0.3, 5).filter_min_interactions(3);
    let fitted = UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() }).fit(log);

    let items = fitted.model.infer_items();
    let bf = BruteForceIndex::new(items.data().to_vec(), items.shape().dim(1));

    let mut agree = 0usize;
    let mut total = 0usize;
    for seed_item in [1u32, 5, 9, 13, 17] {
        let history = [seed_item, seed_item + 1];
        let query = fitted.item_pipeline().embed_one(&history);
        let exact: std::collections::HashSet<u32> =
            bf.search(&query, 10).iter().map(|h| h.id).collect();
        for hit in fitted.recommend_items(&history, 10) {
            total += 1;
            if exact.contains(&hit.id) {
                agree += 1;
            }
        }
    }
    let recall = agree as f64 / total as f64;
    assert!(recall >= 0.9, "HNSW serving recall vs exact = {recall}");
}

#[test]
fn target_users_returns_real_pool_users() {
    let log = DatasetProfile::WComp.generate(0.2, 6).filter_min_interactions(3);
    let users: std::collections::HashSet<u32> =
        log.timelines().map(|(u, _)| u).collect();
    let fitted = UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() }).fit(log);
    for (user, score) in fitted.target_users(0, 10) {
        assert!(users.contains(&user), "targeted unknown user {user}");
        assert!(score.is_finite());
    }
}

#[test]
fn scores_are_cosines_in_range() {
    let log = DatasetProfile::EComp.generate(0.2, 8).filter_min_interactions(3);
    let fitted = UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() }).fit(log);
    for hit in fitted.recommend_items(&[2, 3], 20) {
        assert!((-1.01..=1.01).contains(&hit.score), "cosine out of range: {}", hit.score);
    }
}
