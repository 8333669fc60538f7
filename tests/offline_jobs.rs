//! Integration of the offline production path: nightly batch inference
//! on a trained model.

use unimatch::core::{UniMatch, UniMatchConfig};
use unimatch::data::DatasetProfile;

#[test]
fn nightly_batch_job_agrees_with_online_serving() {
    let log = DatasetProfile::EComp.generate(0.3, 61).filter_min_interactions(3);
    let fitted = UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() }).fit(log);

    // materialize the full per-user top-5 offline
    let items_t = fitted.model.infer_items();
    let dim = items_t.shape().dim(1);
    let histories: Vec<&[u32]> = (0..fitted.user_pool.len())
        .map(|ix| fitted.user_pool.history(ix))
        .collect();
    let user_emb = unimatch::core::evaluate::embed_histories(&fitted.model, &histories, 20);
    let per_user = unimatch::ann::top_k_exact(&user_emb, items_t.data(), dim, 5);
    let per_item = unimatch::ann::top_k_exact(items_t.data(), &user_emb, dim, 5);
    assert_eq!(per_user.len(), fitted.user_pool.len());
    assert_eq!(per_item.len(), items_t.shape().dim(0));

    // online HNSW answers must overlap the exact offline lists heavily
    let mut agree = 0usize;
    let mut total = 0usize;
    for ix in (0..fitted.user_pool.len()).step_by(37) {
        let online: std::collections::HashSet<u32> = fitted
            .recommend_items(fitted.user_pool.history(ix), 5)
            .iter()
            .map(|h| h.id)
            .collect();
        for hit in &per_user[ix] {
            total += 1;
            if online.contains(&hit.id) {
                agree += 1;
            }
        }
    }
    let overlap = agree as f64 / total as f64;
    assert!(overlap > 0.85, "offline/online overlap {overlap}");
}
