//! Integration: checkpoint persistence round-trips through disk and the
//! resume pathway continues training instead of restarting.

use unimatch::core::{
    load_model, model_from_json, model_to_json, save_model, UniMatch, UniMatchConfig,
};
use unimatch::data::calendar::month_start;
use unimatch::data::DatasetProfile;

#[test]
fn persisted_model_serves_identically() {
    let log = DatasetProfile::EComp.generate(0.2, 41).filter_min_interactions(3);
    let framework = UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() });
    let fitted = framework.fit(log);
    let restored = model_from_json(&model_to_json(&fitted.model)).expect("round trip");
    let h = [1u32, 3, 5];
    assert_eq!(
        fitted.item_pipeline().embed_one(&h),
        {
            let batch = unimatch::data::SeqBatch::from_histories(&[&h[..]], 20);
            restored.infer_users(&batch).into_vec()
        },
        "restored model must embed identically"
    );
}

#[test]
fn resume_consumes_only_new_months() {
    let full = DatasetProfile::EComp.generate(0.25, 43).filter_min_interactions(3);
    let span = full.span_months();
    let early = full.filtered(|r| r.day < month_start(span - 2));

    let framework = UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() });
    let fitted = framework.fit(early);
    let before = model_to_json(&fitted.model);

    // resuming with trained_through = last trained month: parameters must
    // move (new months are consumed)…
    let updated = framework.resume(fitted.model, full.clone(), span - 4);
    let after = model_to_json(&updated.model);
    assert_ne!(before, after, "resume must train on the new months");

    // …and resuming when nothing is new must leave parameters untouched.
    let noop = framework.resume(updated.model, full, span - 2);
    let after_noop = model_to_json(&noop.model);
    assert_eq!(after, after_noop, "no new months => no parameter movement");
}

#[test]
fn checkpoint_file_round_trip_through_fit() {
    let log = DatasetProfile::WComp.generate(0.15, 44).filter_min_interactions(3);
    let framework = UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() });
    let fitted = framework.fit(log);
    let path = std::env::temp_dir()
        .join(format!("unimatch_test_checkpoint_{}.json", std::process::id()));
    save_model(&fitted.model, &path).expect("save");
    let loaded = load_model(&path).expect("load");
    assert_eq!(loaded.params.num_scalars(), fitted.model.params.num_scalars());
    std::fs::remove_file(&path).ok();
}
