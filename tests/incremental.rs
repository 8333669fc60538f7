//! Incremental-training integration (the Fig. 3 mechanism): on a trendy
//! profile, fresher checkpoints must do better on the fixed test month.

use unimatch::core::{run_experiment_on, ExperimentOptions, ExperimentSpec, PreparedData};
use unimatch::data::DatasetProfile;
use unimatch::losses::{BiasConfig, MultinomialLoss};
use unimatch::train::TrainLoss;

#[test]
fn fresh_checkpoints_win_on_trendy_data() {
    let profile = DatasetProfile::EComp; // high trend_strength
    let prepared = PreparedData::synthetic(profile, 0.6, 17);
    let spec = ExperimentSpec::baseline(
        profile,
        0.6,
        17,
        TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
    );
    let out = run_experiment_on(
        &spec,
        &ExperimentOptions { curve_points: 4, audit: false },
        &prepared,
    );
    assert_eq!(out.curve.len(), 4);
    let stale = &out.curve[0];
    let fresh = out.curve.last().expect("points");
    assert_eq!(fresh.months_behind, 0);
    assert!(stale.months_behind >= 3);
    let stale_avg = (stale.ir_ndcg + stale.ut_ndcg) / 2.0;
    let fresh_avg = (fresh.ir_ndcg + fresh.ut_ndcg) / 2.0;
    assert!(
        fresh_avg > stale_avg,
        "fresh {fresh_avg:.4} should beat stale {stale_avg:.4} on a trendy profile"
    );
}

#[test]
fn checkpoints_cover_all_training_months() {
    use rand::SeedableRng;
    use unimatch::models::{ModelConfig, TwoTower};
    use unimatch::train::{AdamConfig, TrainConfig, Trainer};

    let prepared = PreparedData::synthetic(DatasetProfile::WComp, 0.2, 23);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let model = TwoTower::new(
        ModelConfig::youtube_dnn_mean(prepared.num_items(), prepared.max_seq_len, 0.1),
        &mut rng,
    );
    let mut trainer = Trainer::new(
        model,
        TrainConfig {
            batch_size: 64,
            epochs_per_month: 1,
            max_seq_len: prepared.max_seq_len,
            optimizer: AdamConfig::default(),
            loss: TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
            seed: 2,
        },
    );
    let summaries = trainer
        .train_incremental_from(&prepared.split, &prepared.marginals, None)
        .expect("incremental training failed");
    let months = prepared.split.train_months();
    assert_eq!(summaries.len(), months.len());
    for (summary, m) in summaries.iter().zip(months) {
        assert_eq!(summary.month, m);
        assert!(summary.mean_loss.is_finite());
    }
}
