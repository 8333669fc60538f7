//! Failure-injection and robustness tests: pathological inputs must fail
//! loudly or degrade gracefully, never corrupt training silently.

use rand::SeedableRng;
use unimatch::data::windowing::{build_samples, WindowConfig};
use unimatch::data::{DatasetProfile, Marginals};
use unimatch::losses::{BiasConfig, MultinomialLoss};
use unimatch::models::{ModelConfig, TwoTower};
use unimatch::tensor::{Graph, Tensor};
use unimatch::train::{AdamConfig, Schedule, TrainConfig, TrainLoss, Trainer};

fn setup(lr: f32, clip: Option<f32>) -> (Trainer, Vec<unimatch::data::Sample>, Marginals) {
    let log = DatasetProfile::EComp.generate(0.1, 3).filter_min_interactions(2);
    let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
    let marginals = Marginals::from_samples(&samples, log.num_users(), log.num_items());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let model = TwoTower::new(
        ModelConfig::youtube_dnn_mean(log.num_items() as usize, 8, 0.125),
        &mut rng,
    );
    let cfg = TrainConfig {
        batch_size: 32,
        epochs_per_month: 1,
        max_seq_len: 8,
        optimizer: AdamConfig { lr, clip_norm: clip, ..Default::default() },
        loss: TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
        seed: 2,
    };
    (Trainer::new(model, cfg), samples, marginals)
}

#[test]
fn absurd_learning_rate_with_clipping_stays_finite() {
    let (mut t, samples, marg) = setup(10.0, Some(1.0));
    let losses = t.train_epochs(&samples, &marg, 2).expect("training failed");
    assert!(losses.iter().all(|l| l.is_finite()), "losses {losses:?}");
    assert!(
        t.model.params.global_norm().is_finite(),
        "parameters diverged to non-finite values"
    );
}

#[test]
fn warmup_schedule_tames_early_steps() {
    // with warmup, the first-step parameter movement must be much smaller
    let movement = |schedule| -> f32 {
        let (mut t, samples, marg) = setup(0.5, None);
        // overwrite the optimizer schedule through a fresh trainer
        let cfg = TrainConfig {
            optimizer: AdamConfig { lr: 0.5, schedule, ..Default::default() },
            ..t.config().clone()
        };
        let before = t.model.params.global_norm();
        let model = std::mem::replace(
            &mut t.model,
            TwoTower::new(
                ModelConfig::youtube_dnn_mean(2, 8, 0.125),
                &mut rand::rngs::StdRng::seed_from_u64(9),
            ),
        );
        let mut t2 = Trainer::new(model, cfg);
        let batches = unimatch::data::batch::multinomial_batches(
            &samples,
            &marg,
            32,
            8,
            &mut rand::rngs::StdRng::seed_from_u64(3),
        );
        t2.step_multinomial(
            &batches[0],
            &MultinomialLoss::Nce(BiasConfig::bbcnce()),
            None,
        )
        .expect("step failed");
        (t2.model.params.global_norm() - before).abs()
    };
    let warm = movement(Schedule::Warmup { steps: 100 });
    let cold = movement(Schedule::Constant);
    assert!(warm < cold, "warmup first-step movement {warm} >= constant {cold}");
}

#[test]
#[should_panic(expected = "out of vocab")]
fn out_of_vocabulary_item_panics_loudly() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let model = TwoTower::new(ModelConfig::youtube_dnn_mean(10, 4, 0.2), &mut rng);
    let mut g = Graph::new();
    model.item_tower(&mut g, &[99]); // vocab is 10
}

#[test]
fn degenerate_single_item_catalog_trains() {
    // a catalog of one item is useless but must not crash
    let samples: Vec<unimatch::data::Sample> = (0..20)
        .map(|k| unimatch::data::Sample {
            user: k % 4,
            history: vec![0].into(),
            target: 0,
            day: k,
        })
        .collect();
    let marginals = Marginals::from_samples(&samples, 4, 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let model = TwoTower::new(ModelConfig::youtube_dnn_mean(1, 4, 0.2), &mut rng);
    let cfg = TrainConfig {
        batch_size: 4,
        epochs_per_month: 1,
        max_seq_len: 4,
        optimizer: AdamConfig::default(),
        loss: TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
        seed: 6,
    };
    let mut trainer = Trainer::new(model, cfg);
    let losses = trainer.train_epochs(&samples, &marginals, 1).expect("training failed");
    assert!(losses[0].is_finite());
}

#[test]
fn nan_input_is_caught_by_loss_computation() {
    // a NaN logit must surface as a NaN loss (not silently vanish), so the
    // caller can detect divergence
    let mut g = Graph::new();
    let logits = g.input(Tensor::from_vec([2, 2], vec![f32::NAN, 0.0, 0.0, 0.0]));
    let loss = unimatch::losses::nce_loss(
        &mut g,
        logits,
        &[0.0, 0.0],
        &[0.0, 0.0],
        &BiasConfig::bbcnce(),
    );
    assert!(g.value(loss).item().is_nan());
}
