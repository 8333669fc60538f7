//! The experiment runner: one (dataset, loss, model) configuration from
//! raw log to metrics. Every table/figure of `unimatch-experiments` is a
//! loop over these specs.

use crate::evaluate::{evaluate, evaluate_with_audit, EvalOutcome, RetrievalAudit};
use crate::hyper::{Hyperparams, Pathway};
use crate::prepare::PreparedData;
use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch_data::DatasetProfile;
use unimatch_eval::ProtocolConfig;
use unimatch_models::{Aggregator, ContextExtractor, ModelConfig, TwoTower};
use unimatch_train::{AdamConfig, TrainConfig, TrainLoss, TrainStats, Trainer};

/// One experiment configuration.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Dataset profile.
    pub profile: DatasetProfile,
    /// Generator scale.
    pub scale: f64,
    /// Master seed (data, init, shuffling, eval sampling).
    pub seed: u64,
    /// Loss pathway.
    pub loss: TrainLoss,
    /// Context extractor.
    pub extractor: ContextExtractor,
    /// Aggregator.
    pub aggregator: Aggregator,
    /// Embedding dimension (paper: 16).
    pub embed_dim: usize,
    /// L2-normalize tower outputs (Eq. 13; false only for the ablation).
    pub normalize: bool,
    /// Hyperparameters (None ⇒ the paper's Tab. VII cell).
    pub hyper: Option<Hyperparams>,
}

impl ExperimentSpec {
    /// The paper's default setup (Youtube-DNN + mean pooling) for a
    /// profile and loss.
    pub fn baseline(profile: DatasetProfile, scale: f64, seed: u64, loss: TrainLoss) -> Self {
        ExperimentSpec {
            profile,
            scale,
            seed,
            loss,
            extractor: ContextExtractor::YoutubeDnn,
            aggregator: Aggregator::Mean,
            embed_dim: 16,
            normalize: true,
            hyper: None,
        }
    }

    /// The pathway this spec trains under.
    pub fn pathway(&self) -> Pathway {
        match self.loss {
            TrainLoss::Bce(_) => Pathway::Bernoulli,
            TrainLoss::Multinomial(_) => Pathway::Multinomial,
        }
    }

    /// Effective hyperparameters.
    pub fn hyperparams(&self) -> Hyperparams {
        self.hyper
            .unwrap_or_else(|| Hyperparams::paper(self.profile, self.pathway()))
    }

    /// The evaluation protocol for this profile (Tab. VI).
    pub fn protocol(&self) -> ProtocolConfig {
        ProtocolConfig {
            top_n: self.profile.top_n(),
            negatives: self.profile.num_eval_negatives(),
        }
    }
}

/// One point of the Fig. 3 curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// Months of training data missing before the test month.
    pub months_behind: u32,
    /// IR NDCG of the checkpoint.
    pub ir_ndcg: f64,
    /// UT NDCG of the checkpoint.
    pub ut_ndcg: f64,
}

/// Everything an experiment produces.
#[derive(Clone, Debug)]
pub struct ExperimentOutcome {
    /// Final-model metrics.
    pub eval: EvalOutcome,
    /// Training consumption counters.
    pub stats: TrainStats,
    /// Fig. 3 curve (present when requested).
    pub curve: Vec<CurvePoint>,
    /// Tab. XI audit (present when requested).
    pub audit: Option<RetrievalAudit>,
    /// Wall-clock training time.
    pub train_secs: f64,
}

/// Extra outputs to compute.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExperimentOptions {
    /// Evaluate the trailing `curve_points` checkpoints (Fig. 3).
    pub curve_points: usize,
    /// Audit retrieved-entity popularity (Tab. XI).
    pub audit: bool,
}

/// Runs one experiment end to end on freshly prepared data.
pub fn run_experiment(spec: &ExperimentSpec, opts: &ExperimentOptions) -> ExperimentOutcome {
    let prepared = PreparedData::synthetic(spec.profile, spec.scale, spec.seed);
    run_experiment_on(spec, opts, &prepared)
}

/// Runs one experiment on already-prepared data (lets table binaries share
/// a dataset across loss rows, as the paper does).
pub fn run_experiment_on(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    prepared: &PreparedData,
) -> ExperimentOutcome {
    let hp = spec.hyperparams();
    let model_cfg = ModelConfig {
        num_items: prepared.num_items(),
        embed_dim: spec.embed_dim,
        max_seq_len: prepared.max_seq_len,
        extractor: spec.extractor,
        aggregator: spec.aggregator,
        temperature: hp.temperature,
        normalize: spec.normalize,
    };
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let model = TwoTower::new(model_cfg, &mut rng);
    let train_cfg = TrainConfig {
        batch_size: hp.batch_size,
        epochs_per_month: hp.epochs,
        max_seq_len: prepared.max_seq_len,
        optimizer: AdamConfig::with_lr(hp.lr),
        loss: spec.loss,
        seed: spec.seed ^ 0xabcd,
    };
    let mut trainer = Trainer::new(model, train_cfg);

    // the incremental schedule, keeping the parameters after each of the
    // trailing `curve_points` months for the Fig. 3 curve
    let t0 = std::time::Instant::now();
    let months = prepared.split.train_months();
    let first_kept = months.len().saturating_sub(opts.curve_points);
    let mut kept = Vec::new();
    for (i, &month) in months.iter().enumerate() {
        trainer
            .train_month(month, &prepared.split, &prepared.marginals, 0)
            .unwrap_or_else(|e| panic!("experiment training failed: {e}"));
        if i >= first_kept {
            kept.push((month, trainer.model.params.clone()));
        }
    }
    let train_secs = t0.elapsed().as_secs_f64();

    let protocol = spec.protocol();
    let eval_seed = spec.seed ^ 0x5eed;
    let stats = *trainer.stats();
    let mut model = trainer.model;

    let (eval_outcome, audit) = if opts.audit {
        let item_counts = prepared.log.item_counts();
        let user_counts = prepared.log.user_counts();
        let (o, a) = evaluate_with_audit(
            &model,
            &prepared.split,
            &protocol,
            prepared.max_seq_len,
            eval_seed,
            (&item_counts, &user_counts),
        );
        (o, Some(a))
    } else {
        (
            evaluate(&model, &prepared.split, &protocol, prepared.max_seq_len, eval_seed),
            None,
        )
    };

    // the final model is evaluated; its parameters make way for each
    // kept month's in turn, oldest first, so the curve runs stalest first
    let mut curve = Vec::new();
    for (month, params) in kept {
        model.params = params;
        let out = evaluate(&model, &prepared.split, &protocol, prepared.max_seq_len, eval_seed);
        curve.push(CurvePoint {
            months_behind: months_behind(month, prepared.split.test_month),
            ir_ndcg: out.ir.ndcg,
            ut_ndcg: out.ut.ndcg,
        });
    }

    ExperimentOutcome { eval: eval_outcome, stats, curve, audit, train_secs }
}

/// How many months of training data the parameters after `month` are
/// missing relative to `test_month`: `test_month - month - 1` (0 ⇒
/// trained on everything up to the test boundary).
fn months_behind(month: u32, test_month: u32) -> u32 {
    test_month.saturating_sub(month + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimatch_losses::{BiasConfig, MultinomialLoss};

    #[test]
    fn bbcnce_experiment_beats_chance_on_both_tasks() {
        let spec = ExperimentSpec {
            scale: 0.2,
            ..ExperimentSpec::baseline(
                DatasetProfile::EComp,
                0.2,
                7,
                TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
            )
        };
        let out = run_experiment(&spec, &ExperimentOptions::default());
        // chance hitrate@10 with 99 negatives = 0.1
        assert!(out.eval.ir.recall > 0.15, "IR recall {}", out.eval.ir.recall);
        assert!(out.eval.ut.recall > 0.15, "UT recall {}", out.eval.ut.recall);
        assert!(out.train_secs > 0.0);
    }

    #[test]
    fn months_behind_arithmetic() {
        // test month 11, trained through month 8 => months 9, 10 missing
        assert_eq!(months_behind(8, 11), 2);
        assert_eq!(months_behind(10, 11), 0);
        assert_eq!(months_behind(10, 5), 0); // saturates
    }

    #[test]
    fn curve_points_are_ordered() {
        let spec = ExperimentSpec::baseline(
            DatasetProfile::EComp,
            0.15,
            9,
            TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
        );
        let out = run_experiment(&spec, &ExperimentOptions { curve_points: 3, audit: false });
        assert_eq!(out.curve.len(), 3);
        assert!(out.curve.windows(2).all(|w| w[0].months_behind > w[1].months_behind));
        assert_eq!(out.curve.last().expect("points").months_behind, 0);
    }
}
