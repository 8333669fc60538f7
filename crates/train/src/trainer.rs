//! The training loop: per-batch steps for every loss pathway, epoch
//! driving, and the paper's month-by-month incremental schedule, whose
//! one month step is [`Trainer::train_month`].
//!
//! Configuration is validated before the first step ([`TrainConfig::validate`],
//! run by every epoch driver and by [`Trainer::try_new`]), so an unusable
//! batch size or a missing SSM context surfaces as a [`TrainError`]
//! rather than a panic mid-run. An optional [`HealthMonitor`] watches
//! each step's loss and gradient norm for the durable-training runner's
//! rollback/LR-backoff policy. The `train.step` fault seam lets the
//! robustness suites inject a NaN exactly where an exploding loss would
//! produce one.

use crate::error::TrainError;
use crate::health::{HealthMonitor, HealthReport};
use crate::optim::{global_grad_norm, Adam, AdamConfig, AdamState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch_data::alias::AliasTable;
use unimatch_data::batch::multinomial_batches;
use unimatch_data::{
    BceBatch, Marginals, MultinomialBatch, NegativeSampler, NegativeStrategy, Sample,
    TemporalSplit,
};
use unimatch_faults::{FaultKind, FaultPoint};
use unimatch_losses::{bce_loss, nce_loss, ssm_loss, MultinomialLoss};
use unimatch_models::TwoTower;
use unimatch_obs as obs;
use unimatch_tensor::Graph;

const STEP_FAULT: FaultPoint = FaultPoint::new("train.step");

/// Which loss pathway to train with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrainLoss {
    /// A multinomial-family loss over positive-only batches (Tab. IV data).
    Multinomial(MultinomialLoss),
    /// BCE over labeled batches (Tab. V data) with the given negative
    /// sampling strategy.
    Bce(NegativeStrategy),
}

impl TrainLoss {
    /// Display label for tables.
    pub fn label(&self) -> String {
        match self {
            TrainLoss::Multinomial(m) => m.label().to_string(),
            TrainLoss::Bce(s) => format!("BCE {}", s.label()),
        }
    }
}

/// Training configuration (the Tab. VII hyperparameters plus plumbing).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Batch size (row count; for BCE this includes the 1:1 negatives).
    pub batch_size: usize,
    /// Epochs per month of incremental training.
    pub epochs_per_month: usize,
    /// History truncation length.
    pub max_seq_len: usize,
    /// Optimizer settings.
    pub optimizer: AdamConfig,
    /// Loss pathway.
    pub loss: TrainLoss,
    /// RNG seed for shuffling/sampling.
    pub seed: u64,
}

impl TrainConfig {
    /// Sensible defaults for the multinomial pathway (paper: batch 64).
    pub fn multinomial(loss: MultinomialLoss, max_seq_len: usize) -> Self {
        TrainConfig {
            batch_size: 64,
            epochs_per_month: 2,
            max_seq_len,
            optimizer: AdamConfig::default(),
            loss: TrainLoss::Multinomial(loss),
            seed: 17,
        }
    }

    /// Sensible defaults for the Bernoulli pathway (paper: batch 128–256,
    /// more epochs).
    pub fn bce(strategy: NegativeStrategy, max_seq_len: usize) -> Self {
        TrainConfig {
            batch_size: 128,
            epochs_per_month: 6,
            max_seq_len,
            optimizer: AdamConfig::default(),
            loss: TrainLoss::Bce(strategy),
            seed: 17,
        }
    }

    /// Checks every field is usable *before* any training starts. The
    /// epoch drivers run this first, so a bad config is a typed error at
    /// the call site, never a panic (or a NaN factory) steps later.
    pub fn validate(&self) -> Result<(), TrainError> {
        let bad = |msg: &str| Err(TrainError::InvalidConfig(msg.to_string()));
        if self.batch_size == 0 {
            return bad("batch_size must be positive");
        }
        if self.epochs_per_month == 0 {
            return bad("epochs_per_month must be positive");
        }
        if self.max_seq_len == 0 {
            return bad("max_seq_len must be positive");
        }
        let o = &self.optimizer;
        if !o.lr.is_finite() || o.lr <= 0.0 {
            return bad("optimizer.lr must be a positive finite number");
        }
        if !(0.0..1.0).contains(&o.beta1) || !(0.0..1.0).contains(&o.beta2) {
            return bad("optimizer betas must be in [0, 1)");
        }
        if !o.eps.is_finite() || o.eps <= 0.0 {
            return bad("optimizer.eps must be a positive finite number");
        }
        if let Some(c) = o.clip_norm {
            if !c.is_finite() || c <= 0.0 {
                return bad("optimizer.clip_norm must be a positive finite number");
            }
        }
        if let TrainLoss::Multinomial(MultinomialLoss::Ssm { negatives }) = self.loss {
            if negatives == 0 {
                return bad("SSM negatives must be positive");
            }
        }
        Ok(())
    }
}

/// Shared negative pool context for the SSM loss: the vocabulary-wide
/// unigram sampler plus its log-probabilities for the logQ correction.
pub struct SsmContext {
    alias: AliasTable,
    log_q: Vec<f32>,
    negatives: usize,
}

impl SsmContext {
    /// Builds the unigram sampler from training marginals.
    pub fn new(marginals: &Marginals, negatives: usize) -> Self {
        let probs = marginals.item_probs();
        SsmContext {
            alias: AliasTable::new(&probs),
            log_q: marginals.log_pi_all().to_vec(),
            negatives,
        }
    }
}

/// Counters describing how much data a training run consumed — the raw
/// material of the paper's cost analysis (Sec. IV-B5).
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainStats {
    /// Optimization steps taken.
    pub steps: u64,
    /// Total records (rows) consumed, negatives included.
    pub records_consumed: u64,
    /// Sum of per-step losses (for averaging).
    pub loss_sum: f64,
}

impl TrainStats {
    /// Mean loss over all steps.
    pub fn mean_loss(&self) -> f32 {
        if self.steps == 0 {
            0.0
        } else {
            (self.loss_sum / self.steps as f64) as f32
        }
    }
}

/// Drives a [`TwoTower`] model through a [`TrainConfig`].
pub struct Trainer {
    /// The model under training.
    pub model: TwoTower,
    cfg: TrainConfig,
    opt: Adam,
    rng: StdRng,
    stats: TrainStats,
    health: Option<HealthMonitor>,
}

impl Trainer {
    /// Creates a trainer around a freshly initialized model. The config
    /// is validated lazily by the epoch drivers; use [`Trainer::try_new`]
    /// to surface a bad config at construction.
    pub fn new(model: TwoTower, cfg: TrainConfig) -> Self {
        let opt = Adam::new(cfg.optimizer);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Trainer { model, cfg, opt, rng, stats: TrainStats::default(), health: None }
    }

    /// Creates a trainer, validating the config first.
    pub fn try_new(model: TwoTower, cfg: TrainConfig) -> Result<Self, TrainError> {
        cfg.validate()?;
        Ok(Trainer::new(model, cfg))
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Cumulative consumption statistics.
    pub fn stats(&self) -> &TrainStats {
        &self.stats
    }

    /// Overwrites the cumulative statistics (a durable resume carries
    /// them across the process boundary so the cost accounting of a
    /// resumed run matches an uninterrupted one).
    pub fn restore_stats(&mut self, stats: TrainStats) {
        self.stats = stats;
    }

    /// Overrides the base learning rate (health-rollback LR backoff).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.optimizer.lr = lr;
        self.opt.set_lr(lr);
    }

    /// Snapshots the optimizer state for durable checkpointing.
    pub fn export_optimizer(&self) -> AdamState {
        self.opt.export_state(&self.model.params)
    }

    /// Restores an optimizer snapshot taken by [`Trainer::export_optimizer`].
    pub fn import_optimizer(&mut self, state: &AdamState) -> Result<(), TrainError> {
        self.opt.import_state(&self.model.params, state)
    }

    /// Turns on per-step health monitoring (off by default — it costs a
    /// gradient-norm pass per step), starting from a fresh monitor.
    pub fn enable_health(&mut self) {
        self.health = Some(HealthMonitor::new());
    }

    /// Cumulative health incidents, if monitoring is enabled.
    pub fn health_report(&self) -> Option<HealthReport> {
        self.health.as_ref().map(|h| h.report())
    }

    fn observe_health(&mut self, g: &Graph, loss: f32) {
        if let Some(h) = &mut self.health {
            h.observe(loss, global_grad_norm(g));
        }
    }

    /// One step on a multinomial batch. Returns the loss value, or a
    /// [`TrainError`] if the SSM pathway is driven without (or with a
    /// mismatched) [`SsmContext`].
    pub fn step_multinomial(
        &mut self,
        batch: &MultinomialBatch,
        kind: &MultinomialLoss,
        ssm: Option<&SsmContext>,
    ) -> Result<f32, TrainError> {
        let _step_span = obs::span_us("unimatch_train_step_us", "loss=\"multinomial\"");
        let mut g = Graph::new();
        let users = self.model.user_tower(&mut g, &batch.histories);
        let loss = match kind {
            MultinomialLoss::Nce(cfg) => {
                let items = self.model.item_tower(&mut g, &batch.items);
                let logits = self.model.inbatch_logits(&mut g, users, items);
                nce_loss(&mut g, logits, &batch.log_pu, &batch.log_pi, cfg)
            }
            MultinomialLoss::Ssm { negatives } => {
                let ctx = ssm.ok_or(TrainError::MissingSsmContext)?;
                if ctx.negatives != *negatives {
                    return Err(TrainError::SsmNegativesMismatch {
                        context: ctx.negatives,
                        loss: *negatives,
                    });
                }
                let pos_items = self.model.item_tower(&mut g, &batch.items);
                let pos = self.model.pair_logits(&mut g, users, pos_items);
                let neg_ids: Vec<u32> =
                    (0..ctx.negatives).map(|_| ctx.alias.sample(&mut self.rng)).collect();
                let neg_items = self.model.item_tower(&mut g, &neg_ids);
                let neg = self.model.inbatch_logits(&mut g, users, neg_items);
                let log_q_pos: Vec<f32> =
                    batch.items.iter().map(|&i| ctx.log_q[i as usize]).collect();
                let log_q_neg: Vec<f32> =
                    neg_ids.iter().map(|&i| ctx.log_q[i as usize]).collect();
                ssm_loss(&mut g, pos, neg, &log_q_pos, &log_q_neg)
            }
        };
        g.backward(loss);
        if obs::enabled() {
            record_step_metrics(&g, "loss=\"multinomial\"", batch.items.len() as u64);
        }
        self.opt.step(&mut self.model.params, &g);
        let mut value = g.value(loss).item();
        self.inject_step_fault(&mut value);
        self.observe_health(&g, value);
        self.stats.steps += 1;
        self.stats.records_consumed += batch.items.len() as u64;
        self.stats.loss_sum += value as f64;
        if obs::enabled() {
            obs::registry::gauge("unimatch_train_loss").set(value as f64);
        }
        Ok(value)
    }

    /// One step on a labeled BCE batch. Returns the loss value.
    pub fn step_bce(&mut self, batch: &BceBatch) -> f32 {
        let _step_span = obs::span_us("unimatch_train_step_us", "loss=\"bce\"");
        let mut g = Graph::new();
        let users = self.model.user_tower(&mut g, &batch.histories);
        let items = self.model.item_tower(&mut g, &batch.items);
        let logits = self.model.pair_logits(&mut g, users, items);
        let loss = bce_loss(&mut g, logits, &batch.labels);
        g.backward(loss);
        if obs::enabled() {
            record_step_metrics(&g, "loss=\"bce\"", batch.labels.len() as u64);
        }
        self.opt.step(&mut self.model.params, &g);
        let mut value = g.value(loss).item();
        self.inject_step_fault(&mut value);
        self.observe_health(&g, value);
        self.stats.steps += 1;
        self.stats.records_consumed += batch.labels.len() as u64;
        self.stats.loss_sum += value as f64;
        if obs::enabled() {
            obs::registry::gauge("unimatch_train_loss").set(value as f64);
        }
        value
    }

    /// The `train.step` fault seam: a planned bit-flip poisons this
    /// step's loss *and* one model parameter with NaN — the observable
    /// signature of a numerically exploded step, placed exactly where a
    /// real one would appear so the health/rollback machinery above is
    /// tested against the failure it claims to absorb.
    fn inject_step_fault(&mut self, value: &mut f32) {
        if let Some(FaultKind::BitFlip) = STEP_FAULT.fire() {
            *value = f32::NAN;
            if let Some(id) = self.model.params.ids().next() {
                self.model.params.get_mut(id).data_mut()[0] = f32::NAN;
            }
        }
    }

    /// Trains `epochs` passes over `samples` (shuffled per epoch). Returns
    /// the mean loss per epoch. The config is validated before the first
    /// step; SSM context problems surface as typed errors, not panics.
    pub fn train_epochs(
        &mut self,
        samples: &[Sample],
        marginals: &Marginals,
        epochs: usize,
    ) -> Result<Vec<f32>, TrainError> {
        self.cfg.validate()?;
        if samples.is_empty() {
            return Ok(vec![0.0; epochs]);
        }
        let mut out = Vec::with_capacity(epochs);
        match self.cfg.loss {
            TrainLoss::Multinomial(kind) => {
                let ssm = match kind {
                    MultinomialLoss::Ssm { negatives } => {
                        Some(SsmContext::new(marginals, negatives))
                    }
                    MultinomialLoss::Nce(_) => None,
                };
                for _ in 0..epochs {
                    let _epoch_span = obs::span_us("unimatch_train_epoch_us", "");
                    let batches = multinomial_batches(
                        samples,
                        marginals,
                        self.cfg.batch_size,
                        self.cfg.max_seq_len,
                        &mut self.rng,
                    );
                    let mut sum = 0.0;
                    for b in &batches {
                        sum += self.step_multinomial(b, &kind, ssm.as_ref())?;
                    }
                    let mean = sum / batches.len().max(1) as f32;
                    record_epoch_metrics(mean);
                    out.push(mean);
                }
            }
            TrainLoss::Bce(strategy) => {
                let num_items = self.model.config().num_items as u32;
                let sampler = NegativeSampler::new(samples, num_items);
                for _ in 0..epochs {
                    let _epoch_span = obs::span_us("unimatch_train_epoch_us", "");
                    let batches = sampler.bce_batches(
                        strategy,
                        self.cfg.batch_size,
                        self.cfg.max_seq_len,
                        &mut self.rng,
                    );
                    let mut sum = 0.0;
                    for b in &batches {
                        sum += self.step_bce(b);
                    }
                    let mean = sum / batches.len().max(1) as f32;
                    record_epoch_metrics(mean);
                    out.push(mean);
                }
            }
        }
        Ok(out)
    }

    /// One month of the paper's incremental training: reseeds the
    /// shuffling/sampling RNG with `month_seed(seed, month, attempt)`,
    /// runs `epochs_per_month` passes over the month's samples from the
    /// current parameters and returns the mean loss over those epochs.
    ///
    /// The batches depend on nothing but the config, the month and the
    /// attempt, so every loop that steps months through here — a plain
    /// fit, a resume, a durable run killed and resumed at any month —
    /// trains the same model from the same state. A durable rollback
    /// retries with the next `attempt`, and so a different shuffle.
    pub fn train_month(
        &mut self,
        month: u32,
        split: &TemporalSplit,
        marginals: &Marginals,
        attempt: u32,
    ) -> Result<f32, TrainError> {
        self.rng = StdRng::seed_from_u64(month_seed(self.cfg.seed, month, attempt));
        let losses =
            self.train_epochs(&split.train_month(month), marginals, self.cfg.epochs_per_month)?;
        Ok(losses.iter().sum::<f32>() / losses.len().max(1) as f32)
    }

    /// The paper's incremental training, resumable: trains the months
    /// strictly after `resume_after` (None ⇒ all training months) in
    /// calendar order through [`Trainer::train_month`], each from the
    /// latest parameters. Resuming is the production monthly update —
    /// last month's parameters + one new month of data instead of a
    /// from-scratch yearly retrain, the 1/12 factor of the paper's cost
    /// analysis. Marginals are computed over the full training window
    /// once, as the pre-calculated bias terms of Tab. IV.
    pub fn train_incremental_from(
        &mut self,
        split: &TemporalSplit,
        marginals: &Marginals,
        resume_after: Option<u32>,
    ) -> Result<Vec<MonthSummary>, TrainError> {
        split
            .train_months()
            .into_iter()
            .filter(|&m| resume_after.is_none_or(|after| m > after))
            .map(|month| {
                let mean_loss = self.train_month(month, split, marginals, 0)?;
                Ok(MonthSummary { month, mean_loss, lr_scale: 1.0 })
            })
            .collect()
    }
}

/// One trained month, as [`Trainer::train_incremental_from`] returns it
/// and a durable month file's history records it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonthSummary {
    /// The training month.
    pub month: u32,
    /// Mean loss over the month's epochs.
    pub mean_loss: f32,
    /// LR scale in effect when the month finished (product of durable
    /// rollback backoffs; 1.0 outside a durable run).
    pub lr_scale: f32,
}

/// The per-month shuffling seed: a pure function of `(run seed, month,
/// attempt)`, so a resumed run replays exactly the batch sequence the
/// uninterrupted run saw — and a rollback retry sees a *different* (but
/// still deterministic) shuffle.
fn month_seed(seed: u64, month: u32, attempt: u32) -> u64 {
    seed ^ (month as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (attempt as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
}

/// Records per-step observability series from a backpropagated graph:
/// step/record throughput counters and the global gradient L2 norm
/// (dense + sparse leaves). Call sites gate on [`obs::enabled`]; this
/// only *reads* gradient state, so enabling it cannot change training.
fn record_step_metrics(g: &Graph, loss_label: &'static str, records: u64) {
    obs::registry::counter_labeled("unimatch_train_steps_total", loss_label).inc();
    obs::registry::counter("unimatch_train_records_total").add(records);
    let mut sq_sum = 0.0f64;
    for t in g.dense_grads().values() {
        sq_sum += t.data().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
    }
    for sg in g.sparse_grads().values() {
        for row in sg.rows.values() {
            sq_sum += row.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
        }
    }
    let norm = sq_sum.sqrt();
    obs::registry::gauge("unimatch_train_grad_norm").set(norm);
    // Distribution in milli-units so the integer histogram resolves
    // norms well below 1.0.
    obs::registry::histogram("unimatch_train_grad_norm_milli", "", obs::COUNT_BOUNDS)
        .observe((norm * 1_000.0) as u64);
}

/// Records the per-epoch mean loss gauge and epoch counter.
fn record_epoch_metrics(mean_loss: f32) {
    if obs::enabled() {
        obs::registry::counter("unimatch_train_epochs_total").inc();
        obs::registry::gauge("unimatch_train_epoch_loss").set(mean_loss as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimatch_data::windowing::{build_samples, WindowConfig};
    use unimatch_data::{temporal_split, DatasetProfile};
    use unimatch_losses::BiasConfig;
    use unimatch_models::ModelConfig;

    fn tiny_setup(loss: TrainLoss) -> (Trainer, Vec<Sample>, Marginals) {
        let log = DatasetProfile::EComp.generate(0.1, 3).filter_min_interactions(2);
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        let marginals = Marginals::from_samples(&samples, log.num_users(), log.num_items());
        let mut rng = StdRng::seed_from_u64(1);
        let model = TwoTower::new(
            ModelConfig::youtube_dnn_mean(log.num_items() as usize, 8, 0.2),
            &mut rng,
        );
        let cfg = TrainConfig {
            batch_size: 32,
            epochs_per_month: 1,
            max_seq_len: 8,
            optimizer: AdamConfig::with_lr(0.05),
            loss,
            seed: 2,
        };
        (Trainer::new(model, cfg), samples, marginals)
    }

    #[test]
    fn nce_training_reduces_loss() {
        let (mut t, samples, marg) =
            tiny_setup(TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())));
        let losses = t.train_epochs(&samples, &marg, 3).expect("train");
        assert!(losses[2] < losses[0], "losses {losses:?}");
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn ssm_training_reduces_loss() {
        let (mut t, samples, marg) =
            tiny_setup(TrainLoss::Multinomial(MultinomialLoss::Ssm { negatives: 32 }));
        let losses = t.train_epochs(&samples, &marg, 3).expect("train");
        assert!(losses[2] < losses[0], "losses {losses:?}");
    }

    #[test]
    fn bce_training_reduces_loss() {
        let (mut t, samples, marg) = tiny_setup(TrainLoss::Bce(NegativeStrategy::Uniform));
        let losses = t.train_epochs(&samples, &marg, 3).expect("train");
        assert!(losses[2] < losses[0], "losses {losses:?}");
        // BCE consumes 2x records per positive (1:1 negatives)
        assert!(t.stats().records_consumed as usize >= samples.len() * 2 * 3 - 64);
    }

    #[test]
    fn ssm_without_context_is_a_typed_error() {
        let (mut t, samples, marg) =
            tiny_setup(TrainLoss::Multinomial(MultinomialLoss::Ssm { negatives: 32 }));
        let batches = multinomial_batches(&samples, &marg, 32, 8, &mut StdRng::seed_from_u64(0));
        let err = t
            .step_multinomial(&batches[0], &MultinomialLoss::Ssm { negatives: 32 }, None)
            .expect_err("no context provided");
        assert_eq!(err, TrainError::MissingSsmContext);

        let wrong = SsmContext::new(&marg, 16);
        let err = t
            .step_multinomial(&batches[0], &MultinomialLoss::Ssm { negatives: 32 }, Some(&wrong))
            .expect_err("mismatched context");
        assert_eq!(err, TrainError::SsmNegativesMismatch { context: 16, loss: 32 });
    }

    #[test]
    fn invalid_configs_are_rejected_before_training() {
        let (t, samples, marg) =
            tiny_setup(TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())));
        let num_items = t.model.config().num_items;
        let base = t.cfg;
        let fresh_model = || {
            let mut rng = StdRng::seed_from_u64(1);
            TwoTower::new(ModelConfig::youtube_dnn_mean(num_items, 8, 0.2), &mut rng)
        };

        let cases: Vec<(&str, TrainConfig)> = vec![
            ("batch_size", TrainConfig { batch_size: 0, ..base.clone() }),
            ("epochs_per_month", TrainConfig { epochs_per_month: 0, ..base.clone() }),
            ("max_seq_len", TrainConfig { max_seq_len: 0, ..base.clone() }),
            (
                "lr",
                TrainConfig {
                    optimizer: AdamConfig { lr: f32::NAN, ..base.optimizer },
                    ..base.clone()
                },
            ),
            (
                "beta1",
                TrainConfig {
                    optimizer: AdamConfig { beta1: 1.0, ..base.optimizer },
                    ..base.clone()
                },
            ),
            (
                "negatives",
                TrainConfig {
                    loss: TrainLoss::Multinomial(MultinomialLoss::Ssm { negatives: 0 }),
                    ..base.clone()
                },
            ),
        ];
        for (what, cfg) in cases {
            assert!(matches!(cfg.validate(), Err(TrainError::InvalidConfig(_))), "{what}");
            // and the epoch driver refuses before consuming anything
            let mut t = Trainer::new(fresh_model(), cfg);
            assert!(t.train_epochs(&samples, &marg, 1).is_err(), "{what}");
            assert_eq!(t.stats().steps, 0, "{what} must fail before the first step");
        }
        assert!(base.validate().is_ok());
        assert!(Trainer::try_new(fresh_model(), TrainConfig { batch_size: 0, ..base }).is_err());
    }

    /// A fresh bbcNCE trainer over a monthly split of a small log.
    fn monthly_setup() -> (Trainer, TemporalSplit, Marginals) {
        let log = DatasetProfile::EComp.generate(0.1, 5).filter_min_interactions(2);
        let samples = build_samples(&log, &WindowConfig { max_seq_len: 8, min_history: 1 });
        let split = temporal_split(samples, log.span_months());
        let marginals = Marginals::from_samples(&split.train, log.num_users(), log.num_items());
        let mut rng = StdRng::seed_from_u64(4);
        let model = TwoTower::new(
            ModelConfig::youtube_dnn_mean(log.num_items() as usize, 8, 0.2),
            &mut rng,
        );
        let cfg = TrainConfig {
            batch_size: 32,
            epochs_per_month: 1,
            max_seq_len: 8,
            optimizer: AdamConfig::with_lr(0.05),
            loss: TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
            seed: 5,
        };
        (Trainer::new(model, cfg), split, marginals)
    }

    #[test]
    fn incremental_training_checkpoints_every_month() {
        let (mut trainer, split, marginals) = monthly_setup();
        let before = trainer.model.params.clone();
        let summaries = trainer.train_incremental_from(&split, &marginals, None).expect("train");
        assert_eq!(summaries.len(), split.train_months().len());
        assert!(summaries.windows(2).all(|w| w[0].month < w[1].month));
        // parameters actually evolve over the run; both sets cover the
        // same parameters, so compare them pairwise rather than
        // unwrapping a single id out of one
        let after = &trainer.model.params;
        assert_eq!(before.len(), after.len());
        assert!(
            before
                .iter()
                .zip(after.iter())
                .any(|((_, pa), (_, pb))| pa.value.data() != pb.value.data()),
            "parameters did not change over the incremental run"
        );
    }

    #[test]
    fn a_month_step_depends_on_the_month_and_attempt_not_the_rng_history() {
        assert_ne!(month_seed(5, 0, 0), month_seed(5, 1, 0));
        assert_ne!(month_seed(5, 0, 0), month_seed(5, 0, 1));
        assert_ne!(month_seed(5, 1, 0), month_seed(5, 0, 1));

        let (mut a, split, marg) = monthly_setup();
        let (mut b, _, _) = monthly_setup();
        // equal model and optimizer states, different RNG histories
        b.rng = StdRng::seed_from_u64(99);
        let month = split.train_months()[1];
        let la = a.train_month(month, &split, &marg, 0).expect("train a");
        let lb = b.train_month(month, &split, &marg, 0).expect("train b");
        assert_eq!(la.to_bits(), lb.to_bits());
        assert!(
            a.model
                .params
                .iter()
                .zip(b.model.params.iter())
                .all(|((_, pa), (_, pb))| pa.value.data() == pb.value.data()),
            "one month step from equal states must give equal parameters"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (mut t, samples, marg) =
                tiny_setup(TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::infonce())));
            t.train_epochs(&samples, &marg, 1).expect("train")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn health_monitor_catches_injected_nan_step() {
        let (mut t, samples, marg) =
            tiny_setup(TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())));
        t.enable_health();
        // the only test here that arms a plan, scoped to this thread: the
        // neighbours stepping their own trainers must not absorb the fire
        unimatch_faults::set_plan_for_this_thread(unimatch_faults::FaultPlan {
            seed: 1,
            rules: vec![unimatch_faults::FaultRule::new("train.step", FaultKind::BitFlip)
                .with_max_fires(1)],
        });
        let _ = t.train_epochs(&samples, &marg, 1).expect("train");
        unimatch_faults::clear();
        let report = t.health_report().expect("monitoring enabled");
        assert!(report.nonfinite_losses >= 1, "{report:?}");
    }
}
