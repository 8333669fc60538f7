//! The train phase: the paper's production loop — `fit` on the log up to
//! the second-to-last month, then the monthly `resume` with the last
//! month added — and the checkpoint every later phase loads.

use std::io;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch_core::{evaluate, save_model_with_marginals, FittedUniMatch, PreparedData, UniMatch};
use unimatch_data::batch::multinomial_batches;
use unimatch_data::Sample;
use unimatch_eval::ProtocolConfig;
use unimatch_losses::{nce_loss, MultinomialLoss};
use unimatch_models::{ModelConfig, TwoTower};
use unimatch_tensor::Graph;
use unimatch_train::{Adam, AdamConfig, TrainConfig, TrainLoss, Trainer};

use crate::cycle::{train_framework, Budget, Options, Outcome};
use crate::inputs::Corpus;
use crate::stats::{fast_decile, median, percentile, spread_note};
use crate::trace::Recorder;

/// NDCG@10 against 99 sampled negatives, the paper's protocol (Tab. VI).
const PROTOCOL: ProtocolConfig = ProtocolConfig {
    top_n: 10,
    negatives: 99,
};

/// Request ids of the step-replay spans start here, clear of every other
/// phase's.
const STEP_REQUESTS: u64 = 3_000_000_000;

fn params_finite(fitted: &FittedUniMatch) -> bool {
    fitted.item_store().as_slice().iter().all(|x| x.is_finite())
        && fitted.user_store().as_slice().iter().all(|x| x.is_finite())
}

fn save(fitted: &FittedUniMatch, ckpt: &Path) -> io::Result<()> {
    save_model_with_marginals(&fitted.model, Some(fitted.marginals()), ckpt)
}

/// The repeated train phase, run a slice at a time so its repetitions
/// spread over the whole pass: a slow spell of the machine then moves a
/// few samples, not the median.
pub struct TrainPhase {
    fw: UniMatch,
    held_out: PreparedData,
    budget: Budget,
    fit_s: Vec<f64>,
    update_s: Vec<f64>,
    first_ndcg: Option<f64>,
    last: Option<FittedUniMatch>,
}

impl TrainPhase {
    /// Prepares the held-out month the repetitions are evaluated on;
    /// `budget_s` seconds of repetitions over the whole pass.
    pub fn new(opts: &Options, corpus: &Corpus, budget_s: f64) -> TrainPhase {
        let fw = train_framework(opts.seed);
        let held_out = PreparedData::from_log(corpus.log.clone(), fw.config.max_seq_len);
        TrainPhase {
            fw,
            held_out,
            budget: Budget::new(budget_s),
            fit_s: Vec::new(),
            update_s: Vec::new(),
            first_ndcg: None,
            last: None,
        }
    }

    fn ndcg(&self, fitted: &FittedUniMatch, seed: u64) -> f64 {
        let max_seq_len = self.fw.config.max_seq_len;
        evaluate(
            &fitted.model,
            &self.held_out.split,
            &PROTOCOL,
            max_seq_len,
            seed,
        )
        .avg_ndcg()
    }

    /// Repeats `fit` + `resume` with the same seed until `share` of the
    /// budget is spent; at least once in the first round, and twice by the
    /// last, so that two repetitions can be compared. The very first
    /// repetition is evaluated and written as the cycle's checkpoint.
    pub fn slice(
        &mut self,
        opts: &Options,
        corpus: &Corpus,
        ckpt: &Path,
        share: f64,
        out: &mut Outcome,
    ) -> io::Result<()> {
        let at_least = if share >= 1.0 { 2 } else { 1 };
        while self.budget.wants(share, at_least) {
            let (prior, full) = (corpus.prior.clone(), corpus.log.clone());
            let t = Instant::now();
            let fitted = self.fw.fit(prior);
            let fit_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let updated = self.fw.resume(fitted.model, full, corpus.trained_through);
            let update_s = t.elapsed().as_secs_f64();
            self.fit_s.push(fit_s);
            self.update_s.push(update_s);
            self.budget.record(fit_s + update_s);
            out.attempted += 1;
            if self.first_ndcg.is_none() {
                self.first_ndcg = Some(self.ndcg(&updated, opts.seed));
                save(&updated, ckpt)?;
            }
            self.last = Some(updated);
        }
        Ok(())
    }

    /// Reports the median and the fast decile of the repetition times and
    /// checks that the last repetition trained the same model as the first.
    pub fn finish(self, opts: &Options, out: &mut Outcome) {
        let updated = self.last.as_ref().expect("at least one repetition ran");
        let first_ndcg = self.first_ndcg.expect("the first repetition was evaluated");
        let last_ndcg = self.ndcg(updated, opts.seed);
        out.check(first_ndcg == last_ndcg, || {
            format!("ndcg_avg differs between repetitions of one seed: {first_ndcg} vs {last_ndcg}")
        });
        out.check(params_finite(updated) && last_ndcg.is_finite(), || {
            "training produced non-finite embeddings".to_string()
        });
        out.set("ndcg_avg", last_ndcg);
        out.set("train.fit_s", median(&self.fit_s));
        out.set("train.fit_fast_s", fast_decile(&self.fit_s));
        out.set("train.month_update_s", median(&self.update_s));
        out.set("train.month_update_fast_s", fast_decile(&self.update_s));
        let ms = |secs: &[f64]| spread_note(&secs.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        out.note(
            "train.fit_ms",
            format!("{} repetitions: {}", self.fit_s.len(), ms(&self.fit_s)),
        );
        out.note("train.month_update_ms", ms(&self.update_s));
    }
}

/// The traced train phase. One `fit` driven through [`Trainer`] directly
/// (what `UniMatch::fit` does, with its `TrainStats` visible), the serving
/// build and the monthly update timed as calls, and one epoch replayed
/// step by step on two same-seed models: on the first with the public
/// pieces (`user_tower`/`item_tower`/`inbatch_logits`, `nce_loss`,
/// `Graph::backward`, `Adam::step`) timed apart, on the second through
/// `Trainer::step_multinomial` whole.
pub fn traced(
    opts: &Options,
    corpus: &Corpus,
    ckpt: &Path,
    rec: &Recorder,
    out: &mut Outcome,
) -> io::Result<()> {
    let fw = train_framework(opts.seed);
    let cfg = fw.config.clone();
    let TrainLoss::Multinomial(kind @ MultinomialLoss::Nce(bias)) = cfg.loss else {
        panic!("the default configuration trains with an NCE loss");
    };
    cfg.parallelism.install_global();

    let (prepared, prepare_us) = rec.timed("data.prepare", 0, None, || {
        PreparedData::from_log(corpus.prior.clone(), cfg.max_seq_len)
    });
    out.set("data.prepare_ms", prepare_us / 1e3);

    // mirrors `UniMatch::fit`: same model config, same seeds
    let model_cfg = ModelConfig {
        num_items: prepared.num_items(),
        embed_dim: cfg.embed_dim,
        max_seq_len: cfg.max_seq_len,
        extractor: cfg.extractor,
        aggregator: cfg.aggregator,
        temperature: cfg.temperature,
        normalize: true,
    };
    let fresh_model = || TwoTower::new(model_cfg.clone(), &mut StdRng::seed_from_u64(cfg.seed));
    let train_cfg = TrainConfig {
        batch_size: cfg.batch_size,
        epochs_per_month: cfg.epochs_per_month,
        max_seq_len: cfg.max_seq_len,
        optimizer: AdamConfig::with_lr(cfg.lr),
        loss: cfg.loss,
        seed: cfg.seed ^ 0x7ea1,
    };

    let mut trainer = Trainer::try_new(fresh_model(), train_cfg.clone())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (trained, fit_us) = rec.timed("train.fit", 0, None, || {
        trainer.train_incremental_from(&prepared.split, &prepared.marginals, None)
    });
    trained.map_err(|e| io::Error::other(e.to_string()))?;
    let stats = *trainer.stats();
    out.attempted += 1;
    out.check(stats.mean_loss().is_finite() && stats.steps > 0, || {
        format!("training loss is not finite: {}", stats.mean_loss())
    });
    out.set("train.steps_per_fit", stats.steps as f64);
    out.set(
        "train.records_per_s",
        stats.records_consumed as f64 / (fit_us / 1e6),
    );

    let (fitted, build_us) = rec.timed("core.build_serving", 0, None, || {
        fw.serve(trainer.model, corpus.prior.clone())
    });
    out.set("core.build_serving_ms", build_us / 1e3);

    replay_steps(
        &prepared.split.train,
        &prepared,
        &train_cfg,
        kind,
        bias,
        fresh_model,
        rec,
        out,
    );

    let (updated, _) = rec.timed("train.month_update", 0, None, || {
        fw.resume(fitted.model, corpus.log.clone(), corpus.trained_through)
    });
    let (saved, save_us) = rec.timed("core.checkpoint_save", 0, None, || save(&updated, ckpt));
    saved?;
    out.set("core.checkpoint_save_ms", save_us / 1e3);

    let held_out = PreparedData::from_log(corpus.log.clone(), cfg.max_seq_len);
    let (eval, eval_us) = rec.timed("eval.evaluate", 0, None, || {
        evaluate(
            &updated.model,
            &held_out.split,
            &PROTOCOL,
            cfg.max_seq_len,
            opts.seed,
        )
    });
    out.set("eval.evaluate_ms", eval_us / 1e3);
    out.set("eval.ndcg_ir", eval.ir.ndcg);
    out.set("eval.ndcg_ut", eval.ut.ndcg);
    Ok(())
}

/// One epoch over `samples`, every batch run twice: in parts on model A,
/// whole on model B.
#[allow(clippy::too_many_arguments)]
fn replay_steps(
    samples: &[Sample],
    prepared: &PreparedData,
    train_cfg: &TrainConfig,
    kind: MultinomialLoss,
    bias: unimatch_losses::BiasConfig,
    fresh_model: impl Fn() -> TwoTower,
    rec: &Recorder,
    out: &mut Outcome,
) {
    let mut rng = StdRng::seed_from_u64(train_cfg.seed);
    let (batches, build_us) = rec.timed("data.batch_build", 0, None, || {
        multinomial_batches(
            samples,
            &prepared.marginals,
            train_cfg.batch_size,
            train_cfg.max_seq_len,
            &mut rng,
        )
    });
    out.set(
        "data.batch_build_us",
        build_us / batches.len().max(1) as f64,
    );

    let mut model = fresh_model();
    let mut adam = Adam::new(train_cfg.optimizer);
    let mut trainer = Trainer::new(fresh_model(), train_cfg.clone());
    let (mut forward, mut nce, mut backward, mut optimizer) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut whole, mut gap, mut nodes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, batch) in batches.iter().enumerate() {
        let request = STEP_REQUESTS + i as u64;
        let started = Instant::now();
        let parts = rec.open_root("train.step_parts", request, started);
        let mut g = Graph::new();
        let (logits, f_us) = rec.timed("models.forward", request, Some(parts), || {
            let users = model.user_tower(&mut g, &batch.histories);
            let items = model.item_tower(&mut g, &batch.items);
            model.inbatch_logits(&mut g, users, items)
        });
        let (loss, n_us) = rec.timed("losses.nce", request, Some(parts), || {
            nce_loss(&mut g, logits, &batch.log_pu, &batch.log_pi, &bias)
        });
        let ((), b_us) = rec.timed("tensor.backward", request, Some(parts), || g.backward(loss));
        let ((), o_us) = rec.timed("train.optimizer", request, Some(parts), || {
            adam.step(&mut model.params, &g)
        });
        rec.finish_root(parts, Instant::now());
        nodes.push(g.len() as f64);

        let (stepped, s_us) = rec.timed("train.step", request, None, || {
            trainer.step_multinomial(batch, &kind, None)
        });
        out.attempted += 1;
        let finite = stepped.is_ok_and(|loss| loss.is_finite());
        if !finite {
            out.failed += 1;
            out.failures
                .push(format!("training step {i} failed or lost finiteness"));
        }
        forward.push(f_us);
        nce.push(n_us);
        backward.push(b_us);
        optimizer.push(o_us);
        whole.push(s_us);
        gap.push(s_us - (f_us + n_us + b_us + o_us));
    }

    let step_p50 = median(&whole);
    let gap_p50 = median(&gap);
    out.set("models.forward_us", median(&forward));
    out.set("losses.nce_us", median(&nce));
    out.set("tensor.backward_us", median(&backward));
    out.set("train.optimizer_us", median(&optimizer));
    out.set("train.step_p50_us", step_p50);
    out.set("train.step_p99_us", percentile(&whole, 0.99));
    out.set("train.step_gap_us", gap_p50);
    out.set("tensor.graph_nodes_per_step", median(&nodes));
    out.note("train.replayed_steps", whole.len().to_string());
    // A step is its four parts plus graph construction and bookkeeping, so
    // the gap should be small and not negative. It is a difference of two
    // timings taken on two model instances, which a neighbour's burst can
    // push either way: worth a warning, never a failed run.
    if gap_p50 < -0.02 * step_p50 || gap_p50 > 0.25 * step_p50 {
        out.warnings.push(format!(
            "train.step_gap_us {gap_p50:.1} outside [-2%, 25%] of a {step_p50:.1} us step"
        ));
    }
}
