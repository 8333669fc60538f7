//! Crash-safe durable incremental training.
//!
//! The paper's production story (Sec. III-B3) is a *monthly* incremental
//! update: each cycle consumes one month of data from last cycle's
//! parameters. A long multi-month (re)build of that chain is exactly the
//! kind of job that dies halfway — node preemption, OOM, `kill -9` — and
//! restarting from scratch forfeits the 1/12 cost factor the schedule
//! exists to buy. This module makes the chain durable:
//!
//! * **One checkpoint per month, committed atomically.** After every
//!   clean month the runner writes `month_NNNN.json` into the run
//!   directory through [`crate::persist`]'s one writer. The file is an
//!   ordinary format-v2 checkpoint — the model document and the training
//!   marginals, exactly as [`crate::persist::save_model_with_marginals`]
//!   writes them — plus a `training` section: the full Adam state, the
//!   cumulative [`TrainStats`], the LR scale, the month, the run seed and
//!   the per-month history, sealed by its own FNV-1a checksum. The file's
//!   tmp+rename is the month's single commit, so a crash at *any* instant
//!   leaves the directory holding a consistent prefix of the run, and any
//!   month file is a checkpoint [`crate::persist::load_checkpoint`] (and
//!   `serve --checkpoint`) accepts.
//! * **Exact resume.** [`train_durable`] loads the highest-numbered month
//!   file (with bounded retry for transient I/O) and continues from the
//!   following month. Every month goes through the trainer's one month
//!   step, [`Trainer::train_month`], which reseeds the shuffling RNG from
//!   `(seed, month, attempt)`; with the Adam state round-tripping
//!   bit-exactly, a killed-and-resumed run produces the **same
//!   parameters** as an uninterrupted one — and as a plain
//!   [`crate::framework::UniMatch::fit`], which steps the same months.
//! * **Health rollback.** Each month trains under a fresh
//!   [`unimatch_train::HealthMonitor`]; a non-finite loss or a
//!   gradient-norm spike rolls the month back to its starting snapshot
//!   (parameters *and* optimizer state), halves the learning rate and
//!   retries, at most twice per month. The backoff survives restarts —
//!   the scale is part of the `training` section.
//!
//! Fault seams for the kill tests: `durable.pre_commit` crashes after a
//! month trained but *before* its file is written (resume retrains the
//! month); `durable.month_end` crashes after the file's rename (resume
//! starts at the next month). Counters surface through `unimatch-obs`:
//! `unimatch_durable_rollbacks_total`,
//! `unimatch_durable_months_resumed_total`.

use crate::persist::{bad, read_checkpoint, retry_load, save_checkpoint, RetryPolicy};
use crate::prepare::PreparedData;
use std::io;
use std::path::{Path, PathBuf};
use unimatch_data::{Marginals, TemporalSplit};
use unimatch_eval::UserPool;
use unimatch_faults::FaultPoint;
use unimatch_models::TwoTower;
use unimatch_obs as obs;
use unimatch_train::{AdamState, MonthSummary, TrainConfig, TrainError, TrainStats, Trainer};

const PRE_COMMIT_FAULT: FaultPoint = FaultPoint::new("durable.pre_commit");
const MONTH_END_FAULT: FaultPoint = FaultPoint::new("durable.month_end");

/// Rollback retries allowed per month before the run gives up.
const MAX_RETRIES_PER_MONTH: u32 = 2;
/// Learning-rate multiplier applied at each rollback.
const LR_BACKOFF: f32 = 0.5;

/// What can go wrong in a durable run.
#[derive(Debug)]
pub enum DurableError {
    /// Reading or writing run-directory state failed.
    Io(io::Error),
    /// Training itself failed (bad config, SSM context mismatch).
    Train(TrainError),
    /// A month stayed unhealthy through every rollback/LR-backoff retry.
    RetriesExhausted {
        /// The month that would not train cleanly.
        month: u32,
        /// How many retries were spent on it.
        retries: u32,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable run I/O error: {e}"),
            DurableError::Train(e) => write!(f, "durable run training error: {e}"),
            DurableError::RetriesExhausted { month, retries } => write!(
                f,
                "month {month} stayed unhealthy after {retries} rollback retries"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<TrainError> for DurableError {
    fn from(e: TrainError) -> Self {
        DurableError::Train(e)
    }
}

/// A month file's `training` section: what a resume needs beyond the
/// model. [`crate::persist`] owns its codec and checksum.
#[derive(Clone, Debug)]
pub(crate) struct TrainingState {
    /// The month this file commits.
    pub(crate) month: u32,
    /// The run's training seed; a resume under another is rejected
    /// rather than silently diverging.
    pub(crate) seed: u64,
    pub(crate) optimizer: AdamState,
    /// Cumulative consumption stats through `month`.
    pub(crate) stats: TrainStats,
    pub(crate) lr_scale: f32,
    /// Every committed month so far, `month` last.
    pub(crate) history: Vec<MonthSummary>,
}

/// A completed durable run.
#[derive(Debug)]
pub struct DurableRun {
    /// The final trained model.
    pub model: TwoTower,
    /// Cumulative consumption stats (identical to an uninterrupted run).
    pub stats: TrainStats,
    /// Every committed month, in training order, as the newest month
    /// file records them.
    pub history: Vec<MonthSummary>,
    /// The month the run resumed after, if it picked up existing state.
    pub resumed_after: Option<u32>,
    /// Health rollbacks performed during this invocation.
    pub rollbacks: u32,
}

fn month_file_name(month: u32) -> String {
    format!("month_{month:04}.json")
}

/// The highest-numbered `month_N.json` in `dir` and its month, if any.
fn newest_month_file(dir: &Path) -> io::Result<Option<(u32, PathBuf)>> {
    let mut newest: Option<(u32, PathBuf)> = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let month = name
            .to_str()
            .and_then(|n| n.strip_prefix("month_")?.strip_suffix(".json")?.parse::<u32>().ok());
        if let Some(month) = month.filter(|&m| newest.as_ref().is_none_or(|(n, _)| m > *n)) {
            newest = Some((month, entry.path()));
        }
    }
    Ok(newest)
}

/// Reads the month file at `path` back: a full checkpoint load, then its
/// `training` section checked against the file's month and the run's
/// seed. Every failure names the file.
fn read_month(path: &Path, month: u32, seed: u64) -> io::Result<(TwoTower, TrainingState)> {
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let cp = retry_load(&RetryPolicy::default(), || read_checkpoint(path)).map_err(named)?;
    let training = cp.training.ok_or_else(|| named(bad("no training section")))?;
    if training.month != month {
        return Err(named(bad(format!("training section holds month {}", training.month))));
    }
    if training.seed != seed {
        return Err(named(bad(format!(
            "run directory belongs to seed {:016x}, config has {seed:016x}",
            training.seed
        ))));
    }
    Ok((cp.model, training))
}

// ---------------------------------------------------------------------------
// the runner
// ---------------------------------------------------------------------------

fn durable_counter(name: &'static str) {
    if obs::enabled() {
        obs::registry::counter(name).inc();
    }
}

/// Runs (or resumes) a durable incremental training over `split`, one
/// month file per committed month under `run_dir`.
///
/// `model` is the freshly initialized model used only when the run
/// directory holds no month file; on resume the newest month's model
/// wins. The returned [`DurableRun`] is byte-for-byte equivalent to what
/// an uninterrupted run would have produced.
pub fn train_durable(
    model: TwoTower,
    cfg: TrainConfig,
    run_dir: impl AsRef<Path>,
    split: &TemporalSplit,
    marginals: &Marginals,
) -> Result<DurableRun, DurableError> {
    let run_dir = run_dir.as_ref();
    cfg.validate()?;
    std::fs::create_dir_all(run_dir)?;
    let base_lr = cfg.optimizer.lr;

    let (mut trainer, mut lr_scale, mut history, resumed_after) =
        match newest_month_file(run_dir)? {
            Some((month, path)) => {
                let (model, training) = read_month(&path, month, cfg.seed)?;
                let mut t = Trainer::try_new(model, cfg.clone())?;
                t.import_optimizer(&training.optimizer)?;
                t.restore_stats(training.stats);
                t.set_lr(base_lr * training.lr_scale);
                durable_counter("unimatch_durable_months_resumed_total");
                (t, training.lr_scale, training.history, Some(month))
            }
            None => (Trainer::try_new(model, cfg.clone())?, 1.0f32, Vec::new(), None),
        };

    // the months `Trainer::train_incremental_from` would train, each
    // wrapped in a snapshot, a health check, a commit and a rollback
    let mut rollbacks = 0u32;
    let months = split.train_months().into_iter();
    for month in months.filter(|&m| resumed_after.is_none_or(|after| m > after)) {
        let mut attempt = 0u32;
        loop {
            // snapshot the month's starting state so a dirty month can be
            // rolled back exactly
            let params_snapshot = trainer.model.params.clone();
            let opt_snapshot = trainer.export_optimizer();
            let stats_snapshot = *trainer.stats();

            // a fresh monitor per attempt: warmup and the EMA baseline
            // restart with the month, which also keeps a resumed run's
            // health state identical to an uninterrupted one's
            trainer.enable_health();

            let mean_loss = trainer.train_month(month, split, marginals, attempt)?;
            let report = trainer.health_report().unwrap_or_default();

            if report.is_clean() {
                // kill window 1: the month is trained but nothing is
                // committed — resume retrains this month from the prior one
                PRE_COMMIT_FAULT.crash_point();
                history.push(MonthSummary { month, mean_loss, lr_scale });
                let training = TrainingState {
                    month,
                    seed: cfg.seed,
                    optimizer: trainer.export_optimizer(),
                    stats: *trainer.stats(),
                    lr_scale,
                    history: history.clone(),
                };
                save_checkpoint(
                    &trainer.model,
                    Some(marginals),
                    Some(&training),
                    &run_dir.join(month_file_name(month)),
                )?;
                // kill window 2: the month is committed — resume starts
                // at the next month
                MONTH_END_FAULT.crash_point();
                break;
            }

            // unhealthy month: roll back to the snapshot and retry with a
            // reduced learning rate
            if attempt >= MAX_RETRIES_PER_MONTH {
                return Err(DurableError::RetriesExhausted { month, retries: attempt });
            }
            trainer.model.params = params_snapshot;
            trainer.import_optimizer(&opt_snapshot)?;
            trainer.restore_stats(stats_snapshot);
            lr_scale *= LR_BACKOFF;
            trainer.set_lr(base_lr * lr_scale);
            rollbacks += 1;
            attempt += 1;
            durable_counter("unimatch_durable_rollbacks_total");
        }
    }

    Ok(DurableRun {
        stats: *trainer.stats(),
        model: trainer.model,
        history,
        resumed_after,
        rollbacks,
    })
}

impl crate::framework::UniMatch {
    /// [`crate::framework::UniMatch::fit`], made durable: training state
    /// is checkpointed per month under `run_dir`, so a killed process can
    /// call `fit_durable` again with the same arguments and continue from
    /// the last committed month — producing the same model an
    /// uninterrupted run, or a plain `fit` of the same log, would have.
    pub fn fit_durable(
        &self,
        log: unimatch_data::InteractionLog,
        run_dir: impl AsRef<Path>,
    ) -> Result<crate::framework::FittedUniMatch, DurableError> {
        let cfg = &self.config;
        cfg.parallelism.install_global();
        let prepared = PreparedData::from_log(log, cfg.max_seq_len);
        let run = train_durable(
            self.new_model(prepared.num_items()),
            self.train_config(cfg.max_seq_len),
            run_dir,
            &prepared.split,
            &prepared.marginals,
        )?;
        let pool = UserPool::from_log(&prepared.log, cfg.max_seq_len);
        Ok(self.build_serving_with(run.model, pool, prepared.marginals, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{load_checkpoint, model_to_json};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU32, Ordering};
    use unimatch_data::windowing::{build_samples, WindowConfig};
    use unimatch_data::{temporal_split, DatasetProfile, Marginals};
    use unimatch_faults::{FaultKind, FaultPlan, FaultRule};
    use unimatch_losses::{BiasConfig, MultinomialLoss};
    use unimatch_models::ModelConfig;
    use unimatch_train::{AdamConfig, TrainLoss};

    fn unique_dir(name: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "unimatch_durable_{}_{}_{}",
            name,
            std::process::id(),
            n
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn setup() -> (TwoTower, TrainConfig, TemporalSplit, Marginals) {
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
        (model, cfg, split, marginals)
    }

    fn run_uninterrupted(dir: &Path) -> DurableRun {
        let (model, cfg, split, marginals) = setup();
        train_durable(model, cfg, dir, &split, &marginals).expect("uninterrupted run")
    }

    /// The sorted file names in a run directory.
    fn dir_listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list run dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn fresh_run_commits_every_month() {
        let dir = unique_dir("fresh");
        let run = run_uninterrupted(&dir);
        let (_, _, split, _) = setup();
        assert_eq!(run.history.len(), split.train_months().len());
        assert!(run.resumed_after.is_none());
        assert_eq!(run.rollbacks, 0);
        for r in &run.history {
            let file = month_file_name(r.month);
            assert!(dir.join(&file).exists(), "{file} missing");
            assert!(r.mean_loss.is_finite());
        }
        // the newest month file carries the whole history and the seed
        let (month, path) = newest_month_file(&dir).expect("list").expect("present");
        let (_, training) = read_month(&path, month, 5).expect("read back");
        assert_eq!(training.seed, 5);
        assert_eq!(training.history, run.history);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The central guarantee: kill the run at a crash seam, resume from
    /// the manifest, and the final model is byte-identical to an
    /// uninterrupted run (stats included).
    fn kill_and_resume_matches(seam: &'static str, skip: u64) {
        let _guard = crate::fault_test_lock();
        let baseline_dir = unique_dir("baseline");
        let baseline = run_uninterrupted(&baseline_dir);

        let dir = unique_dir("killed");
        let (model, cfg, split, marginals) = setup();
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new(seam, FaultKind::Crash)
                .with_max_fires(1)
                .with_skip_first(skip)],
        });
        let killed = catch_unwind(AssertUnwindSafe(|| {
            train_durable(model, cfg, &dir, &split, &marginals)
        }));
        unimatch_faults::clear();
        assert!(killed.is_err(), "the injected crash must kill the run");
        let committed = dir_listing(&dir);
        assert!(!committed.is_empty(), "the months before the kill stay committed");
        assert!(
            committed.len() < split.train_months().len(),
            "the kill must leave the run incomplete"
        );

        // resume: a fresh process would do exactly this call
        let (model, cfg, split, marginals) = setup();
        let resumed = train_durable(model, cfg, &dir, &split, &marginals).expect("resume");
        assert!(resumed.resumed_after.is_some(), "must pick up from the newest month file");
        assert_eq!(
            model_to_json(&resumed.model),
            model_to_json(&baseline.model),
            "resumed parameters must match the uninterrupted run bit for bit"
        );
        assert_eq!(resumed.stats.steps, baseline.stats.steps);
        assert_eq!(resumed.stats.records_consumed, baseline.stats.records_consumed);
        assert_eq!(resumed.stats.loss_sum, baseline.stats.loss_sum);
        assert_eq!(resumed.history, baseline.history);
        std::fs::remove_dir_all(&baseline_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_between_months_resumes_equivalently() {
        // crash after the second month's file is committed
        kill_and_resume_matches("durable.month_end", 1);
    }

    #[test]
    fn kill_within_a_month_resumes_equivalently() {
        // crash after the second month trained but before its checkpoint
        // was written: resume retrains that month from the first one
        kill_and_resume_matches("durable.pre_commit", 1);
    }

    #[test]
    fn injected_nan_rolls_back_and_completes_finite() {
        let _guard = crate::fault_test_lock();
        let dir = unique_dir("nan");
        let (model, cfg, split, marginals) = setup();
        // poison one training step in the first month; the health monitor
        // flags it, the month rolls back, and the LR-backed-off retry
        // (fault budget spent) trains clean
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 3,
            rules: vec![FaultRule::new("train.step", FaultKind::BitFlip).with_max_fires(1)],
        });
        let run = train_durable(model, cfg, &dir, &split, &marginals).expect("run absorbs the NaN");
        unimatch_faults::clear();
        assert!(run.rollbacks >= 1, "the poisoned month must roll back");
        assert!(
            run.model.params.global_norm().is_finite(),
            "final parameters must be finite"
        );
        assert!(run.history.iter().all(|r| r.mean_loss.is_finite()));
        let backed_off = run.history.iter().any(|r| r.lr_scale < 1.0);
        assert!(backed_off, "the LR backoff must be recorded in the history");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retries_exhausted_is_a_typed_error() {
        let _guard = crate::fault_test_lock();
        let dir = unique_dir("exhausted");
        let (model, cfg, split, marginals) = setup();
        // poison every step: no retry can ever train clean
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 3,
            rules: vec![FaultRule::new("train.step", FaultKind::BitFlip)],
        });
        let err = train_durable(model, cfg, &dir, &split, &marginals)
            .expect_err("unrecoverable month");
        unimatch_faults::clear();
        assert!(
            matches!(err, DurableError::RetriesExhausted { retries: MAX_RETRIES_PER_MONTH, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_seed_is_rejected() {
        let dir = unique_dir("seed");
        let _ = run_uninterrupted(&dir);
        let (model, mut cfg, split, marginals) = setup();
        cfg.seed ^= 0xdead;
        let err = train_durable(model, cfg, &dir, &split, &marginals).expect_err("wrong seed");
        assert!(err.to_string().contains("seed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completed_run_is_a_no_op_on_rerun() {
        let dir = unique_dir("noop");
        let first = run_uninterrupted(&dir);
        let (model, cfg, split, marginals) = setup();
        let again = train_durable(model, cfg, &dir, &split, &marginals).expect("rerun");
        assert_eq!(model_to_json(&again.model), model_to_json(&first.model));
        assert_eq!(again.stats.steps, first.stats.steps);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adam_state_round_trips_exactly() {
        let (model, cfg, split, marginals) = setup();
        let mut trainer = Trainer::try_new(model, cfg).expect("trainer");
        trainer
            .train_epochs(&split.train_month(0), &marginals, 1)
            .expect("warm up some optimizer state");
        let state = trainer.export_optimizer();
        // through the one writer and the one reader, as a month file
        let dir = unique_dir("adam");
        let path = dir.join(month_file_name(0));
        let training = TrainingState {
            month: 0,
            seed: u64::MAX - 6, // above 2^53: only a hex seed survives
            optimizer: state.clone(),
            stats: *trainer.stats(),
            lr_scale: 0.25,
            history: vec![MonthSummary { month: 0, mean_loss: 1.5, lr_scale: 0.25 }],
        };
        save_checkpoint(&trainer.model, None, Some(&training), &path).expect("save");
        let back = read_checkpoint(&path).expect("read").training.expect("training section");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.seed, training.seed);
        assert_eq!(back.history, training.history);
        assert_eq!(back.stats.loss_sum.to_bits(), training.stats.loss_sum.to_bits());
        let restored = back.optimizer;
        assert_eq!(state.t, restored.t);
        assert_eq!(state.dense.len(), restored.dense.len());
        for ((an, am, av), (bn, bm, bv)) in state.dense.iter().zip(restored.dense.iter()) {
            assert_eq!(an, bn);
            assert_eq!(am.data(), bm.data());
            assert_eq!(av.data(), bv.data());
        }
        assert_eq!(state.sparse, restored.sparse);
    }

    #[test]
    fn fit_durable_resumes_into_a_serving_model() {
        let _guard = crate::fault_test_lock();
        let log = DatasetProfile::EComp.generate(0.15, 21).filter_min_interactions(3);
        let cfg = crate::framework::UniMatchConfig {
            max_seq_len: 8,
            epochs_per_month: 1,
            ..Default::default()
        };
        let framework = crate::framework::UniMatch::new(cfg);
        let dir = unique_dir("fit");

        // kill the very first fit after its first committed month
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 8,
            rules: vec![FaultRule::new("durable.month_end", FaultKind::Crash).with_max_fires(1)],
        });
        let killed = catch_unwind(AssertUnwindSafe(|| {
            framework.fit_durable(log.clone(), &dir)
        }));
        unimatch_faults::clear();
        assert!(killed.is_err());

        let fitted = framework.fit_durable(log.clone(), &dir).expect("resume");
        let recs = fitted.recommend_items(&[1, 2, 3], 5);
        assert_eq!(recs.len(), 5);

        // and it matches the never-killed fit end to end
        let clean_dir = unique_dir("fit_clean");
        let clean = framework.fit_durable(log, &clean_dir).expect("clean fit");
        assert_eq!(model_to_json(&fitted.model), model_to_json(&clean.model));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn fit_durable_leaves_only_loadable_month_files() {
        let log = DatasetProfile::EComp.generate(0.1, 5).filter_min_interactions(3);
        let framework = crate::framework::UniMatch::new(crate::framework::UniMatchConfig {
            max_seq_len: 8,
            epochs_per_month: 1,
            ..Default::default()
        });
        let dir = unique_dir("only_months");
        let fitted = framework.fit_durable(log, &dir).expect("fit");
        let files = dir_listing(&dir);
        assert!(!files.is_empty());
        for (i, name) in files.iter().enumerate() {
            // one document kind: month_NNNN.json, numbered from the first month
            assert_eq!(*name, month_file_name(i as u32), "{files:?}");
            let (model, store, marginals) = load_checkpoint(dir.join(name)).expect(name);
            assert_eq!(store.rows(), model.config().num_items);
            assert!(marginals.is_some(), "{name} carries the training marginals");
        }
        let newest = load_checkpoint(dir.join(files.last().expect("a month"))).expect("newest").0;
        assert_eq!(model_to_json(&newest), model_to_json(&fitted.model));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Walks `keys` in order through the `training` section of the month
    /// file at `path` and flips the first digit after the last one, to
    /// another digit that keeps the JSON valid.
    fn flip_training_digit(path: &Path, keys: &[&str]) {
        let mut text = std::fs::read_to_string(path).expect("read month file");
        let mut at = text.find("\"training\":").expect("training section");
        for key in keys {
            at += text[at..].find(key).expect(key) + key.len();
        }
        let pos = at + text[at..].find(|c: char| c.is_ascii_digit()).expect("a digit");
        let digit = text.as_bytes()[pos];
        let flipped = if digit == b'9' { '8' } else { (digit + 1) as char };
        text.replace_range(pos..pos + 1, &flipped.to_string());
        std::fs::write(path, text).expect("write month file");
    }

    #[test]
    fn a_flipped_training_digit_fails_the_resume() {
        let clean_dir = unique_dir("flip_clean");
        let _ = run_uninterrupted(&clean_dir);
        let (_, newest) = newest_month_file(&clean_dir).expect("list").expect("a month");
        let cases: [&[&str]; 3] = [
            &["\"optimizer\":", "\"sparse\":", "\"m\":["], // a stored Adam moment
            &["\"lr_scale\":"],
            &["\"stats\":"],
        ];
        for keys in cases {
            let dir = unique_dir("flip");
            let path = dir.join(newest.file_name().expect("file name"));
            std::fs::copy(&newest, &path).expect("copy newest month");
            flip_training_digit(&path, keys);
            let (model, cfg, split, marginals) = setup();
            let err = train_durable(model, cfg, &dir, &split, &marginals)
                .expect_err("a corrupted training section must not resume");
            let DurableError::Io(e) = &err else { panic!("{keys:?}: not an I/O error: {err}") };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{keys:?}: {e}");
            assert!(e.to_string().contains("training section"), "{keys:?}: {e}");
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn a_parent_era_run_directory_is_a_typed_error_naming_the_file() {
        // the wrapper document and the manifest runs used to be written as
        let dir = unique_dir("parent_era");
        let (model, cfg, split, marginals) = setup();
        let wrapper = format!(
            "{{\"magic\":\"unimatch-run-month\",\"format_version\":1,\"month\":0,\"model\":{}}}",
            String::from_utf8(model_to_json(&model)).expect("utf8")
        );
        std::fs::write(dir.join("month_0000.json"), wrapper).expect("write month");
        std::fs::write(dir.join("manifest.json"), "{\"magic\":\"unimatch-run\"}").expect("write");
        let err = train_durable(model, cfg, &dir, &split, &marginals).expect_err("parent era");
        let DurableError::Io(e) = &err else { panic!("not an I/O error: {err}") };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        assert!(e.to_string().contains("month_0000.json"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
