//! Crash-safe durable incremental training.
//!
//! The paper's production story (Sec. III-B3) is a *monthly* incremental
//! update: each cycle consumes one month of data from last cycle's
//! parameters. A long multi-month (re)build of that chain is exactly the
//! kind of job that dies halfway — node preemption, OOM, `kill -9` — and
//! restarting from scratch forfeits the 1/12 cost factor the schedule
//! exists to buy. This module makes the chain durable:
//!
//! * **Per-month checkpoints, committed atomically.** After every clean
//!   month the model document (format v2, checksummed), the full Adam
//!   state, and the cumulative [`TrainStats`] are written to a per-month
//!   file via tmp+rename, then recorded in a `manifest.json` (also
//!   tmp+rename). A crash at *any* instant leaves the run directory
//!   describing a consistent prefix of the run.
//! * **Exact resume.** [`train_durable`] reads the manifest, loads the
//!   last committed month's checkpoint (with bounded retry for transient
//!   I/O), and continues from the following month. Because the shuffling
//!   RNG is reseeded per month from `(seed, month, attempt)` and the Adam
//!   state round-trips bit-exactly, a killed-and-resumed run produces the
//!   **same parameters** as an uninterrupted one.
//! * **Health rollback.** Each month trains under a fresh
//!   [`unimatch_train::HealthMonitor`]; a non-finite loss or a
//!   gradient-norm spike rolls
//!   the month back to its starting snapshot (parameters *and* optimizer
//!   state), multiplies the learning rate by `lr_backoff`, and retries
//!   within a bounded budget. The backoff survives restarts — the scale
//!   is part of the manifest.
//!
//! Fault seams for the kill tests: `durable.pre_commit` crashes after a
//! month trained but *before* its checkpoint is written (resume retrains
//! the month); `durable.month_end` crashes after the manifest commit
//! (resume starts at the next month). Counters surface through
//! `unimatch-obs`: `unimatch_durable_rollbacks_total`,
//! `unimatch_durable_lr_backoffs_total`,
//! `unimatch_durable_months_resumed_total`.

use crate::persist::{
    bad, field, model_from_json_value, model_to_json_value, retry_load, tensor_from_json,
    tensor_to_json, usize_field, write_atomic, RetryPolicy,
};
use crate::prepare::PreparedData;
use std::io;
use std::path::{Path, PathBuf};
use unimatch_data::json::Json;
use unimatch_data::{Marginals, TemporalSplit};
use unimatch_eval::UserPool;
use unimatch_faults::FaultPoint;
use unimatch_models::TwoTower;
use unimatch_obs as obs;
use unimatch_train::{
    AdamState, HealthConfig, TrainConfig, TrainError, TrainStats, Trainer,
};

const MANIFEST_MAGIC: &str = "unimatch-run";
const MONTH_MAGIC: &str = "unimatch-run-month";
const MANIFEST_VERSION: u64 = 1;

const PRE_COMMIT_FAULT: FaultPoint = FaultPoint::new("durable.pre_commit");
const MONTH_END_FAULT: FaultPoint = FaultPoint::new("durable.month_end");

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

/// Durability and recovery knobs.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Directory holding `manifest.json` and the per-month checkpoints.
    pub run_dir: PathBuf,
    /// Health thresholds each month trains under.
    pub health: HealthConfig,
    /// Rollback retries allowed per month before the run gives up.
    pub max_retries_per_month: u32,
    /// Learning-rate multiplier applied at each rollback (`0 < f < 1`).
    pub lr_backoff: f32,
    /// Retry policy for reading checkpoints back (transient I/O only).
    pub retry: RetryPolicy,
}

impl DurableConfig {
    /// Defaults around a run directory: default health thresholds, two
    /// retries per month, halve the LR on rollback.
    pub fn new(run_dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            run_dir: run_dir.into(),
            health: HealthConfig::default(),
            max_retries_per_month: 2,
            lr_backoff: 0.5,
            retry: RetryPolicy::default(),
        }
    }
}

/// One committed month in the manifest.
#[derive(Clone, Debug)]
pub struct MonthRecord {
    /// The training month this record commits.
    pub month: u32,
    /// Checkpoint file name, relative to the run directory.
    pub file: String,
    /// Mean loss over the month's epochs.
    pub mean_loss: f32,
    /// LR scale in effect when the month finished (product of backoffs).
    pub lr_scale: f32,
    /// Cumulative consumption stats through this month.
    pub stats: TrainStats,
}

/// The run manifest: which months are committed, under which seed.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// The training seed the run was started with; a resume under a
    /// different seed is rejected rather than silently diverging.
    pub seed: u64,
    /// Committed months, in training order.
    pub months: Vec<MonthRecord>,
}

/// A completed durable run.
#[derive(Debug)]
pub struct DurableRun {
    /// The final trained model.
    pub model: TwoTower,
    /// Cumulative consumption stats (identical to an uninterrupted run).
    pub stats: TrainStats,
    /// The manifest as committed on disk.
    pub manifest: RunManifest,
    /// The month the run resumed after, if it picked up existing state.
    pub resumed_after: Option<u32>,
    /// Health rollbacks performed during this invocation.
    pub rollbacks: u32,
}

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

fn stats_to_json(s: &TrainStats) -> Json {
    Json::obj(vec![
        ("steps", Json::int(s.steps as usize)),
        ("records_consumed", Json::int(s.records_consumed as usize)),
        ("loss_sum", Json::Num(s.loss_sum)),
    ])
}

fn stats_from_json(v: &Json) -> io::Result<TrainStats> {
    Ok(TrainStats {
        steps: usize_field(v, "steps")? as u64,
        records_consumed: usize_field(v, "records_consumed")? as u64,
        loss_sum: field(v, "loss_sum")?
            .as_f64()
            .ok_or_else(|| bad("loss_sum is not a number"))?,
    })
}

fn f32_field(v: &Json, key: &str) -> io::Result<f32> {
    field(v, key)?
        .as_f32()
        .ok_or_else(|| bad(format!("field {key} is not a number")))
}

fn adam_state_to_json(s: &AdamState) -> Json {
    let dense = Json::Arr(
        s.dense
            .iter()
            .map(|(name, m, v)| {
                Json::obj(vec![
                    ("name", Json::str(name.clone())),
                    ("m", tensor_to_json(m)),
                    ("v", tensor_to_json(v)),
                ])
            })
            .collect(),
    );
    let sparse = Json::Arr(
        s.sparse
            .iter()
            .map(|(name, rows)| {
                let rows = Json::Arr(
                    rows.iter()
                        .map(|(row, m, v)| {
                            Json::obj(vec![
                                ("row", Json::int(*row as usize)),
                                ("m", Json::Arr(m.iter().map(|&x| Json::F32(x)).collect())),
                                ("v", Json::Arr(v.iter().map(|&x| Json::F32(x)).collect())),
                            ])
                        })
                        .collect(),
                );
                Json::obj(vec![("name", Json::str(name.clone())), ("rows", rows)])
            })
            .collect(),
    );
    Json::obj(vec![
        ("t", Json::int(s.t as usize)),
        ("dense", dense),
        ("sparse", sparse),
    ])
}

fn f32_vec_from_json(v: &Json, what: &str) -> io::Result<Vec<f32>> {
    v.as_array()
        .ok_or_else(|| bad(format!("{what} is not an array")))?
        .iter()
        .map(|x| x.as_f32().ok_or_else(|| bad(format!("bad element in {what}"))))
        .collect()
}

fn adam_state_from_json(v: &Json) -> io::Result<AdamState> {
    let dense = field(v, "dense")?
        .as_array()
        .ok_or_else(|| bad("dense state is not an array"))?
        .iter()
        .map(|e| {
            Ok((
                field(e, "name")?
                    .as_str()
                    .ok_or_else(|| bad("dense state name is not a string"))?
                    .to_string(),
                tensor_from_json(field(e, "m")?)?,
                tensor_from_json(field(e, "v")?)?,
            ))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let sparse = field(v, "sparse")?
        .as_array()
        .ok_or_else(|| bad("sparse state is not an array"))?
        .iter()
        .map(|e| {
            let rows = field(e, "rows")?
                .as_array()
                .ok_or_else(|| bad("sparse rows is not an array"))?
                .iter()
                .map(|r| {
                    Ok((
                        usize_field(r, "row")? as u32,
                        f32_vec_from_json(field(r, "m")?, "sparse m")?,
                        f32_vec_from_json(field(r, "v")?, "sparse v")?,
                    ))
                })
                .collect::<io::Result<Vec<_>>>()?;
            Ok((
                field(e, "name")?
                    .as_str()
                    .ok_or_else(|| bad("sparse state name is not a string"))?
                    .to_string(),
                rows,
            ))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(AdamState { t: usize_field(v, "t")? as u64, dense, sparse })
}

fn manifest_to_json(m: &RunManifest) -> Json {
    Json::obj(vec![
        ("magic", Json::str(MANIFEST_MAGIC)),
        ("format_version", Json::int(MANIFEST_VERSION as usize)),
        // the seed is written as hex so u64 values above 2^53 survive the
        // JSON number path exactly
        ("seed", Json::str(format!("{:016x}", m.seed))),
        (
            "months",
            Json::Arr(
                m.months
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("month", Json::int(r.month as usize)),
                            ("file", Json::str(r.file.clone())),
                            ("mean_loss", Json::F32(r.mean_loss)),
                            ("lr_scale", Json::F32(r.lr_scale)),
                            ("stats", stats_to_json(&r.stats)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn manifest_from_json(doc: &Json) -> io::Result<RunManifest> {
    let magic = field(doc, "magic")?
        .as_str()
        .ok_or_else(|| bad("manifest magic is not a string"))?;
    if magic != MANIFEST_MAGIC {
        return Err(bad(format!("not a unimatch run manifest (magic `{magic}`)")));
    }
    let version = usize_field(doc, "format_version")? as u64;
    if version != MANIFEST_VERSION {
        return Err(bad(format!("unsupported manifest version {version}")));
    }
    let seed_hex = field(doc, "seed")?
        .as_str()
        .ok_or_else(|| bad("manifest seed is not a string"))?;
    let seed = u64::from_str_radix(seed_hex, 16)
        .map_err(|_| bad(format!("manifest seed `{seed_hex}` is not hex")))?;
    let months = field(doc, "months")?
        .as_array()
        .ok_or_else(|| bad("manifest months is not an array"))?
        .iter()
        .map(|r| {
            Ok(MonthRecord {
                month: usize_field(r, "month")? as u32,
                file: field(r, "file")?
                    .as_str()
                    .ok_or_else(|| bad("month file is not a string"))?
                    .to_string(),
                mean_loss: f32_field(r, "mean_loss")?,
                lr_scale: f32_field(r, "lr_scale")?,
                stats: stats_from_json(field(r, "stats")?)?,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(RunManifest { seed, months })
}

// ---------------------------------------------------------------------------
// files
// ---------------------------------------------------------------------------

fn month_file_name(month: u32) -> String {
    format!("month_{month:04}.json")
}

fn write_month_checkpoint(
    dir: &Path,
    month: u32,
    model: &TwoTower,
    optimizer: &AdamState,
    stats: &TrainStats,
    lr_scale: f32,
) -> io::Result<String> {
    let file = month_file_name(month);
    let doc = Json::obj(vec![
        ("magic", Json::str(MONTH_MAGIC)),
        ("format_version", Json::int(MANIFEST_VERSION as usize)),
        ("month", Json::int(month as usize)),
        ("model", model_to_json_value(model)),
        ("optimizer", adam_state_to_json(optimizer)),
        ("stats", stats_to_json(stats)),
        ("lr_scale", Json::F32(lr_scale)),
    ]);
    write_atomic(&dir.join(&file), &doc.to_bytes())?;
    Ok(file)
}

/// A month checkpoint read back from disk, fully validated.
struct MonthCheckpointFile {
    model: TwoTower,
    optimizer: AdamState,
    stats: TrainStats,
    lr_scale: f32,
}

fn read_month_checkpoint(
    dir: &Path,
    record: &MonthRecord,
    policy: &RetryPolicy,
) -> io::Result<MonthCheckpointFile> {
    let bytes = retry_load(policy, || std::fs::read(dir.join(&record.file)))?;
    let doc = Json::parse(&bytes).map_err(|e| bad(e.to_string()))?;
    let magic = field(&doc, "magic")?
        .as_str()
        .ok_or_else(|| bad("month checkpoint magic is not a string"))?;
    if magic != MONTH_MAGIC {
        return Err(bad(format!("not a month checkpoint (magic `{magic}`)")));
    }
    let month = usize_field(&doc, "month")? as u32;
    if month != record.month {
        return Err(bad(format!(
            "month checkpoint {} holds month {month}, manifest says {}",
            record.file, record.month
        )));
    }
    // model_from_json_value runs the full v2 validation stack: magic,
    // architecture match, finiteness, value checksum
    let model = model_from_json_value(field(&doc, "model")?)?;
    let optimizer = adam_state_from_json(field(&doc, "optimizer")?)?;
    let stats = stats_from_json(field(&doc, "stats")?)?;
    let lr_scale = f32_field(&doc, "lr_scale")?;
    if !lr_scale.is_finite() || lr_scale <= 0.0 {
        return Err(bad(format!("month checkpoint lr_scale {lr_scale} is not usable")));
    }
    Ok(MonthCheckpointFile { model, optimizer, stats, lr_scale })
}

/// Loads and validates the manifest in `dir`, or `None` if the run is
/// fresh (no manifest file yet).
pub fn load_manifest(dir: &Path) -> io::Result<Option<RunManifest>> {
    let path = dir.join("manifest.json");
    if !path.exists() {
        return Ok(None);
    }
    let bytes = std::fs::read(&path)?;
    let doc = Json::parse(&bytes).map_err(|e| bad(e.to_string()))?;
    Ok(Some(manifest_from_json(&doc)?))
}

// ---------------------------------------------------------------------------
// the runner
// ---------------------------------------------------------------------------

/// The per-month shuffling seed: a pure function of `(run seed, month,
/// attempt)`, so a resumed run replays exactly the batch sequence the
/// uninterrupted run saw — and a rollback retry sees a *different* (but
/// still deterministic) shuffle.
fn month_seed(seed: u64, month: u32, attempt: u32) -> u64 {
    seed ^ (month as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (attempt as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)
}

fn durable_counter(name: &'static str) {
    if obs::enabled() {
        obs::registry::counter(name).inc();
    }
}

/// Runs (or resumes) a durable incremental training over `split`.
///
/// `model` is the freshly initialized model used only when the run
/// directory holds no prior state; on resume the checkpointed model wins.
/// The returned [`DurableRun`] is byte-for-byte equivalent to what an
/// uninterrupted run would have produced.
pub fn train_durable(
    model: TwoTower,
    cfg: TrainConfig,
    durable: &DurableConfig,
    split: &TemporalSplit,
    marginals: &Marginals,
) -> Result<DurableRun, DurableError> {
    cfg.validate()?;
    std::fs::create_dir_all(&durable.run_dir)?;
    let base_lr = cfg.optimizer.lr;

    let mut manifest = match load_manifest(&durable.run_dir)? {
        Some(m) => {
            if m.seed != cfg.seed {
                return Err(DurableError::Io(bad(format!(
                    "run directory belongs to seed {:016x}, config has {:016x}",
                    m.seed, cfg.seed
                ))));
            }
            m
        }
        None => RunManifest { seed: cfg.seed, months: Vec::new() },
    };

    let resumed_after = manifest.months.last().map(|r| r.month);
    let mut lr_scale = 1.0f32;
    let mut trainer = match manifest.months.last() {
        Some(last) => {
            let cp = read_month_checkpoint(&durable.run_dir, last, &durable.retry)?;
            lr_scale = cp.lr_scale;
            let mut t = Trainer::try_new(cp.model, cfg.clone())?;
            t.import_optimizer(&cp.optimizer)?;
            t.restore_stats(cp.stats);
            t.set_lr(base_lr * lr_scale);
            durable_counter("unimatch_durable_months_resumed_total");
            t
        }
        None => Trainer::try_new(model, cfg.clone())?,
    };

    let mut rollbacks = 0u32;
    let months: Vec<u32> = split
        .train_months()
        .into_iter()
        .filter(|&m| resumed_after.is_none_or(|after| m > after))
        .collect();

    for month in months {
        let month_samples = split.train_month(month);
        let mut attempt = 0u32;
        loop {
            // snapshot the month's starting state so a dirty month can be
            // rolled back exactly
            let params_snapshot = trainer.model.params.clone();
            let opt_snapshot = trainer.export_optimizer();
            let stats_snapshot = *trainer.stats();

            trainer.reseed(month_seed(cfg.seed, month, attempt));
            // a fresh monitor per attempt: warmup and the EMA baseline
            // restart with the month, which also keeps a resumed run's
            // health state identical to an uninterrupted one's
            trainer.enable_health(durable.health);

            let losses =
                trainer.train_epochs(&month_samples, marginals, cfg.epochs_per_month)?;
            let report = trainer.health_report().unwrap_or_default();

            if report.is_clean() {
                let mean_loss =
                    losses.iter().copied().sum::<f32>() / losses.len().max(1) as f32;
                // kill window 1: the month is trained but nothing is
                // committed — resume retrains this month from the prior one
                PRE_COMMIT_FAULT.crash_point();
                let optimizer = trainer.export_optimizer();
                let file = write_month_checkpoint(
                    &durable.run_dir,
                    month,
                    &trainer.model,
                    &optimizer,
                    trainer.stats(),
                    lr_scale,
                )?;
                manifest.months.push(MonthRecord {
                    month,
                    file,
                    mean_loss,
                    lr_scale,
                    stats: *trainer.stats(),
                });
                write_atomic(
                    &durable.run_dir.join("manifest.json"),
                    &manifest_to_json(&manifest).to_bytes(),
                )?;
                // kill window 2: the month is fully committed — resume
                // starts at the next month
                MONTH_END_FAULT.crash_point();
                break;
            }

            // unhealthy month: roll back to the snapshot and retry with a
            // reduced learning rate
            if attempt >= durable.max_retries_per_month {
                return Err(DurableError::RetriesExhausted { month, retries: attempt });
            }
            trainer.model.params = params_snapshot;
            trainer.import_optimizer(&opt_snapshot)?;
            trainer.restore_stats(stats_snapshot);
            lr_scale *= durable.lr_backoff;
            trainer.set_lr(base_lr * lr_scale);
            rollbacks += 1;
            attempt += 1;
            durable_counter("unimatch_durable_rollbacks_total");
            durable_counter("unimatch_durable_lr_backoffs_total");
        }
    }

    Ok(DurableRun {
        stats: *trainer.stats(),
        model: trainer.model,
        manifest,
        resumed_after,
        rollbacks,
    })
}

impl crate::framework::UniMatch {
    /// [`crate::framework::UniMatch::fit`], made durable: training state
    /// is checkpointed per month under `run_dir`, so a killed process can
    /// call `fit_durable` again with the same arguments and continue from
    /// the last committed month — producing the same model an
    /// uninterrupted run would have.
    pub fn fit_durable(
        &self,
        log: unimatch_data::InteractionLog,
        durable: &DurableConfig,
    ) -> Result<crate::framework::FittedUniMatch, DurableError> {
        let cfg = &self.config;
        cfg.parallelism.install_global();
        let prepared = PreparedData::from_log(log, cfg.max_seq_len);
        let run = train_durable(
            self.new_model(prepared.num_items()),
            self.train_config(cfg.max_seq_len),
            durable,
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
    use crate::persist::model_to_json;
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
        train_durable(model, cfg, &DurableConfig::new(dir), &split, &marginals)
            .expect("uninterrupted run")
    }

    #[test]
    fn fresh_run_commits_every_month() {
        let dir = unique_dir("fresh");
        let run = run_uninterrupted(&dir);
        let (_, _, split, _) = setup();
        assert_eq!(run.manifest.months.len(), split.train_months().len());
        assert!(run.resumed_after.is_none());
        assert_eq!(run.rollbacks, 0);
        for r in &run.manifest.months {
            assert!(dir.join(&r.file).exists(), "{} missing", r.file);
            assert!(r.mean_loss.is_finite());
        }
        // the manifest on disk round-trips to the in-memory one
        let on_disk = load_manifest(&dir).expect("read").expect("present");
        assert_eq!(on_disk.seed, run.manifest.seed);
        assert_eq!(on_disk.months.len(), run.manifest.months.len());
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
            train_durable(model, cfg, &DurableConfig::new(&dir), &split, &marginals)
        }));
        unimatch_faults::clear();
        assert!(killed.is_err(), "the injected crash must kill the run");
        let partial = load_manifest(&dir).expect("read").expect("manifest survives the kill");
        assert!(
            partial.months.len() < split.train_months().len(),
            "the kill must leave the run incomplete"
        );

        // resume: a fresh process would do exactly this call
        let (model, cfg, split, marginals) = setup();
        let resumed =
            train_durable(model, cfg, &DurableConfig::new(&dir), &split, &marginals)
                .expect("resume");
        assert!(resumed.resumed_after.is_some(), "must pick up from the manifest");
        assert_eq!(
            model_to_json(&resumed.model),
            model_to_json(&baseline.model),
            "resumed parameters must match the uninterrupted run bit for bit"
        );
        assert_eq!(resumed.stats.steps, baseline.stats.steps);
        assert_eq!(resumed.stats.records_consumed, baseline.stats.records_consumed);
        assert_eq!(resumed.stats.loss_sum, baseline.stats.loss_sum);
        assert_eq!(resumed.manifest.months.len(), baseline.manifest.months.len());
        std::fs::remove_dir_all(&baseline_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_between_months_resumes_equivalently() {
        // crash after the second month's manifest commit
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
        let run = train_durable(model, cfg, &DurableConfig::new(&dir), &split, &marginals)
            .expect("run absorbs the NaN");
        unimatch_faults::clear();
        assert!(run.rollbacks >= 1, "the poisoned month must roll back");
        assert!(
            run.model.params.global_norm().is_finite(),
            "final parameters must be finite"
        );
        assert!(run.manifest.months.iter().all(|r| r.mean_loss.is_finite()));
        let backed_off = run.manifest.months.iter().any(|r| r.lr_scale < 1.0);
        assert!(backed_off, "the LR backoff must be recorded in the manifest");
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
        let durable = DurableConfig { max_retries_per_month: 1, ..DurableConfig::new(&dir) };
        let err = train_durable(model, cfg, &durable, &split, &marginals)
            .expect_err("unrecoverable month");
        unimatch_faults::clear();
        assert!(
            matches!(err, DurableError::RetriesExhausted { retries: 1, .. }),
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
        let err = train_durable(model, cfg, &DurableConfig::new(&dir), &split, &marginals)
            .expect_err("wrong seed");
        assert!(err.to_string().contains("seed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completed_run_is_a_no_op_on_rerun() {
        let dir = unique_dir("noop");
        let first = run_uninterrupted(&dir);
        let (model, cfg, split, marginals) = setup();
        let again = train_durable(model, cfg, &DurableConfig::new(&dir), &split, &marginals)
            .expect("rerun");
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
        let restored = adam_state_from_json(&Json::parse(
            &adam_state_to_json(&state).to_bytes(),
        )
        .expect("parse"))
        .expect("decode");
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
        let durable = DurableConfig::new(&dir);

        // kill the very first fit after its first committed month
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 8,
            rules: vec![FaultRule::new("durable.month_end", FaultKind::Crash).with_max_fires(1)],
        });
        let killed = catch_unwind(AssertUnwindSafe(|| {
            framework.fit_durable(log.clone(), &durable)
        }));
        unimatch_faults::clear();
        assert!(killed.is_err());

        let fitted = framework.fit_durable(log.clone(), &durable).expect("resume");
        let recs = fitted.recommend_items(&[1, 2, 3], 5);
        assert_eq!(recs.len(), 5);

        // and it matches the never-killed fit end to end
        let clean_dir = unique_dir("fit_clean");
        let clean = framework
            .fit_durable(log, &DurableConfig::new(&clean_dir))
            .expect("clean fit");
        assert_eq!(model_to_json(&fitted.model), model_to_json(&clean.model));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&clean_dir).ok();
    }
}
