//! One pass over one workload: a full deployment cycle, untraced (the
//! end-to-end metrics) or traced (the per-layer metrics).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use unimatch_ann::RowFormat;
use unimatch_core::{RerankConfig, RetrieverKind, UniMatch, UniMatchConfig};
use unimatch_data::json::Json;
use unimatch_rerank::BusinessRules;

use crate::inputs::{self, Corpus};
use crate::spec::{Deploy, Workload};
use crate::trace::Recorder;
use crate::{offline, online, train};

/// What one invocation was asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure, split by the workload's shares.
    pub seconds: f64,
    /// Tiny corpus and minimum repetition counts: exercises every code
    /// path and emits every metric, measures nothing worth keeping.
    pub smoke: bool,
    /// Directory for result files and the run's scratch checkpoint.
    pub out: PathBuf,
}

impl Options {
    /// Corpus scale of the `Large` profile.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }

    /// Seconds of the train, online and offline phases.
    pub fn budgets(&self) -> [f64; 3] {
        self.workload.shares.map(|share| share * self.seconds)
    }

    /// Rounds the untraced pass cuts its seconds into.
    pub fn rounds(&self) -> usize {
        if self.smoke {
            2
        } else {
            10
        }
    }
}

/// What a pass measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: HTTP requests, train repetitions, offline
    /// passes and output checks.
    pub attempted: u64,
    /// Operations failed: non-200 answers, transport errors, check
    /// mismatches.
    pub failed: u64,
    /// One line per failed check; any entry fails the run.
    pub failures: Vec<String>,
    /// Conditions worth a reader's attention that do not fail the run.
    pub warnings: Vec<String>,
    /// Sample counts and sub-window values, printed beside the metrics.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    /// Stores a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one output check and records `message` if it failed.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(message());
        }
    }

    /// Adds a free-form note.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.insert(key.into(), value.into());
    }
}

/// A phase's seconds, spent evenly over the rounds of a pass although
/// its repetitions do not divide them: a round repeats the phase until
/// the round's share of the budget is spent, and not at all when earlier
/// rounds already overshot that far.
#[derive(Debug)]
pub struct Budget {
    total_s: f64,
    spent_s: f64,
    reps: usize,
}

impl Budget {
    /// `total_s` seconds for the whole pass.
    pub fn new(total_s: f64) -> Budget {
        Budget {
            total_s,
            spent_s: 0.0,
            reps: 0,
        }
    }

    /// Whether another repetition belongs to the rounds up to `share` of
    /// the pass: always until `at_least` have run, then while half of a
    /// typical repetition still fits.
    pub fn wants(&self, share: f64, at_least: usize) -> bool {
        self.reps < at_least
            || self.spent_s + 0.5 * self.spent_s / self.reps.max(1) as f64 <= share * self.total_s
    }

    /// Counts one repetition of `seconds`.
    pub fn record(&mut self, seconds: f64) {
        self.spent_s += seconds;
        self.reps += 1;
    }
}

/// The framework every cycle trains with: the default configuration with
/// the exact retriever, so `fit`/`resume` time is the same on every
/// workload and no approximate index is built just to be thrown away.
pub fn train_framework(seed: u64) -> UniMatch {
    UniMatch::new(UniMatchConfig {
        retriever: RetrieverKind::Exact,
        seed,
        ..Default::default()
    })
}

/// The framework a deployment is loaded with.
pub fn deploy_framework(deploy: &Deploy, store: RowFormat, seed: u64, num_items: u32) -> UniMatch {
    let rules = (!deploy.chain.is_empty()).then(|| {
        let doc =
            Json::parse(inputs::rules_json(num_items).as_bytes()).expect("rules sidecar json");
        Arc::new(BusinessRules::parse(&doc).expect("rules sidecar"))
    });
    UniMatch::new(UniMatchConfig {
        retriever: deploy.retriever,
        shards: deploy.shards,
        rerank: RerankConfig {
            spec: deploy.chain.to_string(),
            rules,
        },
        store,
        seed,
        ..Default::default()
    })
}

/// A scratch directory under `out`, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(opts: &Options, traced: bool) -> std::io::Result<Scratch> {
        let dir = opts.out.join(format!(
            "scratch-{}-{}-{}-{}",
            opts.workload.name,
            opts.seed,
            u8::from(traced),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one pass. `traced` turns `unimatch_obs` and the span recorder on
/// and reports the per-layer metrics; otherwise both stay off (as in
/// `unimatch-cli serve` without `--obs`) and the end-to-end metrics are
/// reported.
pub fn run_pass(opts: &Options, traced: bool, rec: &Recorder) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let scratch = Scratch::new(opts, traced)?;
    let ckpt = scratch.0.join("model.json");
    unimatch_obs::set_enabled(traced);

    let (corpus, generate_us): (Corpus, f64) = rec.timed("data.generate", 0, None, || {
        inputs::corpus(opts.seed, opts.scale())
    });
    if traced {
        out.set("data.generate_ms", generate_us / 1e3);
        train::traced(opts, &corpus, &ckpt, rec, &mut out)?;
        online::traced(opts, &corpus, &ckpt, rec, &mut out)?;
        offline::traced(opts, &corpus, &ckpt, rec, &mut out)?;
        // the throughput of the two batch phases, repeated as in the
        // untraced pass; the online phase had its traced intervals above
        rounds(opts, &corpus, &ckpt, None, &mut out)?;
    } else {
        let mut serving = online::OnlinePhase::new(opts, &corpus);
        rounds(opts, &corpus, &ckpt, Some(&mut serving), &mut out)?;
        serving.finish(opts, &mut out)?;
        out.set("peak_rss_mb", peak_rss_mb());
    }
    unimatch_obs::set_enabled(false);
    Ok(out)
}

/// The measured seconds, cut into rounds; every round runs a slice of
/// each phase — train, online (when `serving` is given), offline — in the
/// workload's shares. This machine (and any shared one) has slow spells
/// that last seconds; with every metric sampled in every round, a short
/// spell spoils a minority of its samples, which the medians ignore.
fn rounds(
    opts: &Options,
    corpus: &Corpus,
    ckpt: &std::path::Path,
    mut serving: Option<&mut online::OnlinePhase>,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let rounds = opts.rounds();
    let [train_s, online_s, offline_s] = opts.budgets();
    let mut training = train::TrainPhase::new(opts, corpus, train_s);
    let mut campaign = None;
    for round in 0..rounds {
        let share = (round + 1) as f64 / rounds as f64;
        training.slice(opts, corpus, ckpt, share, out)?;
        if let Some(serving) = serving.as_deref_mut() {
            if serving.wants_set_up() {
                serving.deploy(corpus, ckpt)?;
            }
            serving.slice(opts, round as u64, online_s / rounds as f64, out);
        }
        if campaign.is_none() {
            campaign = Some(offline::OfflinePhase::new(opts, corpus, ckpt, offline_s)?);
        }
        campaign.as_mut().expect("just built").slice(share, out);
    }
    training.finish(opts, out);
    campaign.expect("at least one round ran").finish(opts, out);
    Ok(())
}
