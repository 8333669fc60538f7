//! The online-serving handle: an atomically hot-swappable fitted model.
//!
//! The paper's deployment (Sec. III-B3) retrains incrementally every month
//! and must roll the new checkpoint into the serving fleet without
//! dropping traffic. [`ModelHandle`] is the primitive that makes the swap
//! safe: the current [`ServingState`] (model + both ANN indexes + user
//! pool) lives behind an `RwLock<Arc<…>>`; readers clone the `Arc` and
//! answer any number of queries against that immutable snapshot, while a
//! reload builds the *next* state entirely outside the lock and swaps the
//! pointer in one short write section. In-flight requests keep the old
//! snapshot alive until they finish — a reload never invalidates work
//! already admitted.

use crate::framework::{FittedUniMatch, UniMatch};
use crate::persist::{load_checkpoint, retry_load, RetryPolicy};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use unimatch_data::InteractionLog;

/// One immutable serving snapshot: everything needed to answer queries.
pub struct ServingState {
    /// The fitted model with both serving indexes.
    pub fitted: FittedUniMatch,
    /// Monotonic version, starting at 1; each successful reload bumps it.
    pub version: u64,
    /// The checkpoint file this state was loaded from.
    pub checkpoint: PathBuf,
}

/// A hot-swappable handle to the current [`ServingState`].
///
/// The handle owns the interaction log used to rebuild the user pool and
/// indexes on reload (new checkpoints reuse the same serving log; new
/// *data* ships with the next full deployment).
pub struct ModelHandle {
    framework: UniMatch,
    log: InteractionLog,
    state: RwLock<Arc<ServingState>>,
    next_version: AtomicU64,
}

impl ModelHandle {
    /// Loads `checkpoint` and builds the initial serving state over `log`
    /// (already filtered / prepared to the caller's taste). The model's
    /// shape (`embed_dim`, `max_seq_len`, extractor, aggregator) comes
    /// from the checkpoint itself, so a handle can serve any
    /// architecture the trainer produced.
    pub fn from_checkpoint(
        framework: UniMatch,
        checkpoint: impl AsRef<Path>,
        log: InteractionLog,
    ) -> io::Result<ModelHandle> {
        let checkpoint = checkpoint.as_ref().to_path_buf();
        let fitted = load_fitted(&framework, &log, &checkpoint)?;
        Ok(ModelHandle {
            framework,
            log,
            state: RwLock::new(Arc::new(ServingState { fitted, version: 1, checkpoint })),
            next_version: AtomicU64::new(2),
        })
    }

    /// The current serving snapshot. Cheap (one `Arc` clone under a read
    /// lock); hold the returned `Arc` for the duration of a batch so every
    /// request in it is answered by one consistent model version.
    pub fn current(&self) -> Arc<ServingState> {
        self.state.read().expect("serving state lock poisoned").clone()
    }

    /// The version of the currently served snapshot.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// Atomically swaps in a new checkpoint — `path`, or the currently
    /// served checkpoint file re-read when `None` (the trainer overwrote it
    /// in place via the atomic [`crate::persist::save_model`]).
    ///
    /// The new model is loaded, validated against the serving log, and its
    /// indexes are rebuilt entirely before the swap; concurrent readers are
    /// blocked only for the pointer exchange. Transient I/O failures during
    /// the load are retried with bounded backoff
    /// ([`crate::persist::RetryPolicy`]); corrupt or missing checkpoints
    /// fail fast. On any error the previous state keeps serving untouched.
    pub fn reload(&self, path: Option<&Path>) -> io::Result<Arc<ServingState>> {
        let checkpoint = match path {
            Some(p) => p.to_path_buf(),
            None => self.current().checkpoint.clone(),
        };
        let fitted = load_fitted(&self.framework, &self.log, &checkpoint)?;
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(ServingState { fitted, version, checkpoint });
        *self.state.write().expect("serving state lock poisoned") = state.clone();
        Ok(state)
    }
}

/// Loads `checkpoint` (transient I/O failures retried with bounded
/// backoff), validates it against the serving log and the rerank rules,
/// and builds the serving indexes around it. The deployment takes its
/// shape from the model, so any trained architecture can be served under
/// any configuration. The f32 item store the loader returns alongside
/// the model is indexed directly — item inference runs once per load,
/// inside the loader — or re-encoded once into the configured format.
fn load_fitted(
    framework: &UniMatch,
    log: &InteractionLog,
    checkpoint: &Path,
) -> io::Result<FittedUniMatch> {
    let (model, item_store, marginals) =
        retry_load(&RetryPolicy::default(), || load_checkpoint(checkpoint))?;
    if (log.num_items() as usize) > model.config().num_items {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint {} serves {} items but the log references {}",
                checkpoint.display(),
                model.config().num_items,
                log.num_items()
            ),
        ));
    }
    // The configured business rules must describe this checkpoint's item
    // vocabulary: a rule referencing an item the model cannot serve means
    // the checkpoint and the rules sidecar are out of sync, and silently
    // ignoring the rule would un-filter items an operator meant to block.
    // Failing here keeps the previous state serving untouched.
    if let Some(rules) = &framework.config.rerank.rules {
        if let Some(max) = rules.max_item_id() {
            if (max as usize) >= model.config().num_items {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint {} serves {} items but the rerank rules reference item {}",
                        checkpoint.display(),
                        model.config().num_items,
                        max
                    ),
                ));
            }
        }
    }
    Ok(framework.serve_with_store_and_marginals(model, log, item_store, marginals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::save_model;
    use crate::UniMatchConfig;
    use unimatch_data::DatasetProfile;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("unimatch_serving_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn reload_swaps_versions_and_results() {
        let dir = tmp_dir("reload");
        let log = DatasetProfile::EComp.generate(0.12, 5).filter_min_interactions(3);
        let cfg = UniMatchConfig { max_seq_len: 8, epochs_per_month: 1, ..Default::default() };
        let a = UniMatch::new(cfg.clone()).fit(log.clone());
        let cfg_b = UniMatchConfig { seed: 99, ..cfg.clone() };
        let b = UniMatch::new(cfg_b).fit(log.clone());

        let path_a = dir.join("a.json");
        let path_b = dir.join("b.json");
        save_model(&a.model, &path_a).expect("save a");
        save_model(&b.model, &path_b).expect("save b");

        let handle =
            ModelHandle::from_checkpoint(UniMatch::new(cfg), &path_a, log).expect("load a");
        assert_eq!(handle.version(), 1);
        let before = handle.current();
        let recs_a = before.fitted.recommend_items(&[1, 2, 3], 5);
        assert_eq!(recs_a, a.recommend_items(&[1, 2, 3], 5));

        let after = handle.reload(Some(&path_b)).expect("reload b");
        assert_eq!(after.version, 2);
        assert_eq!(handle.version(), 2);
        // the pre-reload snapshot still answers consistently
        assert_eq!(before.fitted.recommend_items(&[1, 2, 3], 5), recs_a);
        // and the new snapshot serves the new model
        assert_eq!(
            handle.current().fitted.recommend_items(&[1, 2, 3], 5),
            b.recommend_items(&[1, 2, 3], 5)
        );

        // a missing file must not disturb the served state
        assert!(handle.reload(Some(Path::new("/nonexistent/x.json"))).is_err());
        assert_eq!(handle.version(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
