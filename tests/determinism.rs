//! Determinism audit for the full training pipeline.
//!
//! Three guarantees, checked on serialized checkpoint bytes (not just
//! eval numbers, which can agree by accident):
//!
//! 1. **Seed determinism** — two `UniMatch::fit` runs with the same config
//!    and data produce byte-identical checkpoints.
//! 2. **Observer effect** — enabling the observability layer must not
//!    change a single byte of the trained model. Instrumentation only
//!    reads state (timers, counters, gradient norms after `backward`); it
//!    never consumes RNG or reorders float ops. A regression here would
//!    silently invalidate every benchmark taken with metrics on.
//! 3. **Store-format independence** — the serving row format is a pure
//!    deployment knob: an i8 fit writes the same checkpoint bytes as the
//!    f32 fit at the same seed, with or without observability.

use unimatch::core::{save_model_with_marginals, RowFormat, UniMatch, UniMatchConfig};
use unimatch::data::DatasetProfile;
use unimatch::obs;

/// Fits with the given serving store format and returns the serialized
/// checkpoint bytes.
fn checkpoint_bytes(tag: &str, store: RowFormat) -> Vec<u8> {
    let log = DatasetProfile::EComp.generate(0.12, 7).filter_min_interactions(2);
    let framework = UniMatch::new(UniMatchConfig {
        epochs_per_month: 1,
        max_seq_len: 8,
        seed: 1337,
        store,
        ..Default::default()
    });
    let fitted = framework.fit(log);
    let dir = std::env::temp_dir().join(format!("unimatch_determinism_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("model.json");
    save_model_with_marginals(&fitted.model, Some(fitted.marginals()), &path)
        .expect("save checkpoint");
    let bytes = std::fs::read(&path).expect("read checkpoint back");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// One test function on purpose: `obs::set_enabled` flips a process-global
/// flag, so the enabled/disabled phases must be sequenced, not run as
/// parallel `#[test]`s.
#[test]
fn seeded_fits_are_byte_identical_with_and_without_observability() {
    obs::set_enabled(false);
    let a = checkpoint_bytes("a", RowFormat::F32);
    let b = checkpoint_bytes("b", RowFormat::F32);
    assert!(!a.is_empty(), "checkpoint must not be empty");
    assert_eq!(a, b, "same seed + same data must give byte-identical checkpoints");

    // the store format is a serving knob: it must never leak into the bytes
    let q = checkpoint_bytes("q", RowFormat::I8);
    assert_eq!(a, q, "an i8 fit changed the checkpoint bytes");

    obs::set_enabled(true);
    let c = checkpoint_bytes("c", RowFormat::F32);
    let qc = checkpoint_bytes("qc", RowFormat::I8);
    obs::set_enabled(false);
    assert_eq!(
        a, c,
        "enabling observability changed the trained model bytes — \
         instrumentation must be read-only with respect to training state"
    );
    assert_eq!(a, qc, "observability changed the quantized fit's checkpoint bytes");

    // And the instrumented run did actually record: the trainer's step
    // counter is process-global, so it must be non-zero after fitting with
    // the flag on.
    let scrape = obs::registry::render();
    assert!(
        scrape.contains("unimatch_train_steps_total"),
        "instrumented fit must register trainer series, got:\n{scrape}"
    );
}
