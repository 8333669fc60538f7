//! The production monthly cycle with checkpoints: fit once, persist the
//! model, and each following month resume from disk with only the newest
//! month of data — the paper's incremental-training deployment (1/12 of
//! the retraining cost, Sec. IV-B5) made concrete.
//!
//! ```text
//! cargo run --release --example monthly_update
//! ```

use unimatch::core::{load_checkpoint, save_model_with_marginals, UniMatch, UniMatchConfig};
use unimatch::data::calendar::month_start;
use unimatch::data::DatasetProfile;

fn main() {
    // The full history a merchant will eventually accumulate…
    let full_log = DatasetProfile::EComp.generate(0.5, 31).filter_min_interactions(3);
    let total_months = full_log.span_months();
    // …but in month `m0` they only have the first part of it.
    let m0 = total_months - 2;
    let early_log = full_log.filtered(|r| r.day < month_start(m0));
    println!(
        "month {m0}: initial fit on {} interactions ({} months of history)",
        early_log.len(),
        m0
    );

    let framework = UniMatch::new(UniMatchConfig { epochs_per_month: 2, ..Default::default() });
    let fitted = framework.fit(early_log);

    // Persist the checkpoint, exactly as a nightly job would.
    let path = std::env::temp_dir().join("unimatch_monthly_checkpoint.json");
    save_model_with_marginals(&fitted.model, None, &path).expect("persist checkpoint");
    println!("checkpoint saved to {}", path.display());

    // A month passes. Reload and resume with ONE new month of data instead
    // of retraining on everything.
    let model = load_checkpoint(&path).expect("reload checkpoint").0;
    println!(
        "month {}: resuming from checkpoint, consuming only month {}'s data",
        m0 + 1,
        m0
    );
    // `trained_through` is the last month whose data the checkpoint saw:
    // the initial fit holds out its final month for evaluation, so it
    // trained through m0 - 2.
    let updated = framework.resume(model, full_log.clone(), m0 - 2);

    let history = [2u32, 4, 6];
    println!("\nfresh recommendations after the update:");
    for hit in updated.recommend_items(&history, 5) {
        println!("  item {:>4}  score {:+.4}", hit.id, hit.score);
    }
    println!(
        "\ncost note: this update consumed only the new months' samples; a \
         from-scratch yearly retrain would have consumed ~12x more — \
         multiply by the one-model-for-two-tasks factor and the bbcNCE \
         epoch savings and you reach the paper's 94%+ figure \
         (`cargo run -p unimatch-experiments --bin experiments -- cost_saving`)."
    );
    std::fs::remove_file(&path).ok();
}
