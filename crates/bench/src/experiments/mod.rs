//! One module per paper table/figure; each exposes
//! `run(&Args) -> String` returning the rendered report; the
//! `experiments` binary holds the table of them.

pub mod ablations;
pub mod cost_saving;
pub mod figure03;
pub mod table01;
pub mod table02;
pub mod table03;
pub mod table04_05;
pub mod table06;
pub mod table07;
pub mod table08;
pub mod table09_10_11;
pub mod table12;

use unimatch_data::{DatasetProfile, NegativeStrategy};
use unimatch_losses::{BiasConfig, MultinomialLoss};
use unimatch_train::TrainLoss;

/// The Tab. VIII loss rows: BCE under the four noise distributions plus
/// bbcNCE.
pub fn table8_losses() -> Vec<(String, TrainLoss)> {
    let mut rows: Vec<(String, TrainLoss)> = NegativeStrategy::ALL
        .iter()
        .map(|&s| (format!("BCE {}", s.label()), TrainLoss::Bce(s)))
        .collect();
    rows.push((
        "bbcNCE".to_string(),
        TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
    ));
    rows
}

/// The Tab. IX/X loss rows: the six multinomial-family losses.
pub fn multinomial_losses(ssm_negatives: usize) -> Vec<(String, TrainLoss)> {
    MultinomialLoss::paper_losses(ssm_negatives)
        .into_iter()
        .map(|(label, loss)| (label.to_string(), TrainLoss::Multinomial(loss)))
        .collect()
}

/// Profiles grouped as the paper groups its tables.
pub fn amazon_profiles() -> [DatasetProfile; 2] {
    [DatasetProfile::Books, DatasetProfile::Electronics]
}

/// The two QuickAudience profiles.
pub fn qa_profiles() -> [DatasetProfile; 2] {
    [DatasetProfile::EComp, DatasetProfile::WComp]
}

/// Marks the best and second-best values in a row of `(label, value)`
/// pairs the way the paper's tables do (`*` best, `_` second).
pub fn mark_best(values: &[f64]) -> Vec<String> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap_or(std::cmp::Ordering::Equal));
    values
        .iter()
        .enumerate()
        .map(|(ix, v)| {
            let tag = if Some(&ix) == order.first() {
                "*"
            } else if Some(&ix) == order.get(1) {
                "_"
            } else {
                ""
            };
            format!("{:.2}{tag}", 100.0 * v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_row_counts() {
        assert_eq!(table8_losses().len(), 5);
        assert_eq!(multinomial_losses(64).len(), 6);
    }

    #[test]
    fn mark_best_tags() {
        let marked = mark_best(&[0.10, 0.30, 0.20]);
        assert!(marked[1].ends_with('*'));
        assert!(marked[2].ends_with('_'));
        assert_eq!(marked[0], "10.00");
    }
}
