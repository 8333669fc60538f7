//! Tab. VII — hyperparameter grid search per dataset × distribution,
//! selected by validation NDCG.

use crate::cli::Args;
use crate::grid::{grid_search, GridSpec};
use unimatch_core::PreparedData;
use unimatch_data::{DatasetProfile, NegativeStrategy};
use unimatch_eval::{ProtocolConfig, Table};
use unimatch_losses::{BiasConfig, MultinomialLoss};
use unimatch_train::TrainLoss;

/// Runs the experiment and renders the report.
pub fn run(args: &Args) -> String {
    let mut t = Table::new(
        "Table VII — grid-searched hyperparameters (selected on validation NDCG)",
        &["Data", "pathway", "batch", "temperature", "epochs", "val NDCG"],
    );
    let profiles: Vec<DatasetProfile> = if args.quick {
        vec![DatasetProfile::EComp]
    } else {
        DatasetProfile::ALL.to_vec()
    };
    for profile in profiles {
        let prepared = PreparedData::synthetic(profile, args.scale, args.seed);
        let protocol = ProtocolConfig {
            top_n: profile.top_n(),
            negatives: profile.num_eval_negatives(),
        };
        let grid = if args.quick {
            GridSpec { batch_sizes: vec![64], temperatures: vec![0.125, 0.25], epochs: vec![2], lr: 0.01 }
        } else {
            GridSpec {
                batch_sizes: vec![64, 128],
                temperatures: vec![0.1, 0.1667, 0.25, 0.5],
                epochs: vec![2, 3],
                lr: 0.01,
            }
        };
        for (pathway, loss) in [
            (
                "Multinomial",
                TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
            ),
            ("Bernoulli", TrainLoss::Bce(NegativeStrategy::Uniform)),
        ] {
            let points = grid_search(&prepared, loss, &grid, &protocol, args.seed);
            let best = points.first().expect("non-empty grid");
            t.row(vec![
                profile.name().into(),
                pathway.into(),
                best.hyper.batch_size.to_string(),
                format!("{:.4}", best.hyper.temperature),
                best.hyper.epochs.to_string(),
                format!("{:.4}", best.val_ndcg),
            ]);
        }
    }
    format!(
        "{}\nPaper's tuned cells (Tab. VII): multinomial always batch 64 with \
         2–3 epochs; Bernoulli needs larger batches and 6–10 epochs.\n",
        t.render()
    )
}
