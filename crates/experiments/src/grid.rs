//! Hyperparameter grid search on the validation month (Tab. VII).
//!
//! The paper tunes batch size, temperature and epochs per dataset ×
//! distribution by NDCG on the validation data; this module reproduces
//! that procedure against the validation split (the true test month is
//! never touched).

use rand::rngs::StdRng;
use rand::SeedableRng;
use unimatch_core::{evaluate, Hyperparams, PreparedData};
use unimatch_eval::ProtocolConfig;
use unimatch_models::{ModelConfig, TwoTower};
use unimatch_train::{AdamConfig, TrainConfig, TrainLoss, Trainer};

/// The grid to sweep.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Batch sizes to try.
    pub batch_sizes: Vec<usize>,
    /// Temperatures to try.
    pub temperatures: Vec<f32>,
    /// Epochs-per-month values to try.
    pub epochs: Vec<usize>,
    /// Fixed learning rate.
    pub lr: f32,
}

impl GridSpec {
    /// A small default grid around the paper's Tab. VII values.
    pub fn small() -> Self {
        GridSpec {
            batch_sizes: vec![64, 128],
            temperatures: vec![0.1, 0.1667, 0.25, 0.5],
            epochs: vec![2, 3],
            lr: 0.01,
        }
    }
}

/// One grid evaluation.
#[derive(Clone, Copy, Debug)]
pub struct GridPoint {
    /// The hyperparameters evaluated.
    pub hyper: Hyperparams,
    /// Validation NDCG averaged over IR and UT (the selection criterion).
    pub val_ndcg: f64,
}

/// Sweeps the grid, returning every point sorted best-first.
pub fn grid_search(
    prepared: &PreparedData,
    loss: TrainLoss,
    grid: &GridSpec,
    protocol: &ProtocolConfig,
    seed: u64,
) -> Vec<GridPoint> {
    let val_split = prepared.validation_split();
    let mut points = Vec::new();
    for &batch_size in &grid.batch_sizes {
        for &temperature in &grid.temperatures {
            for &epochs in &grid.epochs {
                let hyper = Hyperparams { batch_size, temperature, epochs, lr: grid.lr };
                let model_cfg = ModelConfig {
                    num_items: prepared.num_items(),
                    embed_dim: 16,
                    max_seq_len: prepared.max_seq_len,
                    extractor: unimatch_models::ContextExtractor::YoutubeDnn,
                    aggregator: unimatch_models::Aggregator::Mean,
                    temperature,
                    normalize: true,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let model = TwoTower::new(model_cfg, &mut rng);
                let cfg = TrainConfig {
                    batch_size,
                    epochs_per_month: epochs,
                    max_seq_len: prepared.max_seq_len,
                    optimizer: AdamConfig::with_lr(grid.lr),
                    loss,
                    seed: seed ^ 0x617d,
                };
                let mut trainer = Trainer::new(model, cfg);
                let marginals = unimatch_data::Marginals::from_samples(
                    &val_split.train,
                    prepared.log.num_users(),
                    prepared.log.num_items(),
                );
                trainer
                    .train_incremental_from(&val_split, &marginals, None)
                    .unwrap_or_else(|e| panic!("grid cell training failed: {e}"));
                let out = evaluate(
                    &trainer.model,
                    &val_split,
                    protocol,
                    prepared.max_seq_len,
                    seed ^ 0xe7a1,
                );
                points.push(GridPoint { hyper, val_ndcg: out.avg_ndcg() });
            }
        }
    }
    points.sort_by(|a, b| b.val_ndcg.partial_cmp(&a.val_ndcg).unwrap_or(std::cmp::Ordering::Equal));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimatch_data::DatasetProfile;
    use unimatch_losses::{BiasConfig, MultinomialLoss};

    #[test]
    fn grid_search_ranks_points() {
        let prepared = PreparedData::synthetic(DatasetProfile::EComp, 0.12, 31);
        let grid = GridSpec {
            batch_sizes: vec![32],
            temperatures: vec![0.15, 0.6],
            epochs: vec![1],
            lr: 0.02,
        };
        let protocol = ProtocolConfig { top_n: 10, negatives: 30 };
        let points = grid_search(
            &prepared,
            TrainLoss::Multinomial(MultinomialLoss::Nce(BiasConfig::bbcnce())),
            &grid,
            &protocol,
            5,
        );
        assert_eq!(points.len(), 2);
        assert!(points[0].val_ndcg >= points[1].val_ndcg);
        assert!(points.iter().all(|p| p.val_ndcg.is_finite()));
    }
}
