//! Sequence aggregators: `[B,L,d] -> [B,d]` pooling of the per-position
//! context vectors (the aggregation layer of Fig. 2).

use crate::config::Aggregator;
use crate::registrar::{ArchitectureError, Registrar};
use rand::Rng;
use unimatch_tensor::{Graph, ParamId, ParamSet, Tensor, Var};

/// Parameter handles of one instantiated aggregator.
#[derive(Clone, Debug)]
pub enum AggregatorParams {
    /// Mean pooling over valid positions.
    Mean,
    /// Last valid position.
    Last,
    /// Elementwise max over valid positions.
    Max,
    /// Attention pooling with a learned query `[d]`.
    Attention {
        /// The query vector parameter.
        query: ParamId,
    },
}

impl AggregatorParams {
    /// Registers parameters (if any) for the chosen aggregator.
    pub(crate) fn register<R: Rng>(
        kind: Aggregator,
        d: usize,
        reg: &mut Registrar<'_, R>,
    ) -> Result<Self, ArchitectureError> {
        Ok(match kind {
            Aggregator::Mean => AggregatorParams::Mean,
            Aggregator::Last => AggregatorParams::Last,
            Aggregator::Max => AggregatorParams::Max,
            Aggregator::Attention => AggregatorParams::Attention {
                query: reg.add("agg.attn_query", &[d], |rng| {
                    Tensor::rand_normal([d], 0.0, 1.0 / (d as f32).sqrt(), rng)
                })?,
            },
        })
    }

    /// Pools a context batch `ctx: [B,L,d]` into `[B,d]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &ParamSet,
        ctx: Var,
        mask: &[f32],
        lengths: &[usize],
    ) -> Var {
        let dims = g.value(ctx).shape().dims().to_vec();
        let (b, l, d) = (dims[0], dims[1], dims[2]);
        match self {
            AggregatorParams::Mean => g.mean_pool_masked(ctx, mask),
            AggregatorParams::Last => g.last_pool(ctx, lengths),
            AggregatorParams::Max => g.max_pool_masked(ctx, mask),
            AggregatorParams::Attention { query } => {
                let q = g.param(params, *query);
                let flat = g.reshape(ctx, [b * l, d]);
                // scores[b,l] = <ctx[b,l,:], q>
                let scored = g.mul_row_broadcast(flat, q);
                let ones = g.constant(Tensor::ones([d, 1]));
                let scores = g.matmul(scored, ones); // [B*L, 1]
                let scores = g.reshape(scores, [b, l]);
                let weights = g.masked_softmax(scores, mask);
                g.weighted_sum_pool(weights, ctx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup(kind: Aggregator) -> (Graph, Var) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut reg = Registrar::draw(&mut rng);
        let agg = AggregatorParams::register(kind, 4, &mut reg).expect("registers");
        let params = reg.finish().expect("drawn");
        let mut g = Graph::new();
        let ctx = g.input(Tensor::rand_uniform([2, 3, 4], -1.0, 1.0, &mut rng));
        let mask = vec![1., 1., 0., 1., 1., 1.];
        let out = agg.forward(&mut g, &params, ctx, &mask, &[2, 3]);
        (g, out)
    }

    #[test]
    fn all_aggregators_produce_expected_shape() {
        for kind in Aggregator::ALL {
            let (g, out) = setup(kind);
            assert_eq!(g.value(out).shape().dims(), &[2, 4], "{}", kind.label());
            assert!(g.value(out).data().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn attention_weights_ignore_padding() {
        // With position 2 of row 0 masked, attention output must not depend
        // on its (random) content: perturb it and compare.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut reg = Registrar::draw(&mut rng);
        let agg =
            AggregatorParams::register(Aggregator::Attention, 4, &mut reg).expect("registers");
        let params = reg.finish().expect("drawn");
        let mask = vec![1., 1., 0.];
        let base = Tensor::rand_uniform([1, 3, 4], -1.0, 1.0, &mut rng);
        let mut poked = base.clone();
        for j in 0..4 {
            *poked.at_mut(&[0, 2, j]) += 5.0;
        }
        let run = |input: Tensor| {
            let mut g = Graph::new();
            let ctx = g.constant(input);
            let out = agg.forward(&mut g, &params, ctx, &mask, &[2]);
            g.value(out).data().to_vec()
        };
        assert_eq!(run(base), run(poked));
    }

    #[test]
    fn aggregators_are_differentiable() {
        for kind in Aggregator::ALL {
            let (mut g, out) = setup(kind);
            let sq = g.mul(out, out);
            let loss = g.sum_all(sq);
            g.backward(loss);
        }
    }
}
