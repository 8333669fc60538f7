//! The two-tower architecture of Fig. 2.
//!
//! Users' behavior sequences and item ids enter separate encoders that
//! **share one item-embedding lookup table**; each tower outputs a
//! d-dimensional vector, which is L2-normalized; the rescaled dot product
//! `φ_θ(u,i) = <u|i> / (τ‖u‖‖i‖)` (Eq. 13) feeds the losses. No feature
//! crossing happens before the final logit, so embeddings can be inferred
//! per-tower and served through ANN search.

use crate::aggregators::AggregatorParams;
use crate::config::ModelConfig;
use crate::extractors::ExtractorParams;
use rand::Rng;
use unimatch_data::SeqBatch;
use unimatch_tensor::{dot, init, Graph, ParamId, ParamSet, Tensor, Var};

/// Epsilon floor for L2 normalization.
const NORM_EPS: f32 = 1e-12;

/// A two-tower matching model: shared item table + user encoder
/// (extractor → aggregator) + item encoder (lookup).
#[derive(Debug)]
pub struct TwoTower {
    cfg: ModelConfig,
    /// All trainable parameters (item table, extractor, aggregator).
    pub params: ParamSet,
    item_table: ParamId,
    extractor: ExtractorParams,
    aggregator: AggregatorParams,
}

impl TwoTower {
    /// Initializes a model per `cfg`, deterministically from `rng`.
    pub fn new(cfg: ModelConfig, rng: &mut impl Rng) -> Self {
        assert!(cfg.num_items >= 1, "empty item vocabulary");
        assert!(cfg.embed_dim >= 2, "embed_dim must be >= 2");
        let mut params = ParamSet::new();
        let item_table = params.add(
            "item_embedding",
            init::embedding_normal(cfg.num_items, cfg.embed_dim, rng),
        );
        let extractor =
            ExtractorParams::new(cfg.extractor, cfg.embed_dim, cfg.max_seq_len, &mut params, rng);
        let aggregator = AggregatorParams::new(cfg.aggregator, cfg.embed_dim, &mut params, rng);
        TwoTower { cfg, params, item_table, extractor, aggregator }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Handle to the shared item embedding table.
    pub fn item_table(&self) -> ParamId {
        self.item_table
    }

    /// User tower: embeds the history batch, extracts context, aggregates,
    /// L2-normalizes. Returns `[B, d]`.
    pub fn user_tower(&self, g: &mut Graph, batch: &SeqBatch) -> Var {
        let e = g.embedding(&self.params, self.item_table, &batch.indices);
        let e = g.reshape(e, [batch.b, batch.l, self.cfg.embed_dim]);
        // zero padded positions so convolution/attention see clean input
        let mv = g.constant(Tensor::from_vec([batch.b * batch.l], batch.mask.clone()));
        let e = g.scale_rows(e, mv);
        let ctx = self.extractor.forward(g, &self.params, e, &batch.mask);
        let pooled = self
            .aggregator
            .forward(g, &self.params, ctx, &batch.mask, &batch.lengths);
        if self.cfg.normalize {
            g.l2_normalize_rows(pooled, NORM_EPS)
        } else {
            pooled
        }
    }

    /// Item tower: direct lookup, L2-normalized. Returns `[N, d]`.
    pub fn item_tower(&self, g: &mut Graph, items: &[u32]) -> Var {
        let e = g.embedding(&self.params, self.item_table, items);
        if self.cfg.normalize {
            g.l2_normalize_rows(e, NORM_EPS)
        } else {
            e
        }
    }

    /// In-batch logit matrix `φ_θ(u_r, i_c) = <u_r|i_c>/τ` over normalized
    /// tower outputs: `[B_u, B_i]`.
    pub fn inbatch_logits(&self, g: &mut Graph, users: Var, items: Var) -> Var {
        let sims = g.matmul_transpose_b(users, items);
        g.scale(sims, 1.0 / self.cfg.temperature)
    }

    /// Row-aligned pair logits `φ_θ(u_b, i_b)`: `[B]` (the BCE pathway).
    pub fn pair_logits(&self, g: &mut Graph, users: Var, items: Var) -> Var {
        let d = self.cfg.embed_dim;
        let prod = g.mul(users, items);
        let ones = g.constant(Tensor::ones([d, 1]));
        let dots = g.matmul(prod, ones);
        let b = g.value(dots).shape().dim(0);
        let dots = g.reshape(dots, [b]);
        g.scale(dots, 1.0 / self.cfg.temperature)
    }

    /// Inference: the user tower's `[B, d]` output for a batch.
    ///
    /// The production tower, [`ContextExtractor::YoutubeDnn`] with
    /// [`Aggregator::Mean`], runs without a tape: a direct masked mean of
    /// the item-table rows, then the L2 normalization, in the float order
    /// of [`TwoTower::user_tower`]'s ops, so its bits equal the tape's.
    /// Every other tower runs [`TwoTower::user_tower`] on a fresh [`Graph`].
    ///
    /// [`ContextExtractor::YoutubeDnn`]: crate::config::ContextExtractor::YoutubeDnn
    /// [`Aggregator::Mean`]: crate::config::Aggregator::Mean
    pub fn infer_users(&self, batch: &SeqBatch) -> Tensor {
        match (&self.extractor, &self.aggregator) {
            (ExtractorParams::YoutubeDnn, AggregatorParams::Mean) => self.infer_mean_users(batch),
            _ => {
                let mut g = Graph::new();
                let u = self.user_tower(&mut g, batch);
                g.value(u).clone()
            }
        }
    }

    /// [`TwoTower::infer_users`] for the identity extractor and mean
    /// aggregator: per row, `scale_rows` then `mean_pool_masked` then
    /// `l2_normalize_rows`, fused and with no intermediate tensor.
    fn infer_mean_users(&self, batch: &SeqBatch) -> Tensor {
        let table = self.params.get(self.item_table);
        let (vocab, d) = (table.shape().dim(0), table.shape().dim(1));
        let (b, l) = (batch.b, batch.l);
        assert_eq!(batch.indices.len(), b * l, "indices must be [B,L]");
        assert_eq!(batch.mask.len(), b * l, "mask must be [B,L]");
        let mut data = vec![0.0f32; b * d];
        for (bi, out) in data.chunks_mut(d).enumerate() {
            let ixs = &batch.indices[bi * l..(bi + 1) * l];
            let mask = &batch.mask[bi * l..(bi + 1) * l];
            for &ix in ixs {
                assert!((ix as usize) < vocab, "embedding index {ix} out of vocab {vocab}");
            }
            let cnt: f32 = mask.iter().sum();
            if cnt == 0.0 {
                continue;
            }
            for (&ix, &m) in ixs.iter().zip(mask) {
                if m > 0.5 {
                    for (o, &v) in out.iter_mut().zip(table.row(ix as usize)) {
                        *o += v * m;
                    }
                }
            }
            for o in out.iter_mut() {
                *o /= cnt;
            }
            if self.cfg.normalize {
                let n = dot(out, out).sqrt().max(NORM_EPS);
                for o in out.iter_mut() {
                    *o /= n;
                }
            }
        }
        Tensor::from_vec([b, d], data)
    }

    /// Inference: the full item-embedding matrix `[K, d]` (normalized per
    /// the config).
    pub fn infer_items(&self) -> Tensor {
        let table = self.params.get(self.item_table);
        if !self.cfg.normalize {
            return table.clone();
        }
        let (k, d) = (table.shape().dim(0), table.shape().dim(1));
        let mut out = Tensor::zeros([k, d]);
        for r in 0..k {
            let row = table.row(r);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(NORM_EPS);
            let dst = out.row_mut(r);
            for (o, &x) in dst.iter_mut().zip(row) {
                *o = x / norm;
            }
        }
        out
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Aggregator, ContextExtractor};
    use rand::SeedableRng;

    fn batch() -> SeqBatch {
        let h1 = vec![1u32, 2, 3];
        let h2 = vec![4u32];
        SeqBatch::from_histories(&[&h1, &h2], 4)
    }

    fn model(extractor: ContextExtractor, aggregator: Aggregator) -> TwoTower {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        TwoTower::new(
            ModelConfig {
                num_items: 10,
                embed_dim: 8,
                max_seq_len: 4,
                extractor,
                aggregator,
                temperature: 0.2,
                normalize: true,
            },
            &mut rng,
        )
    }

    #[test]
    fn towers_produce_unit_vectors() {
        for ext in ContextExtractor::ALL {
            let m = model(ext, Aggregator::Mean);
            let mut g = Graph::new();
            let u = m.user_tower(&mut g, &batch());
            let t = g.value(u);
            for r in 0..2 {
                let n: f32 = t.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
                assert!((n - 1.0).abs() < 1e-4, "{}: norm {n}", ext.label());
            }
            let i = m.item_tower(&mut g, &[0, 5, 9]);
            let t = g.value(i);
            for r in 0..3 {
                let n: f32 = t.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
                assert!((n - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn logits_bounded_by_temperature() {
        let m = model(ContextExtractor::YoutubeDnn, Aggregator::Mean);
        let mut g = Graph::new();
        let u = m.user_tower(&mut g, &batch());
        let i = m.item_tower(&mut g, &[3, 7]);
        let logits = m.inbatch_logits(&mut g, u, i);
        assert_eq!(g.value(logits).shape().dims(), &[2, 2]);
        let bound = 1.0 / 0.2 + 1e-4;
        assert!(g.value(logits).data().iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn pair_logits_match_diagonal_of_inbatch() {
        let m = model(ContextExtractor::Gru, Aggregator::Last);
        let mut g = Graph::new();
        let u = m.user_tower(&mut g, &batch());
        let i = m.item_tower(&mut g, &[3, 7]);
        let full = m.inbatch_logits(&mut g, u, i);
        let diag = g.diag(full);
        let pairs = m.pair_logits(&mut g, u, i);
        for (a, b) in g.value(diag).data().iter().zip(g.value(pairs).data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    /// A random history batch over `num_items` with, beside random rows, a
    /// padded row, a row longer than `max_seq_len` and a row of repeats.
    fn random_batch(rng: &mut impl Rng, num_items: usize, max_seq_len: usize) -> SeqBatch {
        let items = num_items as u32;
        let mut histories: Vec<Vec<u32>> = (0..rng.gen_range(0..6))
            .map(|_| {
                let len = rng.gen_range(1..2 * max_seq_len + 1);
                (0..len).map(|_| rng.gen_range(0..items)).collect()
            })
            .collect();
        histories.push(vec![rng.gen_range(0..items)]);
        let long = max_seq_len + rng.gen_range(1..4);
        histories.push((0..long).map(|_| rng.gen_range(0..items)).collect());
        let (x, y) = (rng.gen_range(0..items), rng.gen_range(0..items));
        histories.push(vec![x, y, x]);
        let refs: Vec<&[u32]> = histories.iter().map(|h| h.as_slice()).collect();
        SeqBatch::from_histories(&refs, max_seq_len)
    }

    #[test]
    fn inference_matches_graph_forward() {
        // The direct production forward must equal the tape bit for bit;
        // every tower is checked so the dispatch cannot drift either.
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut n = 0u64;
        for extractor in ContextExtractor::ALL {
            for aggregator in Aggregator::ALL {
                for normalize in [true, false] {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(n);
                    let cfg = ModelConfig {
                        num_items: rng.gen_range(2..30),
                        embed_dim: rng.gen_range(2..12),
                        max_seq_len: rng.gen_range(3..8),
                        extractor,
                        aggregator,
                        temperature: 0.2,
                        normalize,
                    };
                    let m = TwoTower::new(cfg.clone(), &mut rng);
                    // a zero-count row (its length kept at 1 for last
                    // pooling) and mask values off {0, 1}: 0.5 sits on
                    // the pooling threshold, and the count becomes 2.25
                    let l = cfg.max_seq_len;
                    let mut odd = SeqBatch::from_histories(&[&[1, 0, 1][..], &[0][..]], l);
                    odd.mask[l..].fill(0.0);
                    odd.mask[1] = 0.75;
                    odd.mask[2] = 0.5;
                    for b in [random_batch(&mut rng, cfg.num_items, l), odd] {
                        let mut g = Graph::new();
                        let u = m.user_tower(&mut g, &b);
                        let inferred = m.infer_users(&b);
                        assert_eq!(inferred.shape(), g.value(u).shape(), "case {n}: shape");
                        assert_eq!(bits(&inferred), bits(g.value(u)), "case {n}: {cfg:?}");
                    }
                    n += 1;
                }
            }
        }
        let m = model(ContextExtractor::Cnn { kernel: 3 }, Aggregator::Attention);
        let items = m.infer_items();
        assert_eq!(items.shape().dims(), &[10, 8]);
        for r in 0..10 {
            let n: f32 = items.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn shared_item_table_between_towers() {
        // Training the user tower must move item embeddings: both towers
        // look up the same ParamId.
        let m = model(ContextExtractor::YoutubeDnn, Aggregator::Mean);
        let mut g = Graph::new();
        let u = m.user_tower(&mut g, &batch());
        let loss0 = g.mul(u, u);
        let loss = g.sum_all(loss0);
        g.backward(loss);
        let sg = g.sparse_grads();
        assert!(sg.contains_key(&m.item_table()));
    }

    #[test]
    fn gradcheck_youtube_dnn_end_to_end() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut m = TwoTower::new(
            ModelConfig {
                num_items: 6,
                embed_dim: 4,
                max_seq_len: 3,
                extractor: ContextExtractor::YoutubeDnn,
                aggregator: Aggregator::Mean,
                temperature: 0.5,
                normalize: true,
            },
            &mut rng,
        );
        let h1 = vec![1u32, 2];
        let h2 = vec![3u32, 4, 5];
        let b = SeqBatch::from_histories(&[&h1, &h2], 3);
        let cfg = m.cfg.clone();
        let (item_table, extractor, aggregator) =
            (m.item_table, m.extractor.clone(), m.aggregator.clone());
        unimatch_tensor::check::gradcheck(&mut m.params, 3e-2, 3e-2, move |g, p| {
            let shadow = TwoTower {
                cfg: cfg.clone(),
                params: p.clone(),
                item_table,
                extractor: extractor.clone(),
                aggregator: aggregator.clone(),
            };
            let u = shadow.user_tower(g, &b);
            let i = shadow.item_tower(g, &[0, 2]);
            let logits = shadow.inbatch_logits(g, u, i);
            let ls = g.log_softmax(logits);
            let d = g.diag(ls);
            let m0 = g.mean_all(d);
            g.scale(m0, -1.0)
        });
    }
}
