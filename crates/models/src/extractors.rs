//! Context extractors: per-position sequence encoders `[B,L,d] -> [B,L,d]`.
//!
//! Each extractor owns its parameters (registered in the shared
//! [`ParamSet`] at construction) and is a pure function of the graph at
//! forward time. Padded positions are pre-zeroed by the caller; recurrent
//! extractors additionally gate their state with the mask so padding never
//! corrupts the hidden state.

use crate::config::ContextExtractor;
use crate::registrar::{ArchitectureError, Registrar};
use rand::Rng;
use unimatch_tensor::{init, Graph, ParamId, ParamSet, Tensor, Var};

/// Parameter handles of one instantiated context extractor.
#[derive(Clone, Debug)]
pub enum ExtractorParams {
    /// No parameters: identity.
    YoutubeDnn,
    /// Convolution weight `[k, d, d]` and bias `[d]`.
    Cnn {
        /// Kernel tensor id.
        weight: ParamId,
        /// Bias id.
        bias: ParamId,
        /// Kernel width.
        kernel: usize,
    },
    /// GRU gate weights.
    Gru {
        /// Input→{z,r,h} weights, each `[d, d]`.
        w_xz: ParamId,
        /// Hidden→z.
        w_hz: ParamId,
        /// Input→r.
        w_xr: ParamId,
        /// Hidden→r.
        w_hr: ParamId,
        /// Input→candidate.
        w_xh: ParamId,
        /// Hidden→candidate.
        w_hh: ParamId,
        /// Gate biases `[d]` each.
        b_z: ParamId,
        /// Reset bias.
        b_r: ParamId,
        /// Candidate bias.
        b_h: ParamId,
    },
    /// LSTM gate weights.
    Lstm {
        /// Input→{i,f,o,g} weights.
        w_xi: ParamId,
        /// Hidden→input gate.
        w_hi: ParamId,
        /// Input→forget gate.
        w_xf: ParamId,
        /// Hidden→forget gate.
        w_hf: ParamId,
        /// Input→output gate.
        w_xo: ParamId,
        /// Hidden→output gate.
        w_ho: ParamId,
        /// Input→cell candidate.
        w_xg: ParamId,
        /// Hidden→cell candidate.
        w_hg: ParamId,
        /// Biases.
        b_i: ParamId,
        /// Forget bias (init 1.0, the standard trick).
        b_f: ParamId,
        /// Output bias.
        b_o: ParamId,
        /// Candidate bias.
        b_g: ParamId,
    },
    /// One Transformer block.
    Transformer {
        /// Learned positional embeddings `[max_len, d]`.
        pos: ParamId,
        /// Query projection `[d, d]`.
        w_q: ParamId,
        /// Key projection.
        w_k: ParamId,
        /// Value projection.
        w_v: ParamId,
        /// Output projection.
        w_o: ParamId,
        /// FFN expand `[d, 4d]`.
        w_ff1: ParamId,
        /// FFN bias `[4d]`.
        b_ff1: ParamId,
        /// FFN contract `[4d, d]`.
        w_ff2: ParamId,
        /// FFN bias `[d]`.
        b_ff2: ParamId,
    },
}

impl ExtractorParams {
    /// Registers the parameters for `kind` with embedding dim `d`.
    pub(crate) fn register<R: Rng>(
        kind: ContextExtractor,
        d: usize,
        max_seq_len: usize,
        reg: &mut Registrar<'_, R>,
    ) -> Result<Self, ArchitectureError> {
        let square = |reg: &mut Registrar<'_, R>, name: &str| {
            reg.add(name, &[d, d], |rng| init::recurrent_normal(d, d, rng))
        };
        let xavier = |reg: &mut Registrar<'_, R>, name: &str, rows: usize, cols: usize| {
            reg.add(name, &[rows, cols], |rng| init::xavier_uniform(rows, cols, rng))
        };
        let vector = |reg: &mut Registrar<'_, R>, name: &str, len: usize, value: f32| {
            reg.add(name, &[len], |_| Tensor::full([len], value))
        };
        Ok(match kind {
            ContextExtractor::YoutubeDnn => ExtractorParams::YoutubeDnn,
            ContextExtractor::Cnn { kernel } => {
                if kernel % 2 != 1 {
                    return Err(ArchitectureError::new(format!(
                        "CNN kernel must be odd for same padding, not {kernel}"
                    )));
                }
                ExtractorParams::Cnn {
                    weight: reg.add("cnn.weight", &[kernel, d, d], |rng| {
                        init::xavier_uniform_shaped([kernel, d, d], rng)
                    })?,
                    bias: vector(reg, "cnn.bias", d, 0.0)?,
                    kernel,
                }
            }
            ContextExtractor::Gru => ExtractorParams::Gru {
                w_xz: square(reg, "gru.w_xz")?,
                w_hz: square(reg, "gru.w_hz")?,
                w_xr: square(reg, "gru.w_xr")?,
                w_hr: square(reg, "gru.w_hr")?,
                w_xh: square(reg, "gru.w_xh")?,
                w_hh: square(reg, "gru.w_hh")?,
                b_z: vector(reg, "gru.b_z", d, 0.0)?,
                b_r: vector(reg, "gru.b_r", d, 0.0)?,
                b_h: vector(reg, "gru.b_h", d, 0.0)?,
            },
            ContextExtractor::Lstm => ExtractorParams::Lstm {
                w_xi: square(reg, "lstm.w_xi")?,
                w_hi: square(reg, "lstm.w_hi")?,
                w_xf: square(reg, "lstm.w_xf")?,
                w_hf: square(reg, "lstm.w_hf")?,
                w_xo: square(reg, "lstm.w_xo")?,
                w_ho: square(reg, "lstm.w_ho")?,
                w_xg: square(reg, "lstm.w_xg")?,
                w_hg: square(reg, "lstm.w_hg")?,
                b_i: vector(reg, "lstm.b_i", d, 0.0)?,
                b_f: vector(reg, "lstm.b_f", d, 1.0)?,
                b_o: vector(reg, "lstm.b_o", d, 0.0)?,
                b_g: vector(reg, "lstm.b_g", d, 0.0)?,
            },
            ContextExtractor::Transformer => {
                // saturates where no stored shape can match, never overflows
                let wide = d.saturating_mul(4);
                ExtractorParams::Transformer {
                    pos: reg.add("tfm.pos", &[max_seq_len, d], |rng| {
                        Tensor::rand_normal([max_seq_len, d], 0.0, 0.02, rng)
                    })?,
                    w_q: xavier(reg, "tfm.w_q", d, d)?,
                    w_k: xavier(reg, "tfm.w_k", d, d)?,
                    w_v: xavier(reg, "tfm.w_v", d, d)?,
                    w_o: xavier(reg, "tfm.w_o", d, d)?,
                    w_ff1: xavier(reg, "tfm.w_ff1", d, wide)?,
                    b_ff1: vector(reg, "tfm.b_ff1", wide, 0.0)?,
                    w_ff2: xavier(reg, "tfm.w_ff2", wide, d)?,
                    b_ff2: vector(reg, "tfm.b_ff2", d, 0.0)?,
                }
            }
        })
    }

    /// Runs the extractor over an embedded batch `e: [B,L,d]` with its
    /// validity mask (`[B*L]`, 1 = real position). Returns `[B,L,d]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &ParamSet,
        e: Var,
        mask: &[f32],
    ) -> Var {
        let dims = g.value(e).shape().dims().to_vec();
        let (b, l, d) = (dims[0], dims[1], dims[2]);
        match self {
            ExtractorParams::YoutubeDnn => e,
            ExtractorParams::Cnn { weight, bias, .. } => {
                let w = g.param(params, *weight);
                let conv = g.conv1d_same(e, w);
                let bv = g.param(params, *bias);
                let biased = g.add_row_broadcast(conv, bv);
                g.relu(biased)
            }
            ExtractorParams::Gru {
                w_xz, w_hz, w_xr, w_hr, w_xh, w_hh, b_z, b_r, b_h,
            } => {
                let (w_xz, w_hz) = (g.param(params, *w_xz), g.param(params, *w_hz));
                let (w_xr, w_hr) = (g.param(params, *w_xr), g.param(params, *w_hr));
                let (w_xh, w_hh) = (g.param(params, *w_xh), g.param(params, *w_hh));
                let (b_z, b_r, b_h) = (
                    g.param(params, *b_z),
                    g.param(params, *b_r),
                    g.param(params, *b_h),
                );
                let mut h = g.constant(Tensor::zeros([b, d]));
                let mut outs = Vec::with_capacity(l);
                for t in 0..l {
                    let x = g.slice_time(e, t);
                    let xz = g.matmul(x, w_xz);
                    let hz = g.matmul(h, w_hz);
                    let zsum = g.add(xz, hz);
                    let zb = g.add_row_broadcast(zsum, b_z);
                    let z = g.sigmoid(zb);
                    let xr = g.matmul(x, w_xr);
                    let hr = g.matmul(h, w_hr);
                    let rsum = g.add(xr, hr);
                    let rb = g.add_row_broadcast(rsum, b_r);
                    let r = g.sigmoid(rb);
                    let rh = g.mul(r, h);
                    let xh = g.matmul(x, w_xh);
                    let rhh = g.matmul(rh, w_hh);
                    let hsum = g.add(xh, rhh);
                    let hb = g.add_row_broadcast(hsum, b_h);
                    let cand = g.tanh(hb);
                    // h' = (1 - z) ⊙ h + z ⊙ cand
                    let zc = g.mul(z, cand);
                    let zh = g.mul(z, h);
                    let h_cand = g.add(h, zc);
                    let h_new = g.sub(h_cand, zh);
                    h = gate_by_mask(g, h_new, h, mask, t, b, l);
                    outs.push(h);
                }
                g.stack_time(&outs)
            }
            ExtractorParams::Lstm {
                w_xi, w_hi, w_xf, w_hf, w_xo, w_ho, w_xg, w_hg, b_i, b_f, b_o, b_g,
            } => {
                let (w_xi, w_hi) = (g.param(params, *w_xi), g.param(params, *w_hi));
                let (w_xf, w_hf) = (g.param(params, *w_xf), g.param(params, *w_hf));
                let (w_xo, w_ho) = (g.param(params, *w_xo), g.param(params, *w_ho));
                let (w_xg, w_hg) = (g.param(params, *w_xg), g.param(params, *w_hg));
                let (b_i, b_f, b_o, b_g) = (
                    g.param(params, *b_i),
                    g.param(params, *b_f),
                    g.param(params, *b_o),
                    g.param(params, *b_g),
                );
                let mut h = g.constant(Tensor::zeros([b, d]));
                let mut c = g.constant(Tensor::zeros([b, d]));
                let mut outs = Vec::with_capacity(l);
                let gate = |g: &mut Graph, x: Var, hh: Var, wx: Var, wh: Var, bb: Var| {
                    let a = g.matmul(x, wx);
                    let b2 = g.matmul(hh, wh);
                    let s = g.add(a, b2);
                    g.add_row_broadcast(s, bb)
                };
                for t in 0..l {
                    let x = g.slice_time(e, t);
                    let i_pre = gate(g, x, h, w_xi, w_hi, b_i);
                    let i_g = g.sigmoid(i_pre);
                    let f_pre = gate(g, x, h, w_xf, w_hf, b_f);
                    let f_g = g.sigmoid(f_pre);
                    let o_pre = gate(g, x, h, w_xo, w_ho, b_o);
                    let o_g = g.sigmoid(o_pre);
                    let g_pre = gate(g, x, h, w_xg, w_hg, b_g);
                    let g_c = g.tanh(g_pre);
                    let fc = g.mul(f_g, c);
                    let ig = g.mul(i_g, g_c);
                    let c_new = g.add(fc, ig);
                    let tc = g.tanh(c_new);
                    let h_new = g.mul(o_g, tc);
                    c = gate_by_mask(g, c_new, c, mask, t, b, l);
                    h = gate_by_mask(g, h_new, h, mask, t, b, l);
                    outs.push(h);
                }
                g.stack_time(&outs)
            }
            ExtractorParams::Transformer {
                pos, w_q, w_k, w_v, w_o, w_ff1, b_ff1, w_ff2, b_ff2,
            } => {
                // add positional embeddings (first l rows of the table)
                let pos_t = params.get(*pos);
                assert!(l <= pos_t.shape().dim(0), "sequence longer than positional table");
                let pos_v = g.param(params, *pos);
                // broadcast positions over the batch by building [B,L,d]
                // from replicated rows, staying on-graph so the positional
                // table still receives gradients.
                let mut rows = Vec::with_capacity(l);
                for t in 0..l {
                    // pick row t of the positional table for every batch row
                    let idx = vec![t; b];
                    // pos_v is [max_len, d]; replicate row t into [B, d]
                    let picked = replicate_row(g, pos_v, &idx, d);
                    rows.push(picked);
                }
                let pos_seq = g.stack_time(&rows);
                let x = g.add(e, pos_seq);
                // zero out padded positions again (they got position vectors)
                let mv = g.constant(Tensor::from_vec([b * l], mask.to_vec()));
                let x = g.scale_rows(x, mv);

                let flat = g.reshape(x, [b * l, d]);
                let (w_q, w_k, w_v_p, w_o) = (
                    g.param(params, *w_q),
                    g.param(params, *w_k),
                    g.param(params, *w_v),
                    g.param(params, *w_o),
                );
                let q = g.matmul(flat, w_q);
                let k = g.matmul(flat, w_k);
                let v = g.matmul(flat, w_v_p);
                let q = g.reshape(q, [b, l, d]);
                let k = g.reshape(k, [b, l, d]);
                let v = g.reshape(v, [b, l, d]);
                let scores = g.batch_matmul_transpose_b(q, k); // [B,L,L]
                let scores = g.scale(scores, 1.0 / (d as f32).sqrt());
                // key-padding mask: query row (b, i) may attend to key j iff
                // mask[b, j] = 1
                let mut attn_mask = vec![0.0f32; b * l * l];
                for bi in 0..b {
                    for i in 0..l {
                        for j in 0..l {
                            attn_mask[(bi * l + i) * l + j] = mask[bi * l + j];
                        }
                    }
                }
                let attn = g.masked_softmax(scores, &attn_mask);
                let ctx = g.batch_matmul(attn, v); // [B,L,d]
                let ctx_flat = g.reshape(ctx, [b * l, d]);
                let proj = g.matmul(ctx_flat, w_o);
                let proj = g.reshape(proj, [b, l, d]);
                let res1 = g.add(x, proj);
                let norm1 = g.layer_norm(res1, 1e-5);
                // FFN
                let (w1, b1, w2, b2) = (
                    g.param(params, *w_ff1),
                    g.param(params, *b_ff1),
                    g.param(params, *w_ff2),
                    g.param(params, *b_ff2),
                );
                let nf = g.reshape(norm1, [b * l, d]);
                let h1 = g.matmul(nf, w1);
                let h1 = g.add_row_broadcast(h1, b1);
                let h1 = g.relu(h1);
                let h2 = g.matmul(h1, w2);
                let h2 = g.add_row_broadcast(h2, b2);
                let h2 = g.reshape(h2, [b, l, d]);
                let res2 = g.add(norm1, h2);
                g.layer_norm(res2, 1e-5)
            }
        }
    }
}

/// `new = m_t ⊙ candidate + (1 - m_t) ⊙ previous`, gating recurrent state
/// so padded steps carry the state through unchanged.
fn gate_by_mask(
    g: &mut Graph,
    candidate: Var,
    previous: Var,
    mask: &[f32],
    t: usize,
    b: usize,
    l: usize,
) -> Var {
    let m: Vec<f32> = (0..b).map(|bi| mask[bi * l + t]).collect();
    if m.iter().all(|&x| x > 0.5) {
        return candidate;
    }
    let inv: Vec<f32> = m.iter().map(|&x| 1.0 - x).collect();
    let mv = g.constant(Tensor::from_vec([b], m));
    let iv = g.constant(Tensor::from_vec([b], inv));
    let a = g.scale_rows(candidate, mv);
    let bshare = g.scale_rows(previous, iv);
    g.add(a, bshare)
}

/// Replicates one row of a `[V, d]` matrix into `[B, d]` (used to broadcast
/// positional embeddings across a batch) while keeping gradients flowing to
/// that row.
fn replicate_row(g: &mut Graph, table: Var, row_per_batch: &[usize], d: usize) -> Var {
    let b = row_per_batch.len();
    // Build a selection matrix S [B, V] with S[r, row[r]] = 1: then S @ table.
    let v = g.value(table).shape().dim(0);
    let mut sel = Tensor::zeros([b, v]);
    for (r, &row) in row_per_batch.iter().enumerate() {
        sel.data_mut()[r * v + row] = 1.0;
    }
    let sv = g.constant(sel);
    let out = g.matmul(sv, table);
    debug_assert_eq!(g.value(out).shape().dims(), &[b, d]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use unimatch_tensor::Graph;

    fn run(kind: ContextExtractor) -> (Graph, Var, Vec<f32>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut reg = Registrar::draw(&mut rng);
        let ext = ExtractorParams::register(kind, 4, 5, &mut reg).expect("registers");
        let params = reg.finish().expect("drawn");
        let mut g = Graph::new();
        let e = g.input(Tensor::rand_uniform([2, 5, 4], -1.0, 1.0, &mut rng));
        let mask = vec![1., 1., 1., 0., 0., 1., 1., 1., 1., 1.];
        // zero padded positions as the caller (TwoTower) does
        let mv = g.constant(Tensor::from_vec([10], mask.clone()));
        let e = g.scale_rows(e, mv);
        let out = ext.forward(&mut g, &params, e, &mask);
        (g, out, mask)
    }

    #[test]
    fn all_extractors_produce_expected_shape() {
        for kind in ContextExtractor::ALL {
            let (g, out, _) = run(kind);
            assert_eq!(g.value(out).shape().dims(), &[2, 5, 4], "{}", kind.label());
            assert!(g.value(out).data().iter().all(|x| x.is_finite()), "{}", kind.label());
        }
    }

    #[test]
    fn recurrent_state_unchanged_on_padded_steps() {
        // With GRU, outputs at padded steps must equal the last valid state.
        let (g, out, _) = run(ContextExtractor::Gru);
        let t = g.value(out);
        // row 0 has mask [1,1,1,0,0]: steps 3 and 4 repeat step 2's state
        for j in 0..4 {
            let s2 = t.at(&[0, 2, j]);
            assert!((t.at(&[0, 3, j]) - s2).abs() < 1e-6);
            assert!((t.at(&[0, 4, j]) - s2).abs() < 1e-6);
        }
    }

    #[test]
    fn lstm_state_unchanged_on_padded_steps() {
        let (g, out, _) = run(ContextExtractor::Lstm);
        let t = g.value(out);
        for j in 0..4 {
            let s2 = t.at(&[0, 2, j]);
            assert!((t.at(&[0, 3, j]) - s2).abs() < 1e-6);
        }
    }

    #[test]
    fn extractors_are_differentiable() {
        for kind in ContextExtractor::ALL {
            let mut rng = rand::rngs::StdRng::seed_from_u64(10);
            let mut reg = Registrar::draw(&mut rng);
            let table = reg
                .add("emb", &[6, 4], |rng| Tensor::rand_uniform([6, 4], -0.5, 0.5, rng))
                .expect("drawn");
            let ext = ExtractorParams::register(kind, 4, 3, &mut reg).expect("registers");
            let params = reg.finish().expect("drawn");
            let mut g = Graph::new();
            let e = g.embedding(&params, table, &[1, 2, 0, 3, 4, 5]);
            let e = g.reshape(e, [2, 3, 4]);
            let mask = vec![1., 1., 0., 1., 1., 1.];
            let mv = g.constant(Tensor::from_vec([6], mask.clone()));
            let e = g.scale_rows(e, mv);
            let out = ext.forward(&mut g, &params, e, &mask);
            let sq = g.mul(out, out);
            let loss = g.mean_all(sq);
            g.backward(loss);
            // embedding rows that appear unpadded must receive gradient
            let sg = g.sparse_grads();
            assert!(
                sg.values().next().map(|s| s.touched() > 0).unwrap_or(false),
                "{}: no embedding gradient",
                kind.label()
            );
        }
    }
}
