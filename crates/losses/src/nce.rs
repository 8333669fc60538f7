//! The generalized bias-corrected in-batch NCE loss — Eq. 10 of the paper.
//!
//! One loss function with four binary switches `(α, β, δ_α, δ_β)` covers
//! the whole family of Tab. II:
//!
//! | setting                        | loss       | `φ_θ(u,i)` converges to |
//! |--------------------------------|------------|--------------------------|
//! | `α=1, β=0, δ_α=δ_β=0`          | InfoNCE    | PMI `log p̂(u,i)/(p̂(u)p̂(i))` |
//! | `α=β=1, δ_α=δ_β=0`             | SimCLR     | PMI                      |
//! | `α=1, δ_α=1, β=δ_β=0`          | row-bcNCE  | `log p̂(i\|u)`           |
//! | `β=1, δ_β=1, α=δ_α=0`          | col-bcNCE  | `log p̂(u\|i)`           |
//! | `α=β=δ_α=δ_β=1`                | **bbcNCE** | `log p̂(u,i)`            |
//!
//! The *row* term is a softmax over the in-batch items for each user (a
//! sampled approximation of Eq. 3); the *column* term is a softmax over the
//! in-batch users for each item (Eq. 4). The bias corrections subtract the
//! log empirical marginals from the logits before the softmax, cancelling
//! the bias introduced by in-batch sampling (negatives arrive
//! frequency-proportionally rather than uniformly).

use unimatch_tensor::{Graph, Tensor, Var};

/// The four binary switches of Eq. 10.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BiasConfig {
    /// Weight of the row (item-softmax) term.
    pub alpha: f32,
    /// Weight of the column (user-softmax) term.
    pub beta: f32,
    /// Apply the `log p̂(i)` correction in the row term.
    pub delta_alpha: bool,
    /// Apply the `log p̂(u)` correction in the column term.
    pub delta_beta: bool,
}

impl BiasConfig {
    /// InfoNCE: row term only, no correction.
    pub fn infonce() -> Self {
        BiasConfig { alpha: 1.0, beta: 0.0, delta_alpha: false, delta_beta: false }
    }

    /// SimCLR: both terms, no correction.
    pub fn simclr() -> Self {
        BiasConfig { alpha: 1.0, beta: 1.0, delta_alpha: false, delta_beta: false }
    }

    /// row-bcNCE: row term with item-bias correction → `log p̂(i|u)`.
    pub fn row_bcnce() -> Self {
        BiasConfig { alpha: 1.0, beta: 0.0, delta_alpha: true, delta_beta: false }
    }

    /// col-bcNCE: column term with user-bias correction → `log p̂(u|i)`.
    pub fn col_bcnce() -> Self {
        BiasConfig { alpha: 0.0, beta: 1.0, delta_alpha: false, delta_beta: true }
    }

    /// bbcNCE: both terms, both corrections → `log p̂(u,i)`. The loss of
    /// the UniMatch framework.
    pub fn bbcnce() -> Self {
        BiasConfig { alpha: 1.0, beta: 1.0, delta_alpha: true, delta_beta: true }
    }
}

/// Computes the Eq. 10 loss over an in-batch logit matrix.
///
/// * `logits` — `[B,B]` with `logits[r,c] = φ_θ(u_r, i_c)`; the positives
///   sit on the diagonal.
/// * `log_pu[r]` / `log_pi[c]` — empirical marginal log-probabilities of
///   the batch's users and items (Tab. IV columns).
///
/// Returns the scalar loss.
pub fn nce_loss(
    g: &mut Graph,
    logits: Var,
    log_pu: &[f32],
    log_pi: &[f32],
    cfg: &BiasConfig,
) -> Var {
    let dims = g.value(logits).shape().dims().to_vec();
    assert_eq!(dims.len(), 2, "nce_loss expects a [B,B] logit matrix");
    let b = dims[0];
    assert_eq!(dims[0], dims[1], "in-batch logits must be square");
    assert_eq!(log_pu.len(), b, "log_pu length mismatch");
    assert_eq!(log_pi.len(), b, "log_pi length mismatch");
    assert!(
        cfg.alpha > 0.0 || cfg.beta > 0.0,
        "at least one of alpha/beta must be positive"
    );

    let mut total: Option<Var> = None;

    if cfg.alpha > 0.0 {
        // h(u,i) = exp(φ − δ_α log p̂(i)): subtract the item bias per column.
        let corrected = if cfg.delta_alpha {
            let neg_pi = g.constant(Tensor::vector(&log_pi.iter().map(|x| -x).collect::<Vec<_>>()));
            g.add_row_broadcast(logits, neg_pi)
        } else {
            logits
        };
        let ls = g.log_softmax(corrected);
        let d = g.diag(ls);
        let m = g.mean_all(d);
        let row_loss = g.scale(m, -cfg.alpha);
        total = Some(row_loss);
    }

    if cfg.beta > 0.0 {
        // o(u,i) = exp(φ − δ_β log p̂(u)): softmax over users for each item,
        // i.e. over the columns — transpose so users become the last axis.
        let t = g.transpose(logits);
        let corrected = if cfg.delta_beta {
            let neg_pu = g.constant(Tensor::vector(&log_pu.iter().map(|x| -x).collect::<Vec<_>>()));
            g.add_row_broadcast(t, neg_pu)
        } else {
            t
        };
        let ls = g.log_softmax(corrected);
        let d = g.diag(ls);
        let m = g.mean_all(d);
        let col_loss = g.scale(m, -cfg.beta);
        total = Some(match total {
            Some(r) => g.add(r, col_loss),
            None => col_loss,
        });
    }

    total.expect("alpha or beta positive")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits(g: &mut Graph, vals: Vec<f32>, b: usize) -> Var {
        g.input(Tensor::from_vec([b, b], vals))
    }

    #[test]
    fn infonce_matches_hand_computed() {
        let mut g = Graph::new();
        // 2x2 logits; row softmax CE of the diagonal
        let l = logits(&mut g, vec![2.0, 0.0, 1.0, 3.0], 2);
        let loss = nce_loss(&mut g, l, &[0.0, 0.0], &[0.0, 0.0], &BiasConfig::infonce());
        let row0 = -(2.0f32 - (2.0f32.exp() + 0.0f32.exp()).ln());
        let row1 = -(3.0f32 - (1.0f32.exp() + 3.0f32.exp()).ln());
        let expected = (row0 + row1) / 2.0;
        assert!((g.value(loss).item() - expected).abs() < 1e-5);
    }

    #[test]
    fn simclr_is_row_plus_col_uncorrected() {
        let mut g = Graph::new();
        let vals = vec![1.0, -0.5, 0.3, 2.0, 0.1, -1.0, 0.7, 0.0, 1.5];
        let l = logits(&mut g, vals.clone(), 3);
        let pu = [-1.0, -2.0, -0.5];
        let pi = [-0.3, -1.7, -2.5];
        let simclr = nce_loss(&mut g, l, &pu, &pi, &BiasConfig::simclr());
        let l2 = logits(&mut g, vals.clone(), 3);
        let row = nce_loss(&mut g, l2, &pu, &pi, &BiasConfig::infonce());
        let l3 = logits(&mut g, vals, 3);
        let col_only = BiasConfig { alpha: 0.0, beta: 1.0, delta_alpha: false, delta_beta: false };
        let col = nce_loss(&mut g, l3, &pu, &pi, &col_only);
        let total = g.value(row).item() + g.value(col).item();
        assert!((g.value(simclr).item() - total).abs() < 1e-5);
    }

    #[test]
    fn bbcnce_is_corrected_row_plus_col() {
        let mut g = Graph::new();
        let vals = vec![1.0, -0.5, 0.3, 2.0, 0.1, -1.0, 0.7, 0.0, 1.5];
        let pu = [-1.0, -2.0, -0.5];
        let pi = [-0.3, -1.7, -2.5];
        let l = logits(&mut g, vals.clone(), 3);
        let bbc = nce_loss(&mut g, l, &pu, &pi, &BiasConfig::bbcnce());
        let l2 = logits(&mut g, vals.clone(), 3);
        let row = nce_loss(&mut g, l2, &pu, &pi, &BiasConfig::row_bcnce());
        let l3 = logits(&mut g, vals, 3);
        let col = nce_loss(&mut g, l3, &pu, &pi, &BiasConfig::col_bcnce());
        let total = g.value(row).item() + g.value(col).item();
        assert!((g.value(bbc).item() - total).abs() < 1e-5);
    }

    #[test]
    fn bias_correction_changes_the_loss() {
        let mut g = Graph::new();
        let vals = vec![1.0, -0.5, 2.0, 0.1];
        let pi = [-0.2, -3.0]; // very unbalanced item marginals
        let l = logits(&mut g, vals.clone(), 2);
        let plain = nce_loss(&mut g, l, &[0.0; 2], &pi, &BiasConfig::infonce());
        let l2 = logits(&mut g, vals, 2);
        let corrected = nce_loss(&mut g, l2, &[0.0; 2], &pi, &BiasConfig::row_bcnce());
        assert!((g.value(plain).item() - g.value(corrected).item()).abs() > 1e-3);
    }

    #[test]
    fn uniform_marginals_make_correction_a_noop() {
        // When all items are equally popular, subtracting log p̂(i) shifts
        // every logit by the same constant — softmax is shift invariant.
        let mut g = Graph::new();
        let vals = vec![1.0, -0.5, 2.0, 0.1];
        let pi = [(0.5f32).ln(); 2];
        let l = logits(&mut g, vals.clone(), 2);
        let plain = nce_loss(&mut g, l, &[0.0; 2], &pi, &BiasConfig::infonce());
        let l2 = logits(&mut g, vals, 2);
        let corrected = nce_loss(&mut g, l2, &[0.0; 2], &pi, &BiasConfig::row_bcnce());
        assert!((g.value(plain).item() - g.value(corrected).item()).abs() < 1e-5);
    }

    #[test]
    fn loss_decreases_when_diagonal_dominates() {
        let mut g = Graph::new();
        let weak = logits(&mut g, vec![0.1, 0.0, 0.0, 0.1], 2);
        let strong = logits(&mut g, vec![5.0, 0.0, 0.0, 5.0], 2);
        let lw = nce_loss(&mut g, weak, &[0.0; 2], &[0.0; 2], &BiasConfig::bbcnce());
        let ls = nce_loss(&mut g, strong, &[0.0; 2], &[0.0; 2], &BiasConfig::bbcnce());
        assert!(g.value(ls).item() < g.value(lw).item());
    }

    #[test]
    fn gradients_flow() {
        let mut g = Graph::new();
        let l = logits(&mut g, vec![1.0, -0.5, 0.3, 2.0], 2);
        let loss = nce_loss(&mut g, l, &[-1.0, -1.5], &[-0.7, -2.0], &BiasConfig::bbcnce());
        g.backward(loss);
        let grad = g.grad(l).expect("logit grad");
        assert!(grad.data().iter().any(|&x| x.abs() > 1e-6));
        // gradient rows must sum to ~0 per softmax term pair: the diagonal
        // gets negative mass, off-diagonals positive
        assert!(grad.at(&[0, 0]) < 0.0);
        assert!(grad.at(&[0, 1]) > 0.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let mut g = Graph::new();
        let l = g.input(Tensor::from_vec([2, 3], vec![0.0; 6]));
        nce_loss(&mut g, l, &[0.0; 2], &[0.0; 3], &BiasConfig::bbcnce());
    }
}
