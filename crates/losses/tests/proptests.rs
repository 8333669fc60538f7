//! Property tests for the loss family: bounds, invariances, and
//! relationships that must hold for arbitrary logits and marginals.
//!
//! Each property loops over `CASES` inputs, case `n` drawn from its own
//! `StdRng::seed_from_u64(n)`; a failure names its case, and looping
//! over that one number replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_losses::{bce_loss, nce_loss, ssm_loss, BiasConfig};
use unimatch_tensor::{Graph, Tensor};

const CASES: u64 = 256;

fn vec_in(rng: &mut StdRng, lo: f32, hi: f32, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// `(b, b×b logits, log p̂(u), log p̂(i))` for a batch of 2 to 5 rows.
fn logits_and_marginals(rng: &mut StdRng) -> (usize, Vec<f32>, Vec<f32>, Vec<f32>) {
    let b = rng.gen_range(2usize..6);
    (b, vec_in(rng, -5.0, 5.0, b * b), vec_in(rng, -10.0, -0.1, b), vec_in(rng, -10.0, -0.1, b))
}

#[test]
fn nce_losses_are_nonnegative() {
    for case in 0..CASES {
        let (b, vals, pu, pi) = logits_and_marginals(&mut StdRng::seed_from_u64(case));
        // every configuration is a (weighted sum of) cross-entropies over
        // softmax distributions => >= 0
        let mut g = Graph::new();
        for cfg in [
            BiasConfig::infonce(),
            BiasConfig::simclr(),
            BiasConfig::row_bcnce(),
            BiasConfig::col_bcnce(),
            BiasConfig::bbcnce(),
        ] {
            let l = g.input(Tensor::from_vec([b, b], vals.clone()));
            let loss = nce_loss(&mut g, l, &pu, &pi, &cfg);
            assert!(
                g.value(loss).item() >= -1e-5,
                "case {case}: {cfg:?}: {}",
                g.value(loss).item()
            );
        }
    }
}

#[test]
fn nce_invariant_to_global_logit_shift() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (b, vals, pu, pi) = logits_and_marginals(&mut rng);
        let shift = rng.gen_range(-20.0f32..20.0);
        // softmax losses are shift invariant: adding a constant to every
        // logit must not change any configuration's loss
        let mut g = Graph::new();
        for cfg in [BiasConfig::infonce(), BiasConfig::bbcnce()] {
            let l1 = g.input(Tensor::from_vec([b, b], vals.clone()));
            let loss1 = nce_loss(&mut g, l1, &pu, &pi, &cfg);
            let shifted: Vec<f32> = vals.iter().map(|x| x + shift).collect();
            let l2 = g.input(Tensor::from_vec([b, b], shifted));
            let loss2 = nce_loss(&mut g, l2, &pu, &pi, &cfg);
            let (a, c) = (g.value(loss1).item(), g.value(loss2).item());
            assert!((a - c).abs() < 1e-3 * (1.0 + a.abs()), "case {case}: {cfg:?}: {a} vs {c}");
        }
    }
}

#[test]
fn uniform_marginals_make_bbcnce_equal_simclr() {
    for case in 0..CASES {
        let (b, vals, _, _) = logits_and_marginals(&mut StdRng::seed_from_u64(case));
        // constant marginals shift logits uniformly => corrections no-op
        let mut g = Graph::new();
        let flat_pu = vec![-(b as f32).ln(); b];
        let flat_pi = vec![-(b as f32).ln(); b];
        let l1 = g.input(Tensor::from_vec([b, b], vals.clone()));
        let bbc = nce_loss(&mut g, l1, &flat_pu, &flat_pi, &BiasConfig::bbcnce());
        let l2 = g.input(Tensor::from_vec([b, b], vals.clone()));
        let sim = nce_loss(&mut g, l2, &flat_pu, &flat_pi, &BiasConfig::simclr());
        let (a, c) = (g.value(bbc).item(), g.value(sim).item());
        assert!((a - c).abs() < 1e-4 * (1.0 + a.abs()), "case {case}: {a} vs {c}");
    }
}

#[test]
fn nce_gradient_rows_sum_to_zero() {
    for case in 0..CASES {
        let (b, vals, pu, pi) = logits_and_marginals(&mut StdRng::seed_from_u64(case));
        // the row term's gradient per row sums to 0 (softmax CE property);
        // for bbcNCE each row's gradient sums over both terms' contributions,
        // so check the row-only loss
        let mut g = Graph::new();
        let l = g.input(Tensor::from_vec([b, b], vals.clone()));
        let loss = nce_loss(&mut g, l, &pu, &pi, &BiasConfig::row_bcnce());
        g.backward(loss);
        let grad = g.grad(l).expect("grad");
        for r in 0..b {
            let row_sum: f32 = grad.row(r).iter().sum();
            assert!(row_sum.abs() < 1e-5, "case {case}: row {r} gradient sum {row_sum}");
        }
    }
}

#[test]
fn bce_bounds_and_symmetry() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.gen_range(2usize..12);
        let vals = vec_in(&mut rng, -6.0, 6.0, n);
        let labels: Vec<f32> = (0..vals.len()).map(|i| (i % 2) as f32).collect();
        let mut g = Graph::new();
        let l = g.input(Tensor::vector(&vals));
        let loss = bce_loss(&mut g, l, &labels);
        let v = g.value(loss).item();
        assert!(v >= 0.0, "case {case}: negative BCE {v}");
        // symmetry: negating logits and flipping labels preserves the loss
        let neg: Vec<f32> = vals.iter().map(|x| -x).collect();
        let flipped: Vec<f32> = labels.iter().map(|y| 1.0 - y).collect();
        let l2 = g.input(Tensor::vector(&neg));
        let loss2 = bce_loss(&mut g, l2, &flipped);
        let v2 = g.value(loss2).item();
        assert!((v - v2).abs() < 1e-3 * (1.0 + v.abs()), "case {case}: {v} vs {v2}");
    }
}

#[test]
fn ssm_loss_decreases_in_positive_logit() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let base = rng.gen_range(-3.0f32..3.0);
        let neg = vec_in(&mut rng, -3.0, 3.0, 4);
        let q = vec![-2.0f32; 4];
        let run = |pos_val: f32| {
            let mut g = Graph::new();
            let p = g.input(Tensor::vector(&[pos_val]));
            let n = g.input(Tensor::from_vec([1, 4], neg.clone()));
            let loss = ssm_loss(&mut g, p, n, &[-2.0], &q);
            g.value(loss).item()
        };
        assert!(run(base + 1.0) < run(base), "case {case}: loss not decreasing in positive logit");
    }
}
