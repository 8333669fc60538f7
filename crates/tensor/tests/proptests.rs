//! Property-based tests for tensor kernels and graph invariants.
//!
//! Each property loops over `CASES` inputs, case `n` drawn from its own
//! `StdRng::seed_from_u64(n)`; a failure names its case, and looping
//! over that one number replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_tensor::{Graph, Shape, Tensor};

const CASES: u64 = 256;

fn vec_in(rng: &mut StdRng, lo: f32, hi: f32, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// `(m, n, m×n values)` with both sides in 1..6.
fn small_matrix(rng: &mut StdRng) -> (usize, usize, Vec<f32>) {
    let (m, n) = (rng.gen_range(1usize..6), rng.gen_range(1usize..6));
    (m, n, vec_in(rng, -10.0, 10.0, m * n))
}

#[test]
fn shape_offset_is_bijective() {
    for case in 0..CASES {
        let (m, n, _v) = small_matrix(&mut StdRng::seed_from_u64(case));
        let s = Shape::matrix(m, n);
        let mut seen = std::collections::HashSet::new();
        for i in 0..m {
            for j in 0..n {
                assert!(seen.insert(s.offset(&[i, j])), "case {case}");
            }
        }
        assert_eq!(seen.len(), s.numel(), "case {case}");
    }
}

#[test]
fn transpose_is_involution() {
    for case in 0..CASES {
        let (m, n, v) = small_matrix(&mut StdRng::seed_from_u64(case));
        let t = Tensor::from_vec([m, n], v);
        assert_eq!(t.transpose().transpose(), t, "case {case}");
    }
}

#[test]
fn matmul_distributes_over_add() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (m, k, a) = small_matrix(&mut rng);
        let len = rng.gen_range(1usize..36);
        let extra = vec_in(&mut rng, -10.0, 10.0, len);
        // b, c share shape [k, n] with n derived from extra's length
        let n = (extra.len() % 5) + 1;
        let b = Tensor::from_vec([k, n], (0..k * n).map(|i| extra[i % extra.len()]).collect());
        let c = Tensor::from_vec(
            [k, n],
            (0..k * n).map(|i| extra[(i * 7 + 3) % extra.len()]).collect(),
        );
        let a = Tensor::from_vec([m, k], a);
        let lhs = a.matmul(&b.zip(&c, |x, y| x + y));
        let rhs = a.matmul(&b).zip(&a.matmul(&c), |x, y| x + y);
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            assert!((x - y).abs() < 1e-2 * (1.0 + x.abs().max(y.abs())), "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for case in 0..CASES {
        let (m, n, v) = small_matrix(&mut StdRng::seed_from_u64(case));
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec([m, n], v));
        let s = g.softmax(a);
        let t = g.value(s);
        for r in 0..m {
            let sum: f32 = t.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: row sum {sum}");
            assert!(t.row(r).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)), "case {case}");
        }
    }
}

#[test]
fn log_softmax_shift_invariant() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (m, n, v) = small_matrix(&mut rng);
        let shift = rng.gen_range(-50.0f32..50.0);
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec([m, n], v.clone()));
        let shifted = g.constant(Tensor::from_vec([m, n], v.iter().map(|x| x + shift).collect()));
        let l1 = g.log_softmax(a);
        let l2 = g.log_softmax(shifted);
        for (x, y) in g.value(l1).data().iter().zip(g.value(l2).data().iter()) {
            assert!((x - y).abs() < 1e-3, "case {case}: {x} vs {y}");
        }
    }
}

#[test]
fn l2_normalize_yields_unit_rows() {
    // a matrix with no entry above 0.1 in magnitude is redrawn, not counted
    let checked = (0u64..)
        .map(|case| (case, small_matrix(&mut StdRng::seed_from_u64(case))))
        .filter(|(_, (_, _, v))| v.iter().any(|x| x.abs() > 0.1))
        .take(CASES as usize);
    for (case, (m, n, v)) in checked {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec([m, n], v));
        let s = g.l2_normalize_rows(a, 1e-12);
        let t = g.value(s);
        for r in 0..m {
            let norm: f32 = t.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            // rows that were ~zero stay ~zero; others become unit
            assert!(norm < 1e-3 || (norm - 1.0).abs() < 1e-3, "case {case}: norm {norm}");
        }
    }
}

#[test]
fn backward_leaves_values_unchanged() {
    for case in 0..CASES {
        let (m, n, v) = small_matrix(&mut StdRng::seed_from_u64(case));
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec([m, n], v.clone()));
        let sq = g.mul(a, a);
        let loss = g.sum_all(sq);
        let before = g.value(sq).clone();
        g.backward(loss);
        assert_eq!(g.value(sq), &before, "case {case}");
        // d(sum a^2)/da = 2a
        let grad = g.grad(a).expect("input grad");
        for (gv, xv) in grad.data().iter().zip(v.iter()) {
            assert!((gv - 2.0 * xv).abs() < 1e-3, "case {case}: {gv} vs 2·{xv}");
        }
    }
}

#[test]
fn mean_pool_masked_bounded_by_extremes() {
    for case in 0..CASES {
        let v = vec_in(&mut StdRng::seed_from_u64(case), -5.0, 5.0, 12);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec([2, 3, 2], v.clone()));
        let mask = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let p = g.mean_pool_masked(x, &mask);
        let t = g.value(p);
        for b in 0..2 {
            for j in 0..2 {
                let vals: Vec<f32> = (0..3).map(|l| v[(b * 3 + l) * 2 + j]).collect();
                let lo = vals.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let got = t.row(b)[j];
                assert!(
                    got >= lo - 1e-4 && got <= hi + 1e-4,
                    "case {case}: {got} outside [{lo}, {hi}]"
                );
            }
        }
    }
}
