//! The Tab. I / Tab. II convergence experiments.
//!
//! We fit a **free logit table** `φ[u,i]` (no encoder, no temperature —
//! nothing constrains the optimum) on samples from a small synthetic
//! joint distribution, under each loss / negative-sampling configuration,
//! then regress the fitted `φ` against every candidate theoretical optimum
//! (`log p̂(i|u)`, `log p̂(u|i)`, PMI, `log p̂(u,i)`). The paper's claim
//! is that each configuration's designated target wins the fit.
//!
//! Gauge freedom: a row-only softmax loss cannot pin down per-user
//! offsets (`φ + f(u)` is equally optimal), so fits are compared after
//! removing the appropriate per-row / per-column / global means.

use crate::matrix::InteractionMatrix;
use rand::rngs::StdRng;
use rand::Rng;
use unimatch_data::alias::AliasTable;
use unimatch_losses::{bce_loss, nce_loss, BiasConfig};
use unimatch_tensor::{Graph, ParamSet, Tensor, Var};
use unimatch_train::{Adam, AdamConfig};

/// A small fully-materialized joint distribution over users × items.
pub struct ToyJoint {
    /// Number of users.
    pub m: usize,
    /// Number of items.
    pub k: usize,
    /// The empirical counts matrix.
    pub matrix: InteractionMatrix,
    /// Sampler over `(u, i)` cells proportional to the counts.
    cell_sampler: AliasTable,
    /// Sampler over users proportional to the marginal.
    user_sampler: AliasTable,
    /// Sampler over items proportional to the marginal.
    item_sampler: AliasTable,
}

impl ToyJoint {
    /// Builds a structured random joint: Zipf item popularity, skewed user
    /// activity, and a block-affinity structure so the joint is far from
    /// the product of its marginals (otherwise PMI degenerates).
    pub fn structured(m: usize, k: usize, rng: &mut StdRng) -> Self {
        let clusters = 3usize;
        let mut weights = vec![0f64; m * k];
        let user_act: Vec<f64> = (0..m).map(|u| 1.0 / (1.0 + u as f64 % 5.0)).collect();
        let item_pop: Vec<f64> = (0..k).map(|i| 1.0 / (1.0 + i as f64).powf(0.8)).collect();
        for u in 0..m {
            for i in 0..k {
                let affinity = if u % clusters == i % clusters { 4.0 } else { 1.0 };
                let jitter = rng.gen_range(0.5..1.5);
                weights[u * k + i] = user_act[u] * item_pop[i] * affinity * jitter;
            }
        }
        // quantize to counts (total ~ 20k so marginals are well estimated)
        let total_w: f64 = weights.iter().sum();
        let mut pairs = Vec::new();
        for u in 0..m {
            for i in 0..k {
                let c = (weights[u * k + i] / total_w * 20_000.0).round() as u64;
                for _ in 0..c {
                    pairs.push((u as u32, i as u32));
                }
            }
        }
        let matrix = InteractionMatrix::from_pairs(&pairs, m as u32, k as u32);
        let counts: Vec<f64> = (0..m * k)
            .map(|ix| matrix.count((ix / k) as u32, (ix % k) as u32) as f64)
            .collect();
        let user_w: Vec<f64> = (0..m).map(|u| matrix.user_marginal(u as u32)).collect();
        let item_w: Vec<f64> = (0..k).map(|i| matrix.item_marginal(i as u32)).collect();
        ToyJoint {
            m,
            k,
            cell_sampler: AliasTable::new(&counts),
            user_sampler: AliasTable::new(&user_w),
            item_sampler: AliasTable::new(&item_w),
            matrix,
        }
    }

    /// Samples one `(u, i)` positive pair from the joint.
    pub fn sample_pair(&self, rng: &mut StdRng) -> (u32, u32) {
        let cell = self.cell_sampler.sample(rng) as usize;
        ((cell / self.k) as u32, (cell % self.k) as u32)
    }

    /// Samples a user from the empirical marginal.
    pub fn sample_user(&self, rng: &mut StdRng) -> u32 {
        self.user_sampler.sample(rng)
    }

    /// Samples an item from the empirical marginal.
    pub fn sample_item(&self, rng: &mut StdRng) -> u32 {
        self.item_sampler.sample(rng)
    }
}

/// The candidate theoretical optima of Tabs. I and II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// `log p̂(i|u)`.
    ItemGivenUser,
    /// `log p̂(u|i)`.
    UserGivenItem,
    /// `log (p̂(u,i) / (p̂(u)·p̂(i)))`.
    Pmi,
    /// `log p̂(u,i)`.
    Joint,
}

impl Target {
    /// All four candidates.
    pub const ALL: [Target; 4] = [Target::ItemGivenUser, Target::UserGivenItem, Target::Pmi, Target::Joint];

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Target::ItemGivenUser => "log p(i|u)",
            Target::UserGivenItem => "log p(u|i)",
            Target::Pmi => "PMI",
            Target::Joint => "log p(u,i)",
        }
    }

    /// The target value on a seen cell.
    pub fn value(self, m: &InteractionMatrix, u: u32, i: u32) -> f64 {
        match self {
            Target::ItemGivenUser => m.item_given_user(u, i).ln(),
            Target::UserGivenItem => m.user_given_item(u, i).ln(),
            Target::Pmi => m.pmi(u, i).expect("seen cell"),
            Target::Joint => m.joint(u, i).ln(),
        }
    }
}

/// Gauge under which a fit is compared (the loss's unidentifiable offsets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Global additive constant only.
    Global,
    /// Per-user (row) offsets are free.
    PerRow,
    /// Per-item (column) offsets are free.
    PerCol,
}

/// Fits the free logit table under an NCE config with in-batch negatives.
pub fn fit_nce(
    joint: &ToyJoint,
    cfg: &BiasConfig,
    steps: usize,
    batch: usize,
    lr: f32,
    rng: &mut StdRng,
) -> Tensor {
    let mut params = ParamSet::new();
    let phi = params.add("phi", Tensor::zeros([joint.m, joint.k]));
    let mut adam = Adam::new(AdamConfig::with_lr(lr));
    let log_pu_all: Vec<f32> = (0..joint.m)
        .map(|u| (joint.matrix.user_marginal(u as u32).max(1e-12)).ln() as f32)
        .collect();
    let log_pi_all: Vec<f32> = (0..joint.k)
        .map(|i| (joint.matrix.item_marginal(i as u32).max(1e-12)).ln() as f32)
        .collect();
    for _ in 0..steps {
        let pairs: Vec<(u32, u32)> = (0..batch).map(|_| joint.sample_pair(rng)).collect();
        let users: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
        let items: Vec<u32> = pairs.iter().map(|&(_, i)| i).collect();
        let mut g = Graph::new();
        let logits = gather_logit_matrix(&mut g, &params, phi, &users, &items, joint.k);
        let log_pu: Vec<f32> = users.iter().map(|&u| log_pu_all[u as usize]).collect();
        let log_pi: Vec<f32> = items.iter().map(|&i| log_pi_all[i as usize]).collect();
        let loss = nce_loss(&mut g, logits, &log_pu, &log_pi, cfg);
        g.backward(loss);
        adam.step(&mut params, &g);
    }
    params.get(phi).clone()
}

/// The Tab. I negative-sampling strategies for the BCE fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BceNoise {
    /// `p_n ∝ p̂(u)`: keep the positive's user, item uniform.
    UserFreq,
    /// `p_n ∝ p̂(i)`: keep the positive's item, user uniform.
    ItemFreq,
    /// `p_n ∝ p̂(u)p̂(i)`: both from their empirical marginals.
    Product,
    /// `p_n = 1/(MK)`: both uniform.
    Uniform,
}

impl BceNoise {
    /// All four strategies in Tab. I order.
    pub const ALL: [BceNoise; 4] = [BceNoise::UserFreq, BceNoise::ItemFreq, BceNoise::Product, BceNoise::Uniform];

    /// Label matching Tab. I.
    pub fn label(self) -> &'static str {
        match self {
            BceNoise::UserFreq => "p(u)",
            BceNoise::ItemFreq => "p(i)",
            BceNoise::Product => "p(u)p(i)",
            BceNoise::Uniform => "1/MK",
        }
    }

    /// The designated Tab. I optimum.
    pub fn designated_target(self) -> Target {
        match self {
            BceNoise::UserFreq => Target::ItemGivenUser,
            BceNoise::ItemFreq => Target::UserGivenItem,
            BceNoise::Product => Target::Pmi,
            BceNoise::Uniform => Target::Joint,
        }
    }

    /// The gauge of the BCE fit: none beyond a global constant.
    pub fn gauge(self) -> Gauge {
        Gauge::Global
    }
}

/// Fits the free logit table with BCE under a Tab. I noise distribution.
pub fn fit_bce(
    joint: &ToyJoint,
    noise: BceNoise,
    steps: usize,
    batch: usize,
    lr: f32,
    rng: &mut StdRng,
) -> Tensor {
    let mut params = ParamSet::new();
    let phi = params.add("phi", Tensor::zeros([joint.m, joint.k]));
    let mut adam = Adam::new(AdamConfig::with_lr(lr));
    for _ in 0..steps {
        let mut users = Vec::with_capacity(batch);
        let mut items = Vec::with_capacity(batch);
        let mut labels = Vec::with_capacity(batch);
        for _ in 0..batch / 2 {
            let (u, i) = joint.sample_pair(rng);
            users.push(u);
            items.push(i);
            labels.push(1.0);
            let (nu, ni) = match noise {
                BceNoise::UserFreq => (u, rng.gen_range(0..joint.k as u32)),
                BceNoise::ItemFreq => (rng.gen_range(0..joint.m as u32), i),
                BceNoise::Product => (joint.sample_user(rng), joint.sample_item(rng)),
                BceNoise::Uniform => {
                    (rng.gen_range(0..joint.m as u32), rng.gen_range(0..joint.k as u32))
                }
            };
            users.push(nu);
            items.push(ni);
            labels.push(0.0);
        }
        let mut g = Graph::new();
        let rows = g.embedding(&params, phi, &users);
        let item_ix: Vec<usize> = items.iter().map(|&i| i as usize).collect();
        let pair_logits = g.pick_per_row(rows, &item_ix);
        let loss = bce_loss(&mut g, pair_logits, &labels);
        g.backward(loss);
        adam.step(&mut params, &g);
    }
    params.get(phi).clone()
}

/// Fits the free logit table with sampled softmax (negatives from the
/// item marginal, logQ-corrected) — Tab. II's SSM row, designed to
/// converge to `log p̂(i|u)`.
pub fn fit_ssm(
    joint: &ToyJoint,
    negatives: usize,
    steps: usize,
    batch: usize,
    lr: f32,
    rng: &mut StdRng,
) -> Tensor {
    let mut params = ParamSet::new();
    let phi = params.add("phi", Tensor::zeros([joint.m, joint.k]));
    let mut adam = Adam::new(AdamConfig::with_lr(lr));
    let log_q: Vec<f32> = (0..joint.k)
        .map(|i| (joint.matrix.item_marginal(i as u32).max(1e-12)).ln() as f32)
        .collect();
    for _ in 0..steps {
        let pairs: Vec<(u32, u32)> = (0..batch).map(|_| joint.sample_pair(rng)).collect();
        let users: Vec<u32> = pairs.iter().map(|&(u, _)| u).collect();
        let pos_items: Vec<usize> = pairs.iter().map(|&(_, i)| i as usize).collect();
        let neg_items: Vec<u32> = (0..negatives).map(|_| joint.sample_item(rng)).collect();
        let mut g = Graph::new();
        let rows = g.embedding(&params, phi, &users); // [B, K]
        let pos = g.pick_per_row(rows, &pos_items); // [B]
        // negatives: select the shared negative columns
        let mut sel = Tensor::zeros([joint.k, negatives]);
        for (c, &i) in neg_items.iter().enumerate() {
            sel.data_mut()[i as usize * negatives + c] = 1.0;
        }
        let sv = g.constant(sel);
        let neg = g.matmul(rows, sv); // [B, n]
        let log_q_pos: Vec<f32> = pos_items.iter().map(|&i| log_q[i]).collect();
        let log_q_neg: Vec<f32> = neg_items.iter().map(|&i| log_q[i as usize]).collect();
        let loss = unimatch_losses::ssm_loss(&mut g, pos, neg, &log_q_pos, &log_q_neg);
        g.backward(loss);
        adam.step(&mut params, &g);
    }
    params.get(phi).clone()
}

/// Builds the `[B,B]` in-batch logit matrix `φ[u_r, i_c]` from the free
/// table: gather user rows, then select item columns via a 0/1 matrix.
fn gather_logit_matrix(
    g: &mut Graph,
    params: &ParamSet,
    phi: unimatch_tensor::ParamId,
    users: &[u32],
    items: &[u32],
    k: usize,
) -> Var {
    let rows = g.embedding(params, phi, users); // [B, K]
    let b = items.len();
    let mut sel = Tensor::zeros([k, b]);
    for (c, &i) in items.iter().enumerate() {
        sel.data_mut()[i as usize * b + c] = 1.0;
    }
    let sv = g.constant(sel);
    g.matmul(rows, sv) // [B, B]
}

/// R² of an affine fit `φ ≈ a·target + b` over the *seen* cells, after
/// removing the gauge's free offsets from both sides.
pub fn fit_r2(phi: &Tensor, joint: &ToyJoint, target: Target, gauge: Gauge) -> f64 {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut rows = Vec::new();
    let mut cols = Vec::new();
    for u in 0..joint.m as u32 {
        for i in 0..joint.k as u32 {
            if joint.matrix.count(u, i) > 0 {
                xs.push(target.value(&joint.matrix, u, i));
                ys.push(phi.at(&[u as usize, i as usize]) as f64);
                rows.push(u as usize);
                cols.push(i as usize);
            }
        }
    }
    let center = |v: &mut [f64], groups: &[usize], n_groups: usize| {
        let mut sums = vec![0.0; n_groups];
        let mut counts = vec![0usize; n_groups];
        for (x, &gix) in v.iter().zip(groups) {
            sums[gix] += x;
            counts[gix] += 1;
        }
        for (x, &gix) in v.iter_mut().zip(groups) {
            *x -= sums[gix] / counts[gix].max(1) as f64;
        }
    };
    match gauge {
        Gauge::Global => {
            let all = vec![0usize; xs.len()];
            center(&mut xs, &all, 1);
            center(&mut ys, &all, 1);
        }
        Gauge::PerRow => {
            center(&mut xs, &rows, joint.m);
            center(&mut ys, &rows, joint.m);
        }
        Gauge::PerCol => {
            center(&mut xs, &cols, joint.k);
            center(&mut ys, &cols, joint.k);
        }
    }
    // least-squares slope through the origin (both sides centered)
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    let syy: f64 = ys.iter().map(|y| y * y).sum();
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    let slope = sxy / sxx;
    let ss_res: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| {
            let e = y - slope * x;
            e * e
        })
        .sum();
    1.0 - ss_res / syy
}

/// The NCE rows of Tab. II: `(label, config, designated target, gauge)`.
pub fn nce_table() -> Vec<(&'static str, BiasConfig, Target, Gauge)> {
    vec![
        ("InfoNCE", BiasConfig::infonce(), Target::Pmi, Gauge::PerRow),
        ("SimCLR", BiasConfig::simclr(), Target::Pmi, Gauge::Global),
        ("row-bcNCE", BiasConfig::row_bcnce(), Target::ItemGivenUser, Gauge::PerRow),
        ("col-bcNCE", BiasConfig::col_bcnce(), Target::UserGivenItem, Gauge::PerCol),
        ("bbcNCE", BiasConfig::bbcnce(), Target::Joint, Gauge::Global),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn joint() -> ToyJoint {
        let mut rng = StdRng::seed_from_u64(77);
        ToyJoint::structured(9, 7, &mut rng)
    }

    #[test]
    fn structured_joint_is_not_product_of_marginals() {
        let j = joint();
        // at least one seen cell has |PMI| > 0.3
        let mut max_abs: f64 = 0.0;
        for u in 0..j.m as u32 {
            for i in 0..j.k as u32 {
                if let Some(p) = j.matrix.pmi(u, i) {
                    max_abs = max_abs.max(p.abs());
                }
            }
        }
        assert!(max_abs > 0.3, "max |PMI| = {max_abs}");
    }

    #[test]
    fn targets_are_distinguishable() {
        // the four targets must not be affinely identical over seen cells
        let j = joint();
        let mut vals: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for u in 0..j.m as u32 {
            for i in 0..j.k as u32 {
                if j.matrix.count(u, i) > 0 {
                    for (t_ix, t) in Target::ALL.iter().enumerate() {
                        vals[t_ix].push(t.value(&j.matrix, u, i));
                    }
                }
            }
        }
        for a in 0..4 {
            for b in (a + 1)..4 {
                let corr = pearson(&vals[a], &vals[b]);
                assert!(corr < 0.999, "targets {a} and {b} collinear: {corr}");
            }
        }
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        (cov / (va * vb).sqrt()).abs()
    }

    #[test]
    fn bbcnce_fits_the_joint_best() {
        let j = joint();
        let mut rng = StdRng::seed_from_u64(5);
        let phi = fit_nce(&j, &BiasConfig::bbcnce(), 1200, 128, 0.05, &mut rng);
        let r2_joint = fit_r2(&phi, &j, Target::Joint, Gauge::Global);
        assert!(r2_joint > 0.85, "R² against log p(u,i) = {r2_joint}");
        let r2_pmi = fit_r2(&phi, &j, Target::Pmi, Gauge::Global);
        assert!(
            r2_joint > r2_pmi,
            "joint {r2_joint} should beat PMI {r2_pmi} for bbcNCE"
        );
    }

    #[test]
    fn row_bcnce_recovers_conditional_not_pmi() {
        let j = joint();
        let mut rng = StdRng::seed_from_u64(6);
        let phi = fit_nce(&j, &BiasConfig::row_bcnce(), 1200, 128, 0.05, &mut rng);
        let r2_cond = fit_r2(&phi, &j, Target::ItemGivenUser, Gauge::PerRow);
        let r2_pmi = fit_r2(&phi, &j, Target::Pmi, Gauge::PerRow);
        assert!(r2_cond > 0.8, "R² = {r2_cond}");
        assert!(r2_cond > r2_pmi, "cond {r2_cond} vs pmi {r2_pmi}");
    }

    #[test]
    fn infonce_recovers_pmi_not_conditional() {
        let j = joint();
        let mut rng = StdRng::seed_from_u64(7);
        let phi = fit_nce(&j, &BiasConfig::infonce(), 1200, 128, 0.05, &mut rng);
        let r2_pmi = fit_r2(&phi, &j, Target::Pmi, Gauge::PerRow);
        let r2_cond = fit_r2(&phi, &j, Target::ItemGivenUser, Gauge::PerRow);
        assert!(r2_pmi > 0.8, "R² = {r2_pmi}");
        assert!(r2_pmi > r2_cond, "pmi {r2_pmi} vs cond {r2_cond}");
    }

    #[test]
    fn bce_uniform_recovers_the_joint() {
        let j = joint();
        let mut rng = StdRng::seed_from_u64(8);
        let phi = fit_bce(&j, BceNoise::Uniform, 2500, 256, 0.05, &mut rng);
        let r2 = fit_r2(&phi, &j, Target::Joint, Gauge::Global);
        assert!(r2 > 0.75, "R² against log p(u,i) = {r2}");
    }

    #[test]
    fn bce_user_freq_recovers_item_conditional() {
        let j = joint();
        let mut rng = StdRng::seed_from_u64(9);
        let phi = fit_bce(&j, BceNoise::UserFreq, 2500, 256, 0.05, &mut rng);
        let r2_cond = fit_r2(&phi, &j, Target::ItemGivenUser, Gauge::Global);
        let r2_joint = fit_r2(&phi, &j, Target::Joint, Gauge::Global);
        assert!(r2_cond > 0.75, "R² = {r2_cond}");
        assert!(r2_cond > r2_joint, "cond {r2_cond} vs joint {r2_joint}");
    }
}
