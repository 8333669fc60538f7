//! The user-item interaction matrix `S_ui` of Fig. 1, densely materialized
//! for *small* universes. The convergence experiments behind Tab. I/II fit
//! models against the exact empirical joint `p̂(u, i)` computed here.

use unimatch_data::windowing::Sample;

/// Dense interaction counts `c_ui` with row (user) and column (item)
/// marginals.
#[derive(Clone, Debug)]
pub struct InteractionMatrix {
    num_users: usize,
    num_items: usize,
    counts: Vec<u64>,
    total: u64,
}

impl InteractionMatrix {
    /// Accumulates counts from positive samples.
    pub fn from_samples(samples: &[Sample], num_users: u32, num_items: u32) -> Self {
        let (m, k) = (num_users as usize, num_items as usize);
        let mut counts = vec![0u64; m * k];
        for s in samples {
            counts[s.user as usize * k + s.target as usize] += 1;
        }
        let total = samples.len() as u64;
        InteractionMatrix { num_users: m, num_items: k, counts, total }
    }

    /// Accumulates counts from raw `(u, i)` pairs.
    pub fn from_pairs(pairs: &[(u32, u32)], num_users: u32, num_items: u32) -> Self {
        let (m, k) = (num_users as usize, num_items as usize);
        let mut counts = vec![0u64; m * k];
        for &(u, i) in pairs {
            counts[u as usize * k + i as usize] += 1;
        }
        InteractionMatrix { num_users: m, num_items: k, counts, total: pairs.len() as u64 }
    }

    /// Number of users (rows).
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items (columns).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Total interaction count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count `c_ui`.
    pub fn count(&self, u: u32, i: u32) -> u64 {
        self.counts[u as usize * self.num_items + i as usize]
    }

    /// Empirical joint `p̂(u, i)`.
    pub fn joint(&self, u: u32, i: u32) -> f64 {
        self.count(u, i) as f64 / self.total.max(1) as f64
    }

    /// Empirical user marginal `p̂(u) = N_u / N`.
    pub fn user_marginal(&self, u: u32) -> f64 {
        let row = &self.counts[u as usize * self.num_items..(u as usize + 1) * self.num_items];
        row.iter().sum::<u64>() as f64 / self.total.max(1) as f64
    }

    /// Empirical item marginal `p̂(i) = N_i / N`.
    pub fn item_marginal(&self, i: u32) -> f64 {
        let mut c = 0u64;
        for u in 0..self.num_users {
            c += self.counts[u * self.num_items + i as usize];
        }
        c as f64 / self.total.max(1) as f64
    }

    /// Conditional `p̂(i | u)` (0 when the user has no interactions).
    pub fn item_given_user(&self, u: u32, i: u32) -> f64 {
        let nu = self.user_marginal(u) * self.total as f64;
        if nu == 0.0 {
            0.0
        } else {
            self.count(u, i) as f64 / nu
        }
    }

    /// Conditional `p̂(u | i)` (0 when the item has no interactions).
    pub fn user_given_item(&self, u: u32, i: u32) -> f64 {
        let ni = self.item_marginal(i) * self.total as f64;
        if ni == 0.0 {
            0.0
        } else {
            self.count(u, i) as f64 / ni
        }
    }

    /// Pointwise mutual information `log (p̂(u,i) / (p̂(u)·p̂(i)))`;
    /// `None` for never-observed cells.
    pub fn pmi(&self, u: u32, i: u32) -> Option<f64> {
        if self.count(u, i) == 0 {
            return None;
        }
        Some((self.joint(u, i) / (self.user_marginal(u) * self.item_marginal(i))).ln())
    }

    /// Fraction of cells that are non-zero (matrix density).
    pub fn density(&self) -> f64 {
        let nz = self.counts.iter().filter(|&&c| c > 0).count();
        nz as f64 / (self.num_users * self.num_items) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> InteractionMatrix {
        InteractionMatrix::from_pairs(&[(0, 0), (0, 0), (0, 1), (1, 1)], 2, 2)
    }

    #[test]
    fn joints_and_marginals_consistent() {
        let m = matrix();
        assert_eq!(m.total(), 4);
        assert!((m.joint(0, 0) - 0.5).abs() < 1e-12);
        assert!((m.user_marginal(0) - 0.75).abs() < 1e-12);
        assert!((m.item_marginal(1) - 0.5).abs() < 1e-12);
        // Σ_i p(u,i) = p(u)
        let sum: f64 = (0..2).map(|i| m.joint(0, i)).sum();
        assert!((sum - m.user_marginal(0)).abs() < 1e-12);
    }

    #[test]
    fn conditionals() {
        let m = matrix();
        assert!((m.item_given_user(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.user_given_item(1, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pmi_zero_cell_is_none() {
        let m = matrix();
        assert!(m.pmi(1, 0).is_none());
        let pmi = m.pmi(0, 0).expect("seen cell");
        // p(0,0)=0.5, p(u=0)=0.75, p(i=0)=0.5 -> PMI = ln(0.5/0.375)
        assert!((pmi - (0.5f64 / 0.375).ln()).abs() < 1e-12);
    }

    #[test]
    fn density() {
        assert!((matrix().density() - 0.75).abs() < 1e-12);
    }
}
