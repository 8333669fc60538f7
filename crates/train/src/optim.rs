//! The Adam optimizer, aware of the engine's dense/sparse gradient
//! split. Embedding tables receive **lazy** updates — only rows
//! touched by the step pay any cost, which is what makes large-vocabulary
//! training tractable.

use crate::error::TrainError;
use crate::schedule::Schedule;
use std::collections::HashMap;
use unimatch_tensor::{Graph, ParamId, ParamSet, Tensor};

/// Global L2 norm of every gradient (dense and sparse) on a graph.
pub fn global_grad_norm(graph: &Graph) -> f32 {
    let mut sq = 0.0f64;
    for grad in graph.dense_grads().values() {
        sq += grad.norm_sq() as f64;
    }
    for sparse in graph.sparse_grads().values() {
        for row in sparse.rows.values() {
            sq += row.iter().map(|&g| (g as f64) * (g as f64)).sum::<f64>();
        }
    }
    (sq as f32).sqrt()
}

/// Adam configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator floor.
    pub eps: f32,
    /// Optional global-norm gradient clipping threshold.
    pub clip_norm: Option<f32>,
    /// Learning-rate schedule applied on top of `lr`.
    pub schedule: Schedule,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: None,
            schedule: Schedule::Constant,
        }
    }
}

impl AdamConfig {
    /// Default Adam with a custom learning rate.
    pub fn with_lr(lr: f32) -> Self {
        AdamConfig { lr, ..AdamConfig::default() }
    }
}

/// One embedding row's optimizer state: `(row index, first moment,
/// second moment)`.
pub type SparseRowState = (u32, Vec<f32>, Vec<f32>);

/// A portable snapshot of [`Adam`]'s internal state, keyed by parameter
/// name. Produced by [`Adam::export_state`]; the durable-training runner
/// serializes it into per-month checkpoints so a resumed run continues
/// with the exact moments an uninterrupted run would have had.
#[derive(Clone, Debug, Default)]
pub struct AdamState {
    /// Steps taken (drives bias correction and schedules).
    pub t: u64,
    /// Per-dense-parameter `(name, first moment, second moment)`.
    pub dense: Vec<(String, Tensor, Tensor)>,
    /// Per-embedding-table `(name, rows)`.
    pub sparse: Vec<(String, Vec<SparseRowState>)>,
}

/// Adam with dense state for dense parameters and per-row lazy state for
/// embedding tables.
#[derive(Debug)]
pub struct Adam {
    cfg: AdamConfig,
    t: u64,
    m: HashMap<ParamId, Tensor>,
    v: HashMap<ParamId, Tensor>,
    sparse_m: HashMap<ParamId, HashMap<u32, Vec<f32>>>,
    sparse_v: HashMap<ParamId, HashMap<u32, Vec<f32>>>,
}

impl Adam {
    /// Creates an Adam optimizer.
    pub fn new(cfg: AdamConfig) -> Self {
        Adam {
            cfg,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
            sparse_m: HashMap::new(),
            sparse_v: HashMap::new(),
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Overrides the base learning rate (the durable runner's LR backoff
    /// after a health rollback). Moments and step count are untouched.
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Snapshots the full optimizer state — step count plus first/second
    /// moments, dense and sparse — keyed by parameter *name* so the
    /// snapshot survives a process restart that rebuilds the `ParamSet`
    /// (ids are positional; names are stable). Output ordering is
    /// deterministic so serialized snapshots are byte-reproducible.
    pub fn export_state(&self, params: &ParamSet) -> AdamState {
        let name = |id: ParamId| params.name(id).to_string();
        let mut dense: Vec<(String, Tensor, Tensor)> = self
            .m
            .iter()
            .map(|(&id, m)| (name(id), m.clone(), self.v[&id].clone()))
            .collect();
        dense.sort_by(|a, b| a.0.cmp(&b.0));
        let mut sparse: Vec<(String, Vec<SparseRowState>)> = self
            .sparse_m
            .iter()
            .map(|(&id, rows_m)| {
                let rows_v = &self.sparse_v[&id];
                let mut rows: Vec<SparseRowState> = rows_m
                    .iter()
                    .map(|(&row, m)| (row, m.clone(), rows_v[&row].clone()))
                    .collect();
                rows.sort_by_key(|r| r.0);
                (name(id), rows)
            })
            .collect();
        sparse.sort_by(|a, b| a.0.cmp(&b.0));
        AdamState { t: self.t, dense, sparse }
    }

    /// Restores a snapshot taken by [`Adam::export_state`], resolving
    /// parameter names against `params`. Any name the model does not know,
    /// a moment whose shape is not its parameter's, a sparse row past its
    /// table or a sparse moment not as wide as the table is a
    /// state/architecture mismatch and fails the import whole — accepted,
    /// it would cut short the `zip` in [`Adam::step`] and silently stop
    /// training that parameter's tail.
    pub fn import_state(&mut self, params: &ParamSet, state: &AdamState) -> Result<(), TrainError> {
        let mismatch = |msg: String| Err(TrainError::StateMismatch(msg));
        let lookup = |name: &str| -> Result<ParamId, TrainError> {
            params
                .iter()
                .find(|(_, p)| p.name == name)
                .map(|(id, _)| id)
                .ok_or_else(|| TrainError::StateMismatch(format!("unknown parameter {name}")))
        };
        let mut m = HashMap::new();
        let mut v = HashMap::new();
        for (name, sm, sv) in &state.dense {
            let id = lookup(name)?;
            let shape = params.shape(id);
            for (which, moment) in [("first", sm), ("second", sv)] {
                if moment.shape() != shape {
                    return mismatch(format!(
                        "{which} moment shape {} for {name} does not match parameter {shape}",
                        moment.shape()
                    ));
                }
            }
            m.insert(id, sm.clone());
            v.insert(id, sv.clone());
        }
        let mut sparse_m = HashMap::new();
        let mut sparse_v = HashMap::new();
        for (name, rows) in &state.sparse {
            let id = lookup(name)?;
            let &[table_rows, width] = params.shape(id).dims() else {
                return mismatch(format!("sparse state for {name}, which is not a table"));
            };
            let mut rm = HashMap::new();
            let mut rv = HashMap::new();
            for (row, sm, sv) in rows {
                if *row as usize >= table_rows {
                    return mismatch(format!("sparse row {row} past {name}'s {table_rows} rows"));
                }
                if sm.len() != width || sv.len() != width {
                    return mismatch(format!(
                        "sparse moments of width {}/{} for {name} row {row}, table width {width}",
                        sm.len(),
                        sv.len()
                    ));
                }
                rm.insert(*row, sm.clone());
                rv.insert(*row, sv.clone());
            }
            sparse_m.insert(id, rm);
            sparse_v.insert(id, rv);
        }
        self.t = state.t;
        self.m = m;
        self.v = v;
        self.sparse_m = sparse_m;
        self.sparse_v = sparse_v;
        Ok(())
    }

    /// Applies one step from the gradients accumulated in `graph`.
    pub fn step(&mut self, params: &mut ParamSet, graph: &Graph) {
        self.t += 1;
        let (b1, b2) = (self.cfg.beta1, self.cfg.beta2);
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.cfg.lr * self.cfg.schedule.multiplier(self.t);
        // global-norm clipping rescales the *effective* gradients by
        // folding the factor into the step size-independent moments input
        let clip = match self.cfg.clip_norm {
            Some(max) => {
                let norm = global_grad_norm(graph);
                if norm > max {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let scale = lr * bias2.sqrt() / bias1;

        for (id, grad) in graph.dense_grads() {
            let shape = params.get(id).shape().clone();
            let m = self.m.entry(id).or_insert_with(|| Tensor::zeros(shape.clone()));
            let v = self.v.entry(id).or_insert_with(|| Tensor::zeros(shape));
            let p = params.get_mut(id);
            for ((pd, gd), (md, vd)) in p
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                let gd = gd * clip;
                *md = b1 * *md + (1.0 - b1) * gd;
                *vd = b2 * *vd + (1.0 - b2) * gd * gd;
                *pd -= scale * *md / (vd.sqrt() + self.cfg.eps);
            }
        }

        for (&id, sparse) in graph.sparse_grads() {
            let dim = sparse.dim;
            let sm = self.sparse_m.entry(id).or_default();
            let sv = self.sparse_v.entry(id).or_default();
            let table = params.get_mut(id);
            for (&row, grad) in &sparse.rows {
                let m = sm.entry(row).or_insert_with(|| vec![0.0; dim]);
                let v = sv.entry(row).or_insert_with(|| vec![0.0; dim]);
                let dst = table.row_mut(row as usize);
                for (((pd, &gd), md), vd) in
                    dst.iter_mut().zip(grad.iter()).zip(m.iter_mut()).zip(v.iter_mut())
                {
                    let gd = gd * clip;
                    *md = b1 * *md + (1.0 - b1) * gd;
                    *vd = b2 * *vd + (1.0 - b2) * gd * gd;
                    *pd -= scale * *md / (vd.sqrt() + self.cfg.eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimatch_tensor::Graph;

    /// Minimizes (x - 3)^2 with the given optimizer step.
    fn quadratic_target(opt_step: &mut dyn FnMut(&mut ParamSet, &Graph)) -> f32 {
        let mut params = ParamSet::new();
        let x = params.add("x", Tensor::vector(&[0.0]));
        for _ in 0..400 {
            let mut g = Graph::new();
            let xv = g.param(&params, x);
            let shifted = g.add_scalar(xv, -3.0);
            let sq = g.mul(shifted, shifted);
            let loss = g.sum_all(sq);
            g.backward(loss);
            opt_step(&mut params, &g);
        }
        params.get(x).data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(AdamConfig::with_lr(0.05));
        let x = quadratic_target(&mut |p, g| adam.step(p, g));
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn grad_clipping_bounds_update_magnitude() {
        // A huge-gradient step with clip_norm must move parameters no more
        // than an equivalent small-gradient step would.
        let run = |clip: Option<f32>| -> f32 {
            let mut params = ParamSet::new();
            let x = params.add("x", Tensor::vector(&[0.0]));
            let mut adam = Adam::new(AdamConfig { lr: 0.1, clip_norm: clip, ..Default::default() });
            let mut g = Graph::new();
            let xv = g.param(&params, x);
            let big = g.scale(xv, 1.0);
            let shifted = g.add_scalar(big, -1000.0);
            let sq = g.mul(shifted, shifted);
            let loss = g.sum_all(sq);
            g.backward(loss);
            adam.step(&mut params, &g);
            params.get(x).data()[0].abs()
        };
        // Adam normalizes by sqrt(v), so single-step displacement is ~lr in
        // both cases; clipping must not break that and must stay finite.
        let clipped = run(Some(1.0));
        let unclipped = run(None);
        assert!(clipped.is_finite() && unclipped.is_finite());
        assert!(clipped <= unclipped + 1e-6);
    }

    #[test]
    fn schedule_scales_first_step() {
        // warmup over 10 steps: first step uses lr/10
        let displacement = |schedule| -> f32 {
            let mut params = ParamSet::new();
            let x = params.add("x", Tensor::vector(&[0.0]));
            let mut adam = Adam::new(AdamConfig { lr: 0.1, schedule, ..Default::default() });
            let mut g = Graph::new();
            let xv = g.param(&params, x);
            let shifted = g.add_scalar(xv, -3.0);
            let sq = g.mul(shifted, shifted);
            let loss = g.sum_all(sq);
            g.backward(loss);
            adam.step(&mut params, &g);
            params.get(x).data()[0].abs()
        };
        let warm = displacement(crate::schedule::Schedule::Warmup { steps: 10 });
        let full = displacement(crate::schedule::Schedule::Constant);
        assert!((warm - full / 10.0).abs() < full * 0.02, "warm {warm} vs full {full}");
    }

    #[test]
    fn global_grad_norm_covers_dense_and_sparse() {
        let mut params = ParamSet::new();
        let w = params.add("w", Tensor::vector(&[1.0]));
        let table = params.add("emb", Tensor::ones([4, 1]));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let e = g.embedding(&params, table, &[2]);
        let flat = g.reshape(e, [1]);
        let both = g.mul(wv, flat);
        let loss = g.sum_all(both);
        g.backward(loss);
        // d/dw = e[2] = 1, d/de[2] = w = 1 -> norm = sqrt(2)
        let n = global_grad_norm(&g);
        assert!((n - 2f32.sqrt()).abs() < 1e-5, "norm {n}");
    }

    #[test]
    fn adam_sparse_only_touches_gathered_rows() {
        let mut params = ParamSet::new();
        let table = params.add("emb", Tensor::ones([4, 2]));
        let before_row3 = params.get(table).row(3).to_vec();
        let mut adam = Adam::new(AdamConfig::default());
        let mut g = Graph::new();
        let e = g.embedding(&params, table, &[0, 2]);
        let sq = g.mul(e, e);
        let loss = g.sum_all(sq);
        g.backward(loss);
        adam.step(&mut params, &g);
        // rows 0 and 2 moved, rows 1 and 3 untouched
        assert_ne!(params.get(table).row(0), [1.0, 1.0]);
        assert_ne!(params.get(table).row(2), [1.0, 1.0]);
        assert_eq!(params.get(table).row(1), [1.0, 1.0]);
        assert_eq!(params.get(table).row(3), before_row3.as_slice());
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        // two optimizers: one runs 20 steps straight; the other runs 10,
        // exports, is replaced by a fresh optimizer importing the state,
        // and runs 10 more — the trajectories must be identical
        let make = || {
            let mut params = ParamSet::new();
            params.add("w", Tensor::vector(&[0.0]));
            params.add("emb", Tensor::ones([4, 2]));
            params
        };
        let step = |adam: &mut Adam, params: &mut ParamSet| {
            let ids: Vec<ParamId> = params.ids().collect();
            let mut g = Graph::new();
            let wv = g.param(params, ids[0]);
            let e = g.embedding(params, ids[1], &[1, 3]);
            let ee = g.mul(e, e);
            let se = g.sum_all(ee);
            let ww = g.mul(wv, wv);
            let sw = g.sum_all(ww);
            let shifted = g.add_scalar(sw, -4.0);
            let loss = g.add(se, shifted);
            g.backward(loss);
            adam.step(params, &g);
        };

        let mut p1 = make();
        let mut a1 = Adam::new(AdamConfig::with_lr(0.05));
        for _ in 0..20 {
            step(&mut a1, &mut p1);
        }

        let mut p2 = make();
        let mut a2 = Adam::new(AdamConfig::with_lr(0.05));
        for _ in 0..10 {
            step(&mut a2, &mut p2);
        }
        let snapshot = a2.export_state(&p2);
        let mut resumed = Adam::new(AdamConfig::with_lr(0.05));
        resumed.import_state(&p2, &snapshot).expect("import");
        assert_eq!(resumed.steps(), 10);
        for _ in 0..10 {
            step(&mut resumed, &mut p2);
        }

        for (id, p) in p1.iter() {
            assert_eq!(p.value.data(), p2.get(id).data(), "{}", p.name);
        }
    }

    #[test]
    fn state_import_rejects_unknown_parameters() {
        let mut params = ParamSet::new();
        params.add("w", Tensor::vector(&[0.0]));
        let state = AdamState {
            t: 3,
            dense: vec![("nonexistent".into(), Tensor::vector(&[0.0]), Tensor::vector(&[0.0]))],
            sparse: vec![],
        };
        let mut adam = Adam::new(AdamConfig::default());
        assert!(adam.import_state(&params, &state).is_err());
        assert_eq!(adam.steps(), 0, "failed import must not partially apply");
    }

    /// A model with a dense vector `w` (2) and a 4 × 2 table `emb`, and a
    /// state that matches it; each rejection test breaks one field.
    fn matching_state() -> (ParamSet, AdamState) {
        let mut params = ParamSet::new();
        params.add("w", Tensor::vector(&[0.0, 0.0]));
        params.add("emb", Tensor::ones([4, 2]));
        let state = AdamState {
            t: 3,
            dense: vec![("w".into(), Tensor::vector(&[0.1, 0.2]), Tensor::vector(&[0.3, 0.4]))],
            sparse: vec![("emb".into(), vec![(3, vec![0.1, 0.2], vec![0.3, 0.4])])],
        };
        (params, state)
    }

    fn assert_state_mismatch(params: &ParamSet, state: &AdamState, needle: &str) {
        let mut adam = Adam::new(AdamConfig::default());
        match adam.import_state(params, state) {
            Err(TrainError::StateMismatch(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a StateMismatch naming {needle}, got {other:?}"),
        }
        assert_eq!(adam.steps(), 0, "failed import must not partially apply");
    }

    #[test]
    fn state_import_rejects_a_second_moment_of_another_shape() {
        let (params, mut state) = matching_state();
        state.dense[0].2 = Tensor::vector(&[0.3]);
        assert_state_mismatch(&params, &state, "second moment");
    }

    #[test]
    fn state_import_rejects_a_sparse_row_past_its_table() {
        let (params, mut state) = matching_state();
        state.sparse[0].1[0].0 = 4;
        assert_state_mismatch(&params, &state, "sparse row 4");
    }

    #[test]
    fn state_import_rejects_a_sparse_moment_of_another_width() {
        let (params, mut state) = matching_state();
        state.sparse[0].1[0].1 = vec![0.1];
        assert_state_mismatch(&params, &state, "table width 2");
        let (params, mut state) = matching_state();
        state.sparse[0].1[0].2 = vec![0.3, 0.4, 0.5];
        assert_state_mismatch(&params, &state, "table width 2");
    }

    #[test]
    fn sparse_embedding_regression_converges() {
        // Fit embedding rows so row r matches target t_r under MSE.
        let mut params = ParamSet::new();
        let table = params.add("emb", Tensor::zeros([3, 2]));
        let targets = [[1.0f32, -1.0], [0.5, 2.0], [-2.0, 0.25]];
        let mut adam = Adam::new(AdamConfig::with_lr(0.05));
        for _ in 0..500 {
            let mut g = Graph::new();
            let e = g.embedding(&params, table, &[0, 1, 2]);
            let t = g.constant(Tensor::from_vec([3, 2], targets.concat()));
            let diff = g.sub(e, t);
            let sq = g.mul(diff, diff);
            let loss = g.mean_all(sq);
            g.backward(loss);
            adam.step(&mut params, &g);
        }
        for (r, target) in targets.iter().enumerate() {
            for (a, b) in params.get(table).row(r).iter().zip(target) {
                assert!((a - b).abs() < 0.05, "row {r}: {a} vs {b}");
            }
        }
    }
}
