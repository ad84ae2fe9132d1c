//! The Adam optimiser (Kingma & Ba, 2014) — the paper trains with Adam at
//! learning rate 1e-4 (§4.4).

use crate::param::{Bindings, ParamStore};
use crate::frame::{bad, put_f32s, put_len, Frame, MAX_DECODE_DIM};
use cmr_tensor::{Graph, TensorData};
use std::collections::HashMap;
use std::io;

/// Adam with bias correction and lazily allocated per-parameter state.
///
/// State is keyed by parameter id, so one optimiser instance serves a model
/// whose freeze set changes over training (frozen parameters simply receive
/// no gradient and their moments stay untouched).
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (default `0.9`).
    pub beta1: f32,
    /// Second-moment decay (default `0.999`).
    pub beta2: f32,
    /// Numerical fuzz (default `1e-8`).
    pub eps: f32,
    t: u64,
    moments: HashMap<usize, (TensorData, TensorData)>,
}

impl Adam {
    /// Creates an optimiser with the given learning rate and the standard
    /// `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, moments: HashMap::new() }
    }

    /// Number of update steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update: for every bound parameter with a gradient on `g`,
    /// updates its Adam moments and writes the new value into `store`.
    ///
    /// Returns the number of parameters updated.
    // cmr-lint: allow(panic-path) moments are created with each value's shape on first use; loop indices stay within value.len()
    pub fn step(&mut self, store: &mut ParamStore, g: &Graph, binds: &Bindings) -> usize {
        self.t += 1;
        // cmr-lint: allow(lossy-cast) powi exponent; step count cannot plausibly reach 2^31
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        // cmr-lint: allow(lossy-cast) powi exponent; step count cannot plausibly reach 2^31
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut updated = 0;

        for (pid, node) in binds.iter() {
            let Some(grad) = g.grad(node) else { continue };
            let value = store.value_mut(pid);
            let (m, v) = self.moments.entry(pid.0).or_insert_with(|| {
                (
                    TensorData::zeros(value.rows, value.cols),
                    TensorData::zeros(value.rows, value.cols),
                )
            });
            debug_assert_eq!(m.shape(), grad.shape(), "Adam: stale moment shape");
            for i in 0..value.len() {
                let gi = grad.data[i];
                m.data[i] = self.beta1 * m.data[i] + (1.0 - self.beta1) * gi;
                v.data[i] = self.beta2 * v.data[i] + (1.0 - self.beta2) * gi * gi;
                let mhat = m.data[i] / bc1;
                let vhat = v.data[i] / bc2;
                value.data[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            updated += 1;
        }
        updated
    }

    /// Serialises the full optimiser state: hyper-parameters, step count
    /// and both moment tensors per parameter. Entries are written in
    /// parameter-id order, so the encoding is byte-for-byte reproducible.
    pub fn save_state(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.t.to_le_bytes());
        for h in [self.lr, self.beta1, self.beta2, self.eps] {
            buf.extend_from_slice(&h.to_le_bytes());
        }
        let mut moments: Vec<_> = self.moments.iter().collect();
        moments.sort_unstable_by_key(|&(&pid, _)| pid);
        put_len(&mut buf, moments.len());
        for (&pid, (m, v)) in moments {
            buf.extend_from_slice(&(pid as u64).to_le_bytes());
            put_len(&mut buf, m.rows);
            put_len(&mut buf, m.cols);
            put_len(&mut buf, 2 * m.len() * 4);
            put_f32s(&mut buf, &m.data);
            put_f32s(&mut buf, &v.data);
        }
        buf
    }

    /// Restores a state captured by [`save_state`](Self::save_state),
    /// replacing the hyper-parameters, step count and all moments.
    ///
    /// # Errors
    /// `InvalidData` on truncation or malformed entries; the optimiser is
    /// left unchanged on error.
    pub fn load_state(&mut self, bytes: &[u8]) -> io::Result<()> {
        *self = Self::read_state(bytes)?;
        Ok(())
    }

    /// Decodes a [`save_state`](Self::save_state) blob into a fresh
    /// optimiser.
    pub(crate) fn read_state(bytes: &[u8]) -> io::Result<Adam> {
        let mut r = Frame::new(bytes, bytes.len());
        let t = r.u64()?;
        let (lr, beta1, beta2, eps) = (r.f32()?, r.f32()?, r.f32()?, r.f32()?);
        let n = r.u32()? as usize;
        // Each moment entry occupies at least 20 bytes: pid, shape, length.
        let mut entries = r.vec_for(n, 20)?;
        for _ in 0..n {
            let pid = r.u64()? as usize;
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            if rows > MAX_DECODE_DIM || cols > MAX_DECODE_DIM {
                return Err(bad(format!("implausible moment shape {rows}x{cols} for parameter {pid}")));
            }
            let (len, wire) = (rows * cols, r.u32()? as usize);
            if wire != 2 * len * 4 {
                return Err(bad(format!(
                    "Adam moment {pid}: payload {wire} bytes for shape {rows}x{cols}"
                )));
            }
            let m = TensorData::new(rows, cols, r.f32s(len)?);
            let v = TensorData::new(rows, cols, r.f32s(len)?);
            entries.push((pid, (m, v)));
        }
        r.finish()?;
        let moments: HashMap<_, _> = entries.into_iter().collect();
        if moments.len() != n {
            return Err(bad(format!("duplicate Adam moments: {n} entries, {} parameters", moments.len())));
        }
        Ok(Adam { lr, beta1, beta2, eps, t, moments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;

    /// Adam must drive a convex quadratic to its minimum.
    #[test]
    fn minimises_quadratic() {
        let mut store = ParamStore::new();
        let p = store.register("x", TensorData::row_vector(&[5.0, -3.0]));
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let mut g = Graph::new();
            let mut binds = Bindings::new();
            let x = store.bind(&mut g, &mut binds, p);
            // loss = sum((x - [1, 2])²)
            let target = g.leaf(TensorData::row_vector(&[1.0, 2.0]), false);
            let d = g.sub(x, target);
            let sq = g.mul(d, d);
            let loss = g.sum_all(sq);
            g.backward(loss);
            adam.step(&mut store, &g, &binds);
        }
        let x = store.value(p);
        assert!((x.data[0] - 1.0).abs() < 1e-2 && (x.data[1] - 2.0).abs() < 1e-2, "{x:?}");
    }

    /// Frozen parameters receive no gradient and therefore no update.
    #[test]
    fn skips_frozen_parameters() {
        let mut store = ParamStore::new();
        let p = store.register("x", TensorData::row_vector(&[1.0]));
        store.set_frozen(p, true);
        let mut adam = Adam::new(0.1);
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let x = store.bind(&mut g, &mut binds, p);
        let loss = g.sum_all(x);
        g.backward(loss);
        assert_eq!(adam.step(&mut store, &g, &binds), 0);
        assert_eq!(store.value(p).data, vec![1.0]);
    }

    /// Saving mid-optimisation and resuming in a fresh optimiser must
    /// continue the trajectory bit-identically.
    #[test]
    fn state_roundtrip_resumes_trajectory() {
        let run = |split_at: Option<usize>| -> Vec<f32> {
            let mut store = ParamStore::new();
            let p = store.register("x", TensorData::row_vector(&[5.0, -3.0]));
            let mut adam = Adam::new(0.1);
            for step in 0..40 {
                if split_at == Some(step) {
                    let blob = adam.save_state();
                    adam = Adam::new(0.999); // wrong lr, must be overwritten
                    adam.load_state(&blob).unwrap();
                }
                let mut g = Graph::new();
                let mut binds = Bindings::new();
                let x = store.bind(&mut g, &mut binds, p);
                let target = g.leaf(TensorData::row_vector(&[1.0, 2.0]), false);
                let d = g.sub(x, target);
                let sq = g.mul(d, d);
                let loss = g.sum_all(sq);
                g.backward(loss);
                adam.step(&mut store, &g, &binds);
            }
            store.value(p).data.clone()
        };
        assert_eq!(run(None), run(Some(17)));
    }

    /// Corrupt state bytes are rejected and leave the optimiser untouched.
    #[test]
    fn load_state_rejects_truncation() {
        let mut adam = Adam::new(0.1);
        let mut store = ParamStore::new();
        let p = store.register("x", TensorData::row_vector(&[1.0]));
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let x = store.bind(&mut g, &mut binds, p);
        let loss = g.sum_all(x);
        g.backward(loss);
        adam.step(&mut store, &g, &binds);

        let blob = adam.save_state();
        assert!(adam.load_state(&blob[..blob.len() - 2]).is_err());
        assert_eq!(adam.steps(), 1, "failed load must not clobber state");
        assert!(adam.load_state(&blob).is_ok());
    }

    /// A count field claiming ~2^30 moment entries in a tiny blob must be
    /// rejected before the decoder sizes the map, and the optimiser must
    /// stay untouched.
    #[test]
    fn load_state_rejects_gigabyte_moment_claim() {
        let mut store = ParamStore::new();
        let p = store.register("x", TensorData::row_vector(&[1.0]));
        let mut adam = Adam::new(0.1);
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let x = store.bind(&mut g, &mut binds, p);
        let loss = g.sum_all(x);
        g.backward(loss);
        adam.step(&mut store, &g, &binds);

        let mut blob = adam.save_state();
        // The u32 entry count sits after t(8) and the four f32 hypers(16).
        blob[24..28].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let err = adam.load_state(&blob).unwrap_err();
        assert!(err.to_string().contains("claims"), "{err}");
        assert_eq!(adam.steps(), 1, "failed load must not clobber state");
    }

    /// Step count and bias correction advance even when nothing updates.
    #[test]
    fn counts_steps() {
        let mut store = ParamStore::new();
        let mut adam = Adam::new(0.1);
        let g = Graph::new();
        let binds = Bindings::new();
        adam.step(&mut store, &g, &binds);
        adam.step(&mut store, &g, &binds);
        assert_eq!(adam.steps(), 2);
    }
}
