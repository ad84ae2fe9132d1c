//! Binary checkpointing: parameter blobs (v1) and full training state (v2).
//!
//! Two on-disk formats share one file family:
//!
//! * **`CMRCKPT1`** — the legacy param-only blob: a small header, then per
//!   parameter its name, shape, freeze flag and raw little-endian `f32`
//!   payload. Still written for in-memory best-model snapshots and still
//!   accepted on load.
//! * **`CMRCKPT2`** — the crash-safe full-training-state format: the same
//!   parameter body, then the [`Adam`] optimiser state (moments + step
//!   count), then trainer state (RNG words, epoch counter, best-validation
//!   tracking, and an opaque trainer-owned `extra` section), terminated by
//!   a CRC-32 integrity footer ([`crate::crc32`]).
//!
//! Both decode through the shared [`Frame`] reader in one pass into a
//! fresh [`Checkpoint`]; the footer is verified at the end of that pass.
//! Only then does [`Checkpoint::apply`] touch the destination: it checks
//! every entry against the store (known name, matching shape, no
//! duplicates) before it writes the first one. A truncated, bit-flipped or
//! mismatched blob therefore leaves the store and the optimiser exactly as
//! they were. `CMREMB1` embedding blobs use the same reader.
//!
//! Both formats are byte-for-byte reproducible: saving, loading and saving
//! again yields an identical blob (moments are written in parameter-id
//! order, never hash order).

use crate::adam::Adam;
use crate::frame::{bad, put_f32s, put_len, seal, Frame, MAX_DECODE_DIM};
use crate::param::{ParamId, ParamStore};
use cmr_tensor::TensorData;
use std::collections::HashSet;
use std::io::{self, Read};

const MAGIC_V1: &[u8; 8] = b"CMRCKPT1";
const MAGIC_V2: &[u8; 8] = b"CMRCKPT2";
const MAGIC_EMB: &[u8; 8] = b"CMREMB1\0";

fn write_params_body(store: &ParamStore, buf: &mut Vec<u8>) {
    put_len(buf, store.len());
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        // cmr-lint: allow(lossy-cast) param names are short identifiers, well under 64 KiB
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name);
        let v = store.value(id);
        put_len(buf, v.rows);
        put_len(buf, v.cols);
        buf.push(u8::from(store.is_frozen(id)));
        put_f32s(buf, &v.data);
    }
}

/// One decoded parameter entry, not yet written to any store.
struct Entry {
    name: String,
    frozen: bool,
    value: TensorData,
}

fn read_params_body<R: Read>(r: &mut Frame<R>) -> io::Result<Vec<Entry>> {
    let count = r.u32()? as usize;
    // Each entry occupies at least 11 bytes: name length, shape, freeze flag.
    let mut entries = r.vec_for(count, 11)?;
    for _ in 0..count {
        let name_len = r.u16()? as usize;
        let name = String::from_utf8(r.bytes(name_len)?)
            .map_err(|e| bad(format!("parameter name not utf-8: {e}")))?;
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        if rows > MAX_DECODE_DIM || cols > MAX_DECODE_DIM {
            return Err(bad(format!("implausible shape {rows}x{cols} for {name:?}")));
        }
        let frozen = r.u8()? != 0;
        let value = TensorData::new(rows, cols, r.f32s(rows * cols)?);
        entries.push(Entry { name, frozen, value });
    }
    Ok(entries)
}

fn read_v1(bytes: &[u8]) -> io::Result<Vec<Entry>> {
    let mut r = Frame::new(bytes, bytes.len());
    r.magic(MAGIC_V1)?;
    let entries = read_params_body(&mut r)?;
    r.finish()?;
    Ok(entries)
}

/// Writes decoded entries into `store` once every one of them has been
/// checked against it, so an entry that does not fit leaves the store
/// untouched.
fn apply_params(store: &mut ParamStore, entries: Vec<Entry>) -> io::Result<()> {
    let mut seen = HashSet::with_capacity(entries.len());
    let mut ids: Vec<ParamId> = Vec::with_capacity(entries.len());
    for e in &entries {
        if !seen.insert(e.name.as_str()) {
            return Err(bad(format!("duplicate parameter {:?} in checkpoint", e.name)));
        }
        let id = store
            .by_name(&e.name)
            .ok_or_else(|| bad(format!("checkpoint parameter {:?} not in store", e.name)))?;
        let (have, got) = (store.value(id).shape(), e.value.shape());
        if have != got {
            return Err(bad(format!(
                "shape mismatch for {:?}: checkpoint {}x{}, store {}x{}",
                e.name, got.0, got.1, have.0, have.1
            )));
        }
        ids.push(id);
    }
    for (id, e) in ids.into_iter().zip(entries) {
        *store.value_mut(id) = e.value;
        store.set_frozen(id, e.frozen);
    }
    Ok(())
}

/// Serialises every parameter (name, shape, freeze flag, payload) as a v1
/// `CMRCKPT1` blob.
pub fn save_params(store: &ParamStore) -> Vec<u8> {
    let mut buf = MAGIC_V1.to_vec();
    write_params_body(store, &mut buf);
    buf
}

/// Restores parameter values (and freeze flags) from a v1 blob into an
/// existing store.
///
/// The store must already contain a parameter for every name in the
/// checkpoint, with a matching shape — checkpoints restore *values*, not
/// architecture. On error the store is unchanged.
///
/// # Errors
/// Returns `InvalidData` on a bad magic/truncation/trailing bytes, an
/// unknown or duplicate parameter name, or a shape mismatch.
pub fn load_params(store: &mut ParamStore, bytes: &[u8]) -> io::Result<()> {
    apply_params(store, read_v1(bytes)?)
}

/// Trainer-side state carried by a v2 checkpoint alongside the parameters
/// and optimiser moments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainState {
    /// Raw xoshiro256++ words of the training RNG at the epoch boundary.
    pub rng: [u64; 4],
    /// The next epoch to run (epochs `0..next_epoch` are complete).
    pub next_epoch: u64,
    /// Epoch of the best-validation model so far.
    pub best_epoch: u64,
    /// Best validation MedR so far (`f64::INFINITY` when none).
    pub best_val: f64,
    /// Opaque trainer-owned section (epoch stats, best-model blob, sampler
    /// order…). The format layer stores and checksums it without
    /// interpreting it.
    pub extra: Vec<u8>,
}

/// Serialises the full training state — parameters, optimiser, trainer
/// state — as a v2 `CMRCKPT2` blob with a CRC-32 footer.
pub fn save_checkpoint(store: &ParamStore, adam: &Adam, state: &TrainState) -> Vec<u8> {
    let mut buf = MAGIC_V2.to_vec();
    write_params_body(store, &mut buf);
    let adam_state = adam.save_state();
    put_len(&mut buf, adam_state.len());
    buf.extend_from_slice(&adam_state);
    for w in state.rng {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf.extend_from_slice(&state.next_epoch.to_le_bytes());
    buf.extend_from_slice(&state.best_epoch.to_le_bytes());
    buf.extend_from_slice(&state.best_val.to_le_bytes());
    put_len(&mut buf, state.extra.len());
    buf.extend_from_slice(&state.extra);
    seal(&mut buf);
    buf
}

/// A decoded and verified `CMRCKPT1`/`CMRCKPT2` blob that has not been
/// written anywhere yet.
pub struct Checkpoint {
    params: Vec<Entry>,
    /// Optimiser and trainer state; `None` for a v1 param-only blob.
    train: Option<(Adam, TrainState)>,
}

impl Checkpoint {
    /// Decodes either checkpoint version in one pass (verifying the v2
    /// CRC footer at its end) without touching any store.
    ///
    /// # Errors
    /// `InvalidData` on bad magic, truncation, trailing bytes, hostile
    /// counts or shapes, or a CRC mismatch.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.starts_with(MAGIC_V1) {
            return Ok(Checkpoint { params: read_v1(bytes)?, train: None });
        }
        let mut r = Frame::sealed(bytes, bytes.len())?;
        r.magic(MAGIC_V2)?;
        let params = read_params_body(&mut r)?;
        let adam = Adam::read_state(&r.len_prefixed()?)?;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = r.u64()?;
        }
        let (next_epoch, best_epoch, best_val) = (r.u64()?, r.u64()?, r.f64()?);
        let extra = r.len_prefixed()?;
        r.finish()?;
        let state = TrainState { rng, next_epoch, best_epoch, best_val, extra };
        Ok(Checkpoint { params, train: Some((adam, state)) })
    }

    /// The trainer state of a v2 checkpoint (`None` for v1).
    pub fn state(&self) -> Option<&TrainState> {
        self.train.as_ref().map(|(_, state)| state)
    }

    /// Writes the parameters into `store` and, for v2, replaces `adam`,
    /// returning the trainer state. Every parameter is checked against the
    /// store first; on error neither `store` nor `adam` is modified.
    ///
    /// # Errors
    /// `InvalidData` on an unknown or duplicate parameter name or a shape
    /// mismatch.
    pub fn apply(self, store: &mut ParamStore, adam: &mut Adam) -> io::Result<Option<TrainState>> {
        apply_params(store, self.params)?;
        Ok(self.train.map(|(fresh, state)| {
            *adam = fresh;
            state
        }))
    }
}

/// Loads either checkpoint version into `store` (and, for v2, `adam`).
///
/// Returns `Ok(Some(state))` for a v2 blob and `Ok(None)` for a legacy v1
/// param-only blob (parameters restored, optimiser and trainer state left
/// untouched — a resume from v1 restarts the schedule at epoch 0).
///
/// The whole blob is decoded and verified before anything is written, so
/// on error `store` and `adam` are unmodified.
///
/// # Errors
/// `InvalidData` on bad magic, truncation, CRC mismatch, unknown/duplicate
/// parameter names, or shape mismatches.
pub fn load_checkpoint(
    store: &mut ParamStore,
    adam: &mut Adam,
    bytes: &[u8],
) -> io::Result<Option<TrainState>> {
    Checkpoint::decode(bytes)?.apply(store, adam)
}

/// Serialises a flat embedding matrix (`n` rows × `dim` columns, row-major
/// little-endian `f32`) as a `CMREMB1` blob with a CRC-32 footer.
///
/// This is the serving-side companion to the training checkpoints: after a
/// model is trained, the encoded gallery embeddings are exported once into
/// this format so a server can map them back into memory without replaying
/// the encoder. Like the checkpoints, the blob is byte-for-byte
/// reproducible and integrity-checked.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `dim` or `dim == 0`.
// cmr-lint: allow(panic-path) documented precondition: data.len() % dim == 0 asserted at entry
pub fn save_embedding_blob(dim: usize, data: &[f32]) -> Vec<u8> {
    assert!(dim > 0, "save_embedding_blob: dim must be positive");
    assert_eq!(data.len() % dim, 0, "save_embedding_blob: data length not a multiple of dim");
    let mut buf = Vec::with_capacity(MAGIC_EMB.len() + 8 + data.len() * 4 + 4);
    buf.extend_from_slice(MAGIC_EMB);
    put_len(&mut buf, dim);
    put_len(&mut buf, data.len() / dim);
    put_f32s(&mut buf, data);
    seal(&mut buf);
    buf
}

/// Loads a `CMREMB1` embedding blob, returning `(dim, row_major_data)`.
///
/// # Errors
/// `InvalidData` on bad magic, truncation, CRC mismatch, or a payload whose
/// length disagrees with the header.
pub fn load_embedding_blob(bytes: &[u8]) -> io::Result<(usize, Vec<f32>)> {
    let mut r = Frame::sealed(bytes, bytes.len())?;
    r.magic(MAGIC_EMB)?;
    let dim = r.u32()? as usize;
    let n = r.u32()? as usize;
    if dim == 0 {
        return Err(bad("embedding blob has zero dim".into()));
    }
    if n > MAX_DECODE_DIM || dim > MAX_DECODE_DIM {
        return Err(bad(format!("implausible embedding shape {n}x{dim}")));
    }
    if r.remaining() != n * dim * 4 {
        return Err(bad(format!(
            "embedding blob payload is {} bytes, header promises {}",
            r.remaining(),
            n * dim * 4
        )));
    }
    let data = r.f32s(n * dim)?;
    r.finish()?;
    Ok((dim, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use cmr_tensor::{init, Graph};
    use rand::SeedableRng;

    fn store_with(seed: u64) -> ParamStore {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut s = ParamStore::new();
        s.register("a.w", init::normal(&mut rng, 3, 4, 1.0));
        s.register("b.w", init::normal(&mut rng, 2, 2, 1.0));
        s
    }

    /// Runs a few Adam steps so the optimiser has non-trivial moments.
    fn stepped_adam(store: &mut ParamStore, steps: usize) -> Adam {
        let mut adam = Adam::new(0.05);
        for _ in 0..steps {
            let mut g = Graph::new();
            let mut binds = crate::Bindings::new();
            let ids: Vec<ParamId> = store.ids().collect();
            let mut nodes = Vec::new();
            for id in ids {
                nodes.push(store.bind(&mut g, &mut binds, id));
            }
            let mut loss = g.sum_all(nodes[0]);
            for &n in &nodes[1..] {
                let s = g.sum_all(n);
                loss = g.add(loss, s);
            }
            g.backward(loss);
            adam.step(store, &g, &binds);
        }
        adam
    }

    #[test]
    fn roundtrip_preserves_values_and_freeze() {
        let mut src = store_with(1);
        src.set_frozen(src.by_name("b.w").unwrap(), true);
        let blob = save_params(&src);

        let mut dst = store_with(2); // different values, same names/shapes
        load_params(&mut dst, &blob).unwrap();
        for name in ["a.w", "b.w"] {
            let i = src.by_name(name).unwrap();
            let j = dst.by_name(name).unwrap();
            assert_eq!(src.value(i).data, dst.value(j).data, "{name}");
        }
        assert!(dst.is_frozen(dst.by_name("b.w").unwrap()));
    }

    #[test]
    fn rejects_corrupt_magic() {
        let mut dst = store_with(1);
        assert!(load_params(&mut dst, b"NOTACKPTxxxx").is_err());
    }

    #[test]
    fn rejects_truncation() {
        let src = store_with(1);
        let blob = save_params(&src);
        let mut dst = store_with(1);
        assert!(load_params(&mut dst, &blob[..blob.len() - 3]).is_err());
    }

    #[test]
    fn rejects_unknown_parameter() {
        let src = store_with(1);
        let blob = save_params(&src);
        let mut dst = ParamStore::new();
        dst.register("other", TensorData::zeros(1, 1));
        assert!(load_params(&mut dst, &blob).is_err());
    }

    #[test]
    fn rejects_shape_mismatch() {
        let src = store_with(1);
        let blob = save_params(&src);
        let mut dst = ParamStore::new();
        dst.register("a.w", TensorData::zeros(4, 3));
        dst.register("b.w", TensorData::zeros(2, 2));
        assert!(load_params(&mut dst, &blob).is_err());
    }

    /// A hand-built blob listing the same parameter twice must be rejected
    /// rather than silently applying last-wins (regression: duplicates used
    /// to overwrite).
    #[test]
    fn rejects_duplicate_parameter_entries() {
        let mut src = ParamStore::new();
        src.register("a.w", TensorData::full(1, 2, 1.0));
        let blob = save_params(&src);
        // Double the single entry: header count 2, entry bytes repeated.
        let entry = blob[MAGIC_V1.len() + 4..].to_vec();
        let mut doubled = Vec::new();
        doubled.extend_from_slice(MAGIC_V1);
        doubled.extend_from_slice(&2u32.to_le_bytes());
        doubled.extend_from_slice(&entry);
        doubled.extend_from_slice(&entry);

        let mut dst = ParamStore::new();
        dst.register("a.w", TensorData::zeros(1, 2));
        let err = load_params(&mut dst, &doubled).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn v2_roundtrip_restores_everything_bit_identically() {
        let mut src = store_with(3);
        let adam = stepped_adam(&mut src, 4);
        let state = TrainState {
            rng: [1, 2, 3, 4],
            next_epoch: 7,
            best_epoch: 5,
            best_val: 12.5,
            extra: vec![9, 8, 7],
        };
        let blob = save_checkpoint(&src, &adam, &state);

        let mut dst = store_with(4);
        let mut dst_adam = Adam::new(0.05);
        let loaded = load_checkpoint(&mut dst, &mut dst_adam, &blob).unwrap().unwrap();
        assert_eq!(loaded, state);
        assert_eq!(dst_adam.steps(), adam.steps());
        // save→load→save bit-identity
        assert_eq!(save_checkpoint(&dst, &dst_adam, &loaded), blob);
    }

    #[test]
    fn v2_detects_any_single_byte_corruption() {
        let mut src = store_with(5);
        let adam = stepped_adam(&mut src, 2);
        let state = TrainState { best_val: 3.0, ..TrainState::default() };
        let blob = save_checkpoint(&src, &adam, &state);
        // Flip one byte in each region: magic, params, adam, state, footer.
        for &i in &[0, 12, blob.len() / 2, blob.len() - 20, blob.len() - 1] {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            let mut dst = store_with(5);
            let mut dst_adam = Adam::new(0.05);
            assert!(
                load_checkpoint(&mut dst, &mut dst_adam, &bad).is_err(),
                "byte {i} flip undetected"
            );
        }
    }

    #[test]
    fn v2_rejects_truncation() {
        let mut src = store_with(6);
        let adam = stepped_adam(&mut src, 1);
        let blob = save_checkpoint(&src, &adam, &TrainState::default());
        for cut in [blob.len() - 1, blob.len() / 2, 9, 3] {
            let mut dst = store_with(6);
            let mut dst_adam = Adam::new(0.05);
            assert!(
                load_checkpoint(&mut dst, &mut dst_adam, &blob[..cut]).is_err(),
                "truncation to {cut} bytes undetected"
            );
        }
    }

    #[test]
    fn embedding_blob_roundtrips_bit_identically() {
        let data: Vec<f32> = (0..12).map(|i| i as f32 * 0.25 - 1.0).collect();
        let blob = save_embedding_blob(3, &data);
        let (dim, loaded) = load_embedding_blob(&blob).unwrap();
        assert_eq!(dim, 3);
        assert_eq!(loaded, data);
        // save→load→save bit-identity
        assert_eq!(save_embedding_blob(dim, &loaded), blob);
    }

    #[test]
    fn embedding_blob_accepts_zero_rows() {
        let blob = save_embedding_blob(5, &[]);
        let (dim, loaded) = load_embedding_blob(&blob).unwrap();
        assert_eq!(dim, 5);
        assert!(loaded.is_empty());
    }

    #[test]
    fn embedding_blob_detects_corruption_and_truncation() {
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let blob = save_embedding_blob(4, &data);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(load_embedding_blob(&bad).is_err(), "byte {i} flip undetected");
        }
        for cut in [blob.len() - 1, blob.len() / 2, 10, 0] {
            assert!(load_embedding_blob(&blob[..cut]).is_err(), "truncation to {cut} undetected");
        }
    }

    #[test]
    fn embedding_blob_rejects_header_payload_disagreement() {
        let data: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let mut blob = save_embedding_blob(2, &data);
        // Claim 4 rows instead of 3 and re-stamp the CRC so only the header
        // check can catch it.
        blob.truncate(blob.len() - 4);
        blob[12..16].copy_from_slice(&4u32.to_le_bytes());
        let crc = crc32(&blob);
        blob.extend_from_slice(&crc.to_le_bytes());
        let err = load_embedding_blob(&blob).unwrap_err();
        assert!(err.to_string().contains("header promises"), "{err}");
    }

    /// v1 blobs still load through the v2 entry point: parameters restored,
    /// `None` returned, optimiser untouched.
    #[test]
    fn v1_blob_loads_as_param_only() {
        let src = store_with(7);
        let blob = save_params(&src);
        let mut dst = store_with(8);
        let mut adam = Adam::new(0.1);
        let loaded = load_checkpoint(&mut dst, &mut adam, &blob).unwrap();
        assert!(loaded.is_none());
        assert_eq!(adam.steps(), 0);
        for name in ["a.w", "b.w"] {
            let i = src.by_name(name).unwrap();
            let j = dst.by_name(name).unwrap();
            assert_eq!(src.value(i).data, dst.value(j).data, "{name}");
        }
    }

    /// Bit patterns of every parameter, with its freeze flag — the
    /// "destination unchanged" comparison surface.
    fn snapshot_bits(store: &ParamStore) -> Vec<(String, bool, Vec<u32>)> {
        store
            .ids()
            .map(|id| {
                let bits = store.value(id).data.iter().map(|x| x.to_bits()).collect();
                (store.name(id).to_string(), store.is_frozen(id), bits)
            })
            .collect()
    }

    /// A v1 blob whose *second* entry does not fit the destination must
    /// fail without having written the first one: `{a.w, b.w}` into a
    /// store holding only `a.w` leaves `a.w` bit-for-bit unchanged.
    #[test]
    fn failed_v1_load_leaves_the_store_untouched() {
        let blob = save_params(&store_with(1));
        let mut dst = ParamStore::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        dst.register("a.w", init::normal(&mut rng, 3, 4, 1.0));
        let before = snapshot_bits(&dst);
        assert!(load_params(&mut dst, &blob).is_err());
        assert_eq!(snapshot_bits(&dst), before, "load_params half-applied");
        let mut adam = Adam::new(0.1);
        assert!(load_checkpoint(&mut dst, &mut adam, &blob).is_err());
        assert_eq!(snapshot_bits(&dst), before, "load_checkpoint(v1) half-applied");
    }

    /// The v2 twin: a CRC-valid `CMRCKPT2` blob loaded into a store that
    /// lacks one of its parameters fails and leaves both the store and the
    /// optimiser exactly as they were.
    #[test]
    fn failed_v2_load_leaves_store_and_optimiser_untouched() {
        let mut src = store_with(3);
        let adam = stepped_adam(&mut src, 2);
        let blob = save_checkpoint(&src, &adam, &TrainState { best_val: 1.5, ..TrainState::default() });
        let mut dst = ParamStore::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(98);
        dst.register("a.w", init::normal(&mut rng, 3, 4, 1.0));
        let mut dst_adam = stepped_adam(&mut dst, 1);
        let (before, adam_before) = (snapshot_bits(&dst), dst_adam.save_state());
        assert!(load_checkpoint(&mut dst, &mut dst_adam, &blob).is_err());
        assert_eq!(snapshot_bits(&dst), before, "store half-applied");
        assert_eq!(dst_adam.save_state(), adam_before, "optimiser half-applied");
    }

    /// A count field claiming ~2^30 parameters in a tiny blob must be
    /// rejected up front — before the decoder sizes any collection — so a
    /// hostile header cannot force a giant allocation.
    #[test]
    fn rejects_gigabyte_param_count_claim() {
        let store = store_with(11);
        let mut blob = save_params(&store);
        // The u32 entry count sits right after the 8-byte magic.
        blob[8..12].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut dst = store_with(11);
        let err = load_params(&mut dst, &blob).unwrap_err();
        assert!(err.to_string().contains("claims"), "{err}");
    }

    /// A per-entry shape claiming an implausible dimension is rejected
    /// before its payload allocation.
    #[test]
    fn rejects_implausible_param_shape() {
        let store = store_with(12);
        let mut blob = save_params(&store);
        // First entry: magic(8) + count(4) + name_len(2) + name("a.w", 3)
        // puts its rows field at offset 17.
        blob[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dst = store_with(12);
        let err = load_params(&mut dst, &blob).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// An embedding blob whose header promises ~2^30 rows must be rejected
    /// by the shape plausibility check, not by attempting the allocation.
    #[test]
    fn rejects_gigabyte_embedding_claim() {
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC_EMB);
        payload.extend_from_slice(&4u32.to_le_bytes()); // dim
        payload.extend_from_slice(&(1u32 << 30).to_le_bytes()); // n
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        let err = load_embedding_blob(&payload).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }
}
