//! Product quantization of residual vectors.
//!
//! The flat IVF index stores every gallery row as `dim` f32s — 128 MB per
//! million rows at `dim = 32`, and the fine scan streams all of it. This
//! module compresses each row to `m` one-byte codes: the vector is split
//! into `m` contiguous subspaces and each sub-vector is replaced by the
//! index of its nearest centroid in a per-subspace codebook of `ks ≤ 256`
//! entries (Jégou et al., "Product Quantization for Nearest Neighbor
//! Search"). `m = dim` degenerates to scalar quantization; `m = dim/4`
//! gives 16x compression.
//!
//! Search uses **asymmetric distance computation** (ADC): the query stays
//! exact, and per query a table of partial dot products against every
//! codebook entry is built once; scoring a code is then `m` table lookups
//! instead of a `dim`-wide dot. Quantizing *residuals* (row minus its IVF
//! cell centroid) keeps the dynamic range small, which is where most of
//! the recall comes from — see [`crate::ivf::IvfIndex::quantize_residuals`].
//!
//! The table comes in two shapes with the same entries. The fused IVF
//! scan reads one padded to `m × 256`, so that any code byte indexes a
//! row with no clamp and no bounds check, and scores four codes per step.
//! The reference path reads the unpadded `m × ks`
//! [`ProductQuantizer::adc_table`] through the clamping
//! [`ProductQuantizer::adc_score`]. Both sum the `m` lookups in subspace
//! order from `+0.0`, so they give the same f32 for every code.

// cmr-lint: allow-file(panic-path) codebook extents are fixed by the constructor invariants (codebooks.len() == m*ks*sub); subspace loops index within them, code bytes are clamped with .min(ks-1) before indexing the unpadded table, and a u8 always indexes a [f32; 256] row of the padded one

use crate::embeddings::Embeddings;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// Why a quantizer could not be trained or reconstructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PqError {
    /// `m == 0`: at least one subspace is required.
    ZeroSubspaces,
    /// `dim` is not divisible by `m`, so subspaces would be ragged.
    DimNotDivisible {
        /// Vector dimensionality.
        dim: usize,
        /// Requested subspace count.
        m: usize,
    },
    /// `ks` is zero or exceeds 256 (codes are single bytes).
    BadCentroidCount(usize),
    /// No training vectors were supplied.
    EmptyTrainingSet,
    /// The operation needs flat (unquantized) storage, e.g. quantizing an
    /// index that is already quantized.
    NotFlat,
}

impl fmt::Display for PqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PqError::ZeroSubspaces => write!(f, "product quantizer needs m >= 1 subspaces"),
            PqError::DimNotDivisible { dim, m } => {
                write!(f, "dim {dim} is not divisible by m {m}")
            }
            PqError::BadCentroidCount(ks) => {
                write!(f, "ks must be in 1..=256, got {ks}")
            }
            PqError::EmptyTrainingSet => write!(f, "empty training set"),
            PqError::NotFlat => write!(f, "operation requires flat (unquantized) storage"),
        }
    }
}

impl std::error::Error for PqError {}

/// Reconstruction quality of a trained quantizer, measured on its own
/// training set after the final codebook update.
#[derive(Clone, Copy, Debug)]
pub struct TrainStats {
    /// Mean squared L2 reconstruction error per training row.
    pub mse: f64,
    /// Largest per-row L2 reconstruction error — every training row
    /// encodes and decodes back to within this distance.
    pub max_err: f32,
}

/// A trained product quantizer: `m` codebooks of `ks` centroids over
/// `dim/m`-wide subspaces.
#[derive(Clone, Debug)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    ks: usize,
    /// Codebook `j` occupies `codebooks[j*ks*sub .. (j+1)*ks*sub]`,
    /// centroid `c` of codebook `j` at `[(j*ks + c)*sub ..][..sub]`
    /// where `sub = dim / m`.
    codebooks: Vec<f32>,
}

impl ProductQuantizer {
    /// Validates `(dim, m, ks)` and returns the subspace width.
    fn check_shape(dim: usize, m: usize, ks: usize) -> Result<usize, PqError> {
        if m == 0 {
            return Err(PqError::ZeroSubspaces);
        }
        if dim == 0 || dim % m != 0 {
            return Err(PqError::DimNotDivisible { dim, m });
        }
        if ks == 0 || ks > 256 {
            return Err(PqError::BadCentroidCount(ks));
        }
        Ok(dim / m)
    }

    /// Trains codebooks with per-subspace L2 k-means (`iters` Lloyd
    /// iterations) on `data`. When `data` holds fewer than `ks` rows the
    /// centroid count is clamped to the row count, so the returned
    /// quantizer's [`ks`](Self::ks) may be smaller than requested.
    ///
    /// Deterministic for a fixed `rng` seed: seeding shuffles row indices,
    /// assignment breaks ties toward the lowest code, dead centroids
    /// reseed from rng-chosen rows.
    ///
    /// # Errors
    /// [`PqError`] on a shape that cannot be quantized or an empty
    /// training set.
    pub fn train(
        data: &Embeddings,
        m: usize,
        ks: usize,
        iters: usize,
        rng: &mut impl Rng,
    ) -> Result<(Self, TrainStats), PqError> {
        let dim = data.dim;
        let sub = Self::check_shape(dim, m, ks)?;
        let n = data.len();
        if n == 0 {
            return Err(PqError::EmptyTrainingSet);
        }
        let ks = ks.min(n);

        let mut codebooks = vec![0.0f32; m * ks * sub];
        // Shared seeding order: distinct rows per subspace.
        let mut seed_rows: Vec<usize> = (0..n).collect();
        seed_rows.shuffle(rng);
        for j in 0..m {
            let book = &mut codebooks[j * ks * sub..(j + 1) * ks * sub];
            for (c, &row) in seed_rows[..ks].iter().enumerate() {
                let v = &data.vector(row)[j * sub..(j + 1) * sub];
                book[c * sub..(c + 1) * sub].copy_from_slice(v);
            }
            let mut assignment = vec![0usize; n];
            for _ in 0..iters.max(1) {
                for (i, slot) in assignment.iter_mut().enumerate() {
                    let v = &data.vector(i)[j * sub..(j + 1) * sub];
                    *slot = nearest_code(book, sub, ks, v);
                }
                // Mean update; dead centroids reseed from a random row.
                let mut sums = vec![0.0f32; ks * sub];
                let mut counts = vec![0usize; ks];
                for (i, &c) in assignment.iter().enumerate() {
                    counts[c] += 1;
                    let v = &data.vector(i)[j * sub..(j + 1) * sub];
                    for (s, &x) in sums[c * sub..(c + 1) * sub].iter_mut().zip(v) {
                        *s += x;
                    }
                }
                for c in 0..ks {
                    if counts[c] == 0 {
                        let r = rng.gen_range(0..n);
                        let v = &data.vector(r)[j * sub..(j + 1) * sub];
                        sums[c * sub..(c + 1) * sub].copy_from_slice(v);
                        counts[c] = 1;
                    }
                    let inv = 1.0 / counts[c] as f32;
                    for x in &mut sums[c * sub..(c + 1) * sub] {
                        *x *= inv;
                    }
                }
                book.copy_from_slice(&sums);
            }
        }

        let pq = ProductQuantizer { dim, m, ks, codebooks };
        // Stats pass *after* the final update, so max_err bounds what
        // encode() of any training row can produce.
        let mut sq_sum = 0.0f64;
        let mut max_err = 0.0f32;
        let mut codes = Vec::with_capacity(m);
        let mut recon = vec![0.0f32; dim];
        for i in 0..n {
            let v = data.vector(i);
            codes.clear();
            pq.encode_into(v, &mut codes);
            pq.decode_into(&codes, &mut recon);
            let sq: f64 = v
                .iter()
                .zip(&recon)
                .map(|(&a, &b)| ((a - b) as f64) * ((a - b) as f64))
                .sum();
            sq_sum += sq;
            max_err = max_err.max(sq.sqrt() as f32);
        }
        let stats = TrainStats { mse: sq_sum / n as f64, max_err };
        Ok((pq, stats))
    }

    /// Reassembles a quantizer from serialized parts (the `CMRIVF1`
    /// loader's entry point).
    ///
    /// # Errors
    /// [`PqError`] when the shape is invalid or `codebooks` has the wrong
    /// length for `(dim, m, ks)`.
    pub fn from_parts(
        dim: usize,
        m: usize,
        ks: usize,
        codebooks: Vec<f32>,
    ) -> Result<Self, PqError> {
        let sub = Self::check_shape(dim, m, ks)?;
        if codebooks.len() != m * ks * sub {
            return Err(PqError::BadCentroidCount(ks));
        }
        Ok(ProductQuantizer { dim, m, ks, codebooks })
    }

    /// Vector dimensionality this quantizer encodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces — the encoded size of one vector in bytes.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Centroids per subspace codebook.
    pub fn ks(&self) -> usize {
        self.ks
    }

    /// The flat codebook array (for serialization): `m * ks * (dim/m)`
    /// f32s laid out as documented on the struct.
    pub fn codebooks(&self) -> &[f32] {
        &self.codebooks
    }

    /// Appends the `m` code bytes for `v` to `out` (argmin centroid per
    /// subspace, ties broken toward the lowest code).
    ///
    /// # Panics
    /// Panics if `v.len() != dim()`.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        assert_eq!(v.len(), self.dim, "ProductQuantizer::encode_into: dimension mismatch");
        let sub = self.dim / self.m;
        for j in 0..self.m {
            let book = &self.codebooks[j * self.ks * sub..(j + 1) * self.ks * sub];
            let code = nearest_code(book, sub, self.ks, &v[j * sub..(j + 1) * sub]);
            out.push(code as u8);
        }
    }

    /// The `m` code bytes for `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != dim()`.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.m);
        self.encode_into(v, &mut out);
        out
    }

    /// Reconstructs the vector for `codes` into `out`. Code bytes at or
    /// beyond `ks` (possible only for bytes from a corrupt or hostile
    /// file) are clamped to the last centroid rather than trusted.
    ///
    /// # Panics
    /// Panics if `codes.len() != m()` or `out.len() != dim()`.
    pub fn decode_into(&self, codes: &[u8], out: &mut [f32]) {
        assert_eq!(codes.len(), self.m, "ProductQuantizer::decode_into: code length mismatch");
        assert_eq!(out.len(), self.dim, "ProductQuantizer::decode_into: output length mismatch");
        let sub = self.dim / self.m;
        for (j, &byte) in codes.iter().enumerate() {
            let c = (byte as usize).min(self.ks - 1);
            let centroid = &self.codebooks[(j * self.ks + c) * sub..(j * self.ks + c + 1) * sub];
            out[j * sub..(j + 1) * sub].copy_from_slice(centroid);
        }
    }

    /// Reconstructs the vector for `codes`.
    ///
    /// # Panics
    /// Panics if `codes.len() != m()`.
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.decode_into(codes, &mut out);
        out
    }

    /// The per-query ADC table: entry `j*ks() + c` is the dot product of
    /// query subspace `j` with centroid `c` of codebook `j`, so the inner
    /// product of the query with any decoded vector is the sum of `m`
    /// lookups — see [`adc_score`](Self::adc_score). The fused scan's
    /// padded table holds the same entries.
    ///
    /// # Panics
    /// Panics if `query.len() != dim()`.
    pub fn adc_table(&self, query: &[f32]) -> Vec<f32> {
        self.adc_lut(query).iter().flat_map(|row| row[..self.ks].iter().copied()).collect()
    }

    /// The per-query ADC table padded for the fused scan: row `j` holds
    /// the `ks` partial dots of [`adc_table`](Self::adc_table)'s row `j`,
    /// and entries `c ≥ ks` repeat entry `ks − 1`. That is exactly the
    /// clamp [`adc_score`](Self::adc_score) and
    /// [`decode_into`](Self::decode_into) apply to a hostile code byte, so
    /// a code byte indexes its row directly — see [`lut_score`].
    ///
    /// # Panics
    /// Panics if `query.len() != dim()`.
    pub(crate) fn adc_lut(&self, query: &[f32]) -> Vec<[f32; 256]> {
        assert_eq!(query.len(), self.dim, "ProductQuantizer::adc_lut: dimension mismatch");
        let sub = self.dim / self.m;
        let mut lut = vec![[0.0f32; 256]; self.m];
        for (j, row) in lut.iter_mut().enumerate() {
            let q = &query[j * sub..(j + 1) * sub];
            let book = &self.codebooks[j * self.ks * sub..(j + 1) * self.ks * sub];
            for (entry, centroid) in row.iter_mut().zip(book.chunks_exact(sub)) {
                *entry = q.iter().zip(centroid).map(|(a, b)| a * b).sum();
            }
            let last = row[self.ks - 1];
            row[self.ks..].fill(last);
        }
        lut
    }

    /// Query·decoded(codes) via an [`adc_table`](Self::adc_table) — `m`
    /// lookups, no reconstruction. Out-of-range code bytes clamp exactly
    /// as in [`decode_into`](Self::decode_into), keeping the two paths
    /// bit-identical. The per-candidate reference for the fused scan.
    ///
    /// # Panics
    /// Panics if `codes.len() != m()` or the table is not `m() * ks()` long.
    #[inline]
    pub fn adc_score(&self, table: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(codes.len(), self.m);
        let mut sim = 0.0f32;
        for (j, &byte) in codes.iter().enumerate() {
            let c = (byte as usize).min(self.ks - 1);
            sim += table[j * self.ks + c];
        }
        sim
    }
}

/// One code's ADC score through an [`adc_lut`](ProductQuantizer::adc_lut)
/// table: the `m` lookups summed in subspace order from `+0.0`, the order
/// [`adc_score`](ProductQuantizer::adc_score) sums them in, so the two
/// return the same f32.
#[inline]
pub(crate) fn lut_score(lut: &[[f32; 256]], code: &[u8]) -> f32 {
    let mut sim = 0.0f32;
    for (row, &c) in lut.iter().zip(code) {
        sim += row[usize::from(c)];
    }
    sim
}

/// [`lut_score`] of four consecutive `m`-byte codes (`codes` holds
/// `4 * m` bytes) in one pass: four independent accumulators, so the
/// four add chains overlap instead of forming one serial chain. Each
/// accumulator still sums its own code's lookups in subspace order from
/// `+0.0`, so every score equals [`lut_score`]'s bit for bit.
#[inline]
pub(crate) fn lut_score4(lut: &[[f32; 256]], codes: &[u8]) -> [f32; 4] {
    let m = lut.len();
    let (c0, rest) = codes.split_at(m);
    let (c1, rest) = rest.split_at(m);
    let (c2, c3) = rest.split_at(m);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for ((((row, &a), &b), &c), &d) in lut.iter().zip(c0).zip(c1).zip(c2).zip(c3) {
        s0 += row[usize::from(a)];
        s1 += row[usize::from(b)];
        s2 += row[usize::from(c)];
        s3 += row[usize::from(d)];
    }
    [s0, s1, s2, s3]
}

/// Index of the centroid in `book` (ks centroids of width `sub`) nearest
/// to `v` by squared L2 distance, ties broken toward the lowest index.
fn nearest_code(book: &[f32], sub: usize, ks: usize, v: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..ks {
        let centroid = &book[c * sub..(c + 1) * sub];
        let d: f32 = v.iter().zip(centroid).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn random_data(n: usize, dim: usize, seed: u64) -> Embeddings {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Embeddings::new(dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    #[test]
    fn rejects_bad_shapes() {
        let data = random_data(10, 8, 1);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        assert_eq!(
            ProductQuantizer::train(&data, 0, 4, 2, &mut rng).unwrap_err(),
            PqError::ZeroSubspaces
        );
        assert_eq!(
            ProductQuantizer::train(&data, 3, 4, 2, &mut rng).unwrap_err(),
            PqError::DimNotDivisible { dim: 8, m: 3 }
        );
        assert_eq!(
            ProductQuantizer::train(&data, 2, 0, 2, &mut rng).unwrap_err(),
            PqError::BadCentroidCount(0)
        );
        assert_eq!(
            ProductQuantizer::train(&data, 2, 257, 2, &mut rng).unwrap_err(),
            PqError::BadCentroidCount(257)
        );
        let empty = Embeddings::with_capacity(8, 0);
        assert_eq!(
            ProductQuantizer::train(&empty, 2, 4, 2, &mut rng).unwrap_err(),
            PqError::EmptyTrainingSet
        );
    }

    #[test]
    fn ks_clamps_to_training_rows() {
        let data = random_data(3, 4, 3);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let (pq, _) = ProductQuantizer::train(&data, 2, 256, 2, &mut rng).unwrap();
        assert_eq!(pq.ks(), 3);
    }

    /// With at least as many centroids as distinct rows, every training
    /// row must reconstruct (nearly) exactly.
    #[test]
    fn enough_centroids_give_near_exact_reconstruction() {
        let data = random_data(8, 8, 5);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        let (pq, stats) = ProductQuantizer::train(&data, 4, 8, 10, &mut rng).unwrap();
        assert!(stats.mse < 1e-6, "mse {}", stats.mse);
        for i in 0..data.len() {
            let recon = pq.decode(&pq.encode(data.vector(i)));
            for (a, b) in data.vector(i).iter().zip(&recon) {
                assert!((a - b).abs() < 1e-3, "row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn adc_score_equals_dot_with_decoded_vector() {
        let data = random_data(60, 12, 7);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        let (pq, _) = ProductQuantizer::train(&data, 4, 8, 4, &mut rng).unwrap();
        let query: Vec<f32> = (0..12).map(|i| (i as f32 * 0.37).sin()).collect();
        let table = pq.adc_table(&query);
        for i in 0..8 {
            let codes = pq.encode(data.vector(i));
            let decoded = pq.decode(&codes);
            let direct: f32 = query.iter().zip(&decoded).map(|(a, b)| a * b).sum();
            let via_table = pq.adc_score(&table, &codes);
            // Both sum m partial dots; the partials themselves are computed
            // in the same order, so the results agree to f32 rounding of
            // the outer sum. With sub=3 the partials are exact matches.
            assert!((direct - via_table).abs() < 1e-5, "row {i}: {direct} vs {via_table}");
        }
    }

    /// Out-of-range code bytes (hostile file) clamp identically in decode
    /// and adc_score instead of panicking.
    #[test]
    fn out_of_range_codes_clamp_consistently() {
        let data = random_data(20, 8, 9);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(10);
        let (pq, _) = ProductQuantizer::train(&data, 2, 4, 3, &mut rng).unwrap();
        let hostile = vec![255u8, 200];
        let clamped = vec![(pq.ks() - 1) as u8; 2];
        assert_eq!(pq.decode(&hostile), pq.decode(&clamped));
        let q: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let table = pq.adc_table(&q);
        assert_eq!(pq.adc_score(&table, &hostile), pq.adc_score(&table, &clamped));
    }

    #[test]
    fn from_parts_validates_codebook_length() {
        let data = random_data(30, 8, 11);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(12);
        let (pq, _) = ProductQuantizer::train(&data, 2, 4, 3, &mut rng).unwrap();
        let rebuilt =
            ProductQuantizer::from_parts(8, 2, 4, pq.codebooks().to_vec()).unwrap();
        assert_eq!(rebuilt.encode(data.vector(0)), pq.encode(data.vector(0)));
        assert!(ProductQuantizer::from_parts(8, 2, 4, vec![0.0; 7]).is_err());
        assert!(ProductQuantizer::from_parts(8, 3, 4, vec![0.0; 12]).is_err());
    }

    proptest! {
        /// Every training row reconstructs to within the reported max_err
        /// bound (plus f32 slack) — the TrainStats contract.
        #[test]
        fn training_rows_roundtrip_within_reported_bound(
            seed in 0u64..50, n in 4usize..40, m in 1usize..4, ks in 2usize..9
        ) {
            let dim = m * 4;
            let data = random_data(n, dim, seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xABCD);
            let (pq, stats) = ProductQuantizer::train(&data, m, ks, 4, &mut rng).unwrap();
            for i in 0..n {
                let recon = pq.decode(&pq.encode(data.vector(i)));
                let err: f64 = data.vector(i).iter().zip(&recon)
                    .map(|(&a, &b)| ((a - b) as f64) * ((a - b) as f64))
                    .sum::<f64>()
                    .sqrt();
                prop_assert!(
                    err <= stats.max_err as f64 + 1e-5,
                    "row {} err {} > bound {}", i, err, stats.max_err
                );
            }
        }

        /// encode∘decode is a fixpoint: re-encoding a decoded vector gives
        /// the same codes (each decoded subvector IS a centroid, and
        /// nearest_code of a centroid is itself under lowest-tie-break).
        #[test]
        fn encode_decode_is_a_fixpoint(seed in 0u64..50, n in 4usize..30) {
            let data = random_data(n, 8, seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x1234);
            let (pq, _) = ProductQuantizer::train(&data, 2, 4, 3, &mut rng).unwrap();
            for i in 0..n {
                let codes = pq.encode(data.vector(i));
                let recoded = pq.encode(&pq.decode(&codes));
                prop_assert_eq!(pq.decode(&recoded), pq.decode(&codes), "row {}", i);
            }
        }

        /// The chosen code is optimal: no random alternative code vector
        /// reconstructs with smaller error.
        #[test]
        fn encoding_is_argmin_over_random_alternatives(
            seed in 0u64..50, n in 4usize..30, alt_seed in 0u64..1000
        ) {
            let data = random_data(n, 8, seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x77);
            let (pq, _) = ProductQuantizer::train(&data, 2, 4, 3, &mut rng).unwrap();
            let mut alt_rng = rand::rngs::SmallRng::seed_from_u64(alt_seed);
            for i in 0..n {
                let v = data.vector(i);
                let chosen = pq.decode(&pq.encode(v));
                let chosen_err: f32 =
                    v.iter().zip(&chosen).map(|(a, b)| (a - b) * (a - b)).sum();
                let alt: Vec<u8> =
                    (0..pq.m()).map(|_| alt_rng.gen_range(0..pq.ks()) as u8).collect();
                let alt_recon = pq.decode(&alt);
                let alt_err: f32 =
                    v.iter().zip(&alt_recon).map(|(a, b)| (a - b) * (a - b)).sum();
                prop_assert!(
                    chosen_err <= alt_err + 1e-6,
                    "row {}: chosen {} vs alt {}", i, chosen_err, alt_err
                );
            }
        }
    }
}
