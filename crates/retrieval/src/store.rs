//! `CMRIVF1` — the persistent IVF index format.
//!
//! A million-row gallery takes minutes of k-means to index; serving
//! replicas must not pay that on every boot. This module serializes a
//! built [`IvfIndex`] (flat or PQ cells) to one integrity-checked blob and
//! loads it back byte-identically, with the same machinery as the
//! `CMRCKPT` checkpoints: [`cmr_nn::atomic_write`] (temp + fsync + rename)
//! on save, and the shared [`Frame`] reader with its CRC-32 footer on load.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! "CMRIVF1\0"                      8-byte magic
//! u32 dim · u32 nlist · u64 n      shape header
//! u8  kind                         0 = flat, 1 = pq
//! [kind=pq] u32 m · u32 ks         quantizer shape
//! f32 × nlist·dim                  centroids, row-major
//! per cell: u32 count, u32 × count gallery row ids
//! [kind=flat] f32 × n·dim          gallery, global row order
//! [kind=pq]   f32 × ks·dim         codebooks, then per cell u8 × count·m codes
//! u32 crc32                        footer over everything above
//! ```
//!
//! ## Hostile-input posture
//!
//! The loader treats the file as attacker-shaped bytes. Shape fields are
//! capped at [`MAX_DECODE_DIM`] before they size anything; every count
//! goes through a [`Frame`] helper that rejects it unless the remaining
//! payload can hold it; and row ids are range- and duplicate-checked
//! before they may ever index a gallery. The cmr-lint taint gate traces
//! the decoded counts into each allocation here and in the frame helpers,
//! and reports every one of those flows as sanitized. [`load_index`]
//! streams the file through a 256 KiB buffer with no whole-file copy,
//! builds only fresh structures, and verifies the footer at the end, so a
//! corrupt file yields an error and nothing else.

use crate::embeddings::Embeddings;
use crate::ivf::{CellStorage, IvfIndex};
use crate::pq::ProductQuantizer;
use cmr_nn::atomic_write;
use cmr_nn::frame::{bad, put_f32s, put_len, seal, Frame, MAX_DECODE_DIM};
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CMRIVF1\0";
const KIND_FLAT: u8 = 0;
const KIND_PQ: u8 = 1;

/// Read buffer for streamed loads: 64 pages.
const READ_BUF: usize = 1 << 18;

/// Serialises `index` as one `CMRIVF1` blob (byte-deterministic: the same
/// index always produces the same bytes).
///
/// # Panics
/// Panics if the index holds more than `u32::MAX` rows — the format
/// stores row ids as u32.
// cmr-lint: allow(panic-path) documented precondition; the row-id width is part of the format
pub fn index_to_bytes(index: &IvfIndex) -> Vec<u8> {
    let dim = index.dim();
    let nlist = index.nlist();
    let n = index.len();
    assert!(n <= u32::MAX as usize, "CMRIVF1 stores row ids as u32; index has {n} rows");
    let mut buf = Vec::with_capacity(64 + nlist * dim * 4 + n * (dim * 4 + 8));
    buf.extend_from_slice(MAGIC);
    put_len(&mut buf, dim);
    put_len(&mut buf, nlist);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    match &index.storage {
        CellStorage::Flat(_) => buf.push(KIND_FLAT),
        CellStorage::Pq { pq, .. } => {
            buf.push(KIND_PQ);
            put_len(&mut buf, pq.m());
            put_len(&mut buf, pq.ks());
        }
    }
    put_f32s(&mut buf, &index.centroids.data);
    for cell in &index.cells {
        put_len(&mut buf, cell.len());
        for &id in cell {
            buf.extend_from_slice(&(id as u32).to_le_bytes());
        }
    }
    match &index.storage {
        CellStorage::Flat(gallery) => put_f32s(&mut buf, &gallery.data),
        CellStorage::Pq { pq, codes } => {
            put_f32s(&mut buf, pq.codebooks());
            for cell_codes in codes {
                buf.extend_from_slice(cell_codes);
            }
        }
    }
    seal(&mut buf);
    buf
}

/// Saves `index` to `path` with the `CMRCKPT` durability dance: write to a
/// temp file, fsync, rename over the destination, fsync the directory. A
/// crash mid-save leaves either the old file or the new one, never a
/// torn mix.
///
/// # Errors
/// Any I/O error from the underlying writes.
pub fn save_index(index: &IvfIndex, path: &Path) -> io::Result<()> {
    atomic_write(path, &index_to_bytes(index))
}

/// Loads a `CMRIVF1` index from `path` via streamed reads (no whole-file
/// buffer), verifying the CRC-32 footer and every structural invariant —
/// a 1M×d gallery boots from this without re-clustering.
///
/// # Errors
/// `InvalidData` on bad magic, truncation, hostile counts or shapes,
/// out-of-range or duplicate row ids, or a CRC mismatch; plus any I/O
/// error from reading.
pub fn load_index(path: &Path) -> io::Result<IvfIndex> {
    let file = File::open(path)?;
    let len = usize::try_from(file.metadata()?.len())
        .map_err(|_| bad(format!("{} does not fit in memory", path.display())))?;
    decode_index(BufReader::with_capacity(READ_BUF, file), len)
}

/// Decodes a `CMRIVF1` blob held in memory (the loader behind
/// [`load_index`], shared with tests and in-process round-trips).
///
/// # Errors
/// Same conditions as [`load_index`].
pub fn index_from_bytes(bytes: &[u8]) -> io::Result<IvfIndex> {
    decode_index(bytes, bytes.len())
}

fn decode_index(reader: impl Read, len: usize) -> io::Result<IvfIndex> {
    let mut r = Frame::sealed(reader, len)?;
    r.magic(MAGIC)?;
    let dim = r.u32()? as usize;
    let nlist = r.u32()? as usize;
    let n = r.u64()?;
    if dim == 0 || dim > MAX_DECODE_DIM {
        return Err(bad(format!("implausible index dim {dim}")));
    }
    if nlist == 0 || nlist > MAX_DECODE_DIM {
        return Err(bad(format!("implausible cell count {nlist}")));
    }
    if n > MAX_DECODE_DIM as u64 {
        return Err(bad(format!("implausible row count {n}")));
    }
    let n = n as usize;

    let kind = r.u8()?;
    let pq_shape = match kind {
        KIND_FLAT => None,
        KIND_PQ => {
            let m = r.u32()? as usize;
            let ks = r.u32()? as usize;
            if m == 0 || m > dim || dim % m != 0 {
                return Err(bad(format!("quantizer m {m} does not divide dim {dim}")));
            }
            if ks == 0 || ks > 256 {
                return Err(bad(format!("quantizer ks {ks} outside 1..=256")));
            }
            Some((m, ks))
        }
        other => return Err(bad(format!("unknown storage kind {other}"))),
    };
    let centroids = Embeddings::new(dim, r.f32s(nlist * dim)?);

    // Cells: counts and ids are attacker-shaped. Each id must be a unique
    // gallery row below n, and the counts must tile n exactly — the flat
    // search path indexes the gallery by these ids, so nothing past this
    // point may see an unchecked one.
    let mut cells: Vec<Vec<usize>> = Vec::with_capacity(nlist);
    let mut seen = vec![false; n];
    let mut assigned = 0usize;
    for c in 0..nlist {
        let count = r.u32()? as usize;
        let mut cell = r.vec_for(count, 4)?;
        if assigned + count > n {
            return Err(bad(format!("cells claim more than the {n} rows the header promises")));
        }
        for _ in 0..count {
            let id = r.u32()? as usize;
            // One get_mut covers both hostile cases — an out-of-range id
            // and a duplicate — with no indexing panic path at all.
            match seen.get_mut(id) {
                None => return Err(bad(format!("cell {c} references row {id}, index has {n}"))),
                Some(s) if *s => return Err(bad(format!("row {id} appears in two cells"))),
                Some(s) => *s = true,
            }
            cell.push(id);
        }
        assigned += count;
        cells.push(cell);
    }
    if assigned != n {
        return Err(bad(format!("cells hold {assigned} rows, header promises {n}")));
    }

    let storage = match pq_shape {
        None => CellStorage::Flat(Embeddings { dim, data: r.f32s(n * dim)? }),
        Some((m, ks)) => {
            // m * ks * (dim/m) == ks * dim exactly (m divides dim).
            let pq = ProductQuantizer::from_parts(dim, m, ks, r.f32s(ks * dim)?)
                .map_err(|e| bad(format!("bad quantizer: {e}")))?;
            let mut codes: Vec<Vec<u8>> = Vec::with_capacity(nlist);
            for cell in &cells {
                codes.push(r.bytes(cell.len() * m)?);
            }
            CellStorage::Pq { pq, codes }
        }
    };

    r.finish()?;
    Ok(IvfIndex { centroids, cells, storage, n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_nn::crc32::Hasher;
    use rand::{Rng, SeedableRng};

    fn clustered_gallery(n: usize, dim: usize, seed: u64) -> Embeddings {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut e = Embeddings::with_capacity(dim, n);
        let centers: Vec<Vec<f32>> = (0..4)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        for i in 0..n {
            let c = &centers[i % centers.len()];
            let v: Vec<f32> = c.iter().map(|&x| x + rng.gen_range(-0.1..0.1)).collect();
            e.push(&v);
        }
        e.l2_normalized()
    }

    fn flat_index(seed: u64) -> (IvfIndex, Embeddings) {
        let g = clustered_gallery(80, 8, seed);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xF00);
        (IvfIndex::build(g.clone(), 4, 4, &mut rng), g)
    }

    fn pq_index(seed: u64) -> (IvfIndex, Embeddings) {
        let (flat, g) = flat_index(seed);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let (q, _) = flat.quantize_residuals(2, 16, 4, g.len(), &mut rng).unwrap();
        (q, g)
    }

    /// Search over a decoded index is bit-identical to the in-memory
    /// original, and save→load→save reproduces the exact bytes.
    #[test]
    fn flat_roundtrip_is_bit_identical() {
        let (index, g) = flat_index(1);
        let blob = index_to_bytes(&index);
        let loaded = index_from_bytes(&blob).unwrap();
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.nlist(), index.nlist());
        assert!(!loaded.is_quantized());
        for qi in [0usize, 17, 42, 79] {
            assert_eq!(
                loaded.search(g.vector(qi), 5, 2).unwrap(),
                index.search(g.vector(qi), 5, 2).unwrap(),
                "query {qi}"
            );
        }
        assert_eq!(index_to_bytes(&loaded), blob, "save→load→save bit-identity");
    }

    #[test]
    fn pq_roundtrip_is_bit_identical() {
        let (index, g) = pq_index(2);
        let blob = index_to_bytes(&index);
        let loaded = index_from_bytes(&blob).unwrap();
        assert!(loaded.is_quantized());
        assert_eq!(loaded.storage_bytes(), index.storage_bytes());
        for qi in [0usize, 11, 33, 78] {
            assert_eq!(
                loaded.search(g.vector(qi), 5, 3).unwrap(),
                index.search(g.vector(qi), 5, 3).unwrap(),
                "query {qi}"
            );
        }
        assert_eq!(index_to_bytes(&loaded), blob, "save→load→save bit-identity");
    }

    /// The on-disk path: atomic save, streamed load, bit-identical search.
    #[test]
    fn file_roundtrip_via_streamed_reads() {
        let dir = std::env::temp_dir()
            .join(format!("cmr_ivf_store_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, (index, g)) in [("flat.ivf", flat_index(3)), ("pq.ivf", pq_index(4))] {
            let path = dir.join(name);
            save_index(&index, &path).unwrap();
            let loaded = load_index(&path).unwrap();
            for qi in [0usize, 25, 60] {
                assert_eq!(
                    loaded.search(g.vector(qi), 5, 2).unwrap(),
                    index.search(g.vector(qi), 5, 2).unwrap(),
                    "{name} query {qi}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte of the blob must be detected — by a
    /// structural check or, at the latest, the CRC footer.
    #[test]
    fn every_single_byte_corruption_is_detected() {
        for (label, index) in [("flat", flat_index(5).0), ("pq", pq_index(6).0)] {
            let blob = index_to_bytes(&index);
            for i in 0..blob.len() {
                let mut bad = blob.clone();
                bad[i] ^= 0x40;
                assert!(
                    index_from_bytes(&bad).is_err(),
                    "{label}: byte {i} flip undetected"
                );
            }
        }
    }

    #[test]
    fn rejects_truncation_at_any_point() {
        let (index, _) = pq_index(7);
        let blob = index_to_bytes(&index);
        for cut in [0, 7, 24, blob.len() / 2, blob.len() - 1] {
            assert!(index_from_bytes(&blob[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let (index, _) = flat_index(8);
        let mut blob = index_to_bytes(&index);
        blob.push(0);
        assert!(index_from_bytes(&blob).is_err());
    }

    /// Overwrites the 8-byte row count field (offset 16) and re-stamps the
    /// CRC, so only structural validation can reject the blob.
    fn with_row_count(index: &IvfIndex, n: u64) -> Vec<u8> {
        let mut blob = index_to_bytes(index);
        blob.truncate(blob.len() - 4);
        blob[16..24].copy_from_slice(&n.to_le_bytes());
        let mut h = Hasher::new();
        h.update(&blob);
        let crc = h.finalize();
        blob.extend_from_slice(&crc.to_le_bytes());
        blob
    }

    /// A header claiming ~2^30 rows in a tiny blob is rejected by the
    /// plausibility cap before any allocation is sized.
    #[test]
    fn rejects_gigabyte_row_claim() {
        let (index, _) = flat_index(9);
        let err = index_from_bytes(&with_row_count(&index, 1 << 30)).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// A row count above the real one (but under the cap) dies on the
    /// count-vs-remaining-payload check or the cells-tile-n check, not on
    /// an allocation or an out-of-range scan.
    #[test]
    fn rejects_header_payload_disagreement() {
        let (index, _) = flat_index(10);
        let real_n = index.len() as u64;
        for claim in [real_n + 1, real_n * 2, MAX_DECODE_DIM as u64] {
            assert!(
                index_from_bytes(&with_row_count(&index, claim)).is_err(),
                "claimed {claim} rows"
            );
        }
    }

    /// A cell count field claiming ~2^30 ids in a small payload is
    /// rejected by the count-vs-remaining check before `Vec::with_capacity`.
    #[test]
    fn rejects_gigabyte_cell_claim() {
        let (index, _) = flat_index(11);
        let mut blob = index_to_bytes(&index);
        blob.truncate(blob.len() - 4);
        // First cell count sits right after the header and centroids.
        let cell0 = 8 + 4 + 4 + 8 + 1 + index.nlist() * index.dim() * 4;
        blob[cell0..cell0 + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        let mut h = Hasher::new();
        h.update(&blob);
        let crc = h.finalize();
        blob.extend_from_slice(&crc.to_le_bytes());
        let err = index_from_bytes(&blob).unwrap_err();
        assert!(err.to_string().contains("claims"), "{err}");
    }

    /// An id pointing past the gallery, or listed twice, is rejected
    /// before it can ever index anything.
    #[test]
    fn rejects_out_of_range_and_duplicate_ids() {
        let (index, _) = flat_index(12);
        let blob = index_to_bytes(&index);
        let cell0 = 8 + 4 + 4 + 8 + 1 + index.nlist() * index.dim() * 4;
        let restamp = |mut b: Vec<u8>| {
            b.truncate(b.len() - 4);
            let mut h = Hasher::new();
            h.update(&b);
            let crc = h.finalize();
            b.extend_from_slice(&crc.to_le_bytes());
            b
        };
        // First id of the first non-empty cell → out of range.
        let mut oob = blob.clone();
        oob[cell0 + 4..cell0 + 8].copy_from_slice(&(index.len() as u32).to_le_bytes());
        let err = index_from_bytes(&restamp(oob)).unwrap_err();
        assert!(err.to_string().contains("references row"), "{err}");
        // Second id duplicates the first.
        let mut dup = blob.clone();
        let first = dup[cell0 + 4..cell0 + 8].to_vec();
        dup[cell0 + 8..cell0 + 12].copy_from_slice(&first);
        let err = index_from_bytes(&restamp(dup)).unwrap_err();
        assert!(err.to_string().contains("two cells") || err.to_string().contains("CRC"), "{err}");
    }

    /// A dim beyond MAX_DECODE_DIM is rejected up front.
    #[test]
    fn rejects_implausible_dim() {
        let (index, _) = flat_index(13);
        let mut blob = index_to_bytes(&index);
        blob.truncate(blob.len() - 4);
        blob[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut h = Hasher::new();
        h.update(&blob);
        let crc = h.finalize();
        blob.extend_from_slice(&crc.to_le_bytes());
        let err = index_from_bytes(&blob).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// Loaded-then-searched errors stay typed: a loaded index still
    /// returns SearchError for bad requests instead of panicking.
    #[test]
    fn loaded_index_keeps_typed_search_errors() {
        use crate::ivf::SearchError;
        let (index, g) = flat_index(14);
        let loaded = index_from_bytes(&index_to_bytes(&index)).unwrap();
        assert_eq!(loaded.search(g.vector(0), 0, 1).unwrap_err(), SearchError::ZeroK);
        assert_eq!(
            loaded.search(&[0.0], 1, 1).unwrap_err(),
            SearchError::DimMismatch { expected: 8, got: 1 }
        );
    }
}
