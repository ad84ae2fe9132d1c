//! The benchmark's prepared data: the `ann_open` IVF-PQ indexes, query
//! pool and exact oracle, and the `zipf_sharded` embedding blobs and query
//! pool. All of it is built by the code under test (`IvfIndex`,
//! `save_index`, `save_embedding_blob`) into a cache directory that the
//! caller keys on that code, so a different commit never reuses it.
//!
//! Galleries are fixed (their seeds are constants); the workload seed only
//! chooses which pool queries a run sends, and in which order.

use cmr_retrieval::knn::Hit;
use cmr_retrieval::{merge_top_k, top_k_of, Embeddings, IvfIndex};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Embedding width of every gallery.
pub const DIM: usize = 32;
/// Hits per query.
pub const K: usize = 10;

/// `ann_open` gallery rows per direction.
pub const ANN_ROWS: usize = 1_000_000;
/// IVF cells.
pub const ANN_NLIST: usize = 1024;
/// PQ sub-quantizers.
pub const ANN_PQ_M: usize = 16;
/// PQ centroids per sub-quantizer.
pub const ANN_PQ_KS: usize = 256;
/// Unique queries per direction in the `ann_open` pool.
pub const ANN_POOL: usize = 16384;
/// Pool queries per direction (the first ones) with an exact oracle.
pub const ANN_ORACLE: usize = 1024;

/// `zipf_sharded` gallery rows per direction.
pub const ZIPF_ROWS: usize = 200_000;
/// Distinct queries in the `zipf_sharded` pool (eight times the server's
/// 1024-entry result cache).
pub const ZIPF_POOL: usize = 8192;

/// Which gallery a query searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Image query against the recipe gallery.
    ImToRec,
    /// Recipe query against the image gallery.
    RecToIm,
}

impl Dir {
    /// The URL path segment.
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::ImToRec => "im2rec",
            Dir::RecToIm => "rec2im",
        }
    }

    /// The server's direction type.
    pub fn serve(self) -> cmr_serve::Direction {
        match self {
            Dir::ImToRec => cmr_serve::Direction::ImToRec,
            Dir::RecToIm => cmr_serve::Direction::RecToIm,
        }
    }

    /// Both directions, im2rec first.
    pub const BOTH: [Dir; 2] = [Dir::ImToRec, Dir::RecToIm];
}

/// A clustered unit-norm gallery in `bench_ann`'s micro-cluster geometry:
/// `rows / 10` random centres, each row a centre plus ±0.35 uniform noise,
/// so a query's true top-10 is its own micro-cluster and recall@10 is a
/// meaningful number.
pub fn clustered_gallery(rows: usize, seed: u64) -> Embeddings {
    let clusters = (rows / 10).max(1);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..clusters * DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let mut e = Embeddings::with_capacity(DIM, rows);
    let mut row = vec![0.0f32; DIM];
    for i in 0..rows {
        let c = &centers[(i % clusters) * DIM..(i % clusters + 1) * DIM];
        for (r, &x) in row.iter_mut().zip(c) {
            *r = x + rng.gen_range(-0.35f32..0.35);
        }
        e.push(&row);
    }
    e.l2_normalized()
}

/// `count` queries, each a stride-sampled gallery row plus ±0.05 noise: a
/// real neighbourhood, never a byte-identical lookup.
pub fn perturbed_queries(gallery: &Embeddings, count: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let stride = (gallery.len() / count).max(1);
    let mut q = Embeddings::with_capacity(DIM, count);
    let mut row = vec![0.0f32; DIM];
    for i in 0..count {
        let src = (i * stride + i % 7) % gallery.len();
        for (r, &x) in row.iter_mut().zip(gallery.vector(src)) {
            *r = x + rng.gen_range(-0.05f32..0.05);
        }
        q.push(&row);
    }
    q.l2_normalized()
}

/// Exact top-`k` per query: the batched kernel over query chunks and
/// gallery blocks, partial lists merged with `merge_top_k`.
pub fn exact_top_k(gallery: &Embeddings, queries: &Embeddings, k: usize) -> Vec<Vec<Hit>> {
    const QCHUNK: usize = 128;
    const GBLOCK: usize = 1 << 16;
    let n = gallery.len();
    let mut out = Vec::with_capacity(queries.len());
    let mut sims = vec![0.0f32; QCHUNK.min(queries.len()) * GBLOCK.min(n)];
    for qlo in (0..queries.len()).step_by(QCHUNK) {
        let qhi = (qlo + QCHUNK).min(queries.len());
        let mut partials: Vec<Vec<Vec<Hit>>> = vec![Vec::new(); qhi - qlo];
        for glo in (0..n).step_by(GBLOCK) {
            let ghi = (glo + GBLOCK).min(n);
            let gn = ghi - glo;
            let tile = &mut sims[..(qhi - qlo) * gn];
            cmr_tensor::matmul::matmul_transb_into(
                &queries.data[qlo * DIM..qhi * DIM],
                &gallery.data[glo * DIM..ghi * DIM],
                DIM,
                tile,
            );
            for (p, row) in partials.iter_mut().zip(tile.chunks_exact(gn)) {
                p.push(top_k_of(
                    row.iter().enumerate().map(|(i, &s)| (glo + i, s)),
                    k,
                ));
            }
        }
        out.extend(partials.iter().map(|lists| merge_top_k(lists, k)));
    }
    out
}

/// Draws ranks `0..n` with probability ∝ `1 / (rank + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
    p
}

/// File layout of the prepared data under one cache directory.
pub struct Layout {
    root: PathBuf,
}

impl Layout {
    /// The layout rooted at `root`.
    pub fn new(root: &Path) -> Layout {
        Layout {
            root: root.to_path_buf(),
        }
    }

    /// `ann_open` files.
    pub fn ann(&self, name: &str) -> PathBuf {
        self.root.join("ann").join(name)
    }

    /// `zipf_sharded` files.
    pub fn zipf(&self, name: &str) -> PathBuf {
        self.root.join("zipf").join(name)
    }

    /// Anything else under the cache root.
    pub fn file(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The `CMRIVF1` index serving `dir`.
    pub fn ann_index(&self, dir: Dir) -> PathBuf {
        self.ann(&format!("{}.ivf", gallery_name(dir)))
    }

    /// The `CMREMB1` blob serving `dir`.
    pub fn zipf_gallery(&self, dir: Dir) -> PathBuf {
        self.zipf(&format!("{}.emb", gallery_name(dir)))
    }
}

/// The gallery a direction searches: im2rec ranks recipes.
fn gallery_name(dir: Dir) -> &'static str {
    match dir {
        Dir::ImToRec => "recipes",
        Dir::RecToIm => "images",
    }
}

fn gallery_seed(dir: Dir, base: u64) -> u64 {
    base + if dir == Dir::ImToRec { 0 } else { 1 }
}

/// Writes a `CMREMB1` blob.
pub fn save_blob(path: &Path, e: &Embeddings) -> io::Result<()> {
    cmr_nn::atomic_write(path, &cmr_nn::save_embedding_blob(e.dim, &e.data))
}

/// Reads a `CMREMB1` blob.
pub fn load_blob(path: &Path) -> io::Result<Embeddings> {
    let bytes = std::fs::read(path)?;
    let (dim, data) = cmr_nn::load_embedding_blob(&bytes)?;
    Ok(Embeddings::new(dim, data))
}

/// Writes top-`K` index lists as little-endian `u32`s.
fn save_oracle(path: &Path, lists: &[Vec<Hit>]) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(lists.len() * K * 4);
    for list in lists {
        assert_eq!(list.len(), K, "oracle lists hold exactly K hits");
        for h in list {
            bytes.extend_from_slice(&(h.index as u32).to_le_bytes());
        }
    }
    cmr_nn::atomic_write(path, &bytes)
}

/// Reads top-`K` index lists written by [`save_oracle`].
pub fn load_oracle(path: &Path) -> io::Result<Vec<Vec<usize>>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() % (K * 4) != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "ragged oracle file",
        ));
    }
    Ok(bytes
        .chunks_exact(K * 4)
        .map(|c| {
            c.chunks_exact(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]) as usize)
                .collect()
        })
        .collect())
}

/// Builds whatever part of the prepared data is missing. Each workload's
/// directory is complete once its `DONE` marker exists; a partial build
/// (an interrupted run) is rebuilt from scratch. Returns the seconds spent
/// building (0 when everything was cached).
pub fn prepare(layout: &Layout) -> io::Result<f64> {
    let t = Instant::now();
    if !layout.ann("DONE").is_file() {
        std::fs::create_dir_all(layout.ann(""))?;
        for dir in Dir::BOTH {
            build_ann(layout, dir)?;
        }
        cmr_nn::atomic_write(&layout.ann("DONE"), b"ok\n")?;
    }
    if !layout.zipf("DONE").is_file() {
        std::fs::create_dir_all(layout.zipf(""))?;
        for dir in Dir::BOTH {
            let gallery = clustered_gallery(ZIPF_ROWS, gallery_seed(dir, 52));
            save_blob(&layout.zipf_gallery(dir), &gallery)?;
            let pool = perturbed_queries(&gallery, ZIPF_POOL / 2, gallery_seed(dir, 54));
            save_blob(&layout.zipf(&format!("pool_{}.emb", dir.as_str())), &pool)?;
        }
        cmr_nn::atomic_write(&layout.zipf("DONE"), b"ok\n")?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// One direction of `ann_open`: gallery, query pool, oracle over the
/// pool's head, then the IVF-PQ index saved as `CMRIVF1`.
fn build_ann(layout: &Layout, dir: Dir) -> io::Result<()> {
    let t = Instant::now();
    let gallery = clustered_gallery(ANN_ROWS, gallery_seed(dir, 42));
    let pool = perturbed_queries(&gallery, ANN_POOL, gallery_seed(dir, 44));
    save_blob(&layout.ann(&format!("pool_{}.emb", dir.as_str())), &pool)?;
    let head = Embeddings::new(DIM, pool.data[..ANN_ORACLE * DIM].to_vec());
    let oracle = exact_top_k(&gallery, &head, K);
    save_oracle(
        &layout.ann(&format!("oracle_{}.bin", dir.as_str())),
        &oracle,
    )?;
    let oracle_s = t.elapsed().as_secs_f64();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(gallery_seed(dir, 46));
    let flat = IvfIndex::build_with_sample(gallery, ANN_NLIST, 4, 100_000, &mut rng);
    let (index, _) = flat
        .quantize_residuals(ANN_PQ_M, ANN_PQ_KS, 4, 100_000, &mut rng)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    cmr_retrieval::save_index(&index, &layout.ann_index(dir))?;
    eprintln!(
        "perfbench: built {} index in {:.1}s (gallery + oracle {:.1}s)",
        dir.as_str(),
        t.elapsed().as_secs_f64(),
        oracle_s
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let zeros = draws.iter().filter(|&&r| r == 0).count();
        let hundreds = draws.iter().filter(|&&r| r == 99).count();
        assert!(
            zeros > 20 * hundreds.max(1),
            "rank 0 {zeros}, rank 99 {hundreds}"
        );
    }

    #[test]
    fn oracle_round_trips_and_matches_brute_force() {
        let g = clustered_gallery(500, 3);
        let q = perturbed_queries(&g, 7, 4);
        let lists = exact_top_k(&g, &q, K);
        for (qi, list) in lists.iter().enumerate() {
            let brute = cmr_retrieval::top_k(&g, q.vector(qi), K);
            let idx = |l: &[Hit]| l.iter().map(|h| h.index).collect::<Vec<_>>();
            assert_eq!(idx(list), idx(&brute));
        }
        let path = std::env::temp_dir().join(format!("perfbench_oracle_{}", std::process::id()));
        save_oracle(&path, &lists).unwrap();
        let back = load_oracle(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let want: Vec<Vec<usize>> = lists
            .iter()
            .map(|l| l.iter().map(|h| h.index).collect())
            .collect();
        assert_eq!(back, want);
    }
}
