//! The retrieval engine behind the server: two galleries (one per search
//! direction), each served either by the exact batched ranking kernel or
//! by an IVF index.
//!
//! ## Response identity across batch sizes
//!
//! The admission queue may execute a query alone or inside any micro-batch;
//! the bytes a client receives must not depend on which. Both backends
//! guarantee it:
//!
//! * **Exact** — similarities come from `cmr_tensor::matmul_transb_into`,
//!   whose every output element is a function of only its own (query row,
//!   gallery row) pair, so a row of a size-`B` product is bit-identical to
//!   the size-1 product of that query. Selection then runs through
//!   [`top_k_of`], which is deterministic in its input sequence.
//! * **IVF** — [`IvfIndex::search_batch`] is bit-identical to per-query
//!   [`IvfIndex::search`] by construction (same sequential dots, same
//!   selection core); its own unit tests and the `kernel_equivalence`
//!   suite lock this down.
//!
//! [`Engine::search_one`] *is* the batch path at `B = 1` — the reference
//! path the integration tests compare batched responses against.

use crate::error::ServeError;
use cmr_retrieval::knn::Hit;
use cmr_retrieval::{top_k_of, Embeddings, IvfIndex, SearchError};
use std::fmt::Write as _;

/// A retrieval direction, naming which gallery the query ranks against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Image query against the recipe gallery.
    ImToRec,
    /// Recipe query against the image gallery.
    RecToIm,
}

impl Direction {
    /// Stable one-byte tag, the cache-key prefix for this direction.
    pub fn tag(self) -> u8 {
        match self {
            Direction::ImToRec => 0,
            Direction::RecToIm => 1,
        }
    }

    /// The URL path segment naming this direction.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::ImToRec => "im2rec",
            Direction::RecToIm => "rec2im",
        }
    }

    /// Parses a URL path segment (`im2rec` / `rec2im`).
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "im2rec" => Some(Direction::ImToRec),
            "rec2im" => Some(Direction::RecToIm),
            _ => None,
        }
    }
}

/// How one direction's gallery answers queries.
pub enum Backend {
    /// Exhaustive ranking via the batched `matmul_transb_into` kernel.
    Exact(Embeddings),
    /// IVF-Flat approximate search probing `nprobe` cells per query.
    Ivf {
        /// The built index.
        index: IvfIndex,
        /// Cells probed per query.
        nprobe: usize,
    },
}

impl Backend {
    /// Embedding dimensionality this backend serves.
    pub fn dim(&self) -> usize {
        match self {
            Backend::Exact(g) => g.dim,
            Backend::Ivf { index, .. } => index.dim(),
        }
    }

    /// Number of gallery vectors.
    pub fn len(&self) -> usize {
        match self {
            Backend::Exact(g) => g.len(),
            Backend::Ivf { index, .. } => index.len(),
        }
    }

    /// `true` when the gallery is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ranks every query in the batch, returning per-query hit lists.
    ///
    /// # Errors
    /// [`SearchError`] for a zero `k`, a configured-zero `nprobe`, or a
    /// query dimension the backend does not serve.
    fn search_batch(&self, queries: &Embeddings, k: usize) -> Result<Vec<Vec<Hit>>, SearchError> {
        match self {
            Backend::Exact(gallery) => {
                if k == 0 {
                    return Err(SearchError::ZeroK);
                }
                if queries.dim != gallery.dim {
                    return Err(SearchError::DimMismatch {
                        expected: gallery.dim,
                        got: queries.dim,
                    });
                }
                let b = queries.len();
                let n = gallery.len();
                if b == 0 {
                    return Ok(Vec::new());
                }
                let mut sims = vec![0.0f32; b * n];
                cmr_tensor::matmul::matmul_transb_into(
                    &queries.data,
                    &gallery.data,
                    gallery.dim,
                    &mut sims,
                );
                Ok(sims
                    .chunks_exact(n)
                    .map(|row| top_k_of(row.iter().enumerate().map(|(i, &s)| (i, s)), k))
                    .collect())
            }
            Backend::Ivf { index, nprobe } => index.search_batch(queries, k, *nprobe),
        }
    }
}

/// The two-direction retrieval engine the server shares across threads.
pub struct Engine {
    im2rec: Backend,
    rec2im: Backend,
}

impl Engine {
    /// Builds an engine from per-direction backends.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] when the two backends disagree on
    /// dimensionality, either gallery is empty, or an IVF backend is
    /// configured with `nprobe == 0` (an engine that can never answer is a
    /// deployment mistake worth failing loudly at startup).
    pub fn new(im2rec: Backend, rec2im: Backend) -> Result<Self, ServeError> {
        for backend in [&im2rec, &rec2im] {
            if let Backend::Ivf { nprobe: 0, .. } = backend {
                return Err(ServeError::BadRequest(
                    "ivf backend configured with nprobe = 0".into(),
                ));
            }
        }
        if im2rec.dim() != rec2im.dim() {
            return Err(ServeError::BadRequest(format!(
                "backend dimension mismatch: im2rec {} vs rec2im {}",
                im2rec.dim(),
                rec2im.dim()
            )));
        }
        if im2rec.is_empty() || rec2im.is_empty() {
            return Err(ServeError::BadRequest("empty gallery".into()));
        }
        Ok(Engine { im2rec, rec2im })
    }

    /// Exact-search engine over the two galleries (im2rec queries rank
    /// against `recipes`, rec2im queries against `images`).
    ///
    /// # Errors
    /// Same conditions as [`new`](Self::new).
    pub fn exact(recipes: Embeddings, images: Embeddings) -> Result<Self, ServeError> {
        Self::new(Backend::Exact(recipes), Backend::Exact(images))
    }

    /// Embedding dimensionality queries must carry.
    pub fn dim(&self) -> usize {
        self.im2rec.dim()
    }

    /// The backend serving `direction`.
    fn backend(&self, direction: Direction) -> &Backend {
        match direction {
            Direction::ImToRec => &self.im2rec,
            Direction::RecToIm => &self.rec2im,
        }
    }

    /// Ranks a micro-batch of same-direction queries.
    ///
    /// # Errors
    /// [`SearchError`] for a zero `k` or a query dimension mismatch — the
    /// HTTP layer maps these to 400, and [`SearchError::EmptyIndex`] (an
    /// index loaded from disk with no rows) to 503. Until PR 10 these were
    /// panics behind an admission-time assert; now that indexes arrive from
    /// `CMRIVF1` files the engine itself must stay panic-free.
    pub fn search_batch(
        &self,
        direction: Direction,
        queries: &Embeddings,
        k: usize,
    ) -> Result<Vec<Vec<Hit>>, SearchError> {
        self.backend(direction).search_batch(queries, k)
    }

    /// The single-query reference path: exactly
    /// [`search_batch`](Self::search_batch) with a batch of one.
    ///
    /// # Errors
    /// Same conditions as [`search_batch`](Self::search_batch).
    pub fn search_one(
        &self,
        direction: Direction,
        query: &[f32],
        k: usize,
    ) -> Result<Vec<Hit>, SearchError> {
        // A wrong-length slice must be a typed error, not the ragged-data
        // panic inside `Embeddings::new`.
        if query.len() != self.dim() {
            return Err(SearchError::DimMismatch { expected: self.dim(), got: query.len() });
        }
        let queries = Embeddings::new(self.dim(), query.to_vec());
        Ok(self.search_batch(direction, &queries, k)?.pop().unwrap_or_default())
    }
}

/// Renders a hit list as the response body JSON.
///
/// Float formatting uses Rust's shortest-roundtrip `Display`, which is
/// deterministic for a given bit pattern — byte-identical hits render to
/// byte-identical bodies, the property the batching integration test
/// checks end to end.
pub fn render_hits(hits: &[Hit]) -> String {
    let mut out = String::with_capacity(32 + hits.len() * 32);
    out.push_str("{\"hits\":[");
    for (i, h) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"index\":{},\"similarity\":{}}}", h.index, h.similarity);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_embeddings(n: usize, dim: usize, seed: u64) -> Embeddings {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Embeddings::new(dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .l2_normalized()
    }

    #[test]
    fn exact_batch_rows_are_bit_identical_to_singletons() {
        let engine =
            Engine::exact(random_embeddings(60, 8, 1), random_embeddings(40, 8, 2)).unwrap();
        let queries = random_embeddings(7, 8, 3);
        for &dir in &[Direction::ImToRec, Direction::RecToIm] {
            let batched = engine.search_batch(dir, &queries, 5).unwrap();
            for q in 0..queries.len() {
                let single = engine.search_one(dir, queries.vector(q), 5).unwrap();
                assert_eq!(batched[q], single, "{dir:?} query {q}");
            }
        }
    }

    #[test]
    fn directions_rank_against_their_own_gallery() {
        // Recipes along e0, images along e1: an e0 query must score 1.0
        // against recipes (im2rec) and 0.0 against images (rec2im).
        let recipes = Embeddings::new(2, vec![1.0, 0.0]);
        let images = Embeddings::new(2, vec![0.0, 1.0]);
        let engine = Engine::new(Backend::Exact(recipes), Backend::Exact(images)).unwrap();
        let hit = engine.search_one(Direction::ImToRec, &[1.0, 0.0], 1).unwrap();
        assert_eq!(hit[0].similarity, 1.0);
        let miss = engine.search_one(Direction::RecToIm, &[1.0, 0.0], 1).unwrap();
        assert_eq!(miss[0].similarity, 0.0);
    }

    #[test]
    fn ivf_backend_matches_index_search() {
        let g = random_embeddings(120, 8, 4);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let index = IvfIndex::build(g.clone(), 4, 4, &mut rng);
        let engine = Engine::new(
            Backend::Ivf { index, nprobe: 2 },
            Backend::Exact(g.clone()),
        )
        .unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let reference = IvfIndex::build(g.clone(), 4, 4, &mut rng);
        for qi in [0usize, 17, 63] {
            let got = engine.search_one(Direction::ImToRec, g.vector(qi), 5).unwrap();
            let want = reference.search(g.vector(qi), 5, 2).unwrap();
            assert_eq!(got, want, "query {qi}");
        }
    }

    #[test]
    fn constructor_rejects_mismatched_or_empty_galleries() {
        assert!(Engine::exact(random_embeddings(4, 8, 6), random_embeddings(4, 16, 7)).is_err());
        assert!(Engine::exact(
            random_embeddings(4, 8, 8),
            Embeddings::with_capacity(8, 0)
        )
        .is_err());
    }

    #[test]
    fn constructor_rejects_zero_nprobe_ivf_backend() {
        let g = random_embeddings(40, 8, 9);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(10);
        let index = IvfIndex::build(g.clone(), 4, 3, &mut rng);
        assert!(Engine::new(Backend::Ivf { index, nprobe: 0 }, Backend::Exact(g)).is_err());
    }

    #[test]
    fn search_rejects_bad_requests_with_typed_errors() {
        let engine =
            Engine::exact(random_embeddings(10, 8, 11), random_embeddings(10, 8, 12)).unwrap();
        assert_eq!(
            engine.search_one(Direction::ImToRec, &[0.0; 8], 0),
            Err(SearchError::ZeroK)
        );
        assert_eq!(
            engine.search_one(Direction::ImToRec, &[0.0; 4], 1),
            Err(SearchError::DimMismatch { expected: 8, got: 4 })
        );
    }

    #[test]
    fn render_hits_is_deterministic_compact_json() {
        let hits = vec![
            Hit { index: 3, similarity: 0.5 },
            Hit { index: 0, similarity: 0.25 },
        ];
        assert_eq!(
            render_hits(&hits),
            "{\"hits\":[{\"index\":3,\"similarity\":0.5},{\"index\":0,\"similarity\":0.25}]}"
        );
        assert_eq!(render_hits(&[]), "{\"hits\":[]}");
    }

    #[test]
    fn direction_tags_and_paths_roundtrip() {
        for &dir in &[Direction::ImToRec, Direction::RecToIm] {
            assert_eq!(Direction::from_str(dir.as_str()), Some(dir));
        }
        assert_ne!(Direction::ImToRec.tag(), Direction::RecToIm.tag());
        assert_eq!(Direction::from_str("sideways"), None);
    }
}
