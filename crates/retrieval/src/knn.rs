//! Exact top-k cosine search.

use crate::embeddings::Embeddings;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A search hit: gallery index plus cosine similarity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// Gallery row index.
    pub index: usize,
    /// Cosine similarity to the query (higher is closer).
    pub similarity: f32,
}

// Min-heap entry keyed on similarity, so the root is the worst retained hit.
#[derive(PartialEq)]
struct HeapEntry(Hit);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; rank entries by how *badly* they place
        // under the canonical hit order, so the root is always the worst
        // retained hit (lowest similarity, ties resolved to highest index).
        hit_order(&self.0, &other.0)
    }
}

/// Exhaustive top-`k` search of `gallery` for the nearest rows to `query`
/// by cosine similarity. Both the query and the gallery must already be
/// L2-normalised. Results are ordered from most to least similar.
///
/// # Panics
/// Panics if `k == 0` or the dimensions differ.
// cmr-lint: allow(panic-path) documented precondition; heap entries index rows the gallery owns
pub fn top_k(gallery: &Embeddings, query: &[f32], k: usize) -> Vec<Hit> {
    assert!(k >= 1, "top_k: k must be positive");
    assert_eq!(query.len(), gallery.dim, "top_k: dimension mismatch");
    let n = gallery.len();
    top_k_of((0..n).map(|i| (i, gallery.dot(i, query))), k)
}

/// The canonical hit ordering: descending similarity, ties broken by
/// ascending gallery index.
///
/// Every hit list in the workspace sorts by this comparator, which is what
/// makes per-shard top-k lists mergeable into the exact global top-k: the
/// order (and for tie-heavy distributions the retained *set*) depends only
/// on `(similarity, index)` pairs, never on scan or shard arrival order.
pub fn hit_order(a: &Hit, b: &Hit) -> Ordering {
    b.similarity
        .partial_cmp(&a.similarity)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.index.cmp(&b.index))
}

/// A streaming top-`k` selector: feed it `(index, similarity)` pairs one
/// at a time with [`push`](Self::push), then take the hits sorted by
/// [`hit_order`] with [`into_sorted`](Self::into_sorted).
///
/// This is the one selection core of the crate: [`top_k_of`] is a loop
/// over it, and the IVF fine scan pushes every candidate score straight
/// into it instead of collecting the scores first. Given the same
/// NaN-free `(index, similarity)` pairs it retains the same hits in any
/// arrival order, because retention is decided by [`hit_order`], not by
/// arrival.
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// An empty selector keeping at most `k` hits (`k == 0` keeps none).
    pub(crate) fn new(k: usize) -> Self {
        TopK { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers one candidate. A full selector first rejects on bare
    /// similarity — a candidate strictly below the retained worst can
    /// never place ahead of it — and only then applies [`hit_order`].
    #[inline]
    pub(crate) fn push(&mut self, index: usize, similarity: f32) {
        let cand = Hit { index, similarity };
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry(cand));
        } else if let Some(worst) = self.heap.peek() {
            if similarity < worst.0.similarity {
                return;
            }
            // Replace the root whenever the candidate places strictly ahead
            // of it under the canonical order. Using hit_order (not bare
            // similarity) keeps the retained *set* canonical under ties:
            // the lowest global indices survive regardless of arrival order.
            if hit_order(&cand, &worst.0) == Ordering::Less {
                self.heap.pop();
                self.heap.push(HeapEntry(cand));
            }
        }
    }

    /// The retained hits, sorted by [`hit_order`].
    pub(crate) fn into_sorted(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|e| e.0).collect();
        hits.sort_by(hit_order);
        hits
    }
}

/// Selects the top-`k` hits from an arbitrary `(index, similarity)` stream.
///
/// This is the selection core shared by [`top_k`], the IVF search and the
/// serving engine (a loop over the crate's streaming selector): given
/// identical `(index, similarity)` pairs it produces bit-identical hit
/// lists, which is what lets the batched and fused query paths be proven
/// equivalent to the per-query reference paths.
///
/// Output is sorted by [`hit_order`] — descending similarity with ties
/// broken by ascending index — so for NaN-free similarities the result
/// equals the first `k` entries of the full sort whatever order the stream
/// visits indices in, and per-shard results can be recombined
/// bit-identically by [`merge_top_k`].
///
/// # Panics
/// Panics if `k == 0`.
// cmr-lint: allow(panic-path) documented precondition: k >= 1 is asserted at entry
pub fn top_k_of(sims: impl Iterator<Item = (usize, f32)>, k: usize) -> Vec<Hit> {
    assert!(k >= 1, "top_k_of: k must be positive");
    let mut top = TopK::new(k);
    for (i, sim) in sims {
        top.push(i, sim);
    }
    top.into_sorted()
}

/// Merges per-shard top-`k` hit lists (already carrying *global* gallery
/// indices) into the global top-`k`.
///
/// When each input list is the [`top_k_of`] result over one slice of a
/// contiguous gallery partition, the merge is bit-identical to running
/// [`top_k_of`] over the whole gallery in index order — including under
/// tie-heavy score distributions, because both sides order (and select)
/// by [`hit_order`]. Missing shards simply narrow the candidate set,
/// which is the degraded-serving contract.
///
/// # Panics
/// Panics if `k == 0`.
// cmr-lint: allow(panic-path) documented precondition: k >= 1 is asserted at entry
pub fn merge_top_k(lists: &[Vec<Hit>], k: usize) -> Vec<Hit> {
    assert!(k >= 1, "merge_top_k: k must be positive");
    let mut all: Vec<Hit> = lists.iter().flatten().copied().collect();
    all.sort_by(hit_order);
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gallery() -> Embeddings {
        Embeddings::new(
            2,
            vec![
                1.0, 0.0, // 0: east
                0.0, 1.0, // 1: north
                -1.0, 0.0, // 2: west
                0.7, 0.7, // 3: north-east (≈ unit, exactness irrelevant)
            ],
        )
    }

    #[test]
    fn finds_nearest_in_order() {
        let hits = top_k(&gallery(), &[1.0, 0.0], 2);
        assert_eq!(hits[0].index, 0);
        assert_eq!(hits[1].index, 3);
        assert!(hits[0].similarity > hits[1].similarity);
    }

    #[test]
    fn k_larger_than_gallery_returns_all() {
        let hits = top_k(&gallery(), &[0.0, 1.0], 10);
        assert_eq!(hits.len(), 4);
        assert_eq!(hits[0].index, 1);
        assert_eq!(hits.last().unwrap().index, 2, "antipode ranks last");
    }

    #[test]
    fn ties_are_broken_by_index_not_arrival() {
        // Three gallery rows tie exactly; the output must list them in
        // ascending index order and retain the lowest indices at the cut.
        let sims = [(4usize, 0.5f32), (1, 0.5), (0, 0.9), (2, 0.5), (3, 0.1)];
        let hits = top_k_of(sims.iter().copied(), 3);
        let got: Vec<usize> = hits.iter().map(|h| h.index).collect();
        assert_eq!(got, [0, 1, 2], "{hits:?}");
    }

    #[test]
    fn merge_of_slice_top_ks_equals_global_top_k() {
        let scores: Vec<f32> = vec![0.5, 0.9, 0.5, 0.1, 0.9, 0.5, 0.7, 0.2];
        let k = 4;
        let global = top_k_of(scores.iter().copied().enumerate(), k);
        for split in 1..scores.len() {
            let left = top_k_of(scores[..split].iter().copied().enumerate(), k);
            let right = top_k_of(
                scores[split..].iter().copied().enumerate().map(|(i, s)| (i + split, s)),
                k,
            );
            assert_eq!(merge_top_k(&[left, right], k), global, "split {split}");
        }
    }

    #[test]
    fn merge_ignores_missing_shards() {
        let only = vec![Hit { index: 7, similarity: 0.25 }];
        assert_eq!(merge_top_k(&[only.clone(), Vec::new()], 3), only);
        assert!(merge_top_k(&[], 3).is_empty());
    }

    proptest! {
        /// top_k agrees with a full sort for random data.
        #[test]
        fn agrees_with_full_sort(seed in 0u64..200, n in 1usize..40, k in 1usize..10) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let dim = 3;
            let g = Embeddings::new(dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .l2_normalized();
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let hits = top_k(&g, &q, k);

            let mut all: Vec<(usize, f32)> =
                (0..n).map(|i| (i, g.dot(i, &q))).collect();
            all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let expect: Vec<f32> = all.iter().take(k).map(|&(_, s)| s).collect();
            let got: Vec<f32> = hits.iter().map(|h| h.similarity).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
