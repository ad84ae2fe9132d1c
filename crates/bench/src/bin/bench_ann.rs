//! Million-item ANN benchmark: the recall-vs-latency tradeoff curve.
//!
//! The paper's extended setting (Recipe1M, ~1M items) is out of reach for
//! an exhaustive scan per query; this bin quantifies what the IVF layer
//! buys there. It generates a clustered synthetic gallery, builds a
//! sampled-k-means IVF index, product-quantizes the residuals, and sweeps
//! `nprobe` over both the flat and the quantized index, measuring
//! recall@{1,10} against a blocked exact oracle and per-query p50/p99
//! latency. The curve and the storage accounting (quantized vs flat f32
//! residual bytes) land in `results/BENCH_ann.json`.
//!
//! ```text
//! cargo run --release -p cmr-bench --bin bench_ann -- \
//!     --rows 1000000 --dim 32 --nlist 1024 --m 16 --ks 256 \
//!     --queries 1000 --probes 1,2,4,8,16,32 --out results
//! ```
//!
//! Every swept query's hits must equal [`IvfIndex::search_reference`]'s
//! bit for bit (the fused scan against the per-candidate scan it
//! replaced); the bin exits 1 on the first difference.
//!
//! Two auxiliary modes back the `verify.sh` ann gate:
//!
//! * `--index-out <path>` additionally saves the quantized index as a
//!   `CMRIVF1` file (byte-deterministic for a fixed seed);
//! * `--expect-corrupt <path>` loads an index file and exits 0 **iff** the
//!   load fails with a typed decode error — the corrupt-byte detection
//!   check, run after the gate flips one byte of a saved index.

use cmr_bench::json::{Json, ToJson};
use cmr_retrieval::knn::Hit;
use cmr_retrieval::{merge_top_k, top_k_of, Embeddings, IvfIndex};
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    rows: usize,
    dim: usize,
    queries: usize,
    nlist: usize,
    m: usize,
    ks: usize,
    iters: usize,
    train_sample: usize,
    clusters: usize,
    seed: u64,
    probes: Vec<usize>,
    out: PathBuf,
    index_out: Option<PathBuf>,
    expect_corrupt: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        rows: 1_000_000,
        dim: 32,
        queries: 1000,
        nlist: 1024,
        m: 16,
        ks: 256,
        iters: 4,
        train_sample: 100_000,
        clusters: 0, // 0 = rows / 10, resolved below
        seed: 42,
        probes: vec![1, 2, 4, 8, 16, 32],
        out: PathBuf::from("results"),
        index_out: None,
        expect_corrupt: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).unwrap_or_else(|| panic!("{flag} takes a value")).clone()
        };
        match flag {
            "--rows" => a.rows = value().parse().expect("--rows takes a number"),
            "--dim" => a.dim = value().parse().expect("--dim takes a number"),
            "--queries" => a.queries = value().parse().expect("--queries takes a number"),
            "--nlist" => a.nlist = value().parse().expect("--nlist takes a number"),
            "--m" => a.m = value().parse().expect("--m takes a number"),
            "--ks" => a.ks = value().parse().expect("--ks takes a number"),
            "--iters" => a.iters = value().parse().expect("--iters takes a number"),
            "--train-sample" => {
                a.train_sample = value().parse().expect("--train-sample takes a number")
            }
            "--clusters" => a.clusters = value().parse().expect("--clusters takes a number"),
            "--seed" => a.seed = value().parse().expect("--seed takes a number"),
            "--probes" => {
                a.probes = value()
                    .split(',')
                    .map(|p| p.trim().parse().expect("--probes takes comma-separated numbers"))
                    .collect();
            }
            "--out" => a.out = PathBuf::from(value()),
            "--index-out" => a.index_out = Some(PathBuf::from(value())),
            "--expect-corrupt" => a.expect_corrupt = Some(PathBuf::from(value())),
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    assert!(a.rows >= 1 && a.dim >= 1 && a.queries >= 1, "empty benchmark");
    assert!(!a.probes.is_empty(), "--probes must name at least one width");
    a
}

/// A clustered unit-norm gallery: `clusters` random centres, each row a
/// centre plus moderate per-coordinate noise. Clustered data is the regime
/// IVF is for (uniform random points on a high-dim sphere have no
/// neighbourhood structure to exploit). The default geometry — ~10 rows
/// per centre — mirrors Recipe1M's near-duplicate neighbourhoods (a few
/// images per recipe): a query's true top-10 is its own micro-cluster,
/// separated from the rest by a similarity gap far wider than the PQ
/// coding error, rather than an arbitrary cut through hundreds of
/// near-ties (which no lossy code, and no human, could rank stably).
fn clustered_gallery(rows: usize, dim: usize, clusters: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut centers = Vec::with_capacity(clusters);
    for _ in 0..clusters {
        let c: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        centers.push(c);
    }
    let mut e = Embeddings::with_capacity(dim, rows);
    let mut row = vec![0.0f32; dim];
    for i in 0..rows {
        let c = &centers[i % clusters];
        for (r, &x) in row.iter_mut().zip(c) {
            *r = x + rng.gen_range(-0.35f32..0.35);
        }
        e.push(&row);
    }
    e.l2_normalized()
}

/// Queries drawn as perturbed gallery rows (stride-sampled), so each has a
/// meaningful near neighbourhood without being a byte-identical lookup.
fn perturbed_queries(gallery: &Embeddings, count: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let stride = (gallery.len() / count).max(1);
    let mut q = Embeddings::with_capacity(gallery.dim, count);
    let mut row = vec![0.0f32; gallery.dim];
    for i in 0..count {
        let src = (i * stride) % gallery.len();
        for (r, &x) in row.iter_mut().zip(gallery.vector(src)) {
            *r = x + rng.gen_range(-0.05f32..0.05);
        }
        q.push(&row);
    }
    q.l2_normalized()
}

/// Exact top-`k` per query via the blocked batched kernel: queries in
/// chunks, gallery in blocks, partial top-k lists merged with
/// [`merge_top_k`]. Memory stays at one `qchunk × gblock` sim tile instead
/// of `queries × rows`.
fn exact_oracle(gallery: &Embeddings, queries: &Embeddings, k: usize) -> Vec<Vec<Hit>> {
    const QCHUNK: usize = 128;
    const GBLOCK: usize = 1 << 16;
    let dim = gallery.dim;
    let n = gallery.len();
    let mut out: Vec<Vec<Hit>> = Vec::with_capacity(queries.len());
    let mut sims = vec![0.0f32; QCHUNK.min(queries.len()) * GBLOCK.min(n)];
    let mut qlo = 0;
    while qlo < queries.len() {
        let qhi = (qlo + QCHUNK).min(queries.len());
        let qn = qhi - qlo;
        let mut partials: Vec<Vec<Vec<Hit>>> = vec![Vec::new(); qn];
        let mut glo = 0;
        while glo < n {
            let ghi = (glo + GBLOCK).min(n);
            let gn = ghi - glo;
            let tile = &mut sims[..qn * gn];
            cmr_tensor::matmul::matmul_transb_into(
                &queries.data[qlo * dim..qhi * dim],
                &gallery.data[glo * dim..ghi * dim],
                dim,
                tile,
            );
            for (q, row) in tile.chunks_exact(gn).enumerate() {
                partials[q].push(top_k_of(
                    row.iter().enumerate().map(|(i, &s)| (glo + i, s)),
                    k,
                ));
            }
            glo = ghi;
        }
        for lists in partials {
            out.push(merge_top_k(&lists, k));
        }
        qlo = qhi;
    }
    out
}

/// One point on the tradeoff curve.
struct CurvePoint {
    nprobe: usize,
    recall_at_1: f64,
    recall_at_10: f64,
    p50_s: f64,
    p99_s: f64,
}

/// `(index, similarity bits)` of each hit: the form in which the fused scan
/// must equal its reference.
fn hit_bits(hits: &[Hit]) -> Vec<(usize, u32)> {
    hits.iter().map(|h| (h.index, h.similarity.to_bits())).collect()
}

/// Sweeps `probes` over `index`, scoring recall against `oracle` (exact
/// top-10 per query) and timing every single-query search. Outside the
/// timer, every query's hits are compared bit for bit with
/// [`IvfIndex::search_reference`]; the process exits 1 on any difference.
fn sweep(
    index: &IvfIndex,
    queries: &Embeddings,
    oracle: &[Vec<Hit>],
    probes: &[usize],
) -> Vec<CurvePoint> {
    let mut curve = Vec::with_capacity(probes.len());
    for &nprobe in probes {
        let mut lat: Vec<f64> = Vec::with_capacity(queries.len());
        let mut top1_hits = 0usize;
        let mut overlap = 0usize;
        let mut overlap_denom = 0usize;
        for qi in 0..queries.len() {
            let t = Instant::now();
            let hits = index
                .search(queries.vector(qi), 10, nprobe)
                .expect("benchmark request is valid");
            lat.push(t.elapsed().as_secs_f64());
            let reference = index
                .search_reference(queries.vector(qi), 10, nprobe)
                .expect("benchmark request is valid");
            if hit_bits(&hits) != hit_bits(&reference) {
                eprintln!(
                    "bench_ann: FAIL: nprobe {nprobe} query {qi}: fused scan {hits:?} differs \
                     from the reference scan {reference:?}"
                );
                std::process::exit(1);
            }
            let exact = &oracle[qi];
            if let (Some(a), Some(b)) = (hits.first(), exact.first()) {
                if a.index == b.index {
                    top1_hits += 1;
                }
            }
            overlap += exact
                .iter()
                .filter(|e| hits.iter().any(|h| h.index == e.index))
                .count();
            overlap_denom += exact.len();
        }
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let point = CurvePoint {
            nprobe,
            recall_at_1: top1_hits as f64 / queries.len() as f64,
            recall_at_10: overlap as f64 / overlap_denom.max(1) as f64,
            p50_s: cmr_bench::serving::percentile(&lat, 0.50),
            p99_s: cmr_bench::serving::percentile(&lat, 0.99),
        };
        println!(
            "bench_ann: {} nprobe {:>3}  recall@1 {:.4}  recall@10 {:.4}  p50 {:.2}ms  p99 {:.2}ms  \
             (= reference bit for bit)",
            if index.is_quantized() { "pq  " } else { "flat" },
            point.nprobe,
            point.recall_at_1,
            point.recall_at_10,
            point.p50_s * 1e3,
            point.p99_s * 1e3,
        );
        curve.push(point);
    }
    curve
}

fn curve_json(curve: &[CurvePoint]) -> Json {
    Json::Arr(
        curve
            .iter()
            .map(|p| {
                Json::obj([
                    ("nprobe", p.nprobe.to_json()),
                    ("recall_at_1", p.recall_at_1.to_json()),
                    ("recall_at_10", p.recall_at_10.to_json()),
                    ("p50_s", p.p50_s.to_json()),
                    ("p99_s", p.p99_s.to_json()),
                ])
            })
            .collect(),
    )
}

fn main() {
    let args = parse_args();

    // Corrupt-load gate: a damaged CMRIVF1 file must fail typed, never
    // panic and never yield an index.
    if let Some(path) = &args.expect_corrupt {
        match cmr_retrieval::load_index(path) {
            Err(e) => {
                println!("bench_ann: corrupt load correctly rejected: {e}");
                return;
            }
            Ok(index) => {
                eprintln!(
                    "bench_ann: FAIL: corrupt index at {path:?} loaded cleanly ({} rows)",
                    index.len()
                );
                std::process::exit(1);
            }
        }
    }

    let clusters = if args.clusters == 0 { (args.rows / 10).max(1) } else { args.clusters };
    println!(
        "bench_ann: rows {} dim {} clusters {} nlist {} m {} ks {} queries {}",
        args.rows, args.dim, clusters, args.nlist, args.m, args.ks, args.queries
    );

    let t = Instant::now();
    let gallery = clustered_gallery(args.rows, args.dim, clusters, args.seed);
    let queries = perturbed_queries(&gallery, args.queries, args.seed.wrapping_add(1));
    println!("bench_ann: gallery + queries in {:.1}s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let oracle = exact_oracle(&gallery, &queries, 10);
    let oracle_s = t.elapsed().as_secs_f64();
    println!(
        "bench_ann: exact oracle in {oracle_s:.1}s ({:.2}ms/query)",
        oracle_s * 1e3 / args.queries as f64
    );

    let t = Instant::now();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(args.seed.wrapping_add(2));
    let flat = IvfIndex::build_with_sample(
        gallery,
        args.nlist,
        args.iters,
        args.train_sample,
        &mut rng,
    );
    let bytes_flat = flat.storage_bytes();
    println!("bench_ann: flat IVF built in {:.1}s ({bytes_flat} bytes)", t.elapsed().as_secs_f64());

    let flat_curve = sweep(&flat, &queries, &oracle, &args.probes);

    let t = Instant::now();
    let (pq, stats) = flat
        .quantize_residuals(args.m, args.ks, args.iters, args.train_sample, &mut rng)
        .expect("PQ geometry is valid");
    let bytes_pq = pq.storage_bytes();
    let compression = bytes_flat as f64 / bytes_pq.max(1) as f64;
    println!(
        "bench_ann: quantized in {:.1}s ({bytes_pq} bytes, {compression:.1}x, train mse {:.2e})",
        t.elapsed().as_secs_f64(),
        stats.mse
    );

    let pq_curve = sweep(&pq, &queries, &oracle, &args.probes);

    if let Some(path) = &args.index_out {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        cmr_retrieval::save_index(&pq, path).expect("save quantized index");
        println!("bench_ann: quantized index saved to {path:?}");
    }

    // The archived operating point: the cheapest quantized sweep entry
    // meeting the recall@10 target, else the best-recall entry.
    let operating = pq_curve
        .iter()
        .find(|p| p.recall_at_10 >= 0.95)
        .or_else(|| {
            pq_curve.iter().max_by(|a, b| {
                a.recall_at_10
                    .partial_cmp(&b.recall_at_10)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        })
        .expect("at least one probe width");

    let artifact = Json::obj([
        ("experiment", "bench_ann".to_json()),
        ("schema_version", 1u32.to_json()),
        (
            "config",
            Json::obj([
                ("rows", args.rows.to_json()),
                ("dim", args.dim.to_json()),
                ("clusters", clusters.to_json()),
                ("queries", args.queries.to_json()),
                ("nlist", args.nlist.to_json()),
                ("m", args.m.to_json()),
                ("ks", args.ks.to_json()),
                ("iters", args.iters.to_json()),
                ("train_sample", args.train_sample.to_json()),
                ("seed", args.seed.to_json()),
            ]),
        ),
        ("bytes_flat_residuals", bytes_flat.to_json()),
        ("bytes_quantized", bytes_pq.to_json()),
        ("compression_x", compression.to_json()),
        ("oracle_ms_per_query", (oracle_s * 1e3 / args.queries as f64).to_json()),
        (
            "curves",
            Json::obj([("flat", curve_json(&flat_curve)), ("pq", curve_json(&pq_curve))]),
        ),
        (
            "operating_point",
            Json::obj([
                ("kind", "pq".to_json()),
                ("nprobe", operating.nprobe.to_json()),
                ("recall_at_1", operating.recall_at_1.to_json()),
                ("recall_at_10", operating.recall_at_10.to_json()),
                ("p50_s", operating.p50_s.to_json()),
                ("p99_s", operating.p99_s.to_json()),
            ]),
        ),
    ]);
    std::fs::create_dir_all(&args.out).expect("create output directory");
    cmr_bench::save_json(&args.out.join("BENCH_ann.json"), &artifact);
    println!(
        "bench_ann: nprobe {} gives recall@10 {:.4} at p50 {:.2}ms ({:.1}x smaller than flat) -> {}",
        operating.nprobe,
        operating.recall_at_10,
        operating.p50_s * 1e3,
        compression,
        args.out.join("BENCH_ann.json").display()
    );
}
