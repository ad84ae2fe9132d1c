//! The traced run: each layer's public functions timed from outside the
//! program, on the workload's own queries, then reconciled with the
//! end-to-end figure.
//!
//! No spans are added inside the program; every number here comes from
//! calling a crate's public API from the benchmark (the result cache,
//! the HTTP codec, the batcher, the router, the IVF index, the kernels and
//! the training stack) or from counters the program already keeps. Layers
//! a workload does not exercise are still measured, on the shared prepared
//! data with that workload's queries, so every traced run reports the same
//! metric set.

use crate::data::{load_blob, Dir, Layout, DIM, K};
use crate::server::{self, ServerProc};
use crate::stats::{median, Reconciliation};
use crate::workloads::{self, EndToEnd, Pools, Query};
use crate::Metric;
use cmr_adamine::{losses, BatchInputs, ModelConfig, RecipeFeatures, Scenario, SentenceFeaturizer};
use cmr_adamine::{TrainConfig, TwoBranchModel};
use cmr_bench::serving::Client;
use cmr_data::{BatchSampler, DataConfig, Dataset, Scale, Split};
use cmr_nn::{Adam, Bindings};
use cmr_retrieval::knn::Hit;
use cmr_retrieval::{top_k_of, Embeddings};
use cmr_serve::http::{read_request, write_request, write_response, Limits};
use cmr_serve::{Batcher, Engine, Router, RouterConfig, ServeConfig, ShardFleet, ShardedCache};
use cmr_tensor::{Graph, TensorData};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{self, BufReader, Cursor};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries replayed per layer.
const REPLAY: usize = 1000;
/// Operations per timed chunk for sub-microsecond codec calls.
const CHUNK: usize = 50;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Prints the traced run's own end-to-end numbers beside the last
/// untraced run's (`name value` lines); the difference is the tracing
/// overhead.
pub fn report_end_to_end(traced: &[Metric], untraced: Option<&str>) {
    println!("  end-to-end, traced vs untraced (difference = tracing overhead):");
    for m in traced {
        let before = untraced.and_then(|u| {
            u.lines().find_map(|l| {
                let (n, v) = l.split_once(' ')?;
                (n == m.name)
                    .then(|| v.trim().parse::<f64>().ok())
                    .flatten()
            })
        });
        match before {
            Some(b) => println!(
                "    {:<14} traced {:>12.4}  untraced {:>12.4} {:<8} ({:+.1}%)",
                m.name,
                m.value,
                b,
                m.unit,
                if b == 0.0 {
                    0.0
                } else {
                    (m.value - b) / b * 100.0
                }
            ),
            None => println!(
                "    {:<14} traced {:>12.4} {:<8} (no untraced run yet)",
                m.name, m.value, m.unit
            ),
        }
    }
}

/// The request bytes the server would read for `q`.
fn request_bytes(pools: &Pools, q: Query) -> Vec<u8> {
    let mut out = Vec::new();
    let body: Vec<u8> = pools
        .vector(q)
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    write_request(
        &mut out,
        "POST",
        &format!("/v1/search/{}?k={K}", q.dir.as_str()),
        &body,
    )
    .expect("writing to a Vec cannot fail");
    out
}

/// The result-cache key the server derives for `q`.
fn cache_key(pools: &Pools, q: Query) -> Vec<u8> {
    let mut key = vec![q.dir.serve().tag()];
    key.extend_from_slice(&(K as u64).to_le_bytes());
    for &x in pools.vector(q) {
        let x = if x == 0.0 { 0.0f32 } else { x };
        key.extend_from_slice(&x.to_le_bytes());
    }
    key
}

/// Parses a rendered hit list back into hits.
fn parse_hits(body: &str) -> Vec<Hit> {
    body.split("{\"index\":")
        .skip(1)
        .filter_map(|s| {
            let (idx, rest) = s.split_once(",\"similarity\":")?;
            let sim = rest.split('}').next()?;
            Some(Hit {
                index: idx.parse().ok()?,
                similarity: sim.parse().ok()?,
            })
        })
        .collect()
}

/// Median per-operation time of `op` over `items`, timed in chunks.
fn per_op_us<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    let mut chunks = Vec::new();
    for _pass in 0..3 {
        for chunk in items.chunks(CHUNK) {
            let t = Instant::now();
            for it in chunk {
                op(it);
            }
            chunks.push(us(t.elapsed()) / chunk.len() as f64);
        }
    }
    median(&chunks)
}

/// Closed-loop capacity of the `ann_open` server over two connections.
pub fn ann_capacity(exe: &Path, cache: &Path, secs: f64) -> io::Result<f64> {
    let layout = Layout::new(cache);
    let pools = Pools::load(&layout, "ann_open")?;
    let plan = workloads::ann_plan(2 * pools.rows(), 1, pools.rows(), 0)?;
    let (proc, _) = ServerProc::boot(exe, "ann_open", cache, false)?;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let done: usize = std::thread::scope(|s| {
        let hs: Vec<_> = (0..workloads::CONNS)
            .map(|_| {
                s.spawn(|| {
                    let mut c =
                        Client::connect(&proc.addr, Duration::from_secs(10)).expect("connect");
                    let mut n = 0;
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&q) = plan.get(i) else { break };
                        if c.search(q.dir.as_str(), K, pools.vector(q)).is_ok() {
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("capacity thread"))
            .sum()
    });
    proc.stop()?;
    Ok(done as f64 / secs)
}

/// Runs every layer replay for `workload` and returns the per-layer
/// metrics; prints the reconciliation report.
pub fn run(
    workload: &str,
    layout: &Layout,
    seed: u64,
    e2e: &mut EndToEnd,
) -> io::Result<Vec<Metric>> {
    let pools = Pools::load(layout, workload)?;
    let cfg = server::config(workload);
    let replay: Vec<Query> = e2e.sent.iter().copied().take(REPLAY).collect();
    let mut distinct = e2e.sent.clone();
    distinct.sort_by_key(|q| (q.dir as usize, q.row));
    distinct.dedup_by_key(|q| (q.dir as usize, q.row));
    distinct.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
    distinct.truncate(300);
    let mut m = Vec::new();

    // ---- serve: socket + connection-thread floor --------------------
    let exe = std::env::current_exe()?;
    let cache_dir = layout.file("");
    let (proc, _) = ServerProc::boot(&exe, workload, &cache_dir, false)?;
    let mut client = Client::connect(&proc.addr, Duration::from_secs(10))?;
    let mut rtt = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let t = Instant::now();
        client
            .healthz()
            .map_err(|e| io::Error::other(e.to_string()))?;
        rtt.push(us(t.elapsed()));
    }
    drop(client);
    proc.stop()?;
    let rtt_floor_us = median(&rtt);

    // ---- serve.http: the codec on the workload's bytes ----------------
    let requests: Vec<Vec<u8>> = replay.iter().map(|&q| request_bytes(&pools, q)).collect();
    let limits = Limits {
        max_head_bytes: cfg.max_head_bytes,
        max_body_bytes: cfg.max_body_bytes,
    };
    let parse_us = per_op_us(&requests, |r| {
        let mut reader = BufReader::new(Cursor::new(r.as_slice()));
        let req = read_request(&mut reader, &limits).expect("replayed request parses");
        std::hint::black_box(req);
    });
    let hit_lists: Vec<Vec<Hit>> = e2e.bodies.iter().map(|b| parse_hits(b)).collect();
    if hit_lists.is_empty() || hit_lists.iter().any(|h| h.len() != K) {
        return Err(io::Error::other("no full response bodies to replay"));
    }
    let mut sink = Vec::with_capacity(4096);
    let render_us = per_op_us(&hit_lists, |hits| {
        sink.clear();
        let body = cmr_serve::render_hits(hits);
        write_response(
            &mut sink,
            200,
            "OK",
            "application/json",
            body.as_bytes(),
            true,
        )
        .expect("writing to a Vec cannot fail");
    });

    // ---- serve.cache: the server's cache geometry, the workload's keys --
    let cache = ShardedCache::new(cfg.cache_capacity, cfg.cache_shards);
    let keys: Vec<Vec<u8>> = e2e.sent.iter().map(|&q| cache_key(&pools, q)).collect();
    let body = e2e.bodies[0].clone();
    let (mut get_t, mut ins_t, mut gets, mut inserts) =
        (Duration::ZERO, Duration::ZERO, 0u32, 0u32);
    for key in &keys {
        let t = Instant::now();
        let hit = cache.get(key);
        get_t += t.elapsed();
        gets += 1;
        if hit.is_none() {
            let t = Instant::now();
            cache.insert(key, body.clone());
            ins_t += t.elapsed();
            inserts += 1;
        }
    }
    let cache_get_us = us(get_t) / f64::from(gets.max(1));
    let cache_insert_us = us(ins_t) / f64::from(inserts.max(1));
    let (hits, misses) = e2e.cache;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;

    // ---- retrieval: IVF search, index load ------------------------------
    let t = Instant::now();
    let ivf = [
        cmr_retrieval::load_index(&layout.ann_index(Dir::ImToRec))?,
        cmr_retrieval::load_index(&layout.ann_index(Dir::RecToIm))?,
    ];
    let store_load_s = t.elapsed().as_secs_f64();
    let nprobe = ServeConfig::default().ivf_nprobe;
    let mut ivf_t = Vec::with_capacity(replay.len());
    for &q in &replay {
        let t = Instant::now();
        let hits = ivf[q.dir as usize].search(pools.vector(q), K, nprobe);
        ivf_t.push(us(t.elapsed()));
        std::hint::black_box(hits.map_err(|e| io::Error::other(e.to_string()))?);
    }
    let ivf_search_us = median(&ivf_t);
    cmr_obs::reset();
    cmr_obs::set_enabled(true);
    for &q in &replay {
        let _ = ivf[q.dir as usize].search(pools.vector(q), K, nprobe);
    }
    cmr_obs::set_enabled(false);
    let snap = cmr_obs::snapshot("retrieval.ivf.");
    let candidates = snap
        .counter("retrieval.ivf.candidates_scanned")
        .unwrap_or(0) as f64
        / snap.counter("retrieval.ivf.queries").unwrap_or(1).max(1) as f64;

    // ---- exact scan + kernels over one shard's slice -------------------
    let t = Instant::now();
    let galleries = [
        load_blob(&layout.zipf_gallery(Dir::ImToRec))?,
        load_blob(&layout.zipf_gallery(Dir::RecToIm))?,
    ];
    let blob_load_s = t.elapsed().as_secs_f64();
    let half = cmr_serve::partition(galleries[0].len(), server::ZIPF_SHARDS)[0];
    let slices: Vec<Embeddings> = galleries
        .iter()
        .map(|g| g.slice_rows(half.0, half.1))
        .collect();
    let rows = half.1 - half.0;
    let mut sims = vec![0.0f32; rows];
    let (mut scan_t, mut mm_t) = (Vec::new(), Vec::new());
    for &q in replay.iter().take(300) {
        let slice = &slices[q.dir as usize];
        let t = Instant::now();
        cmr_tensor::matmul::matmul_transb_into(pools.vector(q), &slice.data, DIM, &mut sims);
        let mm = t.elapsed();
        let top = top_k_of(sims.iter().enumerate().map(|(i, &s)| (i, s)), K);
        scan_t.push(us(t.elapsed()));
        mm_t.push(mm.as_secs_f64());
        std::hint::black_box(top);
    }
    let exact_scan_us = median(&scan_t);
    let transb_gflops = 2.0 * (DIM * rows) as f64 / median(&mm_t) / 1e9;

    // ---- serve.batch + engine: the admission queue on the open-loop
    // schedule, over the workload's engine ---------------------------------
    let engine = match workload {
        "ann_open" => {
            let [a, b] = ivf;
            Engine::new(
                cmr_serve::Backend::Ivf { index: a, nprobe },
                cmr_serve::Backend::Ivf { index: b, nprobe },
            )
        }
        _ => {
            drop(ivf);
            Engine::exact(slices[0].clone(), slices[1].clone())
        }
    }
    .map_err(|e| io::Error::other(e.to_string()))?;
    let engine = Arc::new(engine);
    let mut search_t = Vec::with_capacity(replay.len());
    for &q in &replay {
        let t = Instant::now();
        let r = engine.search_one(q.dir.serve(), pools.vector(q), K);
        search_t.push(us(t.elapsed()));
        std::hint::black_box(r.map_err(|e| io::Error::other(e.to_string()))?);
    }
    let engine_search_us = median(&search_t);
    let batcher = Batcher::new(
        Arc::clone(&engine),
        cfg.max_batch,
        cfg.max_wait,
        cfg.workers,
    );
    let batch_n = replay.len().min(800);
    cmr_obs::reset();
    cmr_obs::set_enabled(true);
    let timeline = crate::openloop::run(
        vec![&batcher; workloads::CONNS],
        crate::openloop::Schedule::at_rate(workloads::ANN_RATE, batch_n),
        |b: &mut &Batcher, i| {
            let q = replay[i];
            let t = Instant::now();
            let rx = b
                .submit(q.dir.serve(), K, pools.vector(q).to_vec())
                .expect("batcher accepts");
            let ok = matches!(rx.recv(), Ok(Ok(_)));
            (ok, t.elapsed())
        },
    );
    cmr_obs::set_enabled(false);
    batcher.shutdown();
    let snap = cmr_obs::snapshot("serve.batch");
    let batch_size_mean = snap.counter("serve.batched_requests").unwrap_or(0) as f64
        / snap.counter("serve.batches").unwrap_or(1).max(1) as f64;
    if timeline.iter().any(|t| !t.out.0) {
        return Err(io::Error::other("batcher replay: a query failed"));
    }
    let submit_recv: Vec<f64> = timeline.iter().map(|t| us(t.out.1)).collect();
    let batch_wait_us = (median(&submit_recv) - engine_search_us).max(0.0);
    drop(engine);

    // ---- serve.router: scatter-gather vs direct shard calls -------------
    let fleet_cfg = ServeConfig {
        cache_capacity: 0,
        ..server::config("zipf_sharded")
    };
    let mut fleet = ShardFleet::launch(
        &galleries[0],
        &galleries[1],
        server::ZIPF_SHARDS,
        &fleet_cfg,
    )
    .map_err(|e| io::Error::other(e.to_string()))?;
    drop(galleries);
    let router = Router::new(fleet.specs(), DIM, RouterConfig::from_serve(&fleet_cfg));
    let mut shard_clients: Vec<Client> = fleet
        .specs()
        .iter()
        .map(|s| Client::connect(&s.addr.to_string(), Duration::from_secs(10)))
        .collect::<io::Result<_>>()?;
    cmr_obs::reset();
    cmr_obs::set_enabled(true);
    let (mut router_t, mut shard_t, mut overhead_t) = (Vec::new(), Vec::new(), Vec::new());
    let mut degraded = 0usize;
    for &q in &distinct {
        let body: Vec<u8> = pools
            .vector(q)
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let mut slowest = 0.0f64;
        for c in &mut shard_clients {
            let t = Instant::now();
            let r = c.search(q.dir.as_str(), K, pools.vector(q));
            slowest = slowest.max(us(t.elapsed()));
            if !matches!(r, Ok(ref resp) if resp.status == 200) {
                return Err(io::Error::other("direct shard call failed"));
            }
        }
        let t = Instant::now();
        let routed = router
            .search(q.dir.serve(), K, &body)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let r_us = us(t.elapsed());
        degraded += usize::from(routed.degraded());
        router_t.push(r_us);
        shard_t.push(slowest);
        overhead_t.push(r_us - slowest);
    }
    cmr_obs::set_enabled(false);
    let snap = cmr_obs::snapshot("serve.router.");
    let retries = snap.counter("serve.router.retries").unwrap_or(0);
    drop(shard_clients);
    fleet.shutdown();
    e2e.check(
        "router_healthy_fleet",
        degraded == 0 && retries == 0,
        format!(
            "{degraded} degraded, {retries} retries over {} queries",
            distinct.len()
        ),
    );
    let router_search_us = median(&router_t);
    let shard_rtt_us = median(&shard_t);
    let router_overhead_us = median(&overhead_t);

    // ---- training stack: one epoch replayed through public functions ----
    let train = replay_training()?;
    // The replay is seeded, so its validation MedR must repeat exactly.
    let medr_path = layout.file("train_replay_medr.txt");
    let first = std::fs::read_to_string(&medr_path)
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok());
    if first.is_none() {
        std::fs::write(&medr_path, format!("{}\n", train.val_medr))?;
    }
    let first = first.unwrap_or(train.val_medr);
    e2e.check(
        "train_val_medr_repeats",
        first.to_bits() == train.val_medr.to_bits(),
        format!("validation MedR {} (first replay {first})", train.val_medr),
    );

    // ---- reconciliation --------------------------------------------------
    println!("  reconciliation (layer medians on the blocking path vs end to end):");
    match workload {
        "ann_open" => {
            let r = Reconciliation::of(
                &[
                    (1.0, rtt_floor_us),
                    (1.0, parse_us),
                    (1.0, cache_get_us),
                    (1.0, batch_wait_us),
                    (1.0, engine_search_us),
                    (1.0, cache_insert_us),
                    (1.0, render_us),
                ],
                e2e.p50_ms * 1e3,
            );
            print_reconciliation(
                "ann_open p50",
                "rtt_floor + parse + cache.get + batch.wait + engine.search + cache.insert + render",
                &r,
                "us",
            );
        }
        _ => {
            let miss = 1.0 - hit_ratio;
            let parts = [
                (1.0, rtt_floor_us),
                (1.0, parse_us),
                (1.0, cache_get_us),
                (1.0, render_us),
                (miss, router_search_us),
                (miss, cache_insert_us),
            ];
            let r = Reconciliation::of(&parts, e2e.mean_ms * 1e3);
            print_reconciliation(
                "zipf_sharded mean",
                "rtt_floor + parse + cache.get + render + miss x (router.search + cache.insert)",
                &r,
                "us",
            );
            println!("    (p50 {:.1} us; the latency mix is bimodal, so the mean is the reconciled figure)", e2e.p50_ms * 1e3);
        }
    }
    let r = Reconciliation::of(
        &[
            (1.0, train.sampler_ms),
            (1.0, train.forward_ms),
            (1.0, train.loss_ms),
            (1.0, train.backward_ms),
            (1.0, train.adam_ms),
            (1.0, train.val_ms),
        ],
        train.epoch_ms,
    );
    print_reconciliation(
        "training epoch",
        "sampler + forward + loss + backward + adam + val",
        &r,
        "ms",
    );

    m.push(Metric::lower("serve.rtt_floor_us", rtt_floor_us, "us"));
    m.push(Metric::lower("serve.http.parse_us", parse_us, "us"));
    m.push(Metric::lower("serve.http.render_us", render_us, "us"));
    m.push(Metric::lower("serve.cache.get_us", cache_get_us, "us"));
    m.push(Metric::lower(
        "serve.cache.insert_us",
        cache_insert_us,
        "us",
    ));
    m.push(Metric::higher(
        "serve.cache.hit_ratio",
        hit_ratio,
        "fraction",
    ));
    m.push(Metric::lower("serve.batch.wait_us", batch_wait_us, "us"));
    m.push(Metric::higher(
        "serve.batch.size_mean",
        batch_size_mean,
        "requests",
    ));
    m.push(Metric::lower(
        "serve.engine.search_us",
        engine_search_us,
        "us",
    ));
    m.push(Metric::lower(
        "serve.router.search_us",
        router_search_us,
        "us",
    ));
    m.push(Metric::lower(
        "serve.router.shard_rtt_us",
        shard_rtt_us,
        "us",
    ));
    m.push(Metric::lower(
        "serve.router.overhead_us",
        router_overhead_us,
        "us",
    ));
    m.push(Metric::lower(
        "retrieval.ivf.search_us",
        ivf_search_us,
        "us",
    ));
    m.push(Metric::lower(
        "retrieval.ivf.candidates_per_query",
        candidates,
        "count",
    ));
    m.push(Metric::lower("retrieval.store.load_s", store_load_s, "s"));
    m.push(Metric::lower("nn.emb_blob.load_s", blob_load_s, "s"));
    m.push(Metric::lower(
        "retrieval.exact.scan_us",
        exact_scan_us,
        "us",
    ));
    m.push(Metric::higher(
        "tensor.matmul_transb.gflops",
        transb_gflops,
        "GFLOP/s",
    ));
    m.push(Metric::higher(
        "tensor.matmul.gflops",
        train.matmul_gflops,
        "GFLOP/s",
    ));
    m.push(Metric::lower("train.sampler_ms", train.sampler_ms, "ms"));
    m.push(Metric::lower("train.forward_ms", train.forward_ms, "ms"));
    m.push(Metric::lower("train.loss_ms", train.loss_ms, "ms"));
    m.push(Metric::lower("train.backward_ms", train.backward_ms, "ms"));
    m.push(Metric::lower("train.adam_ms", train.adam_ms, "ms"));
    m.push(Metric::lower("train.val_ms", train.val_ms, "ms"));
    m.push(Metric::lower("train.w2v_s", train.w2v_s, "s"));
    m.push(Metric::lower("train.features_s", train.features_s, "s"));
    for x in &m {
        println!(
            "  {:<36} {:>12.4} {:<9} ({} is better)",
            x.name, x.value, x.unit, x.better
        );
    }
    Ok(m)
}

fn print_reconciliation(what: &str, parts: &str, r: &Reconciliation, unit: &str) {
    println!(
        "    {what}: {:.1} {unit}; {parts} = {:.1} {unit}; residual {:.1} {unit} ({:.0}%)",
        r.total,
        r.explained,
        r.residual(),
        r.residual_share() * 100.0
    );
}

/// Per-epoch time of each training stage, plus the set-up stages.
struct TrainTimes {
    w2v_s: f64,
    features_s: f64,
    sampler_ms: f64,
    forward_ms: f64,
    loss_ms: f64,
    backward_ms: f64,
    adam_ms: f64,
    val_ms: f64,
    epoch_ms: f64,
    matmul_gflops: f64,
    val_medr: f64,
}

/// Replays `Trainer::fit`'s set-up and one unfrozen epoch of
/// `Scenario::AdaMine` at default scale, composing the public pieces the
/// way the trainer does, and times each stage.
fn replay_training() -> io::Result<TrainTimes> {
    let scenario = Scenario::AdaMine;
    let dataset = Dataset::generate(&DataConfig::for_scale(Scale::Default));
    let tcfg = scenario.apply_to(TrainConfig::default());
    let mcfg: ModelConfig =
        scenario.apply_to_model(ModelConfig::default(), dataset.world.config().n_classes);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(tcfg.seed);

    let t = Instant::now();
    let w2v_cfg = cmr_word2vec::SgnsConfig {
        dim: mcfg.word_dim,
        epochs: tcfg.w2v_epochs,
        ..Default::default()
    };
    let wv = cmr_word2vec::train(
        &dataset.word2vec_corpus(),
        dataset.world.vocab.len(),
        &w2v_cfg,
        &mut rng,
    );
    let w2v_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let featurizer = SentenceFeaturizer::new(&mut rng, mcfg.word_dim, mcfg.sent_feat_dim);
    let feats = RecipeFeatures::build(
        &dataset,
        &wv,
        &featurizer,
        mcfg.max_ingredients,
        mcfg.max_sentences,
    );
    let features_s = t.elapsed().as_secs_f64();

    let mut model = TwoBranchModel::new(&mcfg, &wv, dataset.image_dim);
    model.set_backbone_frozen(false);
    let mut adam = Adam::new(tcfg.lr);
    let mut sampler = BatchSampler::new(&dataset, Split::Train, tcfg.batch_size);
    let mut val_ids: Vec<usize> = dataset.split_range(Split::Val).collect();
    val_ids.shuffle(&mut rng);
    val_ids.truncate(tcfg.val_subset.max(10).min(val_ids.len()));

    let (mut sampler_t, mut forward_t, mut loss_t, mut backward_t, mut adam_t) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let epoch = Instant::now();
    for _ in 0..sampler.batches_per_epoch() {
        let t = Instant::now();
        let ids = sampler.next_batch(&mut rng);
        let labels: Vec<Option<usize>> = ids.iter().map(|&i| dataset.recipes[i].label).collect();
        let inputs = BatchInputs::gather(&dataset, &feats, &ids);
        sampler_t += t.elapsed();

        let t = Instant::now();
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let (img, rec) = model.forward_batch(&mut g, &mut binds, &inputs);
        forward_t += t.elapsed();

        let t = Instant::now();
        let d_ir = losses::cosine_distance_matrix(&mut g, img, rec);
        let d_ri = losses::cosine_distance_matrix(&mut g, rec, img);
        let a = losses::instance_hinge(&mut g, d_ir, tcfg.margin);
        let b = losses::instance_hinge(&mut g, d_ri, tcfg.margin);
        let mut total = losses::combine_directions(&mut g, a, b, tcfg.strategy);
        if let (Some((p1, n1)), Some((p2, n2))) = (
            losses::semantic_masks(&labels, &mut rng),
            losses::semantic_masks(&labels, &mut rng),
        ) {
            let a = losses::semantic_hinge(&mut g, d_ir, &p1, &n1, tcfg.margin);
            let b = losses::semantic_hinge(&mut g, d_ri, &p2, &n2, tcfg.margin);
            if let Some(sem) = losses::combine_directions(&mut g, a, b, tcfg.strategy) {
                let weighted = g.scale(sem, tcfg.lambda);
                total = Some(match total {
                    Some(t) => g.add(t, weighted),
                    None => weighted,
                });
            }
        }
        loss_t += t.elapsed();
        let Some(loss) = total else { continue };
        if !g.value(loss).scalar().is_finite() {
            return Err(io::Error::other("training replay: non-finite loss"));
        }

        let t = Instant::now();
        g.backward(loss);
        backward_t += t.elapsed();

        let t = Instant::now();
        adam.step(&mut model.store, &g, &binds);
        adam_t += t.elapsed();
    }

    let t = Instant::now();
    let dim = mcfg.latent_dim;
    let (mut imgs, mut recs) = (
        Embeddings::with_capacity(dim, val_ids.len()),
        Embeddings::with_capacity(dim, val_ids.len()),
    );
    for chunk in val_ids.chunks(512) {
        let inputs = BatchInputs::gather(&dataset, &feats, chunk);
        let mut g = Graph::new();
        let mut binds = Bindings::new();
        let (img, rec) = model.forward_batch(&mut g, &mut binds, &inputs);
        for r in 0..chunk.len() {
            imgs.push(g.value(img).row(r));
            recs.push(g.value(rec).row(r));
        }
    }
    let (i, r) = (imgs.l2_normalized(), recs.l2_normalized());
    let medr = (cmr_retrieval::median_rank(&cmr_retrieval::ranks_of_matches(&i, &r))
        + cmr_retrieval::median_rank(&cmr_retrieval::ranks_of_matches(&r, &i)))
        / 2.0;
    let val_t = t.elapsed();
    let epoch_t = epoch.elapsed();
    if !medr.is_finite() || medr < 1.0 {
        return Err(io::Error::other(format!(
            "training replay: bad validation MedR {medr}"
        )));
    }
    println!("  training replay: one unfrozen epoch, validation MedR {medr:.1}");

    // The trainer's largest forward matmul: the image adapter over a batch.
    let mut mrng = rand::rngs::SmallRng::seed_from_u64(7);
    let (bsz, din, dout) = (tcfg.batch_size, dataset.image_dim, mcfg.adapter_hidden);
    let a = TensorData::new(
        bsz,
        din,
        (0..bsz * din)
            .map(|_| mrng.gen_range(-1.0f32..1.0))
            .collect(),
    );
    let b = TensorData::new(
        din,
        dout,
        (0..din * dout)
            .map(|_| mrng.gen_range(-1.0f32..1.0))
            .collect(),
    );
    let mut mm = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(cmr_tensor::matmul::matmul(&a, &b));
        mm.push(t.elapsed().as_secs_f64());
    }
    let matmul_gflops = 2.0 * (bsz * din * dout) as f64 / median(&mm) / 1e9;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok(TrainTimes {
        w2v_s,
        features_s,
        sampler_ms: ms(sampler_t),
        forward_ms: ms(forward_t),
        loss_ms: ms(loss_t),
        backward_ms: ms(backward_t),
        adam_ms: ms(adam_t),
        val_ms: ms(val_t),
        epoch_ms: ms(epoch_t),
        matmul_gflops,
        val_medr: medr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_hits_inverts_render_hits() {
        let hits = vec![
            Hit {
                index: 4,
                similarity: 0.987_654_3,
            },
            Hit {
                index: 1_000_000,
                similarity: -1.5e-7,
            },
        ];
        assert_eq!(parse_hits(&cmr_serve::render_hits(&hits)), hits);
    }

    #[test]
    fn cache_key_matches_the_servers_layout() {
        // direction tag, k as u64 LE, then the query's f32 LE bytes
        let pools = Pools::from_vectors([
            Embeddings::new(2, vec![1.0, -0.0]),
            Embeddings::new(2, vec![0.5, 0.25]),
        ]);
        let key = cache_key(
            &pools,
            Query {
                dir: Dir::ImToRec,
                row: 0,
            },
        );
        assert_eq!(key.len(), 1 + 8 + 2 * 4);
        assert_eq!(key[0], Dir::ImToRec.serve().tag());
        assert_eq!(&key[1..9], &(K as u64).to_le_bytes());
        assert_eq!(
            &key[13..17],
            &0.0f32.to_le_bytes(),
            "-0.0 is canonicalised like the server does"
        );
    }
}
