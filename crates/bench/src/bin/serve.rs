//! Standalone retrieval server.
//!
//! Serves synthetic (or blob-loaded) galleries over the `cmr-serve`
//! protocol until `--duration-s` elapses (0 = forever). The batch ceiling
//! comes from the environment (`CMR_SERVE_BATCH`).
//! Setting `CMR_SERVE_SHARDS` above 1 boots that many in-process shard
//! workers and serves through the scatter-gather router instead
//! (`CMR_SERVE_DEADLINE_US`, `CMR_SERVE_RETRIES`, `CMR_SERVE_HEDGE_US`
//! tune it); sharded mode always uses the exact backend.
//!
//! `--index-dir` boots both directions from persistent `CMRIVF1` index
//! files instead of re-clustering (building and saving them on first
//! start; `--ivf`/`--pq-m` shape that first build). Probe width comes
//! from the `CMR_IVF_NPROBE` knob. Unsharded mode only.
//!
//! ```text
//! cargo run --release -p cmr-bench --bin serve -- \
//!     --addr 127.0.0.1:0 --addr-file results/serve.addr \
//!     --gallery 2000 --dim 32 --embeddings-dir results/serving_emb \
//!     --duration-s 10
//! ```
//!
//! `--addr-file` publishes the bound address (useful with port 0) after
//! the listener is live; scripts wait for the file, then point clients at
//! its contents.

use cmr_bench::serving::{build_engine, galleries_from_dir, indexes_from_dir, synthetic_gallery};
use cmr_serve::{Backend, Engine, Router, RouterConfig, ServeConfig, Server, ShardFleet};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    addr: String,
    addr_file: Option<PathBuf>,
    gallery: usize,
    dim: usize,
    seed: u64,
    ivf_nlist: usize,
    nprobe: usize,
    duration_s: u64,
    embeddings_dir: Option<PathBuf>,
    index_dir: Option<PathBuf>,
    pq_m: usize,
}

fn parse_args() -> Args {
    let mut a = Args {
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        gallery: 2000,
        dim: 32,
        seed: 42,
        ivf_nlist: 0,
        nprobe: 4,
        duration_s: 0,
        embeddings_dir: None,
        index_dir: None,
        pq_m: 0,
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
            "--addr" => a.addr = value(),
            "--addr-file" => a.addr_file = Some(PathBuf::from(value())),
            "--gallery" => a.gallery = value().parse().expect("--gallery takes a number"),
            "--dim" => a.dim = value().parse().expect("--dim takes a number"),
            "--seed" => a.seed = value().parse().expect("--seed takes a number"),
            "--ivf" => a.ivf_nlist = value().parse().expect("--ivf takes a number"),
            "--nprobe" => a.nprobe = value().parse().expect("--nprobe takes a number"),
            "--duration-s" => a.duration_s = value().parse().expect("--duration-s takes a number"),
            "--embeddings-dir" => a.embeddings_dir = Some(PathBuf::from(value())),
            "--index-dir" => a.index_dir = Some(PathBuf::from(value())),
            "--pq-m" => a.pq_m = value().parse().expect("--pq-m takes a number"),
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    a
}

fn main() {
    let args = parse_args();
    let (recipes, images) = match &args.embeddings_dir {
        Some(dir) => galleries_from_dir(dir, args.gallery, args.dim, args.seed),
        None => (
            synthetic_gallery(args.gallery, args.dim, args.seed),
            synthetic_gallery(args.gallery, args.dim, args.seed.wrapping_add(1)),
        ),
    };
    let cfg = ServeConfig::from_env();
    println!(
        "serve: gallery {} dim {} backend {} batch {} shards {}",
        args.gallery,
        args.dim,
        if args.ivf_nlist == 0 { "exact".to_string() } else { format!("ivf({})", args.ivf_nlist) },
        cfg.max_batch,
        cfg.shards,
    );
    let (mut server, mut fleet) = if let Some(dir) = &args.index_dir {
        assert!(cfg.shards <= 1, "--index-dir serves unsharded only");
        let nlist = if args.ivf_nlist == 0 { 64 } else { args.ivf_nlist };
        let (recipes_idx, images_idx) =
            indexes_from_dir(dir, args.gallery, args.dim, nlist, args.pq_m, args.seed);
        println!(
            "serve: booted from {dir:?} ({} + {} rows, nprobe {}, quantized {})",
            recipes_idx.len(),
            images_idx.len(),
            cfg.ivf_nprobe,
            recipes_idx.is_quantized(),
        );
        let engine = Engine::new(
            Backend::Ivf { index: recipes_idx, nprobe: cfg.ivf_nprobe },
            Backend::Ivf { index: images_idx, nprobe: cfg.ivf_nprobe },
        )
        .expect("valid loaded indexes");
        (Server::start(engine, cfg, &args.addr).expect("bind serving socket"), None)
    } else if cfg.shards > 1 {
        let dim = recipes.dim;
        let fleet =
            ShardFleet::launch(&recipes, &images, cfg.shards, &cfg).expect("spawn shard fleet");
        let router = Router::new(fleet.specs(), dim, RouterConfig::from_serve(&cfg));
        let server =
            Server::start_sharded(router, cfg, &args.addr).expect("bind serving socket");
        (server, Some(fleet))
    } else {
        let engine = build_engine(recipes, images, args.ivf_nlist, args.nprobe, args.seed);
        (Server::start(engine, cfg, &args.addr).expect("bind serving socket"), None)
    };
    let addr = server.local_addr();
    println!("serve: listening on {addr}");
    if let Some(path) = &args.addr_file {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        cmr_nn::atomic_write(path, addr.to_string().as_bytes()).expect("write --addr-file");
    }
    if args.duration_s == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(args.duration_s));
    server.shutdown();
    if let Some(fleet) = &mut fleet {
        fleet.shutdown();
    }
    let (hits, misses) = server.cache_stats();
    println!("serve: done (cache {hits} hits / {misses} misses)");
}
