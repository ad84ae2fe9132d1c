//! Chaos benchmark: availability and tail latency of the sharded serving
//! tier under seeded fault mixes.
//!
//! For each mix, a fresh shard fleet is booted with a `FaultProxy` in
//! front of every worker, a scatter-gather front end routes through the
//! proxies, and closed-loop clients fire real-socket queries. Every
//! response is classified **ok** (200, full coverage), **degraded** (200
//! with the `degraded` flag — some shards missing) or **failed** (anything
//! else). The availability contract is: faults may degrade, they must not
//! fail — the bin exits non-zero if any request failed.
//!
//! Writes `BENCH_chaos.json` (availability + p50/p99/p999 per mix) and
//! `OBS_chaos.json` (the `serve.router.*` retry/hedge/breaker telemetry)
//! into `--out`.
//!
//! ```text
//! cargo run --release -p cmr-bench --bin bench_chaos -- \
//!     --shards 3 --clients 3 --requests 25
//! ```

use cmr_bench::json::{Json, ToJson};
use cmr_bench::serving::{closed_loop, percentile, synthetic_gallery, Load, Tally};
use cmr_serve::{
    Fault, FaultPlan, FaultProxy, Router, RouterConfig, ServeConfig, ShardFleet, ShardSpec,
};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    shards: usize,
    clients: usize,
    requests: usize,
    gallery: usize,
    dim: usize,
    k: usize,
    seed: u64,
    deadline_ms: u64,
    retries: u32,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        shards: 3,
        clients: 3,
        requests: 25,
        gallery: 120,
        dim: 16,
        k: 5,
        seed: 42,
        deadline_ms: 150,
        retries: 4,
        out: PathBuf::from("results"),
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
            "--shards" => a.shards = value().parse().expect("--shards takes a number"),
            "--clients" => a.clients = value().parse().expect("--clients takes a number"),
            "--requests" => a.requests = value().parse().expect("--requests takes a number"),
            "--gallery" => a.gallery = value().parse().expect("--gallery takes a number"),
            "--dim" => a.dim = value().parse().expect("--dim takes a number"),
            "--k" => a.k = value().parse().expect("--k takes a number"),
            "--seed" => a.seed = value().parse().expect("--seed takes a number"),
            "--deadline-ms" => {
                a.deadline_ms = value().parse().expect("--deadline-ms takes a number")
            }
            "--retries" => a.retries = value().parse().expect("--retries takes a number"),
            "--out" => a.out = PathBuf::from(value()),
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    a
}

/// One fault mix: a name plus a per-shard fault plan and an optional
/// worker to kill outright.
struct Mix {
    name: &'static str,
    plan_for: fn(usize, u64) -> FaultPlan,
    kill_worker: Option<usize>,
}

const MIXES: &[Mix] = &[
    Mix { name: "healthy", plan_for: |_, _| FaultPlan::healthy(), kill_worker: None },
    Mix {
        name: "delay",
        plan_for: |shard, seed| {
            FaultPlan::mix(
                vec![(Fault::Pass, 3), (Fault::Delay(Duration::from_millis(20)), 1)],
                seed ^ shard as u64,
            )
        },
        kill_worker: None,
    },
    Mix {
        name: "flaky",
        plan_for: |shard, seed| {
            FaultPlan::mix(
                vec![(Fault::Pass, 6), (Fault::Reset, 1), (Fault::Truncate, 1)],
                seed ^ (shard as u64).wrapping_mul(0x9E37),
            )
        },
        kill_worker: None,
    },
    Mix {
        name: "wedge_one",
        plan_for: |shard, _| {
            if shard == 0 {
                FaultPlan::always(Fault::Wedge)
            } else {
                FaultPlan::healthy()
            }
        },
        kill_worker: None,
    },
    Mix { name: "kill_one", plan_for: |_, _| FaultPlan::healthy(), kill_worker: Some(0) },
];

fn run_mix(mix: &Mix, args: &Args) -> Tally {
    let recipes = synthetic_gallery(args.gallery, args.dim, args.seed);
    let images = synthetic_gallery(args.gallery, args.dim, args.seed.wrapping_add(1));
    let worker_cfg = ServeConfig::default();
    let mut fleet =
        ShardFleet::launch(&recipes, &images, args.shards, &worker_cfg).expect("spawn fleet");
    let mut proxies: Vec<FaultProxy> = fleet
        .specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            FaultProxy::start(spec.addr, (mix.plan_for)(i, args.seed)).expect("start proxy")
        })
        .collect();
    if let Some(i) = mix.kill_worker {
        fleet.kill(i);
    }
    // Route through the proxies, not the workers directly.
    let specs: Vec<ShardSpec> = fleet
        .specs()
        .iter()
        .zip(&proxies)
        .map(|(spec, proxy)| ShardSpec { addr: proxy.addr(), ..*spec })
        .collect();
    let router_cfg = RouterConfig {
        deadline: Duration::from_millis(args.deadline_ms),
        retries: args.retries,
        hedge_after: Duration::from_millis(args.deadline_ms / 3),
        ..RouterConfig::default()
    };
    let router = Router::new(specs, args.dim, router_cfg);
    // No result cache: every request must actually cross the fault layer.
    let front_cfg = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
    let mut front =
        cmr_serve::Server::start_sharded(router, front_cfg, "127.0.0.1:0").expect("bind front");
    // Unique queries, from seeds clear of the fleet's gallery seeds.
    let load = Load {
        clients: args.clients,
        requests: args.requests,
        dim: args.dim,
        k: args.k,
        seed: args.seed.wrapping_add(1000),
        repeat_frac: 0.0,
    };
    let tally = closed_loop(&front.local_addr().to_string(), &load);
    front.shutdown();
    for p in &mut proxies {
        p.shutdown();
    }
    fleet.shutdown();
    tally
}

fn main() {
    let args = parse_args();
    cmr_obs::set_enabled(true);
    cmr_obs::reset();
    std::fs::create_dir_all(&args.out).expect("create output directory");
    println!(
        "bench_chaos: {} shards, {} clients x {} requests per mix (deadline {}ms, retries {}, seed {})",
        args.shards, args.clients, args.requests, args.deadline_ms, args.retries, args.seed
    );

    let mut mix_jsons: Vec<Json> = Vec::new();
    let mut total_failed = 0u64;
    let requests = args.clients * args.requests;
    for mix in MIXES {
        let r = run_mix(mix, &args);
        let availability = (r.ok + r.degraded) as f64 / requests.max(1) as f64;
        println!(
            "bench_chaos: {:>9} | ok {:>3} degraded {:>3} failed {:>3} | availability {:.4} | p50 {:.6}s p99 {:.6}s p999 {:.6}s",
            mix.name,
            r.ok,
            r.degraded,
            r.failed,
            availability,
            percentile(&r.latencies_s, 0.50),
            percentile(&r.latencies_s, 0.99),
            percentile(&r.latencies_s, 0.999),
        );
        total_failed += r.failed;
        mix_jsons.push(Json::obj([
            ("name", mix.name.to_json()),
            ("requests", requests.to_json()),
            ("ok", r.ok.to_json()),
            ("degraded", r.degraded.to_json()),
            ("failed", r.failed.to_json()),
            ("availability", availability.to_json()),
            ("elapsed_s", r.elapsed_s.to_json()),
            (
                "latency_s",
                Json::obj([
                    ("p50", percentile(&r.latencies_s, 0.50).to_json()),
                    ("p99", percentile(&r.latencies_s, 0.99).to_json()),
                    ("p999", percentile(&r.latencies_s, 0.999).to_json()),
                    ("max", r.latencies_s.last().copied().unwrap_or(0.0).to_json()),
                ]),
            ),
        ]));
    }

    let artifact = Json::obj([
        ("experiment", "bench_chaos".to_json()),
        ("schema_version", 1u32.to_json()),
        (
            "config",
            Json::obj([
                ("shards", args.shards.to_json()),
                ("clients", args.clients.to_json()),
                ("requests_per_client", args.requests.to_json()),
                ("gallery", args.gallery.to_json()),
                ("dim", args.dim.to_json()),
                ("k", args.k.to_json()),
                ("deadline_ms", args.deadline_ms.to_json()),
                ("retries", args.retries.to_json()),
                ("seed", args.seed.to_json()),
            ]),
        ),
        ("mixes", Json::arr(mix_jsons)),
    ]);
    cmr_bench::save_json(&args.out.join("BENCH_chaos.json"), &artifact);
    cmr_obs::write_artifact(&args.out.join("OBS_chaos.json"), "bench_chaos", "serve.router.")
        .expect("write OBS_chaos.json");

    if total_failed > 0 {
        println!("bench_chaos: FAIL — {total_failed} requests failed (degraded is allowed, failure is not)");
        std::process::exit(1);
    }
    println!("bench_chaos: every request completed (degraded allowed, none failed)");
}
