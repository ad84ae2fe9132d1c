//! Closed-loop load generator for a running retrieval server.
//!
//! Runs `--clients` keep-alive connections, each issuing `--requests`
//! back-to-back search queries (a fifth of them repeats, to exercise the
//! server-side cache), and counts every response as ok, degraded or
//! failed.
//!
//! ```text
//! cargo run --release -p cmr-bench --bin loadgen -- \
//!     --addr $(cat results/serve.addr) --clients 8 --requests 100 --dim 32
//! ```
//!
//! Prints one summary line and exits non-zero if any request failed, so
//! scripts can use it as a smoke gate.

use cmr_bench::serving::{closed_loop, percentile, Load};

/// Fraction of queries re-sent from each client's small repeat pool.
const REPEAT_FRAC: f64 = 0.2;

fn parse_args() -> (String, Load) {
    let mut addr = String::new();
    let mut load =
        Load { clients: 4, requests: 50, dim: 32, k: 10, seed: 7, repeat_frac: REPEAT_FRAC };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).unwrap_or_else(|| panic!("{flag} takes a value")).clone()
        };
        match flag {
            "--addr" => addr = value(),
            "--clients" => load.clients = value().parse().expect("--clients takes a number"),
            "--requests" => load.requests = value().parse().expect("--requests takes a number"),
            "--dim" => load.dim = value().parse().expect("--dim takes a number"),
            "--k" => load.k = value().parse().expect("--k takes a number"),
            "--seed" => load.seed = value().parse().expect("--seed takes a number"),
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    assert!(!addr.is_empty(), "--addr is required (host:port of a running server)");
    (addr, load)
}

fn main() {
    let (addr, load) = parse_args();
    let t = closed_loop(&addr, &load);
    println!(
        "loadgen: clients {} ok {} degraded {} failed {} | {:.1} req/s | p50 {:.6}s p99 {:.6}s p999 {:.6}s",
        load.clients,
        t.ok,
        t.degraded,
        t.failed,
        t.latencies_s.len() as f64 / t.elapsed_s.max(1e-9),
        percentile(&t.latencies_s, 0.50),
        percentile(&t.latencies_s, 0.99),
        percentile(&t.latencies_s, 0.999),
    );
    if t.failed > 0 {
        std::process::exit(1);
    }
}
