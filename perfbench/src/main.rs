//! The repo benchmark's measuring binary (driven by `perfbench/run.py`).
//!
//! ```text
//! perfbench run --workload ann_open|zipf_sharded --seed N --seconds S --trace 0|1 --cache DIR
//! perfbench prepare --cache DIR
//! perfbench capacity --cache DIR --seconds S
//! perfbench serve --workload W --cache DIR        (the server process; internal)
//! ```
//!
//! `run` prepares the cached data if missing, measures one workload in
//! fresh server processes, checks the answers, and prints one JSON object
//! as its last stdout line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (plus the reconciliation report) with `--trace 1`.
//! It exits 1 when any correctness check fails.

mod data;
mod layers;
mod openloop;
mod server;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::EndToEnd;

/// One named metric value as the result line carries it.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
}

impl Metric {
    /// A metric where lower is better.
    pub fn lower(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            better: "lower",
        }
    }

    /// A metric where higher is better.
    pub fn higher(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            better: "higher",
        }
    }
}

struct Args {
    cmd: String,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut argv = std::env::args().skip(1);
        let cmd = argv.next().ok_or("missing subcommand")?;
        let mut flags = BTreeMap::new();
        while let Some(flag) = argv.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {flag:?}"))?;
            let value = argv.next().ok_or(format!("{flag} takes a value"))?;
            flags.insert(name.to_string(), value);
        }
        Ok(Args { cmd, flags })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or(format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("--{name} takes a number"))
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    let cache = PathBuf::from(args.get("cache")?);
    let layout = data::Layout::new(&cache);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    match args.cmd.as_str() {
        "serve" => {
            server::serve_main(args.get("workload")?, &layout).map_err(|e| e.to_string())?;
            Ok(ExitCode::SUCCESS)
        }
        "prepare" => {
            let secs = data::prepare(&layout).map_err(|e| e.to_string())?;
            println!("perfbench: prepared data in {secs:.1}s");
            Ok(ExitCode::SUCCESS)
        }
        "capacity" => {
            data::prepare(&layout).map_err(|e| e.to_string())?;
            let secs: f64 = args.num("seconds")?;
            let rate = layers::ann_capacity(&exe, &cache, secs).map_err(|e| e.to_string())?;
            println!("ann_open closed-loop capacity over 2 connections: {rate:.1} req/s");
            Ok(ExitCode::SUCCESS)
        }
        "run" => run(&args, &exe, &cache, &layout),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn run(args: &Args, exe: &Path, cache: &Path, layout: &data::Layout) -> Result<ExitCode, String> {
    let workload = args.get("workload")?.to_string();
    let seed: u64 = args.num("seed")?;
    let secs: f64 = args.num("seconds")?;
    let trace = args.get("trace")? == "1";
    if secs <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    // Prepared data is built by the code under test, once per cache key.
    // Its build time is information only, never a metric.
    let build_s = data::prepare(layout).map_err(|e| e.to_string())?;
    if build_s > 1.0 {
        println!("perfbench: built the prepared data in {build_s:.1}s (not measured)");
    }
    let mut e2e: EndToEnd = match workload.as_str() {
        "ann_open" => workloads::ann_open(exe, cache, seed, secs, trace),
        "zipf_sharded" => workloads::zipf_sharded(exe, cache, seed, secs, trace),
        other => return Err(format!("unknown workload {other:?}")),
    }
    .map_err(|e| e.to_string())?;

    let e2e_metrics = vec![
        Metric::lower("setup_s", e2e.setup_s, "s"),
        Metric::lower("p50_ms", e2e.p50_ms, "ms"),
        Metric::lower("p90_ms", e2e.p90_ms, "ms"),
        Metric::higher("req_per_s", e2e.req_per_s, "1/s"),
        Metric::higher("recall_at_10", e2e.recall_at_10, "fraction"),
        Metric::lower("peak_rss_mb", e2e.peak_rss_mb, "MiB"),
    ];
    println!(
        "{workload}: seed {seed}, {} requests attempted, {} succeeded, {} failed; {} latency samples; {} responses checked; p99 (information) {:.4} ms",
        e2e.attempted,
        e2e.attempted - e2e.failed,
        e2e.failed,
        e2e.samples,
        e2e.checked,
        e2e.p99_ms
    );
    let untraced_path = layout.file(&format!("last_untraced_{workload}.txt"));
    let metrics = if trace {
        let untraced = std::fs::read_to_string(&untraced_path).ok();
        layers::report_end_to_end(&e2e_metrics, untraced.as_deref());
        layers::run(&workload, layout, seed, &mut e2e).map_err(|e| e.to_string())?
    } else {
        for m in &e2e_metrics {
            println!(
                "  {:<14} {:>12.4} {:<8} ({} is better)",
                m.name, m.value, m.unit, m.better
            );
        }
        let saved: String = e2e_metrics
            .iter()
            .map(|m| format!("{} {}\n", m.name, m.value))
            .collect();
        let _ = std::fs::write(&untraced_path, saved);
        e2e_metrics
    };
    for (name, ok, detail) in &e2e.checks {
        println!(
            "  check {name:<28} {}  {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    let correct = e2e.correct();
    println!(
        "{}",
        result_line(correct, e2e.attempted, e2e.failed, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round trip keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 10, 0, &[Metric::lower("p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
