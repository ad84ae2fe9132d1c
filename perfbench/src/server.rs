//! The serving process under test and the harness that boots it.
//!
//! `perfbench serve` (this binary, re-executed) boots one workload's server
//! from the prepared files with `ServeConfig` defaults, prints the bound
//! address, and serves until its stdin closes; it then shuts down and
//! prints the result cache's hit/miss counts. A fresh process per boot
//! means no state carries over between runs, and the load generator can
//! read the server's own peak RSS from `/proc`. If the harness dies, the
//! closed pipe stops the server too.

use crate::data::{load_blob, Dir, Layout, DIM};
use cmr_serve::http::{read_response, write_request, Limits};
use cmr_serve::{Backend, Engine, Router, RouterConfig, ServeConfig, Server, ShardFleet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Gallery shards behind the `zipf_sharded` front end.
pub const ZIPF_SHARDS: usize = 2;

/// The serving configuration of each workload: defaults, plus the shard
/// count for the sharded one.
pub fn config(workload: &str) -> ServeConfig {
    match workload {
        "zipf_sharded" => ServeConfig {
            shards: ZIPF_SHARDS,
            ..ServeConfig::default()
        },
        _ => ServeConfig::default(),
    }
}

/// Loads both `ann_open` indexes.
pub fn load_ann_engine(layout: &Layout, nprobe: usize) -> io::Result<Engine> {
    let load = |dir| cmr_retrieval::load_index(&layout.ann_index(dir));
    Engine::new(
        Backend::Ivf {
            index: load(Dir::ImToRec)?,
            nprobe,
        },
        Backend::Ivf {
            index: load(Dir::RecToIm)?,
            nprobe,
        },
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The `serve` subcommand: boot, announce, serve until stdin closes.
pub fn serve_main(workload: &str, layout: &Layout) -> io::Result<()> {
    let cfg = config(workload);
    let (mut server, mut fleet) = match workload {
        "ann_open" => {
            let engine = load_ann_engine(layout, cfg.ivf_nprobe)?;
            (Server::start(engine, cfg, "127.0.0.1:0")?, None)
        }
        "zipf_sharded" => {
            let recipes = load_blob(&layout.zipf_gallery(Dir::ImToRec))?;
            let images = load_blob(&layout.zipf_gallery(Dir::RecToIm))?;
            let fleet = ShardFleet::launch(&recipes, &images, cfg.shards, &cfg)
                .map_err(|e| io::Error::other(e.to_string()))?;
            drop((recipes, images));
            let router = Router::new(fleet.specs(), DIM, RouterConfig::from_serve(&cfg));
            (
                Server::start_sharded(router, cfg, "127.0.0.1:0")?,
                Some(fleet),
            )
        }
        other => return Err(io::Error::other(format!("unknown workload {other:?}"))),
    };
    let mut out = io::stdout().lock();
    writeln!(out, "listening {}", server.local_addr())?;
    out.flush()?;
    let mut sink = Vec::new();
    let _ = io::stdin().read_to_end(&mut sink);
    server.shutdown();
    if let Some(fleet) = &mut fleet {
        fleet.shutdown();
    }
    let (hits, misses) = server.cache_stats();
    writeln!(out, "cache {hits} {misses}")?;
    out.flush()
}

/// A running server process.
pub struct ServerProc {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl ServerProc {
    /// Starts `exe serve` for `workload` and waits until `/readyz` answers
    /// 200. Returns the process and the seconds from spawn to ready.
    pub fn boot(exe: &Path, workload: &str, cache: &Path, obs: bool) -> io::Result<(Self, f64)> {
        let t = Instant::now();
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--workload", workload, "--cache"])
            .arg(cache)
            .env("CMR_OBS", if obs { "1" } else { "0" })
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no server stdout"))?;
        let mut proc = ServerProc {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        proc.stdout.read_line(&mut line)?;
        proc.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| io::Error::other(format!("server did not start: {line:?}")))?
            .to_string();
        proc.wait_ready(Duration::from_secs(60))?;
        Ok((proc, t.elapsed().as_secs_f64()))
    }

    fn wait_ready(&self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if get(&self.addr, "/readyz")
                .map(|s| s == 200)
                .unwrap_or(false)
            {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server never became ready",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set of the server process so far, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let pid = self.child.as_ref().map(Child::id).unwrap_or(0);
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Shuts the server down and returns its result cache's
    /// `(hits, misses)`.
    pub fn stop(mut self) -> io::Result<(u64, u64)> {
        let mut child = self
            .child
            .take()
            .ok_or_else(|| io::Error::other("already stopped"))?;
        drop(child.stdin.take());
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        let status = child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        let mut parts = line.split_whitespace().skip(1).map(|v| v.parse::<u64>());
        match (parts.next(), parts.next()) {
            (Some(Ok(h)), Some(Ok(m))) => Ok((h, m)),
            _ => Err(io::Error::other(format!("bad cache line {line:?}"))),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// CPU time the hypervisor gave to other guests ("steal", summed over
/// CPUs) since boot, in ms; `None` where `/proc/stat` does not report it.
/// A run that lost much time this way measured a busier host, not the
/// code.
pub fn host_steal_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks * 10.0)
}

/// Runs `load` while sampling [`host_steal_ms`] every 100 ms; returns its
/// result and the cumulative `(offset_s, steal_ms)` series, offsets from
/// `origin` (negative before it).
pub fn with_steal_series<T>(origin: Instant, load: impl FnOnce() -> T) -> (T, Vec<(f64, f64)>) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut series = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let t = Instant::now();
                let offset = if t >= origin {
                    (t - origin).as_secs_f64()
                } else {
                    -(origin - t).as_secs_f64()
                };
                if let Some(ms) = host_steal_ms() {
                    series.push((offset, ms));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            series
        });
        let out = load();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (out, sampler.join().expect("steal sampler panicked"))
    })
}

/// One `GET` on a fresh connection; returns the status.
fn get(addr: &str, path: &str) -> io::Result<u16> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream);
    write_request(reader.get_mut(), "GET", path, b"")?;
    let limits = Limits {
        max_head_bytes: 64 << 10,
        max_body_bytes: 1 << 20,
    };
    read_response(&mut reader, &limits)
        .map(|r| r.status)
        .map_err(|e| io::Error::other(e.to_string()))
}
