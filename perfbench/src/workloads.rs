//! The two end-to-end workloads.
//!
//! * `ann_open` — open loop at a fixed rate over two connections against a
//!   server booted from the 1M-row `CMRIVF1` indexes; every query is
//!   unique (the cache only inserts and evicts), directions alternate.
//! * `zipf_sharded` — closed loop over two connections against a sharded
//!   front end (two in-process exact shards); queries drawn Zipf from a
//!   pool eight times the result cache, so hits, misses and evictions all
//!   occur.
//!
//! Each run boots the server [`BOOTS`] times (`setup_s` is the median boot)
//! and loads the last boot, warm-up excluded from every figure.

use crate::data::{self, load_blob, load_oracle, Dir, Layout, K};
use crate::openloop::{self, Schedule};
use crate::server::ServerProc;
use crate::stats::{self, median};
use cmr_bench::serving::Client;
use cmr_retrieval::Embeddings;
use cmr_serve::http::Response;
use cmr_serve::ServeError;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// The offered rate of `ann_open`, requests per second. Chosen well below
/// the measured two-connection closed-loop capacity (see `RUNS.md`).
pub const ANN_RATE: f64 = 500.0;
/// Seconds of load before measurement starts (cache fill, page-in, TCP
/// slow paths); excluded from every figure.
pub const WARMUP_S: f64 = 3.0;
/// Server boots per run; `setup_s` is their median.
pub const BOOTS: usize = 5;
/// Load connections (and load threads).
pub const CONNS: usize = 2;
/// A run whose generator is still this late over the final tenth of its
/// schedule fell behind for good and is invalid.
pub const LAG_LIMIT: Duration = Duration::from_millis(50);
/// Every this-many-th measured `zipf_sharded` response is kept and checked
/// byte for byte against the local exact engine.
pub const CHECK_EVERY: usize = 16;

/// One request the load generator sends.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Direction.
    pub dir: Dir,
    /// Row in that direction's pool.
    pub row: usize,
}

/// Everything a finished end-to-end run reports.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median seconds from spawn to `/readyz` 200.
    pub setup_s: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 90th-percentile latency.
    pub p90_ms: f64,
    /// 99th-percentile latency (0 when the tail is too thin); printed, not
    /// a metric, because it tracks the host's CPU steal (see `RUNS.md`).
    pub p99_ms: f64,
    /// Mean latency (the traced run reconciles against it).
    pub mean_ms: f64,
    /// Measured latency samples.
    pub samples: usize,
    /// Completed requests per second over the measured window.
    pub req_per_s: f64,
    /// Mean top-10 overlap with the exact answer over checked responses.
    pub recall_at_10: f64,
    /// Responses the recall and byte checks covered.
    pub checked: usize,
    /// Peak RSS of the serving process, MiB.
    pub peak_rss_mb: f64,
    /// Requests sent in the measured window.
    pub attempted: usize,
    /// Of those, transport failures or non-200 answers.
    pub failed: usize,
    /// `(name, passed, detail)` for every correctness check.
    pub checks: Vec<(String, bool, String)>,
    /// Result-cache `(hits, misses)` the server reported at shutdown.
    pub cache: (u64, u64),
    /// Every request sent, warm-up included, in send order.
    pub sent: Vec<Query>,
    /// A sample of response bodies.
    pub bodies: Vec<String>,
}

impl EndToEnd {
    /// Records one correctness check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_string(), passed, detail));
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Latency and rate figures from `(offset_s, latency_ms)` samples of a
    /// `secs`-long measured window (offsets from its start).
    fn latencies(&mut self, samples: Vec<(f64, f64)>, secs: f64, steal: &[(f64, f64)]) {
        let lat: Vec<f64> = samples.iter().map(|s| s.1).collect();
        self.mean_ms = stats::mean(&lat);
        self.samples = lat.len();
        let w = stats::windowed(&samples, secs, steal);
        self.p50_ms = w.p50;
        self.p90_ms = w.p90;
        self.p99_ms = w.p99.unwrap_or(0.0);
        self.req_per_s = w.rate;
        let steal_ms: Vec<String> = w.window_steal.iter().map(|v| format!("{v:.0}")).collect();
        println!(
            "  latency: {} samples in {} windows of {:.1}s; host steal per window (ms of CPU) [{}]; kept the quieter half {:?}, fewest {} samples each",
            lat.len(),
            w.windows,
            secs / w.windows as f64,
            steal_ms.join(", "),
            w.kept,
            w.min_count,
        );
        self.check(
            "p90_has_10_beyond",
            stats::beyond(w.min_count, 0.9) >= stats::MIN_BEYOND,
            format!(
                "fewest {} samples in a kept window, {} beyond p90",
                w.min_count,
                stats::beyond(w.min_count, 0.9)
            ),
        );
    }
}

/// Both directions' query pools.
pub struct Pools([Embeddings; 2]);

impl Pools {
    /// Loads a workload's pools (`ann` or `zipf` files).
    pub fn load(layout: &Layout, workload: &str) -> io::Result<Pools> {
        let path = |d: Dir| match workload {
            "ann_open" => layout.ann(&format!("pool_{}.emb", d.as_str())),
            _ => layout.zipf(&format!("pool_{}.emb", d.as_str())),
        };
        Ok(Pools([
            load_blob(&path(Dir::ImToRec))?,
            load_blob(&path(Dir::RecToIm))?,
        ]))
    }

    /// Pools from in-memory vectors.
    #[cfg(test)]
    pub fn from_vectors(v: [Embeddings; 2]) -> Pools {
        Pools(v)
    }

    /// The vector of one query.
    pub fn vector(&self, q: Query) -> &[f32] {
        self.0[q.dir as usize].vector(q.row)
    }

    /// Rows per direction.
    pub fn rows(&self) -> usize {
        self.0[0].len().min(self.0[1].len())
    }
}

/// Boots the server [`BOOTS`] times; keeps the last boot running.
pub fn boot(exe: &Path, workload: &str, cache: &Path, obs: bool) -> io::Result<(ServerProc, f64)> {
    let mut times = Vec::with_capacity(BOOTS);
    let mut last = None;
    for i in 0..BOOTS {
        let (proc, secs) = ServerProc::boot(exe, workload, cache, obs)?;
        times.push(secs);
        if i + 1 < BOOTS {
            proc.stop()?;
        } else {
            last = Some(proc);
        }
    }
    let proc = last.ok_or_else(|| io::Error::other("no boot"))?;
    Ok((proc, median(&times)))
}

/// The `/v1/search` round trip for one query.
fn search(client: &mut Client, pools: &Pools, q: Query) -> Result<Response, ServeError> {
    client.search(q.dir.as_str(), K, pools.vector(q))
}

fn connect(addr: &str) -> io::Result<Vec<Client>> {
    (0..CONNS)
        .map(|_| Client::connect(addr, Duration::from_secs(10)))
        .collect()
}

/// Hit indices of a response body, in rank order.
pub fn hit_indices(body: &str) -> Vec<usize> {
    body.split("\"index\":")
        .skip(1)
        .filter_map(|s| s.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
        .collect()
}

/// Fraction of `want` found in `got`.
fn overlap(got: &[usize], want: &[usize]) -> f64 {
    want.iter().filter(|w| got.contains(w)).count() as f64 / want.len().max(1) as f64
}

/// The `ann_open` request plan: directions alternate and every query is
/// unique. Each direction sends all of its first `oracle_rows` pool rows
/// (the ones with an exact oracle, as far as the plan has room) plus
/// seeded others, in a seeded order; so recall is scored on the same
/// queries whatever the seed, and only the order changes.
pub fn ann_plan(
    count: usize,
    seed: u64,
    pool_rows: usize,
    oracle_rows: usize,
) -> io::Result<Vec<Query>> {
    let per_dir = count.div_ceil(2);
    if per_dir > pool_rows || oracle_rows > pool_rows {
        return Err(io::Error::other(format!(
            "{count} unique queries need a pool of {per_dir} rows per direction, have {pool_rows}"
        )));
    }
    let rows: Vec<Vec<usize>> = (0..2u64)
        .map(|d| {
            let s = seed.wrapping_mul(2).wrapping_add(d);
            let mut rows: Vec<usize> = data::permutation(oracle_rows, s);
            rows.truncate(per_dir);
            let rest = data::permutation(pool_rows - oracle_rows, s ^ 0x5eed);
            rows.extend(
                rest.iter()
                    .map(|r| r + oracle_rows)
                    .take(per_dir - rows.len()),
            );
            rows.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(s ^ 0xa11));
            rows
        })
        .collect();
    Ok((0..count)
        .map(|i| Query {
            dir: Dir::BOTH[i % 2],
            row: rows[i % 2][i / 2],
        })
        .collect())
}

/// Runs `ann_open` for `secs` measured seconds.
pub fn ann_open(exe: &Path, cache: &Path, seed: u64, secs: f64, obs: bool) -> io::Result<EndToEnd> {
    let layout = Layout::new(cache);
    let pools = Pools::load(&layout, "ann_open")?;
    let oracle = [
        load_oracle(&layout.ann("oracle_im2rec.bin"))?,
        load_oracle(&layout.ann("oracle_rec2im.bin"))?,
    ];
    let count = (ANN_RATE * (WARMUP_S + secs)).ceil() as usize;
    let plan = ann_plan(count, seed, pools.rows(), data::ANN_ORACLE)?;
    let mut e2e = EndToEnd::default();
    let (proc, setup_s) = boot(exe, "ann_open", cache, obs)?;
    e2e.setup_s = setup_s;

    let conns = connect(&proc.addr)?;
    let warm = Duration::from_secs_f64(WARMUP_S);
    // The schedule starts 5 ms after `openloop::run` is entered.
    let origin = Instant::now() + Duration::from_millis(5) + warm;
    let (timeline, steal) = crate::server::with_steal_series(origin, || {
        openloop::run(conns, Schedule::at_rate(ANN_RATE, count), |c, i| {
            search(c, &pools, plan[i])
        })
    });
    e2e.peak_rss_mb = proc.peak_rss_mb()?;
    e2e.cache = proc.stop()?;

    // Recall covers every oracle query the plan sent, warm-up included
    // (answers do not depend on timing); latency covers the measured
    // window only.
    let mut lat = Vec::with_capacity(timeline.len());
    let mut recall = Vec::new();
    for t in &timeline {
        let measured = t.due >= warm;
        e2e.attempted += usize::from(measured);
        match &t.out {
            Ok(r) if r.status == 200 => {
                if measured {
                    lat.push((
                        (t.due - warm).as_secs_f64(),
                        t.latency().as_secs_f64() * 1e3,
                    ));
                }
                let q = plan[t.index];
                if q.row < data::ANN_ORACLE {
                    let body = String::from_utf8_lossy(&r.body);
                    recall.push(overlap(&hit_indices(&body), &oracle[q.dir as usize][q.row]));
                    if e2e.bodies.len() < 512 {
                        e2e.bodies.push(body.into_owned());
                    }
                }
            }
            _ => e2e.failed += usize::from(measured),
        }
    }
    e2e.latencies(lat, secs, &steal);
    // The offered rate is fixed; the achieved one is a validity figure.
    let done = timeline
        .iter()
        .filter(|t| t.due >= warm)
        .map(|t| t.done)
        .max();
    if let Some(done) = done {
        e2e.req_per_s = e2e.attempted as f64 / (done - warm).as_secs_f64();
    }
    e2e.recall_at_10 = stats::mean(&recall);
    e2e.checked = recall.len();
    let lag = openloop::lag(&timeline);
    println!(
        "ann_open: offered {ANN_RATE}/s, achieved {:.1}/s; generator lag max {:.2} ms, final tenth {:.2} ms",
        e2e.req_per_s,
        lag.max.as_secs_f64() * 1e3,
        lag.tail.as_secs_f64() * 1e3
    );
    e2e.check(
        "generator_kept_schedule",
        openloop::kept_schedule(&lag, LAG_LIMIT),
        format!("final-tenth lag {:?} (limit {LAG_LIMIT:?})", lag.tail),
    );
    e2e.check(
        "no_failed_requests",
        e2e.failed == 0,
        format!("{} failed", e2e.failed),
    );
    e2e.check(
        "recall_against_oracle",
        e2e.checked >= 100 && e2e.recall_at_10 >= 0.7,
        format!(
            "recall@10 {:.4} over {} oracle queries",
            e2e.recall_at_10, e2e.checked
        ),
    );
    e2e.sent = plan;
    Ok(e2e)
}

/// The Zipf exponent of `zipf_sharded` query popularity.
pub const ZIPF_S: f64 = 1.0;

/// One thread's seeded `zipf_sharded` query stream.
pub struct ZipfStream {
    zipf: data::Zipf,
    rank_to_entry: Vec<usize>,
    rng: rand::rngs::SmallRng,
}

impl ZipfStream {
    /// Thread `thread`'s stream for `seed` over a pool of `pool_rows` rows
    /// per direction. The popularity order is shared by all threads.
    pub fn new(seed: u64, thread: u64, pool_rows: usize) -> ZipfStream {
        ZipfStream {
            zipf: data::Zipf::new(2 * pool_rows, ZIPF_S),
            rank_to_entry: data::permutation(2 * pool_rows, seed),
            rng: rand::rngs::SmallRng::seed_from_u64(
                seed.wrapping_mul(31).wrapping_add(thread + 1),
            ),
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        let entry = self.rank_to_entry[self.zipf.sample(&mut self.rng)];
        Query {
            dir: Dir::BOTH[entry % 2],
            row: entry / 2,
        }
    }
}

/// One closed-loop request as a load thread saw it.
struct Sample {
    q: Query,
    sent: Duration,
    latency_ms: f64,
    ok: bool,
    body: Option<String>,
}

/// Runs `zipf_sharded` for `secs` measured seconds.
pub fn zipf_sharded(
    exe: &Path,
    cache: &Path,
    seed: u64,
    secs: f64,
    obs: bool,
) -> io::Result<EndToEnd> {
    let layout = Layout::new(cache);
    let pools = Pools::load(&layout, "zipf_sharded")?;
    let mut e2e = EndToEnd::default();
    let (proc, setup_s) = boot(exe, "zipf_sharded", cache, obs)?;
    e2e.setup_s = setup_s;

    let conns = connect(&proc.addr)?;
    let start = Instant::now();
    let warm = Duration::from_secs_f64(WARMUP_S);
    let end = warm + Duration::from_secs_f64(secs);
    let pools_ref = &pools;
    let (per_thread, steal) = crate::server::with_steal_series(start + warm, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(t, mut client)| {
                    scope.spawn(move || {
                        let mut stream = ZipfStream::new(seed, t as u64, pools_ref.rows());
                        let mut out = Vec::new();
                        let mut measured = 0usize;
                        loop {
                            let sent = start.elapsed();
                            if sent >= end {
                                return out;
                            }
                            let q = stream.next_query();
                            let r = search(&mut client, pools_ref, q);
                            let latency_ms = (start.elapsed() - sent).as_secs_f64() * 1e3;
                            let ok = matches!(&r, Ok(resp) if resp.status == 200);
                            let keep = sent >= warm && measured.is_multiple_of(CHECK_EVERY);
                            if sent >= warm {
                                measured += 1;
                            }
                            let body = match (&r, keep) {
                                (Ok(resp), true) => {
                                    Some(String::from_utf8_lossy(&resp.body).into_owned())
                                }
                                _ => None,
                            };
                            out.push(Sample {
                                q,
                                sent,
                                latency_ms,
                                ok,
                                body,
                            });
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect::<Vec<Vec<Sample>>>()
        })
    });
    e2e.peak_rss_mb = proc.peak_rss_mb()?;
    e2e.cache = proc.stop()?;

    let mut all: Vec<Sample> = per_thread.into_iter().flatten().collect();
    all.sort_by_key(|s| s.sent);
    let measured: Vec<&Sample> = all.iter().filter(|s| s.sent >= warm).collect();
    e2e.attempted = measured.len();
    e2e.failed = measured.iter().filter(|s| !s.ok).count();
    let ok: Vec<(f64, f64)> = measured
        .iter()
        .filter(|s| s.ok)
        .map(|s| ((s.sent - warm).as_secs_f64(), s.latency_ms))
        .collect();
    e2e.latencies(ok, secs, &steal);

    // Byte-identity of sampled full-coverage bodies against the local
    // exact engine over the same blobs.
    let reference = cmr_serve::Engine::exact(
        load_blob(&layout.zipf_gallery(Dir::ImToRec))?,
        load_blob(&layout.zipf_gallery(Dir::RecToIm))?,
    )
    .map_err(|e| io::Error::other(e.to_string()))?;
    let mut mismatched = 0usize;
    let mut degraded = 0usize;
    let mut recall = Vec::new();
    for s in &measured {
        let Some(body) = &s.body else { continue };
        if body.contains("\"degraded\"") {
            degraded += 1;
        }
        let want = reference
            .search_one(s.q.dir.serve(), pools.vector(s.q), K)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let want_body = cmr_serve::render_hits(&want);
        if *body != want_body {
            mismatched += 1;
        }
        let want_idx: Vec<usize> = want.iter().map(|h| h.index).collect();
        recall.push(overlap(&hit_indices(body), &want_idx));
        if e2e.bodies.len() < 512 {
            e2e.bodies.push(body.clone());
        }
    }
    e2e.checked = recall.len();
    e2e.recall_at_10 = stats::mean(&recall);
    let (hits, misses) = e2e.cache;
    println!(
        "zipf_sharded: {:.1} req/s over {CONNS} connections; front cache {hits} hits / {misses} misses",
        e2e.req_per_s
    );
    e2e.check(
        "no_failed_requests",
        e2e.failed == 0,
        format!("{} failed", e2e.failed),
    );
    e2e.check(
        "bodies_match_exact_engine",
        mismatched == 0 && e2e.checked >= 50,
        format!("{mismatched} of {} sampled bodies differ", e2e.checked),
    );
    e2e.check(
        "no_degraded_responses",
        degraded == 0,
        format!("{degraded} degraded"),
    );
    e2e.check(
        "cache_hits_and_misses",
        hits > 0 && misses > 0,
        format!("{hits} hits / {misses} misses"),
    );
    e2e.sent = all.iter().map(|s| s.q).collect();
    Ok(e2e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_indices_parse_rendered_bodies() {
        let hits = vec![
            cmr_retrieval::knn::Hit {
                index: 17,
                similarity: 0.5,
            },
            cmr_retrieval::knn::Hit {
                index: 3,
                similarity: -0.25,
            },
        ];
        assert_eq!(hit_indices(&cmr_serve::render_hits(&hits)), vec![17, 3]);
        assert_eq!(overlap(&[1, 2, 3], &[3, 4]), 0.5);
    }

    #[test]
    fn ann_plan_alternates_and_never_repeats() {
        let plan = ann_plan(100, 7, 64, 20).unwrap();
        assert!(plan
            .iter()
            .enumerate()
            .all(|(i, q)| q.dir == Dir::BOTH[i % 2]));
        let mut seen: Vec<(usize, usize)> = plan.iter().map(|q| (q.dir as usize, q.row)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100);
        for d in 0..2 {
            for row in 0..20 {
                assert!(
                    seen.contains(&(d, row)),
                    "oracle row {row} of direction {d} is sent"
                );
            }
        }
        assert!(
            ann_plan(130, 7, 64, 20).is_err(),
            "a plan larger than the pool is refused"
        );
        let again = ann_plan(100, 7, 64, 20).unwrap();
        assert!(
            plan.iter().zip(&again).all(|(a, b)| a.row == b.row),
            "same seed, same plan"
        );
        let other = ann_plan(100, 8, 64, 20).unwrap();
        assert!(
            plan.iter().zip(&other).any(|(a, b)| a.row != b.row),
            "another seed, another order"
        );
    }

    #[test]
    fn zipf_streams_are_seeded() {
        let a: Vec<usize> = {
            let mut s = ZipfStream::new(5, 0, 100);
            (0..50).map(|_| s.next_query().row).collect()
        };
        let b: Vec<usize> = {
            let mut s = ZipfStream::new(5, 0, 100);
            (0..50).map(|_| s.next_query().row).collect()
        };
        assert_eq!(a, b);
    }
}
