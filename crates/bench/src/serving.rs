//! Shared plumbing for the serving binaries (`serve`, `loadgen`,
//! `bench_chaos`): synthetic galleries, a tiny blocking HTTP client over
//! `cmr_serve::http`, embedding-blob startup, the closed-loop load runner
//! that `loadgen` and `bench_chaos` share, and exact percentile math over
//! measured latencies.

use cmr_retrieval::{Embeddings, IvfIndex};
use cmr_serve::http::{read_response, write_request, Limits, Response};
use cmr_serve::{Backend, Engine, ServeError};
use rand::{Rng, SeedableRng};
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// A reproducible random L2-normalised gallery.
pub fn synthetic_gallery(n: usize, dim: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    Embeddings::new(dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .l2_normalized()
}

/// A reproducible random L2-normalised query vector.
pub fn synthetic_query(dim: usize, rng: &mut impl Rng) -> Vec<f32> {
    let mut q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let norm = q.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt() as f32;
    if norm > 0.0 {
        for x in &mut q {
            *x /= norm;
        }
    }
    q
}

/// Builds the serving engine: exact when `ivf_nlist == 0`, IVF otherwise.
///
/// # Panics
/// Panics when the gallery/IVF geometry is invalid (serving bins fail fast
/// on bad flags).
// cmr-lint: allow(panic-path) documented contract: serving bins abort on invalid geometry
pub fn build_engine(
    recipes: Embeddings,
    images: Embeddings,
    ivf_nlist: usize,
    nprobe: usize,
    seed: u64,
) -> Engine {
    let backend = |gallery: Embeddings, seed: u64| {
        if ivf_nlist == 0 {
            Backend::Exact(gallery)
        } else {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let index = cmr_retrieval::IvfIndex::build(gallery, ivf_nlist, 5, &mut rng);
            Backend::Ivf { index, nprobe: nprobe.max(1) }
        }
    };
    Engine::new(backend(recipes, seed), backend(images, seed.wrapping_add(1)))
        // cmr-lint: allow(no-panic-lib) serving bins abort on invalid geometry
        .expect("valid serving galleries")
}

/// Loads both galleries from `dir` (`recipes.emb`, `images.emb`) when the
/// blobs exist; otherwise generates them synthetically, archives them into
/// `dir` as `CMREMB1` blobs, and returns the generated pair. Either way
/// the server starts from the on-disk serving format.
///
/// # Panics
/// Panics on unreadable/corrupt blobs or unwritable `dir` (fail-fast bin
/// startup).
// cmr-lint: allow(panic-path) documented contract: serving bins abort on a bad embeddings dir
pub fn galleries_from_dir(
    dir: &Path,
    n: usize,
    dim: usize,
    seed: u64,
) -> (Embeddings, Embeddings) {
    let recipes_path = dir.join("recipes.emb");
    let images_path = dir.join("images.emb");
    let load = |path: &Path| -> io::Result<Embeddings> {
        let bytes = std::fs::read(path)?;
        let (dim, data) = cmr_nn::load_embedding_blob(&bytes)?;
        Ok(Embeddings::new(dim, data))
    };
    if recipes_path.is_file() && images_path.is_file() {
        // cmr-lint: allow(no-panic-lib) fail-fast startup on corrupt serving blobs
        let recipes = load(&recipes_path).expect("load recipes.emb");
        // cmr-lint: allow(no-panic-lib) fail-fast startup on corrupt serving blobs
        let images = load(&images_path).expect("load images.emb");
        return (recipes, images);
    }
    let recipes = synthetic_gallery(n, dim, seed);
    let images = synthetic_gallery(n, dim, seed.wrapping_add(1));
    // cmr-lint: allow(no-panic-lib) fail-fast startup on an unwritable embeddings dir
    std::fs::create_dir_all(dir).expect("create embeddings dir");
    let save = |path: &Path, g: &Embeddings| {
        cmr_nn::atomic_write(path, &cmr_nn::save_embedding_blob(g.dim, &g.data))
            // cmr-lint: allow(no-panic-lib) fail-fast startup on an unwritable embeddings dir
            .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    };
    save(&recipes_path, &recipes);
    save(&images_path, &images);
    // Round-trip through the serving format so every start — first or not —
    // serves bit-identical, blob-loaded galleries.
    // cmr-lint: allow(no-panic-lib) fail-fast startup on corrupt serving blobs
    (load(&recipes_path).expect("reload recipes.emb"), load(&images_path).expect("reload images.emb"))
}

/// Loads both IVF indexes from `dir` (`recipes.ivf`, `images.ivf`) when
/// the `CMRIVF1` files exist; otherwise builds them over synthetic
/// galleries (sampled k-means, residuals product-quantized when
/// `pq_m > 0`), saves them, and reloads. Either way the server boots from
/// the on-disk index — no re-clustering on restart, which at the 1M scale
/// is the difference between seconds and minutes of startup.
///
/// # Panics
/// Panics on unreadable/corrupt index files, an unwritable `dir`, or
/// invalid geometry (fail-fast bin startup).
// cmr-lint: allow(panic-path) documented contract: serving bins abort on a bad index dir
pub fn indexes_from_dir(
    dir: &Path,
    n: usize,
    dim: usize,
    nlist: usize,
    pq_m: usize,
    seed: u64,
) -> (IvfIndex, IvfIndex) {
    let recipes_path = dir.join("recipes.ivf");
    let images_path = dir.join("images.ivf");
    if recipes_path.is_file() && images_path.is_file() {
        // cmr-lint: allow(no-panic-lib) fail-fast startup on corrupt index files
        let recipes = cmr_retrieval::load_index(&recipes_path).expect("load recipes.ivf");
        // cmr-lint: allow(no-panic-lib) fail-fast startup on corrupt index files
        let images = cmr_retrieval::load_index(&images_path).expect("load images.ivf");
        return (recipes, images);
    }
    // cmr-lint: allow(no-panic-lib) fail-fast startup on an unwritable index dir
    std::fs::create_dir_all(dir).expect("create index dir");
    let build = |path: &Path, seed: u64| -> IvfIndex {
        let gallery = synthetic_gallery(n, dim, seed);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x1f);
        let index =
            IvfIndex::build_with_sample(gallery, nlist.max(1), 5, 100_000, &mut rng);
        let index = if pq_m > 0 {
            let (q, _) = index
                .quantize_residuals(pq_m, 256, 4, 100_000, &mut rng)
                // cmr-lint: allow(no-panic-lib) serving bins abort on invalid PQ geometry
                .expect("quantize residuals");
            q
        } else {
            index
        };
        cmr_retrieval::save_index(&index, path)
            // cmr-lint: allow(no-panic-lib) fail-fast startup on an unwritable index dir
            .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        // Round-trip through the serving format so every start — first or
        // not — serves the bit-identical, file-loaded index.
        // cmr-lint: allow(no-panic-lib) fail-fast startup on corrupt index files
        cmr_retrieval::load_index(path).expect("reload index")
    };
    (build(&recipes_path, seed), build(&images_path, seed.wrapping_add(1)))
}

/// A blocking keep-alive HTTP client speaking the serving protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    limits: Limits,
}

impl Client {
    /// Connects to `addr` with a `timeout` read timeout.
    ///
    /// # Errors
    /// Propagates connection/configuration failures.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
            limits: Limits { max_head_bytes: 64 << 10, max_body_bytes: 16 << 20 },
        })
    }

    /// One `POST /v1/search/<direction>?k=<k>` round trip.
    ///
    /// # Errors
    /// Transport or protocol failures as [`ServeError`].
    pub fn search(
        &mut self,
        direction: &str,
        k: usize,
        query: &[f32],
    ) -> Result<Response, ServeError> {
        let mut body = Vec::with_capacity(query.len() * 4);
        for &x in query {
            body.extend_from_slice(&x.to_le_bytes());
        }
        write_request(
            self.reader.get_mut(),
            "POST",
            &format!("/v1/search/{direction}?k={k}"),
            &body,
        )?;
        read_response(&mut self.reader, &self.limits)
    }

    /// One `GET /healthz` round trip.
    ///
    /// # Errors
    /// Transport or protocol failures as [`ServeError`].
    pub fn healthz(&mut self) -> Result<Response, ServeError> {
        write_request(self.reader.get_mut(), "GET", "/healthz", b"")?;
        read_response(&mut self.reader, &self.limits)
    }
}

/// How long a load client waits on one response before counting it failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

/// Queries per client that [`Load::repeat_frac`] re-sends.
const REPEAT_POOL: usize = 8;

/// The closed-loop load [`closed_loop`] drives.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Concurrent keep-alive clients, one thread each.
    pub clients: usize,
    /// Requests per client, sent back to back, alternating `im2rec` and
    /// `rec2im`.
    pub requests: usize,
    /// Query dimension; must match the server's galleries.
    pub dim: usize,
    /// Hits asked for per query.
    pub k: usize,
    /// Client `i` draws its queries from `seed + i`.
    pub seed: u64,
    /// Fraction of queries re-sent from a small per-client pool, in
    /// `[0, 1]`; repeats exercise the server's result cache.
    pub repeat_frac: f64,
}

/// What a [`closed_loop`] run saw. Every request counts exactly once as
/// ok, degraded or failed.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// A 200 answer with full coverage.
    pub ok: u64,
    /// A 200 answer carrying the router's `degraded` flag (some shards
    /// missing).
    pub degraded: u64,
    /// No 200 answer: a refused connection, a transport or protocol error,
    /// or any other status.
    pub failed: u64,
    /// Client-observed seconds of every 200 answer, ascending.
    pub latencies_s: Vec<f64>,
    /// Wall-clock seconds of the whole run.
    pub elapsed_s: f64,
}

/// Drives `load` against the server at `addr` and waits for every client
/// to finish. A client that fails an exchange reconnects before its next
/// request, so one bad exchange costs one request, not the rest of the
/// run.
///
/// # Panics
/// Panics when `load.repeat_frac` is outside `[0, 1]`.
pub fn closed_loop(addr: &str, load: &Load) -> Tally {
    let start = Instant::now();
    let mut total = std::thread::scope(|s| {
        let clients: Vec<_> =
            (0..load.clients).map(|id| s.spawn(move || run_client(addr, load, id))).collect();
        clients.into_iter().fold(Tally::default(), |mut total, client| {
            let t = client.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            total.ok += t.ok;
            total.degraded += t.degraded;
            total.failed += t.failed;
            total.latencies_s.extend(t.latencies_s);
            total
        })
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total.latencies_s.sort_by(f64::total_cmp);
    total
}

/// One client of [`closed_loop`]: `load.requests` exchanges over one
/// keep-alive connection, replaced after each failed exchange.
fn run_client(addr: &str, load: &Load, id: usize) -> Tally {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(load.seed.wrapping_add(id as u64));
    let pool: Vec<Vec<f32>> =
        (0..REPEAT_POOL).map(|_| synthetic_query(load.dim, &mut rng)).collect();
    let connect = || Client::connect(addr, CLIENT_TIMEOUT).ok();
    let mut client = connect();
    let mut tally = Tally::default();
    for r in 0..load.requests {
        let repeat = if rng.gen_bool(load.repeat_frac) {
            pool.get(rng.gen_range(0..REPEAT_POOL)).cloned()
        } else {
            None
        };
        let query = repeat.unwrap_or_else(|| synthetic_query(load.dim, &mut rng));
        let direction = if r % 2 == 0 { "im2rec" } else { "rec2im" };
        let sent = Instant::now();
        match client.as_mut().map(|c| c.search(direction, load.k, &query)) {
            Some(Ok(resp)) if resp.status == 200 => {
                tally.latencies_s.push(sent.elapsed().as_secs_f64());
                if is_degraded(&resp) {
                    tally.degraded += 1;
                } else {
                    tally.ok += 1;
                }
            }
            _ => {
                tally.failed += 1;
                // The exchange may have left the connection mid-response.
                client = connect();
            }
        }
    }
    tally
}

/// Whether a search answer carries the router's `degraded` flag.
fn is_degraded(resp: &Response) -> bool {
    const FLAG: &[u8] = b"\"degraded\":true";
    resp.body.windows(FLAG.len()).any(|w| w == FLAG)
}

/// Exact quantile of an ascending-sorted latency sample (nearest-rank),
/// 0.0 for an empty sample.
// cmr-lint: allow(panic-path) rank is clamped to 1..=len after the empty check, so the index is in range
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_serve::{
        FaultPlan, FaultProxy, Router, RouterConfig, ServeConfig, Server, ShardFleet,
    };

    fn load(clients: usize, requests: usize) -> Load {
        Load { clients, requests, dim: 8, k: 3, seed: 11, repeat_frac: 0.2 }
    }

    fn exact_server() -> Server {
        let gallery = synthetic_gallery(40, 8, 1);
        let engine = build_engine(gallery.clone(), gallery, 0, 1, 1);
        Server::start(engine, ServeConfig::default(), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn closed_loop_counts_a_healthy_server_all_ok() {
        let mut server = exact_server();
        let t = closed_loop(&server.local_addr().to_string(), &load(3, 10));
        server.shutdown();
        assert_eq!((t.ok, t.degraded, t.failed), (30, 0, 0));
        assert_eq!(t.latencies_s.len(), 30);
        assert!(t.latencies_s.windows(2).all(|w| w[0] <= w[1]), "latencies come back sorted");
    }

    #[test]
    fn closed_loop_counts_a_killed_shard_degraded_never_failed() {
        let (recipes, images) = (synthetic_gallery(40, 8, 1), synthetic_gallery(40, 8, 2));
        let mut fleet = ShardFleet::launch(&recipes, &images, 2, &ServeConfig::default()).unwrap();
        fleet.kill(0);
        let router = Router::new(fleet.specs(), 8, RouterConfig::default());
        let front_cfg = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
        let mut front = Server::start_sharded(router, front_cfg, "127.0.0.1:0").unwrap();
        let t = closed_loop(&front.local_addr().to_string(), &load(2, 6));
        front.shutdown();
        fleet.shutdown();
        assert_eq!((t.ok, t.degraded, t.failed), (0, 12, 0));
    }

    #[test]
    fn closed_loop_counts_a_failed_exchange_and_reconnects() {
        // The proxy relays one exchange per connection and then closes it,
        // so the next request on the same keep-alive connection fails and
        // only a fresh connection lets the one after it through.
        let mut server = exact_server();
        let mut proxy = FaultProxy::start(server.local_addr(), FaultPlan::healthy()).unwrap();
        let t = closed_loop(&proxy.addr().to_string(), &load(1, 6));
        proxy.shutdown();
        server.shutdown();
        assert_eq!((t.ok, t.degraded, t.failed), (3, 0, 3));
        assert_eq!(t.latencies_s.len(), 3);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 0.999), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
    }

    #[test]
    fn synthetic_galleries_are_normalised_and_reproducible() {
        let a = synthetic_gallery(10, 8, 42);
        let b = synthetic_gallery(10, 8, 42);
        assert_eq!(a.data, b.data);
        for i in 0..a.len() {
            let norm: f32 = a.vector(i).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "row {i} norm {norm}");
        }
    }

    #[test]
    fn indexes_round_trip_through_ivf_dir() {
        let dir = std::env::temp_dir().join(format!("cmr_ivf_dir_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (r1, i1) = indexes_from_dir(&dir, 300, 8, 4, 2, 7);
        assert!(r1.is_quantized() && i1.is_quantized());
        // Second boot loads the files; build flags are ignored.
        let (r2, i2) = indexes_from_dir(&dir, 9, 99, 9, 0, 999);
        assert_eq!(r2.dim(), 8);
        assert_eq!(r2.len(), 300);
        assert_eq!(i2.len(), 300);
        let q = synthetic_gallery(1, 8, 5);
        assert_eq!(
            r1.search(q.vector(0), 5, 2).unwrap(),
            r2.search(q.vector(0), 5, 2).unwrap(),
            "reloaded index must answer identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn galleries_round_trip_through_blob_dir() {
        let dir = std::env::temp_dir().join(format!("cmr_serving_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (r1, i1) = galleries_from_dir(&dir, 12, 6, 3);
        let (r2, i2) = galleries_from_dir(&dir, 999, 99, 999); // loaded, flags ignored
        assert_eq!(r1.data, r2.data);
        assert_eq!(i1.data, i2.data);
        assert_eq!(r2.dim, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
