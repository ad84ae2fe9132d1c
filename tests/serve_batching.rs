//! Integration: concurrent clients against a real `cmr-serve` socket.
//!
//! The contract under test is the serving tentpole invariant — responses
//! from the micro-batched path are **byte-identical** to the single-query
//! reference path, while the admission queue actually coalesces
//! (observability batch-size histogram p50 > 1 under concurrent load) and
//! the sharded cache serves repeated queries without recompute.
//!
//! The obs registry is process-global, so the tests in this binary
//! serialize on one mutex and reset the registry while holding it.

use cmr_retrieval::Embeddings;
use cmr_serve::http::{read_response, write_request, Limits, Response};
use cmr_serve::{
    render_hits, Direction, Engine, Router, RouterConfig, ServeConfig, Server, ShardFleet,
};
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests in this binary (shared process-global obs state).
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn gallery(n: usize, dim: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    Embeddings::new(dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .l2_normalized()
}

fn query(dim: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// A minimal keep-alive test client over the crate's own HTTP layer.
struct TestClient {
    reader: BufReader<TcpStream>,
}

impl TestClient {
    fn connect(addr: &str) -> TestClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        TestClient { reader: BufReader::new(stream) }
    }

    fn search(&mut self, direction: Direction, k: usize, q: &[f32]) -> Response {
        let body: Vec<u8> = q.iter().flat_map(|x| x.to_le_bytes()).collect();
        write_request(
            self.reader.get_mut(),
            "POST",
            &format!("/v1/search/{}?k={k}", direction.as_str()),
            &body,
        )
        .expect("write request");
        read_response(
            &mut self.reader,
            &Limits { max_head_bytes: 64 << 10, max_body_bytes: 1 << 20 },
        )
        .expect("read response")
    }
}

const DIM: usize = 16;

/// Two engines over identical bytes: one serves, one stays as the
/// single-query reference oracle.
fn paired_engines(seed: u64) -> (Engine, Engine) {
    sized_paired_engines(seed, 400, 300)
}

fn sized_paired_engines(seed: u64, recipes: usize, images: usize) -> (Engine, Engine) {
    let recipes = gallery(recipes, DIM, seed);
    let images = gallery(images, DIM, seed + 1);
    (
        Engine::exact(recipes.clone(), images.clone()).expect("serving engine"),
        Engine::exact(recipes, images).expect("reference engine"),
    )
}

/// `-0.0` and `+0.0` spell the same query: they compare equal and rank
/// identically, so the server canonicalises the sign away while parsing.
/// Both spellings must produce byte-identical bodies and share ONE cache
/// entry — before PR 10 the cache keyed on raw body bytes and stored both.
#[test]
fn negative_zero_queries_share_one_cache_entry_with_identical_bodies() {
    let _guard = registry_lock();
    cmr_obs::reset();

    let (serving, _) = paired_engines(31);
    let cfg = ServeConfig { cache_capacity: 64, ..ServeConfig::default() };
    let mut server = Server::start(serving, cfg, "127.0.0.1:0").expect("start server");
    let mut client = TestClient::connect(&server.local_addr().to_string());

    let mut plus = vec![0.25f32; DIM];
    plus[0] = 0.0;
    let mut minus = plus.clone();
    minus[0] = -0.0;
    // The two spellings really differ on the wire.
    assert_ne!(0.0f32.to_le_bytes(), (-0.0f32).to_le_bytes());

    let a = client.search(Direction::ImToRec, 5, &plus);
    let b = client.search(Direction::ImToRec, 5, &minus);
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);
    assert_eq!(a.body, b.body, "zero-sign spelling leaked into the response");
    assert_eq!(server.cache_len(), 1, "both spellings must share one cache entry");
    assert_eq!(server.cache_stats(), (1, 1), "second spelling must hit the cache");
    server.shutdown();
}

#[test]
fn concurrent_clients_get_reference_identical_responses_and_batches_coalesce() {
    let _guard = registry_lock();
    cmr_obs::reset();
    cmr_obs::set_enabled(true);

    // The queue is self-clocking: it coalesces the requests that arrive
    // while the worker is busy. One worker and galleries whose scan outlasts
    // a loopback round trip keep the other clients' requests queued behind
    // each batch; correctness must hold regardless.
    let (serving, reference) = sized_paired_engines(11, 60_000, 45_000);
    let cfg = ServeConfig {
        max_batch: 8,
        workers: 1,
        cache_capacity: 0, // no cache: every request must cross the batcher
        ..ServeConfig::default()
    };
    let mut server = Server::start(serving, cfg, "127.0.0.1:0").expect("start server");
    let addr = server.local_addr().to_string();

    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 25;
    // Clients whose requests share a shape move through the sequence in step,
    // so a common start lets them share batches from the first round on.
    let start = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let addr = addr.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = TestClient::connect(&addr);
                start.wait();
                let mut rng = rand::rngs::SmallRng::seed_from_u64(7000 + id as u64);
                let mut sent = Vec::with_capacity(PER_CLIENT);
                for i in 0..PER_CLIENT {
                    let direction =
                        if (id + i) % 2 == 0 { Direction::ImToRec } else { Direction::RecToIm };
                    let k = 1 + (i % 7);
                    let q = query(DIM, &mut rng);
                    let resp = client.search(direction, k, &q);
                    assert_eq!(resp.status, 200, "client {id} request {i}");
                    sent.push((direction, k, q, resp.body));
                }
                sent
            })
        })
        .collect();

    let mut total = 0usize;
    for handle in handles {
        for (direction, k, q, body) in handle.join().expect("client thread") {
            let want = render_hits(&reference.search_one(direction, &q, k).unwrap());
            assert_eq!(
                String::from_utf8(body).expect("utf8 body"),
                want,
                "batched response diverged from the single-query reference"
            );
            total += 1;
        }
    }
    assert_eq!(total, CLIENTS * PER_CLIENT);

    server.shutdown();
    let snap = cmr_obs::snapshot("serve.");
    cmr_obs::set_enabled(false);

    let batch_size = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "serve.batch_size")
        .map(|(_, h)| h)
        .expect("serve.batch_size histogram recorded");
    assert_eq!(batch_size.sum as usize, total, "every request crossed the batcher exactly once");
    assert!(
        batch_size.p50 > 1.0,
        "admission queue failed to coalesce under {CLIENTS} concurrent clients \
         (batch-size p50 = {}, batches = {})",
        batch_size.p50,
        batch_size.count,
    );
    let batches = snap
        .counters
        .iter()
        .find(|(name, _)| name == "serve.batches")
        .map_or(0, |&(_, v)| v);
    assert!(
        (batches as usize) < total,
        "batch count {batches} not smaller than request count {total}: nothing coalesced"
    );
}

#[test]
fn sharded_scatter_gather_is_byte_identical_to_the_single_engine_path() {
    let _guard = registry_lock();
    cmr_obs::reset();

    let recipes = gallery(400, DIM, 41);
    let images = gallery(300, DIM, 42);
    let reference = Engine::exact(recipes.clone(), images.clone()).expect("reference engine");

    // Shard counts that divide the galleries both evenly and unevenly.
    for shards in [1usize, 3, 5] {
        let mut fleet = ShardFleet::launch(&recipes, &images, shards, &ServeConfig::default())
            .expect("spawn fleet");
        let router = Router::new(fleet.specs(), DIM, RouterConfig::default());
        let front_cfg = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
        let mut front =
            Server::start_sharded(router, front_cfg, "127.0.0.1:0").expect("start front end");
        let addr = front.local_addr().to_string();

        const CLIENTS: usize = 6;
        const PER_CLIENT: usize = 12;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = TestClient::connect(&addr);
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(8000 + id as u64);
                    let mut sent = Vec::with_capacity(PER_CLIENT);
                    for i in 0..PER_CLIENT {
                        let direction = if (id + i) % 2 == 0 {
                            Direction::ImToRec
                        } else {
                            Direction::RecToIm
                        };
                        let k = 1 + (i % 9);
                        let q = query(DIM, &mut rng);
                        let resp = client.search(direction, k, &q);
                        assert_eq!(resp.status, 200, "shards={shards} client {id} request {i}");
                        sent.push((direction, k, q, resp.body));
                    }
                    sent
                })
            })
            .collect();
        for handle in handles {
            for (direction, k, q, body) in handle.join().expect("client thread") {
                let want = render_hits(&reference.search_one(direction, &q, k).unwrap());
                assert_eq!(
                    String::from_utf8(body).expect("utf8 body"),
                    want,
                    "sharded response diverged from single-engine bytes (shards={shards})"
                );
            }
        }
        front.shutdown();
        fleet.shutdown();
    }
}

#[test]
fn repeated_queries_are_served_from_the_cache_without_recompute() {
    let _guard = registry_lock();
    cmr_obs::reset();
    cmr_obs::set_enabled(true);

    let (serving, reference) = paired_engines(23);
    let cfg = ServeConfig { cache_capacity: 64, cache_shards: 4, ..ServeConfig::default() };
    let mut server = Server::start(serving, cfg, "127.0.0.1:0").expect("start server");
    let addr = server.local_addr().to_string();

    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let q = query(DIM, &mut rng);
    let want = render_hits(&reference.search_one(Direction::ImToRec, &q, 10).unwrap());

    let mut client = TestClient::connect(&addr);
    const REPEATS: usize = 6;
    for i in 0..REPEATS {
        let resp = client.search(Direction::ImToRec, 10, &q);
        assert_eq!(resp.status, 200);
        assert_eq!(String::from_utf8(resp.body).expect("utf8"), want, "repeat {i}");
    }
    // Same bytes, different k: a distinct cache entry, not a false hit.
    let other = client.search(Direction::ImToRec, 3, &q);
    assert_eq!(
        String::from_utf8(other.body).expect("utf8"),
        render_hits(&reference.search_one(Direction::ImToRec, &q, 3).unwrap())
    );

    let (hits, misses) = server.cache_stats();
    assert_eq!(
        (hits, misses),
        ((REPEATS - 1) as u64, 2),
        "first send of each (k, query) misses, every repeat hits"
    );

    server.shutdown();
    let snap = cmr_obs::snapshot("serve.");
    cmr_obs::set_enabled(false);
    let batched = snap
        .counters
        .iter()
        .find(|(name, _)| name == "serve.batched_requests")
        .map_or(0, |&(_, v)| v);
    assert_eq!(batched, 2, "cache hits must not reach the ranking kernel");
}

#[test]
fn healthz_and_keep_alive_work_across_many_requests() {
    let _guard = registry_lock();
    cmr_obs::reset();

    let (serving, reference) = paired_engines(31);
    let mut server =
        Server::start(serving, ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let addr = server.local_addr().to_string();

    let mut client = TestClient::connect(&addr);
    write_request(client.reader.get_mut(), "GET", "/healthz", b"").expect("healthz");
    let resp = read_response(
        &mut client.reader,
        &Limits { max_head_bytes: 64 << 10, max_body_bytes: 1 << 20 },
    )
    .expect("healthz response");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"ok\n");

    // The same connection then serves a burst of searches (keep-alive).
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    for _ in 0..20 {
        let q = query(DIM, &mut rng);
        let resp = client.search(Direction::RecToIm, 4, &q);
        assert_eq!(resp.status, 200);
        assert_eq!(
            String::from_utf8(resp.body).expect("utf8"),
            render_hits(&reference.search_one(Direction::RecToIm, &q, 4).unwrap())
        );
    }
    server.shutdown();
}
