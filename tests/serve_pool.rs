//! Connection reuse on the sharded miss path.
//!
//! The router carries shard exchanges over pooled keep-alive connections,
//! replaces a pooled connection the shard closed while it sat idle without
//! charging a retry or a breaker failure, and a sharded front end drops its
//! idle pool on shutdown so that a fleet teardown after it is prompt.

use cmr_retrieval::Embeddings;
use cmr_serve::http::{read_response, write_request, Limits};
use cmr_serve::{
    render_hits, Direction, Engine, Router, RouterConfig, ServeConfig, Server, ShardFleet,
};
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const DIM: usize = 8;

/// Obs counters are process-global: tests that read them run one at a time.
static OBS: Mutex<()> = Mutex::new(());

fn gallery(n: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    Embeddings::new(DIM, (0..n * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .l2_normalized()
}

fn query(rng: &mut impl Rng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bytes(q: &[f32]) -> Vec<u8> {
    q.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn counter(name: &str) -> u64 {
    cmr_obs::snapshot(name).counter(name).unwrap_or(0)
}

#[test]
fn routed_queries_reuse_pooled_shard_connections() {
    let _serial = OBS.lock().unwrap_or_else(|p| p.into_inner());
    cmr_obs::set_enabled(true);
    let (recipes, images) = (gallery(40, 1), gallery(30, 2));
    let mut fleet =
        ShardFleet::launch(&recipes, &images, 2, &ServeConfig::default()).expect("fleet");
    let router = Router::new(fleet.specs(), DIM, RouterConfig::default());
    let before = counter("serve.router.connects");
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    for i in 0..50 {
        let direction = if i % 2 == 0 { Direction::ImToRec } else { Direction::RecToIm };
        let routed = router.search(direction, 5, &bytes(&query(&mut rng))).expect("routed");
        assert!(!routed.degraded(), "query {i} lost a healthy shard");
    }
    let connects = counter("serve.router.connects") - before;
    // One connection per shard suffices for sequential queries; a
    // connection per attempt would be 50 per shard.
    let shards = router.shards() as u64;
    assert!(
        (shards..=2 * shards).contains(&connects),
        "{connects} shard connects for 50 queries over {shards} shards"
    );
    drop(router);
    fleet.shutdown();
}

#[test]
fn a_pooled_connection_the_shard_closed_is_replaced_without_a_retry() {
    let _serial = OBS.lock().unwrap_or_else(|p| p.into_inner());
    cmr_obs::set_enabled(true);
    let (recipes, images) = (gallery(40, 4), gallery(30, 5));
    let reference = Engine::exact(recipes.clone(), images.clone()).expect("reference");
    let cfg = ServeConfig { read_timeout: Duration::from_millis(50), ..ServeConfig::default() };
    let mut fleet = ShardFleet::launch(&recipes, &images, 2, &cfg).expect("fleet");
    let router = Router::new(fleet.specs(), DIM, RouterConfig::default());
    let mut rng = rand::rngs::SmallRng::seed_from_u64(6);

    let first = query(&mut rng);
    assert!(!router.search(Direction::ImToRec, 5, &bytes(&first)).expect("first").degraded());
    // Outlast the shards' idle timeout: they close the pooled connections.
    std::thread::sleep(Duration::from_millis(200));

    let (retries, connects) = (counter("serve.router.retries"), counter("serve.router.connects"));
    let q = query(&mut rng);
    let routed = router.search(Direction::ImToRec, 5, &bytes(&q)).expect("second");
    assert!(!routed.degraded(), "a stale connection must not cost coverage");
    assert_eq!(
        routed.render(),
        render_hits(&reference.search_one(Direction::ImToRec, &q, 5).expect("reference hits"))
    );
    assert_eq!(counter("serve.router.retries"), retries, "a stale connection is not a retry");
    assert_eq!(
        counter("serve.router.connects") - connects,
        router.shards() as u64,
        "each shard's stale connection was replaced by one new connection"
    );
    assert_eq!(router.open_breakers(), 0, "a stale connection is not a breaker failure");
    drop(router);
    fleet.shutdown();
}

#[test]
fn front_then_fleet_teardown_does_not_wait_out_shard_read_timeouts() {
    let (recipes, images) = (gallery(40, 7), gallery(30, 8));
    // Shards keep the default 2 s read timeout, so an idle pooled
    // connection left open would hold the fleet shutdown for 2 s.
    let mut fleet =
        ShardFleet::launch(&recipes, &images, 2, &ServeConfig::default()).expect("fleet");
    let router = Router::new(fleet.specs(), DIM, RouterConfig::default());
    let front_cfg = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
    let mut front = Server::start_sharded(router, front_cfg, "127.0.0.1:0").expect("front");

    let stream = TcpStream::connect(front.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut client = BufReader::new(stream);
    let limits = Limits { max_head_bytes: 8 << 10, max_body_bytes: 1 << 20 };
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    for _ in 0..5 {
        let body = bytes(&query(&mut rng));
        write_request(client.get_mut(), "POST", "/v1/search/im2rec?k=3", &body).expect("write");
        assert_eq!(read_response(&mut client, &limits).expect("response").status, 200);
    }
    drop(client);

    let t = Instant::now();
    front.shutdown();
    fleet.shutdown();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "front-then-fleet teardown took {took:?}");
}
