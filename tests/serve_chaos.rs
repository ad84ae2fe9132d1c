//! Chaos suite: the sharded serving tier under injected faults.
//!
//! The availability contract under test — with one of N shards wedged,
//! killed, or flaky, **every** client request still completes with a 200:
//! degraded (reduced coverage over the healthy shards) is allowed, a 5xx
//! or a hang is not. Breakers must open within their failure threshold
//! against a persistently bad shard, and recover through half-open probes
//! once the fault clears.

use cmr_retrieval::Embeddings;
use cmr_serve::http::{read_response, write_request, Limits, Response};
use cmr_serve::{
    render_hits, BreakerConfig, Direction, Engine, Fault, FaultPlan, FaultProxy, Router,
    RouterConfig, ServeConfig, Server, ShardFleet, ShardSpec,
};
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

const DIM: usize = 12;
const SHARDS: usize = 3;

fn gallery(n: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    Embeddings::new(DIM, (0..n * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .l2_normalized()
}

fn query(rng: &mut impl Rng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

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

/// Fleet + per-shard fault proxies + a router probe + the sharded front
/// end, torn down in order on drop.
struct ChaosRig {
    fleet: ShardFleet,
    proxies: Vec<FaultProxy>,
    router: Router,
    front: Server,
    reference: Engine,
    addr: String,
}

fn rig(seed: u64, plans: impl Fn(usize) -> FaultPlan, router_cfg: RouterConfig) -> ChaosRig {
    let recipes = gallery(90, seed);
    let images = gallery(60, seed + 1);
    let reference = Engine::exact(recipes.clone(), images.clone()).expect("reference engine");
    let fleet = ShardFleet::launch(&recipes, &images, SHARDS, &ServeConfig::default())
        .expect("spawn fleet");
    let proxies: Vec<FaultProxy> = fleet
        .specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| FaultProxy::start(spec.addr, plans(i)).expect("start proxy"))
        .collect();
    let specs: Vec<ShardSpec> = fleet
        .specs()
        .iter()
        .zip(&proxies)
        .map(|(spec, proxy)| ShardSpec { addr: proxy.addr(), ..*spec })
        .collect();
    let router = Router::new(specs, DIM, router_cfg);
    let probe = router.clone();
    let front_cfg = ServeConfig { cache_capacity: 0, ..ServeConfig::default() };
    let front = Server::start_sharded(router, front_cfg, "127.0.0.1:0").expect("start front");
    let addr = front.local_addr().to_string();
    ChaosRig { fleet, proxies, router: probe, front, reference, addr }
}

impl ChaosRig {
    fn teardown(mut self) {
        self.front.shutdown();
        for p in &mut self.proxies {
            p.shutdown();
        }
        self.fleet.shutdown();
    }
}

fn fast_router_cfg() -> RouterConfig {
    RouterConfig {
        deadline: Duration::from_millis(200),
        retries: 1,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
            ..BreakerConfig::default()
        },
        ..RouterConfig::default()
    }
}

/// Degraded responses keep the `{"hits":[…]` shape plus coverage fields;
/// returns (is_degraded, body).
fn classify(resp: &Response) -> (bool, String) {
    assert_eq!(resp.status, 200, "chaos must degrade, never fail");
    let body = String::from_utf8(resp.body.clone()).expect("utf8 body");
    assert!(body.starts_with("{\"hits\":["), "malformed body: {body}");
    (body.contains("\"degraded\":true"), body)
}

#[test]
fn one_wedged_shard_degrades_every_request_but_fails_none() {
    let wedge =
        |i: usize| if i == 0 { FaultPlan::always(Fault::Wedge) } else { FaultPlan::healthy() };
    let rig_ = rig(51, wedge, fast_router_cfg());

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let addr = rig_.addr.clone();
            std::thread::spawn(move || {
                let mut client = TestClient::connect(&addr);
                let mut rng = rand::rngs::SmallRng::seed_from_u64(600 + id as u64);
                let mut bodies = Vec::new();
                for i in 0..PER_CLIENT {
                    let direction =
                        if i % 2 == 0 { Direction::ImToRec } else { Direction::RecToIm };
                    let q = query(&mut rng);
                    let resp = client.search(direction, 4, &q);
                    bodies.push((q, direction, resp));
                }
                bodies
            })
        })
        .collect();

    for handle in handles {
        for (_q, _direction, resp) in handle.join().expect("client thread") {
            let (degraded, body) = classify(&resp);
            assert!(degraded, "a wedged shard must reduce coverage: {body}");
            assert!(
                body.contains(&format!("\"shards_total\":{SHARDS}")),
                "coverage accounting missing: {body}"
            );
        }
    }
    // The wedged shard's breaker opened within its failure threshold; the
    // healthy shards' breakers stayed closed.
    assert_eq!(rig_.router.open_breakers(), 1, "exactly the wedged shard's breaker is open");
    rig_.teardown();
}

#[test]
fn killed_shard_yields_degraded_coverage_and_correct_merged_hits() {
    let mut rig_ = rig(52, |_| FaultPlan::healthy(), fast_router_cfg());
    rig_.fleet.kill(0);

    let mut client = TestClient::connect(&rig_.addr);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(777);
    for i in 0..8 {
        let q = query(&mut rng);
        let resp = client.search(Direction::ImToRec, 5, &q);
        let (degraded, body) = classify(&resp);
        assert!(degraded, "request {i}: a killed shard must mark responses degraded");
        // The surviving shards' merge is still the exact top-k over their
        // slice of the gallery: a strict prefix of the reference hits with
        // the dead shard's rows filtered out.
        let full = render_hits(&rig_.reference.search_one(Direction::ImToRec, &q, 90).unwrap());
        let hits_part = body.split(",\"degraded\"").next().expect("split");
        let mut survivors = full
            .trim_start_matches("{\"hits\":[")
            .trim_end_matches("]}")
            .split("},{")
            .map(|s| s.trim_start_matches('{').trim_end_matches('}'))
            .filter(|item| {
                let idx: usize = item
                    .split(',')
                    .next()
                    .and_then(|f| f.strip_prefix("\"index\":"))
                    .and_then(|v| v.parse().ok())
                    .expect("index field");
                idx >= 30 // shard 0 owns recipe rows [0, 30)
            })
            .take(5);
        let want = format!(
            "{{\"hits\":[{}]}}",
            survivors.by_ref().map(|s| format!("{{{s}}}")).collect::<Vec<_>>().join(",")
        );
        assert_eq!(format!("{hits_part}}}"), want, "request {i}: wrong surviving-shard merge");
    }
    rig_.teardown();
}

#[test]
fn breakers_open_under_faults_and_recover_via_half_open_probes() {
    let wedge =
        |i: usize| if i == 0 { FaultPlan::always(Fault::Wedge) } else { FaultPlan::healthy() };
    let rig_ = rig(53, wedge, fast_router_cfg());
    let mut client = TestClient::connect(&rig_.addr);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(888);

    // Trip the wedged shard's breaker (failure_threshold = 2).
    for _ in 0..3 {
        let q = query(&mut rng);
        let (degraded, _) = classify(&client.search(Direction::ImToRec, 4, &q));
        assert!(degraded);
    }
    assert_eq!(rig_.router.open_breakers(), 1, "breaker must open within the threshold");

    // While open, requests skip the bad shard entirely and still answer.
    let q = query(&mut rng);
    let (degraded, _) = classify(&client.search(Direction::RecToIm, 4, &q));
    assert!(degraded, "open breaker narrows coverage");

    // Clear the fault, wait out the cooldown: the next requests admit a
    // half-open probe, the probe succeeds, the breaker closes, and full
    // coverage (byte-identical to the reference) returns.
    rig_.proxies[0].set_plan(FaultPlan::healthy());
    std::thread::sleep(Duration::from_millis(150));
    let mut recovered = false;
    for _ in 0..10 {
        let q = query(&mut rng);
        let resp = client.search(Direction::ImToRec, 4, &q);
        let (degraded, body) = classify(&resp);
        if !degraded {
            let want = render_hits(&rig_.reference.search_one(Direction::ImToRec, &q, 4).unwrap());
            assert_eq!(body, want, "recovered response must match single-engine bytes");
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(recovered, "breaker never recovered after the fault cleared");
    assert_eq!(rig_.router.open_breakers(), 0, "breaker closed after successful probe");
    rig_.teardown();
}

#[test]
fn flaky_resets_and_truncations_never_surface_to_clients() {
    // Aggressive-but-not-total fault rates with enough retries that a
    // query's chance of exhausting every attempt on every shard is nil.
    let flaky = |i: usize| {
        FaultPlan::mix(
            vec![(Fault::Pass, 4), (Fault::Reset, 1), (Fault::Truncate, 1)],
            90 + i as u64,
        )
    };
    let cfg = RouterConfig {
        deadline: Duration::from_millis(500),
        retries: 5,
        ..RouterConfig::default()
    };
    let rig_ = rig(54, flaky, cfg);

    let mut client = TestClient::connect(&rig_.addr);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(999);
    let mut full_coverage = 0usize;
    const REQUESTS: usize = 20;
    for i in 0..REQUESTS {
        let direction = if i % 2 == 0 { Direction::ImToRec } else { Direction::RecToIm };
        let q = query(&mut rng);
        let resp = client.search(direction, 6, &q);
        let (degraded, body) = classify(&resp);
        if !degraded {
            full_coverage += 1;
            let want = render_hits(&rig_.reference.search_one(direction, &q, 6).unwrap());
            assert_eq!(body, want, "request {i}: full-coverage bytes must match reference");
        }
    }
    assert!(
        full_coverage > 0,
        "retries should recover full coverage for at least some of {REQUESTS} requests"
    );
    // Faults are drawn per attempt, so pooled router connections cannot
    // dodge them: both fault kinds must actually have fired.
    let fired = |f: Fault| rig_.proxies.iter().map(|p| p.draws(f)).sum::<u64>();
    assert!(
        fired(Fault::Reset) >= 1 && fired(Fault::Truncate) >= 1,
        "{} resets and {} truncations fired over {REQUESTS} requests",
        fired(Fault::Reset),
        fired(Fault::Truncate)
    );
    rig_.teardown();
}
