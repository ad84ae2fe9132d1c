//! Fault injection against a live `cmr-serve` socket: slow-loris clients,
//! mid-request disconnects, malformed and oversized requests, and graceful
//! shutdown under in-flight load.
//!
//! Every failure must map to its typed status (`400`/`404`/`405`/`408`/
//! `413`/`431`), never to a hang or a crash — and after each abuse the
//! server must still answer a well-formed request correctly.

use cmr_retrieval::Embeddings;
use cmr_serve::http::{read_response, write_request, Limits, Response};
use cmr_serve::{
    render_hits, BreakerConfig, Direction, Engine, Router, RouterConfig, ServeConfig, Server,
    ShardSpec,
};
use rand::{Rng, SeedableRng};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const DIM: usize = 8;

fn gallery(n: usize, seed: u64) -> Embeddings {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    Embeddings::new(DIM, (0..n * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .l2_normalized()
}

fn start_server(cfg: ServeConfig, seed: u64) -> (Server, Engine, String) {
    let recipes = gallery(60, seed);
    let images = gallery(40, seed + 1);
    let reference = Engine::exact(recipes.clone(), images.clone()).expect("reference engine");
    let server = Server::start(
        Engine::exact(recipes, images).expect("serving engine"),
        cfg,
        "127.0.0.1:0",
    )
    .expect("start server");
    let addr = server.local_addr().to_string();
    (server, reference, addr)
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

const LIMITS: Limits = Limits { max_head_bytes: 64 << 10, max_body_bytes: 1 << 20 };

/// Sends `raw` bytes as-is and reads back one response.
fn raw_round_trip(addr: &str, raw: &[u8]) -> Response {
    let mut stream = connect(addr);
    stream.write_all(raw).expect("write raw request");
    read_response(&mut BufReader::new(stream), &LIMITS).expect("read response")
}

fn query_bytes(q: &[f32]) -> Vec<u8> {
    q.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// One well-formed search over a fresh connection; asserts the reference
/// bytes come back. The post-abuse health probe.
fn assert_serves_correctly(addr: &str, reference: &Engine) {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream);
    let q: Vec<f32> = (0..DIM).map(|i| (i as f32 * 0.3).sin()).collect();
    write_request(reader.get_mut(), "POST", "/v1/search/im2rec?k=5", &query_bytes(&q))
        .expect("write search");
    let resp = read_response(&mut reader, &LIMITS).expect("read search response");
    assert_eq!(resp.status, 200);
    assert_eq!(
        String::from_utf8(resp.body).expect("utf8"),
        render_hits(&reference.search_one(Direction::ImToRec, &q, 5).unwrap())
    );
}

#[test]
fn slow_loris_is_cut_off_with_request_timeout() {
    let cfg = ServeConfig { read_timeout: Duration::from_millis(150), ..ServeConfig::default() };
    let (mut server, reference, addr) = start_server(cfg, 1);

    // Drip-feed a request head, then stall mid-request past the timeout.
    let mut stream = connect(&addr);
    stream.write_all(b"POST /v1/sea").expect("partial head");
    let resp =
        read_response(&mut BufReader::new(stream), &LIMITS).expect("timeout response");
    assert_eq!(resp.status, 408, "stalled mid-request must get 408 Request Timeout");

    assert_serves_correctly(&addr, &reference);
    server.shutdown();
}

#[test]
fn idle_connection_closes_silently_without_a_status() {
    // A connection that never sends a byte is idle keep-alive churn, not a
    // slow-loris: it must be closed with no response bytes at all.
    let cfg = ServeConfig { read_timeout: Duration::from_millis(150), ..ServeConfig::default() };
    let (mut server, reference, addr) = start_server(cfg, 2);

    let mut stream = connect(&addr);
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("read EOF");
    assert_eq!(n, 0, "idle close must not write a response, got {:?}", &buf[..n]);

    assert_serves_correctly(&addr, &reference);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_the_server_healthy() {
    let (mut server, reference, addr) = start_server(ServeConfig::default(), 3);

    for _ in 0..5 {
        let mut stream = connect(&addr);
        // Promise a body, deliver half of it, vanish.
        stream
            .write_all(b"POST /v1/search/im2rec?k=3 HTTP/1.1\r\nContent-Length: 32\r\n\r\n0123")
            .expect("partial request");
        drop(stream);
    }
    // Give the handler threads a beat to trip over the disconnects.
    std::thread::sleep(Duration::from_millis(50));
    assert_serves_correctly(&addr, &reference);
    server.shutdown();
}

#[test]
fn malformed_and_invalid_requests_get_typed_statuses() {
    let (mut server, reference, addr) = start_server(ServeConfig::default(), 4);
    let good_body = query_bytes(&vec![0.25f32; DIM]);

    // (raw request bytes, expected status, label)
    let garbage = b"GARBAGE\r\n\r\n".to_vec();
    let bad_version = b"GET /healthz HTTP/0.9\r\n\r\n".to_vec();
    let bad_header = b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec();
    let mut wrong_dim = b"POST /v1/search/im2rec?k=3 HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
    wrong_dim.extend_from_slice(&1.0f32.to_le_bytes());
    let mut nan_query =
        format!("POST /v1/search/im2rec?k=3 HTTP/1.1\r\nContent-Length: {}\r\n\r\n", DIM * 4)
            .into_bytes();
    nan_query.extend(query_bytes(&{
        let mut q = vec![0.5f32; DIM];
        q[2] = f32::NAN;
        q
    }));
    let make_search = |target: &str, body: &[u8]| {
        let mut raw =
            format!("POST {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
                .into_bytes();
        raw.extend_from_slice(body);
        raw
    };
    let cases: Vec<(Vec<u8>, u16, &str)> = vec![
        (garbage, 400, "unparsable request line"),
        (bad_version, 400, "unsupported HTTP version"),
        (bad_header, 400, "header without a colon"),
        (b"GET /v1/search/im2rec HTTP/1.1\r\n\r\n".to_vec(), 405, "GET on a POST route"),
        (b"PUT /healthz HTTP/1.1\r\n\r\n".to_vec(), 405, "PUT on /healthz"),
        (b"GET /nope HTTP/1.1\r\n\r\n".to_vec(), 404, "unknown path"),
        (make_search("/v1/search/sideways?k=3", &good_body), 404, "unknown direction"),
        (make_search("/v1/search/im2rec?k=0", &good_body), 400, "k below 1"),
        (make_search("/v1/search/im2rec?k=1001", &good_body), 400, "k beyond MAX_K"),
        (make_search("/v1/search/im2rec?k=ten", &good_body), 400, "non-numeric k"),
        (wrong_dim, 400, "wrong query dimension"),
        (nan_query, 400, "non-finite query values"),
    ];
    for (raw, want, label) in cases {
        let resp = raw_round_trip(&addr, &raw);
        assert_eq!(resp.status, want, "{label}");
    }

    assert_serves_correctly(&addr, &reference);
    server.shutdown();
}

#[test]
fn oversized_requests_get_payload_and_header_statuses() {
    let cfg = ServeConfig {
        max_body_bytes: 256,
        max_head_bytes: 512,
        ..ServeConfig::default()
    };
    let (mut server, reference, addr) = start_server(cfg, 5);

    // Content-Length over the body cap: refused before the body is read.
    let resp = raw_round_trip(
        &addr,
        b"POST /v1/search/im2rec?k=3 HTTP/1.1\r\nContent-Length: 1000\r\n\r\n",
    );
    assert_eq!(resp.status, 413, "oversized declared body");

    // A request head that never fits the head cap.
    let mut huge_head = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
    huge_head.extend(std::iter::repeat(b'a').take(2000));
    huge_head.extend_from_slice(b"\r\n\r\n");
    let resp = raw_round_trip(&addr, &huge_head);
    assert_eq!(resp.status, 431, "oversized request head");

    assert_serves_correctly(&addr, &reference);
    server.shutdown();
}

/// The client side of the wire is attacker-shaped too: a compromised or
/// buggy upstream shard that claims a ~1 GiB body must be refused by
/// `read_response` *before* the body buffer is allocated — the router's
/// scatter-gather path reads upstream responses with the same limits as
/// requests, so a hostile Content-Length cannot force an OOM.
#[test]
fn hostile_upstream_content_length_is_refused_before_allocation() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("fake shard addr").to_string();
    let upstream = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut sink = [0u8; 512];
        let _ = conn.read(&mut sink); // drain the request head
        conn.write_all(
            b"HTTP/1.1 200 OK\r\nContent-Length: 1073741824\r\n\r\n",
        )
        .expect("write hostile head");
        // Deliberately never send a body: the client must fail on the
        // declared length alone, not block waiting for a gigabyte.
    });

    let mut stream = connect(&addr);
    write_request(&mut stream, "GET", "/v1/healthz", &[]).expect("send probe");
    let err = read_response(&mut BufReader::new(stream), &LIMITS)
        .expect_err("1 GiB claim must not produce a response");
    assert!(
        format!("{err:?}").contains("PayloadTooLarge"),
        "expected PayloadTooLarge, got {err:?}"
    );
    upstream.join().expect("fake shard thread");
}

#[test]
fn liveness_and_readiness_probes_have_distinct_typed_statuses() {
    let (mut server, _reference, addr) = start_server(ServeConfig::default(), 7);

    // Liveness: the process is up.
    let resp = raw_round_trip(&addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!((resp.status, resp.body.as_slice()), (200, b"ok\n".as_slice()));

    // Readiness: a healthy single-engine server is ready to take traffic.
    let resp = raw_round_trip(&addr, b"GET /readyz HTTP/1.1\r\n\r\n");
    assert_eq!((resp.status, resp.body.as_slice()), (200, b"ready\n".as_slice()));

    // Both probes are GET-only.
    assert_eq!(raw_round_trip(&addr, b"POST /healthz HTTP/1.1\r\n\r\n").status, 405);
    assert_eq!(raw_round_trip(&addr, b"POST /readyz HTTP/1.1\r\n\r\n").status, 405);

    server.shutdown();
}

#[test]
fn readyz_reports_unready_when_most_breakers_are_open_but_healthz_stays_live() {
    // Two shard addresses that refuse connections: bind, record, drop.
    let dead_specs: Vec<ShardSpec> = (0..2)
        .map(|i| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            drop(listener);
            ShardSpec { addr, rec_base: i * 30, img_base: i * 20 }
        })
        .collect();
    let router_cfg = RouterConfig {
        deadline: Duration::from_millis(80),
        retries: 0,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60), // stays open for the whole test
            ..BreakerConfig::default()
        },
        ..RouterConfig::default()
    };
    let router = Router::new(dead_specs, DIM, router_cfg);
    let probe = router.clone();
    let mut server = Server::start_sharded(router, ServeConfig::default(), "127.0.0.1:0")
        .expect("start sharded front");
    let addr = server.local_addr().to_string();

    // A fresh fleet (no failures yet) is ready even though it is unreachable.
    assert_eq!(raw_round_trip(&addr, b"GET /readyz HTTP/1.1\r\n\r\n").status, 200);

    // Every search fails fast (connection refused) and must surface as a
    // typed 503, never a hang; the failures trip both breakers.
    let q = query_bytes(&vec![0.5f32; DIM]);
    let mut raw =
        format!("POST /v1/search/im2rec?k=3 HTTP/1.1\r\nContent-Length: {}\r\n\r\n", q.len())
            .into_bytes();
    raw.extend_from_slice(&q);
    for i in 0..3 {
        let resp = raw_round_trip(&addr, &raw);
        assert_eq!(resp.status, 503, "unreachable fleet must answer 503 (request {i})");
    }
    assert_eq!(probe.open_breakers(), 2, "both breakers open after repeated failures");

    // More than half the breakers open: not ready — but still alive.
    let resp = raw_round_trip(&addr, b"GET /readyz HTTP/1.1\r\n\r\n");
    assert_eq!(resp.status, 503);
    let body = String::from_utf8(resp.body).expect("utf8");
    assert!(body.contains("breakers open"), "unexpected readiness body: {body}");
    assert_eq!(raw_round_trip(&addr, b"GET /healthz HTTP/1.1\r\n\r\n").status, 200);

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests_without_loss() {
    // Every request sent before shutdown gets its reference answer, and the
    // listener then refuses new connections. The queue never lingers, so on
    // this small gallery the requests are usually answered before the plug
    // is pulled: this pins the end-to-end contract, not the drain of jobs
    // still queued when the flag flips. The batcher's unit test
    // `shutdown_drains_queued_jobs_then_refuses_new_ones` pins that drain
    // deterministically.
    let cfg = ServeConfig { max_batch: 64, cache_capacity: 0, ..ServeConfig::default() };
    let (mut server, reference, addr) = start_server(cfg, 6);

    const IN_FLIGHT: usize = 8;
    let handles: Vec<_> = (0..IN_FLIGHT)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = connect(&addr);
                let mut reader = BufReader::new(stream);
                let q: Vec<f32> = (0..DIM).map(|i| ((id + i) as f32 * 0.7).cos()).collect();
                write_request(
                    reader.get_mut(),
                    "POST",
                    "/v1/search/rec2im?k=4",
                    &query_bytes(&q),
                )
                .expect("write in-flight search");
                let resp = read_response(&mut reader, &LIMITS).expect("drained response");
                (q, resp)
            })
        })
        .collect();

    // Let every request reach the server, then pull the plug.
    std::thread::sleep(Duration::from_millis(300));
    server.shutdown();

    for handle in handles {
        let (q, resp) = handle.join().expect("in-flight client");
        assert_eq!(resp.status, 200, "admitted request dropped during shutdown");
        assert_eq!(
            String::from_utf8(resp.body).expect("utf8"),
            render_hits(&reference.search_one(Direction::RecToIm, &q, 4).unwrap()),
            "drained response diverged from the reference"
        );
    }

    // The listener is gone: new connections must be refused, not queued.
    match TcpStream::connect(&addr) {
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionRefused),
        Ok(stream) => {
            // Some kernels complete the handshake from the backlog; the
            // closed socket must then yield EOF or a reset, never service.
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut s = stream;
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = [0u8; 16];
            match s.read(&mut buf) {
                Ok(n) => assert_eq!(n, 0, "shut-down server answered a new connection"),
                Err(_) => {} // reset: equally fine
            }
        }
    }
}
