//! The TCP front end: accept loop, per-connection threads, routing,
//! cache-then-batcher request flow, and graceful shutdown.
//!
//! ## Protocol
//!
//! * `GET /healthz` — liveness probe: `200 ok` for as long as the process
//!   runs, even while draining or fully degraded (restart-decision signal).
//! * `GET /readyz` — readiness probe: `503` while draining or while more
//!   than half the shard breakers are open, else `200 ready` (routing
//!   decision signal).
//! * `POST /v1/search/im2rec?k=N` / `POST /v1/search/rec2im?k=N` — the body
//!   is one query embedding as raw little-endian `f32` (so exactly
//!   `4 × dim` bytes); the response is
//!   `{"hits":[{"index":…,"similarity":…},…]}`. `k` defaults to 10. A
//!   sharded front end with missing shards appends
//!   `"degraded":true,"coverage":…` fields (see [`crate::router::Routed`]).
//!
//! Connections are HTTP/1.1 keep-alive with a per-connection read timeout;
//! every failure maps to a typed [`ServeError`] status (see
//! [`crate::error`]). Each request is answered from the sharded result
//! cache when possible and otherwise submitted to the admission queue,
//! which batches it with concurrent arrivals before ranking.
//!
//! ## Accept and shutdown
//!
//! The accept loop blocks in `accept` and spawns one thread per
//! connection; only an accept *error* (e.g. `EMFILE`) backs off briefly,
//! so it cannot spin. [`Server::shutdown`] sets the shutdown flag and wakes
//! the loop with one loopback connect to the bound port. It then lets every
//! connection thread finish its in-flight request and drains the admission
//! queue, so no admitted request is dropped. Idle keep-alive connections
//! close at their next read-timeout tick, so shutdown takes at most roughly
//! one `read_timeout`.
//!
//! A sharded front end drops its router's idle pooled shard connections
//! once its own connections are done, so a [`ShardFleet`] shutdown that
//! follows is prompt. Killing a single shard while a router still holds
//! pooled connections to it can take up to one `read_timeout` of that
//! shard, the time its handler threads take to notice the idle sockets.
//!
//! [`ShardFleet`]: crate::shard::ShardFleet

use crate::batch::Batcher;
use crate::cache::ShardedCache;
use crate::config::ServeConfig;
use crate::engine::{Direction, Engine};
use crate::error::ServeError;
use crate::http::{self, Limits, Request};
use crate::router::Router;
use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard ceiling on `k` per request, against memory-amplification abuse.
pub const MAX_K: usize = 1000;

/// How a server answers search queries: a local engine behind the
/// admission queue, or a scatter-gather router over a shard fleet.
enum Dispatch {
    /// Single-engine serving: the admission queue batches into `engine`.
    Local { engine: Arc<Engine>, batcher: Batcher },
    /// Sharded serving: scatter-gather over worker shards.
    Sharded { router: Router },
}

impl Dispatch {
    fn dim(&self) -> usize {
        match self {
            Dispatch::Local { engine, .. } => engine.dim(),
            Dispatch::Sharded { router } => router.dim(),
        }
    }
}

/// A complete routed response, ready to write.
struct Reply {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

impl Reply {
    fn ok(content_type: &'static str, body: String) -> Reply {
        Reply { status: 200, reason: "OK", content_type, body }
    }

    fn unavailable(body: &str) -> Reply {
        Reply {
            status: 503,
            reason: "Service Unavailable",
            content_type: "text/plain",
            body: body.to_string(),
        }
    }
}

/// Shared per-server state every connection thread sees.
struct Ctx {
    dispatch: Dispatch,
    cache: ShardedCache,
    cfg: ServeConfig,
    shutdown: AtomicBool,
}

/// A running retrieval server; dropping it shuts it down.
pub struct Server {
    ctx: Arc<Ctx>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `engine` with
    /// `cfg`.
    ///
    /// # Errors
    /// Propagates socket bind/configuration failures.
    pub fn start(engine: Engine, cfg: ServeConfig, addr: &str) -> io::Result<Server> {
        let engine = Arc::new(engine);
        let batcher = Batcher::from_config(Arc::clone(&engine), &cfg);
        Self::start_with(Dispatch::Local { engine, batcher }, cfg, addr)
    }

    /// Binds `addr` and starts a sharded front end scatter-gathering
    /// through `router` (build one over a
    /// [`ShardFleet`](crate::shard::ShardFleet)'s specs).
    ///
    /// # Errors
    /// Propagates socket bind/configuration failures.
    pub fn start_sharded(router: Router, cfg: ServeConfig, addr: &str) -> io::Result<Server> {
        Self::start_with(Dispatch::Sharded { router }, cfg, addr)
    }

    fn start_with(dispatch: Dispatch, cfg: ServeConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let ctx = Arc::new(Ctx {
            dispatch,
            cache: ShardedCache::new(cfg.cache_capacity, cfg.cache_shards),
            cfg,
            shutdown: AtomicBool::new(false),
        });
        let accept_ctx = Arc::clone(&ctx);
        let accept_handle = std::thread::spawn(move || accept_loop(&listener, &accept_ctx));
        cmr_obs::log(&format!("cmr-serve: listening on {local_addr}"));
        Ok(Server { ctx, local_addr, accept_handle: Some(accept_handle) })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `(hits, misses)` of the result cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.ctx.cache.stats()
    }

    /// Entries currently resident in the result cache (diagnostics; the
    /// -0.0 canonicalization regression test counts them).
    pub fn cache_len(&self) -> usize {
        self.ctx.cache.len()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, drain
    /// the admission queue. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            wake(self.local_addr);
            let _ = handle.join();
        }
        match &self.ctx.dispatch {
            Dispatch::Local { batcher, .. } => batcher.shutdown(),
            Dispatch::Sharded { router } => router.close_idle(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until shutdown, then joins the handlers it spawned.
fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    accept_until(listener, &ctx.shutdown, |stream| {
        if cmr_obs::enabled() {
            cmr_obs::counter_add("serve.connections", 1);
        }
        let ctx = Arc::clone(ctx);
        handlers.push(std::thread::spawn(move || handle_connection(stream, &ctx)));
        handlers.retain(|h| !h.is_finished());
    });
    for h in handlers {
        let _ = h.join();
    }
}

/// Blocks in `accept` and hands each connection to `serve` until `stop` is
/// set; [`wake`] unblocks the last `accept`, whose connection is dropped.
/// An accept error (an aborted handshake, `EMFILE`) backs off briefly so it
/// cannot spin.
pub(crate) fn accept_until(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => serve(stream),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Unblocks an [`accept_until`] loop listening on `addr` with one loopback
/// connect (an unspecified bind address is reached through loopback).
pub(crate) fn wake(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), Duration::from_secs(1));
}

/// Serves one keep-alive connection until close, error, or shutdown.
fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    if stream.set_read_timeout(Some(ctx.cfg.read_timeout)).is_err() {
        return;
    }
    // Responses are small; Nagle would add delayed-ACK stalls per reply.
    let _ = stream.set_nodelay(true);
    let limits = Limits {
        max_head_bytes: ctx.cfg.max_head_bytes,
        max_body_bytes: ctx.cfg.max_body_bytes,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match http::read_request(&mut reader, &limits) {
            Ok(req) => req,
            Err(err) => {
                if cmr_obs::enabled() && err.status().is_some() {
                    cmr_obs::counter_add("serve.errors", 1);
                }
                let _ = http::write_error(reader.get_mut(), &err);
                return;
            }
        };
        let span = cmr_obs::span("serve.request_latency_s");
        if cmr_obs::enabled() {
            cmr_obs::counter_add("serve.requests", 1);
        }
        let shutting_down = ctx.shutdown.load(Ordering::SeqCst);
        let keep_alive = !req.wants_close() && !shutting_down;
        let outcome = route(&req, ctx);
        drop(span);
        match outcome {
            Ok(reply) => {
                if http::write_response(
                    reader.get_mut(),
                    reply.status,
                    reply.reason,
                    reply.content_type,
                    reply.body.as_bytes(),
                    keep_alive,
                )
                .is_err()
                    || !keep_alive
                {
                    return;
                }
            }
            Err(err) => {
                if cmr_obs::enabled() && err.status().is_some() {
                    cmr_obs::counter_add("serve.errors", 1);
                }
                let _ = http::write_error(reader.get_mut(), &err);
                return;
            }
        }
    }
}

/// Dispatches one parsed request to a complete [`Reply`].
fn route(req: &Request, ctx: &Ctx) -> Result<Reply, ServeError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(Reply::ok("text/plain", "ok\n".to_string())),
        (_, "/healthz") => Err(ServeError::MethodNotAllowed),
        ("GET", "/readyz") => Ok(readiness(ctx)),
        (_, "/readyz") => Err(ServeError::MethodNotAllowed),
        (method, path) => match path.strip_prefix("/v1/search/").and_then(Direction::from_str) {
            Some(direction) if method == "POST" => search(req, ctx, direction),
            Some(_) => Err(ServeError::MethodNotAllowed),
            None => Err(ServeError::NotFound),
        },
    }
}

/// The readiness verdict: draining and mostly-broken fleets are not ready
/// (a load balancer should route elsewhere), but stay *alive* — `/healthz`
/// still answers 200, so an orchestrator does not restart a process that
/// is merely waiting out a bad patch.
fn readiness(ctx: &Ctx) -> Reply {
    if ctx.shutdown.load(Ordering::SeqCst) {
        return Reply::unavailable("draining\n");
    }
    if let Dispatch::Sharded { router } = &ctx.dispatch {
        let open = router.open_breakers();
        let total = router.shards();
        if open * 2 > total {
            return Reply::unavailable(&format!("degraded: {open}/{total} breakers open\n"));
        }
    }
    Reply::ok("text/plain", "ready\n".to_string())
}

/// The search endpoint: validate, consult the cache, else rank — through
/// the admission queue (local) or the scatter-gather router (sharded).
// cmr-lint: allow(panic-path) chunks_exact(4) guarantees the c[0..4] probes are in range
fn search(req: &Request, ctx: &Ctx, direction: Direction) -> Result<Reply, ServeError> {
    let k = match req.query_param("k") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if (1..=MAX_K).contains(&k) => k,
            _ => {
                return Err(ServeError::BadRequest(format!(
                    "k must be an integer in 1..={MAX_K}, got {raw:?}"
                )))
            }
        },
    };
    let dim = ctx.dispatch.dim();
    if req.body.len() != dim * 4 {
        return Err(ServeError::BadRequest(format!(
            "query body must be {} bytes ({dim} little-endian f32), got {}",
            dim * 4,
            req.body.len()
        )));
    }
    // Canonicalise -0.0 to +0.0 while parsing: the two compare equal and
    // rank identically, but their bit patterns differ, so keying the cache
    // on raw body bytes would store duplicate entries for what is the same
    // query. Canonical floats feed both the key and the engine, keeping
    // response bytes identical across the two spellings too.
    let query: Vec<f32> = req
        .body
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .map(|x| if x == 0.0 { 0.0f32 } else { x })
        .collect();
    if query.iter().any(|x| !x.is_finite()) {
        return Err(ServeError::BadRequest("query contains non-finite values".into()));
    }

    // Canonical wire form of the query, reused for the cache key and the
    // sharded fan-out so every layer below sees one spelling of zero.
    let mut canon_body = Vec::with_capacity(req.body.len());
    for x in &query {
        canon_body.extend_from_slice(&x.to_le_bytes());
    }

    // Cache key: direction tag, k, then the canonicalised query bytes.
    let mut key = Vec::with_capacity(1 + 8 + canon_body.len());
    key.push(direction.tag());
    key.extend_from_slice(&(k as u64).to_le_bytes());
    key.extend_from_slice(&canon_body);
    if let Some(body) = ctx.cache.get(&key) {
        if cmr_obs::enabled() {
            cmr_obs::counter_add("serve.cache.hits", 1);
        }
        return Ok(Reply::ok("application/json", body));
    }
    if cmr_obs::enabled() {
        cmr_obs::counter_add("serve.cache.misses", 1);
    }

    match &ctx.dispatch {
        Dispatch::Local { batcher, .. } => {
            let rx = batcher.submit(direction, k, query)?;
            // A dropped sender means the drain finished without this job,
            // which submit()'s shutdown check rules out — map it defensively.
            // An inner Err is the engine's typed refusal (e.g. EmptyIndex on
            // an index booted from disk): map to its status, cache nothing.
            let body = rx.recv().map_err(|_| ServeError::ShuttingDown)??;
            ctx.cache.insert(&key, body.clone());
            Ok(Reply::ok("application/json", body))
        }
        Dispatch::Sharded { router } => {
            let routed = router.search(direction, k, &canon_body)?;
            let body = routed.render();
            // A degraded body must never be cached: the missing shards'
            // hits would keep haunting responses after the fleet recovers.
            if !routed.degraded() {
                ctx.cache.insert(&key, body.clone());
            }
            Ok(Reply::ok("application/json", body))
        }
    }
}
