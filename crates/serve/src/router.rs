//! The scatter-gather router: fan a query out to every shard, survive the
//! shards that fail.
//!
//! Per routed query, each shard gets (subject to its circuit breaker) an
//! independent task that speaks the plain worker HTTP protocol and races a
//! **deadline** against **bounded retries** (exponential backoff with
//! jitter) and an optional **hedged** second request for stragglers.
//! Whatever answered in time is re-based to global gallery indices and
//! merged with [`cmr_retrieval::merge_top_k`]; shards that did not answer
//! only narrow the candidate set — the response is marked degraded with a
//! coverage fraction instead of failing (see [`Routed`]). Only when *no*
//! shard answers does the query fail, with
//! [`ServeError::Unavailable`] (503).
//!
//! ## Pooled keep-alive connections
//!
//! Each shard keeps a LIFO list of idle keep-alive connections, so a
//! routed query normally pays no connect, accept or handler spawn on the
//! shard. An attempt takes the most recently used idle connection, or
//! connects when none is idle (counted as `serve.router.connects`). A
//! connection goes back to the list only from the attempt that won its
//! shard query, after a complete 200 response with nothing buffered past it
//! and no `Connection: close`; a connection whose attempt timed out,
//! errored or lost a hedge race is dropped, so a late reply can never
//! desync the next exchange. The list needs no cap: it never holds more
//! connections than the shard once had attempts in flight at the same time.
//!
//! A reused connection that fails before the first response byte (write
//! error, EOF or reset, but not a timeout) is a keep-alive the shard closed
//! while it sat idle. The attempt retries it once, at once, on a fresh
//! connection; that retry is not charged to the retry budget or the
//! breaker.
//!
//! ## Byte identity when healthy
//!
//! With every shard healthy the rendered response is byte-identical to the
//! single-engine server's: shard similarities are bit-identical slices of
//! the global similarity row (each is an independent dot product), workers
//! render floats in shortest-roundtrip form which re-parses to the same
//! bits, the merge is the canonical [`cmr_retrieval::hit_order`] selection,
//! and a full-coverage [`Routed::render`] emits exactly
//! [`render_hits`]. `tests/serve_batching.rs` locks this down end to end.

use crate::breaker::{Admission, Breaker, BreakerConfig};
use crate::config::ServeConfig;
use crate::engine::{render_hits, Direction};
use crate::error::ServeError;
use crate::http::{self, Limits, Response};
use crate::shard::ShardSpec;
use cmr_retrieval::knn::Hit;
use cmr_retrieval::merge_top_k;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Router tuning; [`RouterConfig::from_serve`] lifts the env-backed knobs
/// out of a [`ServeConfig`].
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Total per-shard budget per query, across retries and hedges.
    pub deadline: Duration,
    /// Extra attempts after the first failure (0 = no retries).
    pub retries: u32,
    /// Delay before hedging a second concurrent attempt at a shard that
    /// has not answered; `Duration::ZERO` disables hedging.
    pub hedge_after: Duration,
    /// First-retry backoff; attempt `n` waits `backoff_base * 2^(n-1)` plus
    /// up to one `backoff_base` of jitter.
    pub backoff_base: Duration,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            deadline: Duration::from_millis(250),
            retries: 2,
            hedge_after: Duration::ZERO,
            backoff_base: Duration::from_millis(5),
            breaker: BreakerConfig::default(),
        }
    }
}

impl RouterConfig {
    /// Router tuning from the serving config (the four `CMR_SERVE_*`
    /// scatter-gather knobs); backoff and breaker keep their defaults.
    pub fn from_serve(cfg: &ServeConfig) -> Self {
        RouterConfig {
            deadline: cfg.deadline,
            retries: cfg.retries,
            hedge_after: cfg.hedge_after,
            ..RouterConfig::default()
        }
    }
}

/// A keep-alive connection to one shard.
type Conn = BufReader<TcpStream>;

/// What one attempt reports: the shard's re-based hits, plus the connection
/// when the exchange left it reusable.
type Attempt = Result<(Vec<Hit>, Option<Conn>), ServeError>;

/// One shard as the router sees it: its address, its breaker and its idle
/// keep-alive connections.
struct Slot {
    spec: ShardSpec,
    breaker: Breaker,
    /// Idle connections, most recently used last.
    idle: Mutex<Vec<Conn>>,
}

impl Slot {
    /// The most recently pooled idle connection, if any.
    fn take_idle(&self) -> Option<Conn> {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    fn put_idle(&self, conn: Conn) {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).push(conn);
    }

    fn clear_idle(&self) {
        self.idle.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

struct RouterInner {
    slots: Vec<Arc<Slot>>,
    dim: usize,
    cfg: RouterConfig,
    /// Counter feeding splitmix64 for backoff jitter.
    rng: AtomicU64,
}

/// A shard-aware scatter-gather query router. Cheap to clone (shared
/// state); every clone routes against the same breakers.
#[derive(Clone)]
pub struct Router {
    inner: Arc<RouterInner>,
}

/// A merged scatter-gather result plus its coverage accounting.
#[derive(Debug)]
pub struct Routed {
    /// Merged global top-k hits from the shards that answered.
    pub hits: Vec<Hit>,
    /// Shards that answered within the deadline.
    pub shards_ok: usize,
    /// Total shards in the fleet.
    pub shards_total: usize,
}

impl Routed {
    /// `true` when at least one shard did not contribute.
    pub fn degraded(&self) -> bool {
        self.shards_ok < self.shards_total
    }

    /// Fraction of shards that contributed, in `(0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.shards_ok as f64 / self.shards_total.max(1) as f64
    }

    /// Renders the response body. Full coverage emits exactly
    /// [`render_hits`] (the byte-identity contract with the single-engine
    /// path); a degraded result appends `degraded`/`coverage` fields.
    pub fn render(&self) -> String {
        let mut out = render_hits(&self.hits);
        if self.degraded() {
            out.pop(); // replace the closing '}' with the degraded suffix
            let _ = write!(
                out,
                ",\"degraded\":true,\"coverage\":{},\"shards_ok\":{},\"shards_total\":{}}}",
                self.coverage(),
                self.shards_ok,
                self.shards_total
            );
        }
        out
    }
}

impl Router {
    /// A router over `specs`, serving queries of dimensionality `dim`.
    pub fn new(specs: Vec<ShardSpec>, dim: usize, cfg: RouterConfig) -> Router {
        let slots = specs
            .into_iter()
            .map(|spec| {
                Arc::new(Slot {
                    spec,
                    breaker: Breaker::new(cfg.breaker),
                    idle: Mutex::new(Vec::new()),
                })
            })
            .collect();
        Router {
            inner: Arc::new(RouterInner {
                slots,
                dim,
                cfg,
                rng: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            }),
        }
    }

    /// Query dimensionality the fleet serves.
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Number of shards routed to.
    pub fn shards(&self) -> usize {
        self.inner.slots.len()
    }

    /// Number of shards whose breaker is currently open (readiness input).
    pub fn open_breakers(&self) -> usize {
        self.inner.slots.iter().filter(|s| s.breaker.is_open()).count()
    }

    /// Drops every idle pooled shard connection. The shards' handler
    /// threads then see EOF and exit, so a fleet shutdown that follows need
    /// not wait out their read timeouts.
    pub(crate) fn close_idle(&self) {
        for slot in &self.inner.slots {
            slot.clear_idle();
        }
    }

    /// Scatter-gathers one query (`body` = raw little-endian f32 bytes, as
    /// on the wire) across the fleet and merges the per-shard top-k.
    ///
    /// # Errors
    /// [`ServeError::Unavailable`] when no shard answered (every breaker
    /// open, or every attempt failed or timed out).
    pub fn search(
        &self,
        direction: Direction,
        k: usize,
        body: &[u8],
    ) -> Result<Routed, ServeError> {
        let total = self.inner.slots.len();
        let body: Arc<[u8]> = Arc::from(body);
        let (tx, rx) = mpsc::channel::<Result<Vec<Hit>, ServeError>>();
        let now = Instant::now();
        let mut dispatched = 0usize;
        for (i, slot) in self.inner.slots.iter().enumerate() {
            let admission = slot.breaker.admit_at(now);
            if admission == Admission::Reject {
                if cmr_obs::enabled() {
                    cmr_obs::counter_add(&format!("serve.router.shard.{i}.rejected"), 1);
                }
                continue;
            }
            dispatched += 1;
            let inner = Arc::clone(&self.inner);
            let tx = tx.clone();
            let body = Arc::clone(&body);
            let probe = admission == Admission::Probe;
            std::thread::spawn(move || {
                let _ = tx.send(shard_query(&inner, i, direction, k, &body, probe));
            });
        }
        drop(tx);
        // Shard tasks bound themselves by the deadline; the grace covers
        // scheduling overhead, after which a wedged task counts as failed.
        let gather_deadline =
            Instant::now() + self.inner.cfg.deadline + Duration::from_millis(500);
        let mut lists: Vec<Vec<Hit>> = Vec::new();
        for _ in 0..dispatched {
            let remaining = gather_deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(Ok(hits)) => lists.push(hits),
                Ok(Err(_)) => {}
                Err(_) => break,
            }
        }
        if cmr_obs::enabled() {
            for (i, slot) in self.inner.slots.iter().enumerate() {
                cmr_obs::gauge_set(
                    &format!("serve.router.shard.{i}.breaker_state"),
                    f64::from(slot.breaker.state_code()),
                );
            }
        }
        let shards_ok = lists.len();
        if shards_ok == 0 {
            if cmr_obs::enabled() {
                cmr_obs::counter_add("serve.router.unavailable", 1);
            }
            return Err(ServeError::Unavailable(format!("0/{total} shards answered")));
        }
        if shards_ok < total && cmr_obs::enabled() {
            cmr_obs::counter_add("serve.router.degraded", 1);
        }
        Ok(Routed { hits: merge_top_k(&lists, k), shards_ok, shards_total: total })
    }
}

/// Runs one shard's attempt loop: first attempt, bounded retries with
/// jittered exponential backoff, optional hedge — all inside the deadline.
/// Records exactly one outcome into the shard's breaker.
fn shard_query(
    inner: &RouterInner,
    i: usize,
    direction: Direction,
    k: usize,
    body: &Arc<[u8]>,
    probe: bool,
) -> Result<Vec<Hit>, ServeError> {
    // cmr-lint: allow(panic-path) i comes from enumerate() over these same slots in Router::search
    let slot = &inner.slots[i];
    let start = Instant::now();
    let deadline = start + inner.cfg.deadline;
    let (atx, arx) = mpsc::channel::<Attempt>();
    let spawn_attempt = |tx: mpsc::Sender<Attempt>| {
        let slot = Arc::clone(slot);
        let body = Arc::clone(body);
        std::thread::spawn(move || {
            let _ = tx.send(one_rpc(&slot, direction, k, &body, deadline));
        });
    };
    spawn_attempt(atx.clone());
    let mut inflight = 1usize;
    let mut failures = 0u32;
    let mut hedged = false;
    let mut last_err: Option<ServeError> = None;
    let outcome = loop {
        if inflight == 0 {
            break Err(last_err.take().unwrap_or(ServeError::RequestTimeout));
        }
        let now = Instant::now();
        if now >= deadline {
            break Err(last_err.take().unwrap_or(ServeError::RequestTimeout));
        }
        let may_hedge = !hedged && inner.cfg.hedge_after > Duration::ZERO;
        let wait = if may_hedge {
            (start + inner.cfg.hedge_after)
                .saturating_duration_since(now)
                .min(deadline - now)
                .max(Duration::from_millis(1))
        } else {
            deadline - now
        };
        match arx.recv_timeout(wait) {
            Ok(Ok((hits, conn))) => {
                // Only the winner pools its connection; a hedge loser's
                // reply stays unread in the channel and drops with it.
                if let Some(conn) = conn {
                    slot.put_idle(conn);
                }
                break Ok(hits);
            }
            Ok(Err(e)) => {
                inflight -= 1;
                last_err = Some(e);
                if failures < inner.cfg.retries {
                    failures += 1;
                    let backoff = jittered_backoff(inner, failures);
                    if Instant::now() + backoff < deadline {
                        if cmr_obs::enabled() {
                            cmr_obs::counter_add("serve.router.retries", 1);
                        }
                        std::thread::sleep(backoff);
                        spawn_attempt(atx.clone());
                        inflight += 1;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if may_hedge && start.elapsed() >= inner.cfg.hedge_after {
                    hedged = true;
                    if cmr_obs::enabled() {
                        cmr_obs::counter_add("serve.router.hedges", 1);
                    }
                    spawn_attempt(atx.clone());
                    inflight += 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(last_err.take().unwrap_or(ServeError::RequestTimeout));
            }
        }
    };
    match &outcome {
        Ok(_) => {
            slot.breaker.on_success(probe);
            if cmr_obs::enabled() {
                cmr_obs::counter_add(&format!("serve.router.shard.{i}.ok"), 1);
            }
        }
        Err(_) => {
            slot.breaker.on_failure(probe);
            if cmr_obs::enabled() {
                cmr_obs::counter_add(&format!("serve.router.shard.{i}.err"), 1);
            }
        }
    }
    outcome
}

/// `backoff_base * 2^(attempt-1)` plus up to one `backoff_base` of jitter,
/// exponent capped so the shift cannot overflow.
fn jittered_backoff(inner: &RouterInner, attempt: u32) -> Duration {
    let base_us = inner.cfg.backoff_base.as_micros() as u64;
    let shift = (attempt.saturating_sub(1)).min(6);
    let jitter_us = splitmix64(inner.rng.fetch_add(1, Ordering::Relaxed)) % base_us.max(1);
    Duration::from_micros((base_us << shift) + jitter_us)
}

/// The splitmix64 mixer — a tiny, seedable PRNG step for jitter and for
/// the fault proxy's per-connection fault picks.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One network attempt at one shard: send the request over the most
/// recently pooled connection (or a new one), read and parse the response,
/// re-base hit indices to global rows. A stale pooled connection gets one
/// immediate retry on a new connection inside the same attempt. Hands the
/// connection back with the hits when the exchange left it reusable: a
/// complete 200 response, nothing buffered past it, no `Connection: close`.
fn one_rpc(slot: &Slot, direction: Direction, k: usize, body: &[u8], deadline: Instant) -> Attempt {
    let base = match direction {
        Direction::ImToRec => slot.spec.rec_base,
        Direction::RecToIm => slot.spec.img_base,
    };
    let target = format!("/v1/search/{}?k={k}", direction.as_str());
    let (resp, conn) = match slot.take_idle() {
        Some(conn) => match exchange(conn, &target, body, deadline) {
            Err(Exchange::Stale(_)) => {
                // Every older idle connection has sat idle longer still.
                slot.clear_idle();
                exchange(connect(&slot.spec, deadline)?, &target, body, deadline)?
            }
            done => done?,
        },
        None => exchange(connect(&slot.spec, deadline)?, &target, body, deadline)?,
    };
    if resp.status != 200 {
        return Err(ServeError::Unavailable(format!("shard answered {}", resp.status)));
    }
    let reusable = conn.buffer().is_empty()
        && !resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let text = std::str::from_utf8(&resp.body)
        .map_err(|_| ServeError::Unavailable("shard response is not UTF-8".into()))?;
    let mut hits = parse_hits(text)
        .ok_or_else(|| ServeError::Unavailable("unparsable shard response".into()))?;
    for h in &mut hits {
        h.index += base;
    }
    Ok((hits, reusable.then_some(conn)))
}

/// Opens a new connection to `spec` within the deadline.
fn connect(spec: &ShardSpec, deadline: Instant) -> Result<Conn, ServeError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ServeError::RequestTimeout);
    }
    let stream = TcpStream::connect_timeout(&spec.addr, remaining)?;
    let _ = stream.set_nodelay(true);
    if cmr_obs::enabled() {
        cmr_obs::counter_add("serve.router.connects", 1);
    }
    Ok(BufReader::new(stream))
}

/// A failed request/response exchange.
enum Exchange {
    /// The transport failed before the first response byte, without a
    /// timeout: on a reused connection, a keep-alive the shard closed.
    Stale(ServeError),
    /// Any other failure, timeouts included.
    Failed(ServeError),
}

impl From<Exchange> for ServeError {
    fn from(e: Exchange) -> ServeError {
        match e {
            Exchange::Stale(e) | Exchange::Failed(e) => e,
        }
    }
}

/// Sends one keep-alive request on `conn` and reads the full response,
/// both bounded by `deadline`.
fn exchange(
    mut conn: Conn,
    target: &str,
    body: &[u8],
    deadline: Instant,
) -> Result<(Response, Conn), Exchange> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(Exchange::Failed(ServeError::RequestTimeout));
    }
    let stream = conn.get_ref();
    let timeouts = stream
        .set_read_timeout(Some(remaining))
        .and_then(|()| stream.set_write_timeout(Some(remaining)));
    if let Err(e) = timeouts {
        return Err(Exchange::Failed(e.into()));
    }
    let sent = http::write_request(conn.get_mut(), "POST", target, body);
    let first_byte = sent.and_then(|()| conn.fill_buf().map(|buf| buf.is_empty()));
    match first_byte {
        Ok(false) => {}
        Ok(true) => {
            let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "shard closed the connection");
            return Err(Exchange::Stale(eof.into()));
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            return Err(Exchange::Failed(ServeError::RequestTimeout));
        }
        Err(e) => return Err(Exchange::Stale(e.into())),
    }
    let limits = Limits { max_head_bytes: 8 << 10, max_body_bytes: 1 << 22 };
    match http::read_response(&mut conn, &limits) {
        Ok(resp) => Ok((resp, conn)),
        Err(e) => Err(Exchange::Failed(e)),
    }
}

/// Parses a worker's `{"hits":[…]}` body back into hits. Rust's f32 parse
/// is correctly rounded, so the shortest-roundtrip similarities the worker
/// rendered come back bit-identical — re-rendering after the merge cannot
/// change a byte.
fn parse_hits(body: &str) -> Option<Vec<Hit>> {
    let inner = body.strip_prefix("{\"hits\":[")?.strip_suffix("]}")?;
    if inner.is_empty() {
        return Some(Vec::new());
    }
    let mut hits = Vec::new();
    for item in inner.split("},{") {
        let item = item.strip_prefix('{').unwrap_or(item);
        let item = item.strip_suffix('}').unwrap_or(item);
        let (idx, sim) = item.split_once(',')?;
        let index = idx.strip_prefix("\"index\":")?.parse::<usize>().ok()?;
        let similarity = sim.strip_prefix("\"similarity\":")?.parse::<f32>().ok()?;
        hits.push(Hit { index, similarity });
    }
    Some(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_hits_roundtrips_render_hits() {
        let hits = vec![
            Hit { index: 3, similarity: 0.123_456_79 },
            Hit { index: 0, similarity: -0.5 },
            Hit { index: 17, similarity: 1.0 },
        ];
        let parsed = parse_hits(&render_hits(&hits)).expect("parses");
        assert_eq!(parsed, hits, "bit-identical through render + parse");
        assert_eq!(parse_hits(&render_hits(&[])), Some(Vec::new()));
        assert_eq!(parse_hits("not json"), None);
        assert_eq!(parse_hits("{\"hits\":[{\"index\":x,\"similarity\":1}]}"), None);
    }

    #[test]
    fn full_coverage_render_is_exactly_render_hits() {
        let hits = vec![Hit { index: 1, similarity: 0.75 }];
        let routed = Routed { hits: hits.clone(), shards_ok: 4, shards_total: 4 };
        assert!(!routed.degraded());
        assert_eq!(routed.render(), render_hits(&hits));
    }

    #[test]
    fn degraded_render_appends_coverage_fields() {
        let routed = Routed {
            hits: vec![Hit { index: 1, similarity: 0.75 }],
            shards_ok: 3,
            shards_total: 4,
        };
        assert!(routed.degraded());
        assert_eq!(routed.coverage(), 0.75);
        let body = routed.render();
        assert!(body.ends_with(
            ",\"degraded\":true,\"coverage\":0.75,\"shards_ok\":3,\"shards_total\":4}"
        ), "{body}");
        assert!(body.starts_with("{\"hits\":["), "{body}");
    }

    #[test]
    fn splitmix64_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn empty_fleet_is_unavailable() {
        let router = Router::new(Vec::new(), 2, RouterConfig::default());
        let err = router.search(Direction::ImToRec, 1, &[0; 8]).unwrap_err();
        assert!(matches!(err, ServeError::Unavailable(_)), "{err}");
    }
}
