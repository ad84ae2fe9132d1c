//! A fault-injecting TCP proxy for chaos testing the sharded tier.
//!
//! A [`FaultProxy`] sits between the router and one shard worker and, per
//! connection, picks a [`Fault`] from a seeded weighted [`FaultPlan`]
//! (deterministic: connection `n` under seed `s` always draws the same
//! fault — chaos runs are reproducible, in the spirit of the trainer's
//! fault plan). Each connection carries exactly one request/response
//! exchange, framed by `Content-Length`, and is then closed on both sides,
//! so every router attempt draws a fresh fault even though the router pools
//! keep-alive connections (a pooled connection to the proxy is always stale
//! and the router replaces it). The faults cover the classic
//! distributed-systems failure shapes:
//!
//! * [`Fault::Pass`] — forward the exchange untouched,
//! * [`Fault::Delay`] — forward after a fixed latency injection,
//! * [`Fault::Reset`] — drop the connection before answering,
//! * [`Fault::Truncate`] — forward the request, then deliver only the first
//!   half of the upstream response bytes,
//! * [`Fault::Wedge`] — accept, read, and never respond (the query burns
//!   its whole deadline).
//!
//! The plan is swappable at runtime ([`FaultProxy::set_plan`]) so recovery
//! tests can heal a shard and watch its breaker close again, and
//! [`FaultProxy::draws`] counts what actually fired.

use crate::error::ServeError;
use crate::http::{self, Limits};
use crate::router::splitmix64;
use crate::server::{accept_until, wake};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Number of fault kinds [`FaultProxy::draws`] counts.
const KINDS: usize = 5;

/// How long one side of an exchange may stay quiet before the proxy gives
/// up on it and closes the connection.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(2);

/// One per-connection failure behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Forward the exchange untouched.
    Pass,
    /// Forward untouched after sleeping this long first.
    Delay(Duration),
    /// Drop the connection immediately (the client sees EOF/reset).
    Reset,
    /// Forward the request, read the whole upstream response, deliver only
    /// the first half of its bytes, then close.
    Truncate,
    /// Read and discard forever, never respond (a wedged worker).
    Wedge,
}

impl Fault {
    /// Index of this fault's kind in the draw counters (any delay counts
    /// as [`Fault::Delay`]).
    fn kind(self) -> usize {
        match self {
            Fault::Pass => 0,
            Fault::Delay(_) => 1,
            Fault::Reset => 2,
            Fault::Truncate => 3,
            Fault::Wedge => 4,
        }
    }
}

/// A seeded, weighted mix of faults; connection `n` draws
/// `pick(n)` deterministically from the seed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    choices: Vec<(Fault, u32)>,
    seed: u64,
}

impl FaultPlan {
    /// Every connection passes untouched.
    pub fn healthy() -> FaultPlan {
        FaultPlan::always(Fault::Pass)
    }

    /// Every connection draws the same fault.
    pub fn always(fault: Fault) -> FaultPlan {
        FaultPlan { choices: vec![(fault, 1)], seed: 0 }
    }

    /// A weighted mix; zero-weight entries never fire. An empty or
    /// all-zero mix behaves as [`FaultPlan::healthy`].
    pub fn mix(choices: Vec<(Fault, u32)>, seed: u64) -> FaultPlan {
        FaultPlan { choices, seed }
    }

    /// The fault connection `n` draws under this plan.
    pub fn pick(&self, n: u64) -> Fault {
        let total: u64 = self.choices.iter().map(|&(_, w)| u64::from(w)).sum();
        if total == 0 {
            return Fault::Pass;
        }
        let mut r = splitmix64(self.seed ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D)) % total;
        for &(fault, w) in &self.choices {
            let w = u64::from(w);
            if r < w {
                return fault;
            }
            r -= w;
        }
        Fault::Pass
    }
}

/// A running fault proxy in front of one upstream address; dropping it
/// shuts it down.
pub struct FaultProxy {
    addr: SocketAddr,
    plan: Arc<Mutex<FaultPlan>>,
    draws: Arc<[AtomicU64; KINDS]>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Binds `127.0.0.1:0` and starts proxying to `upstream` under `plan`.
    ///
    /// # Errors
    /// Propagates socket bind/configuration failures.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let plan = Arc::new(Mutex::new(plan));
        let draws = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (accept_plan, accept_draws) = (Arc::clone(&plan), Arc::clone(&draws));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_handle = std::thread::spawn(move || {
            accept_loop(&listener, upstream, &accept_plan, &accept_draws, &accept_shutdown);
        });
        Ok(FaultProxy { addr, plan, draws, shutdown, accept_handle: Some(accept_handle) })
    }

    /// The proxy's bound address (point the router here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Swaps the fault plan for all future connections (recovery tests
    /// heal a shard by swapping in [`FaultPlan::healthy`]).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().unwrap_or_else(|p| p.into_inner()) = plan;
    }

    /// How many connections so far drew a fault of `fault`'s kind (every
    /// [`Fault::Delay`] duration counts as one kind).
    pub fn draws(&self, fault: Fault) -> u64 {
        self.draws.get(fault.kind()).map_or(0, |n| n.load(Ordering::Relaxed))
    }

    /// Stops accepting and tears the proxy down. Idempotent; runs on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            wake(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &Mutex<FaultPlan>,
    draws: &[AtomicU64; KINDS],
    shutdown: &Arc<AtomicBool>,
) {
    let mut conn_seq = 0u64;
    accept_until(listener, shutdown, |client| {
        let fault = plan.lock().unwrap_or_else(|p| p.into_inner()).pick(conn_seq);
        conn_seq += 1;
        if let Some(n) = draws.get(fault.kind()) {
            n.fetch_add(1, Ordering::Relaxed);
        }
        let shutdown = Arc::clone(shutdown);
        std::thread::spawn(move || handle(client, upstream, fault, &shutdown));
    });
}

fn handle(client: TcpStream, upstream: SocketAddr, fault: Fault, shutdown: &AtomicBool) {
    match fault {
        Fault::Reset => drop(client),
        Fault::Wedge => wedge(client, shutdown),
        Fault::Pass => relay(client, upstream, false),
        Fault::Delay(d) => {
            std::thread::sleep(d);
            relay(client, upstream, false);
        }
        Fault::Truncate => relay(client, upstream, true),
    }
}

/// Reads and discards until the client gives up or the proxy shuts down.
fn wedge(mut client: TcpStream, shutdown: &AtomicBool) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    while !shutdown.load(Ordering::SeqCst) {
        match client.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// A reader that keeps a copy of every byte it reads, so a framed message
/// can be forwarded byte for byte.
struct Tee<R> {
    inner: R,
    seen: Vec<u8>,
}

impl<R: Read> Read for Tee<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.extend_from_slice(buf.get(..n).unwrap_or_default());
        Ok(n)
    }
}

/// The raw bytes of the one message `read` parses from `from`, framed by
/// `Content-Length`; `None` when the peer sent no complete message in time.
fn framed<T>(
    from: &TcpStream,
    read: impl FnOnce(&mut BufReader<Tee<&TcpStream>>) -> Result<T, ServeError>,
) -> Option<Vec<u8>> {
    let mut reader = BufReader::new(Tee { inner: from, seen: Vec::new() });
    read(&mut reader).ok()?;
    let unread = reader.buffer().len();
    let mut seen = reader.into_inner().seen;
    seen.truncate(seen.len().saturating_sub(unread));
    Some(seen)
}

/// Relays exactly one request/response exchange between `client` and a new
/// upstream connection, then closes both. With `truncate`, only the first
/// half of the response bytes reach the client.
fn relay(mut client: TcpStream, upstream: SocketAddr, truncate: bool) {
    let limits = Limits { max_head_bytes: 8 << 10, max_body_bytes: 1 << 22 };
    let _ = client.set_read_timeout(Some(EXCHANGE_TIMEOUT));
    let Some(request) = framed(&client, |r| http::read_request(r, &limits)) else {
        return; // no complete request: the client sees EOF, a typed failure
    };
    let Ok(mut up) = TcpStream::connect(upstream) else {
        return; // upstream gone: the client sees EOF, a typed failure
    };
    let _ = up.set_read_timeout(Some(EXCHANGE_TIMEOUT));
    if up.write_all(&request).is_ok() {
        if let Some(response) = framed(&up, |r| http::read_response(r, &limits)) {
            let keep = if truncate { response.len() / 2 } else { response.len() };
            let _ = client.write_all(response.get(..keep).unwrap_or_default());
        }
    }
    let _ = up.shutdown(Shutdown::Both);
    let _ = client.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_are_deterministic_under_a_seed() {
        let plan = FaultPlan::mix(
            vec![(Fault::Pass, 3), (Fault::Reset, 1), (Fault::Wedge, 1)],
            42,
        );
        let first: Vec<Fault> = (0..32).map(|n| plan.pick(n)).collect();
        let second: Vec<Fault> = (0..32).map(|n| plan.pick(n)).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|f| *f == Fault::Pass), "mix hits Pass");
        assert!(
            first.iter().any(|f| *f != Fault::Pass),
            "mix hits at least one fault in 32 draws"
        );
    }

    #[test]
    fn weights_shape_the_distribution() {
        let plan = FaultPlan::mix(vec![(Fault::Pass, 1), (Fault::Reset, 0)], 7);
        assert!((0..100).all(|n| plan.pick(n) == Fault::Pass), "zero weight never fires");
        assert_eq!(FaultPlan::mix(Vec::new(), 7).pick(3), Fault::Pass, "empty mix passes");
        assert_eq!(FaultPlan::always(Fault::Wedge).pick(9), Fault::Wedge);
    }

    /// A keep-alive HTTP upstream answering every request with `body`.
    fn http_upstream(body: &'static [u8]) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for conn in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let limits = Limits { max_head_bytes: 1024, max_body_bytes: 1024 };
                    let mut r = BufReader::new(conn);
                    while http::read_request(&mut r, &limits).is_ok() {
                        let _ =
                            http::write_response(r.get_mut(), 200, "OK", "text/plain", body, true);
                    }
                });
            }
        });
        addr
    }

    /// Sends one request through `proxy`; returns every byte the client
    /// saw before the proxy closed the connection.
    fn exchange_via(proxy: &FaultProxy) -> Vec<u8> {
        let mut c = TcpStream::connect(proxy.addr()).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        http::write_request(&mut c, "POST", "/x?k=1", b"ping").expect("write");
        let mut got = Vec::new();
        c.read_to_end(&mut got).expect("the proxy closes after one exchange");
        got
    }

    #[test]
    fn pass_relays_one_exchange_untouched_then_closes() {
        let upstream = http_upstream(b"pong");
        let mut proxy = FaultProxy::start(upstream, FaultPlan::healthy()).expect("start");
        let mut want = Vec::new();
        http::write_response(&mut want, 200, "OK", "text/plain", b"pong", true).expect("render");
        assert_eq!(exchange_via(&proxy), want);
        assert_eq!(proxy.draws(Fault::Pass), 1);
        proxy.shutdown();
    }

    #[test]
    fn truncate_delivers_the_first_half_of_the_framed_response() {
        const BODY: &[u8] = b"a body long enough to cut";
        let upstream = http_upstream(BODY);
        let mut proxy =
            FaultProxy::start(upstream, FaultPlan::always(Fault::Truncate)).expect("start");
        let mut full = Vec::new();
        http::write_response(&mut full, 200, "OK", "text/plain", BODY, true).expect("render");
        assert_eq!(exchange_via(&proxy), full[..full.len() / 2]);
        assert_eq!(proxy.draws(Fault::Truncate), 1);
        assert_eq!(proxy.draws(Fault::Pass), 0);
        proxy.shutdown();
    }

    #[test]
    fn reset_drops_the_connection_without_bytes() {
        let echo = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let upstream = echo.local_addr().expect("addr");
        let mut proxy =
            FaultProxy::start(upstream, FaultPlan::always(Fault::Reset)).expect("start");
        let mut c = TcpStream::connect(proxy.addr()).expect("connect");
        let _ = c.write_all(b"ping");
        c.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let mut buf = [0u8; 4];
        let got = c.read(&mut buf);
        assert!(matches!(got, Ok(0) | Err(_)), "no response bytes: {got:?}");
        proxy.shutdown();
    }
}
