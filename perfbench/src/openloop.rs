//! Open-loop load generation with due-time accounting.
//!
//! Request `i` is due at `start + i × interval`, whether or not earlier
//! requests have been answered. Each connection thread sends its share of
//! the schedule (`i ≡ thread mod connections`) and blocks on the reply, so
//! a stalled server delays the sends behind it. Latency is therefore
//! measured from the *due* time, not the send time: the wait a stall
//! imposes on later requests counts against the server. How late the
//! generator sent (`sent − due`) is reported as lag; a run whose lag is
//! still high at the end of the schedule fell behind for good and is
//! invalid, since its achieved rate was not the offered one.

use std::time::{Duration, Instant};

/// A fixed-rate schedule of `count` requests, `interval` apart.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Gap between consecutive due times.
    pub interval: Duration,
    /// Requests in the schedule.
    pub count: usize,
}

impl Schedule {
    /// `count` requests at `rate` per second.
    pub fn at_rate(rate: f64, count: usize) -> Schedule {
        Schedule {
            interval: Duration::from_secs_f64(1.0 / rate),
            count,
        }
    }

    /// Due time of request `i`, as an offset from the schedule start.
    pub fn due(&self, i: usize) -> Duration {
        self.interval * i as u32
    }
}

/// One scheduled request's timeline, offsets from the schedule start.
#[derive(Debug)]
pub struct Timed<T> {
    /// Position in the schedule.
    pub index: usize,
    /// When the request was due.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its reply had been read.
    pub done: Duration,
    /// What the call returned.
    pub out: T,
}

impl<T> Timed<T> {
    /// Latency counted from the due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent this request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs `schedule` over `conns` (one thread each), calling
/// `call(conn, i)` for request `i`, and returns every request's timeline
/// in schedule order.
pub fn run<C, T, F>(conns: Vec<C>, schedule: Schedule, call: F) -> Vec<Timed<T>>
where
    C: Send,
    T: Send,
    F: Fn(&mut C, usize) -> T + Sync,
{
    let n = conns.len().max(1);
    // A short head start so every thread is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let call = &call;
    let mut all: Vec<Timed<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(t, mut conn)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(schedule.count / n + 1);
                    for i in (t..schedule.count).step_by(n) {
                        let due = schedule.due(i);
                        let wake = start + due;
                        let now = Instant::now();
                        if wake > now {
                            std::thread::sleep(wake - now);
                        }
                        let sent = start.elapsed_or_zero();
                        let r = call(&mut conn, i);
                        let done = start.elapsed_or_zero();
                        out.push(Timed {
                            index: i,
                            due,
                            sent,
                            done,
                            out: r,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    all.sort_by_key(|t| t.index);
    all
}

/// Elapsed time since an instant that may still lie in the future.
trait ElapsedOrZero {
    fn elapsed_or_zero(&self) -> Duration;
}

impl ElapsedOrZero for Instant {
    fn elapsed_or_zero(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }
}

/// How far the generator lagged its schedule.
#[derive(Debug, Clone, Copy)]
pub struct Lag {
    /// Largest lag of any request.
    pub max: Duration,
    /// Largest lag over the final tenth of the schedule.
    pub tail: Duration,
}

/// Lag summary of a finished schedule.
pub fn lag<T>(timeline: &[Timed<T>]) -> Lag {
    let max = timeline.iter().map(Timed::lag).max().unwrap_or_default();
    let from = timeline.len() - timeline.len() / 10;
    let tail = timeline[from..]
        .iter()
        .map(Timed::lag)
        .max()
        .unwrap_or_default();
    Lag { max, tail }
}

/// `true` when the generator ended on schedule: over the final tenth of
/// the run no request went out more than `limit` late. A transient stall
/// is absorbed (its cost shows in latency from due time); a backlog that
/// never drained is not.
pub fn kept_schedule(lag: &Lag, limit: Duration) -> bool {
    lag.tail <= limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_bench::serving::Client;
    use cmr_serve::http::{read_request, write_response, Limits};
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A one-connection HTTP stub that answers every request after
    /// `delay(request number)`.
    fn stub(delay: impl Fn(usize) -> Duration + Send + 'static) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let limits = Limits {
                max_head_bytes: 8 << 10,
                max_body_bytes: 1 << 20,
            };
            let mut n = 0;
            while read_request(&mut reader, &limits).is_ok() {
                std::thread::sleep(delay(n));
                n += 1;
                if write_response(reader.get_mut(), 200, "OK", "text/plain", b"ok\n", true).is_err()
                {
                    return;
                }
            }
        });
        addr
    }

    fn drive(addr: &str, schedule: Schedule) -> Vec<Timed<u16>> {
        let client = Client::connect(addr, Duration::from_secs(5)).unwrap();
        run(vec![client], schedule, |c: &mut Client, _| {
            c.healthz().unwrap().status
        })
    }

    #[test]
    fn stall_is_charged_to_the_requests_due_behind_it() {
        // Request 4 stalls 100 ms; requests 5.. were due every 10 ms
        // meanwhile and must show that wait in their latency.
        let addr = stub(|n| Duration::from_millis(if n == 4 { 100 } else { 0 }));
        let sched = Schedule {
            interval: Duration::from_millis(10),
            count: 30,
        };
        let t = drive(&addr, sched);
        assert_eq!(t.len(), 30);
        assert!(t.iter().all(|r| r.out == 200));
        assert!(t[4].latency() >= Duration::from_millis(100));
        // Request 5 was due at 50 ms but could only go out at ~140 ms.
        assert!(
            t[5].lag() >= Duration::from_millis(80),
            "lag {:?}",
            t[5].lag()
        );
        assert!(
            t[5].latency() >= Duration::from_millis(80),
            "latency {:?}",
            t[5].latency()
        );
        assert!(
            t[5].latency() > t[5].done - t[5].sent,
            "latency counts from due, not send"
        );
        let lag = lag(&t);
        assert!(lag.max >= Duration::from_millis(80));
        // The backlog drained long before the final tenth of the run.
        assert!(
            kept_schedule(&lag, Duration::from_millis(20)),
            "tail lag {:?}",
            lag.tail
        );
    }

    #[test]
    fn persistent_overload_is_marked_behind_schedule() {
        // Every reply takes 15 ms against a 10 ms schedule: the backlog
        // grows without bound, so the run is invalid.
        let addr = stub(|_| Duration::from_millis(15));
        let t = drive(
            &addr,
            Schedule {
                interval: Duration::from_millis(10),
                count: 30,
            },
        );
        let lag = lag(&t);
        assert!(
            lag.tail >= Duration::from_millis(100),
            "tail lag {:?}",
            lag.tail
        );
        assert!(!kept_schedule(&lag, Duration::from_millis(20)));
    }

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::at_rate(400.0, 10);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(4), Duration::from_millis(10));
        let addr = stub(|_| Duration::ZERO);
        let t = drive(
            &addr,
            Schedule {
                interval: Duration::from_millis(2),
                count: 20,
            },
        );
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.sent >= r.due, "never sent early");
        }
    }
}
