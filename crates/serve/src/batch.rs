//! The admission queue: coalesces concurrently arriving single queries
//! into micro-batches for the ranking kernel.
//!
//! Connection threads [`submit`](Batcher::submit) one job each and block on
//! a private channel. The queue is self-clocking: a worker sleeps until
//! *any* job is queued, then takes up to `CMR_SERVE_BATCH` queued jobs that
//! share `(direction, k)` — the axes the kernel batches over — and
//! dispatches them at once. It never waits on a timer for company, so a
//! lone query goes straight to the kernel and batches grow only when jobs
//! pile up behind a busy worker.
//!
//! Because the engine's batch path is bit-identical to its single-query
//! path (see [`crate::engine`]), coalescing is invisible in the response
//! bytes; it only moves the throughput/latency trade-off.
//!
//! Shutdown is draining: [`shutdown`](Batcher::shutdown) first flips the
//! flag so new submissions are refused with a typed
//! [`ServeError::ShuttingDown`], then wakes the workers, which keep
//! executing until the queue is empty — no accepted job is ever dropped
//! or answered twice.

use crate::config::ServeConfig;
use crate::engine::{render_hits, Direction, Engine};
use crate::error::ServeError;
use cmr_retrieval::{Embeddings, SearchError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// One queued query plus the channel its rendered response (or the typed
/// search error the HTTP layer maps to a status) goes back on.
struct Job {
    direction: Direction,
    k: usize,
    query: Vec<f32>,
    resp: mpsc::Sender<Result<String, SearchError>>,
}

struct Inner {
    engine: Arc<Engine>,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutting_down: AtomicBool,
    max_batch: usize,
    batches: AtomicU64, // dispatched so far; the unit tests read it
}

impl Inner {
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The admission queue plus its worker threads.
pub struct Batcher {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawns `workers` batch workers draining into `engine`. `max_wait` is
    /// ignored (the queue never lingers); it is kept only for the call in
    /// `perfbench/src/layers.rs`, until that uses [`from_config`](Self::from_config).
    pub fn new(engine: Arc<Engine>, max_batch: usize, _max_wait: Duration, workers: usize) -> Self {
        let inner = Arc::new(Inner {
            engine,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            max_batch: max_batch.max(1),
            batches: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Batcher { inner, workers: Mutex::new(handles) }
    }

    /// Spawns `cfg.workers` batch workers draining into `engine`, each
    /// dispatching at most `cfg.max_batch` jobs at once.
    pub fn from_config(engine: Arc<Engine>, cfg: &ServeConfig) -> Self {
        Self::new(engine, cfg.max_batch, Duration::ZERO, cfg.workers)
    }

    /// Enqueues one query; the returned receiver yields the rendered
    /// response body, or the typed [`SearchError`] the engine refused the
    /// batch with (bad `k`/dimension slip through admission only via
    /// internal callers; the engine no longer panics on them either way).
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] once [`shutdown`](Self::shutdown) has
    /// begun; the job is not queued.
    pub fn submit(
        &self,
        direction: Direction,
        k: usize,
        query: Vec<f32>,
    ) -> Result<mpsc::Receiver<Result<String, SearchError>>, ServeError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = self.inner.lock_queue();
            // Checked under the queue lock: shutdown() flips the flag under
            // this same lock, so a job admitted here is ordered before the
            // drain decision and cannot be stranded.
            if self.inner.shutting_down.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            q.push_back(Job { direction, k, query, resp: tx });
        }
        // Notify after releasing the queue lock: workers woken here re-check
        // the queue under the mutex themselves, so no wakeup is lost, and
        // notifying lock-free avoids waking a worker straight into a wall.
        // cmr-lint: allow(condvar-discipline) waiters re-check the queue under the mutex; lock-free notify only avoids a pointless contention bounce
        self.inner.cv.notify_one();
        Ok(rx)
    }

    /// Jobs currently queued (diagnostics).
    pub fn queued(&self) -> usize {
        self.inner.lock_queue().len()
    }

    /// Refuses new work, drains everything already admitted, and joins the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let _q = self.inner.lock_queue();
            self.inner.shutting_down.store(true, Ordering::SeqCst);
        }
        // The flag was flipped under the queue lock above, so every waiter
        // woken here re-observes it under the mutex before deciding to exit.
        // cmr-lint: allow(condvar-discipline) waiters re-check shutting_down under the mutex; the flag store is ordered by the lock held above
        self.inner.cv.notify_all();
        // Take the handles out under the lock, join outside it: joining
        // while holding `workers` would block any concurrent shutdown (and
        // Drop runs this path) on threads still draining the queue.
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock().unwrap_or_else(|p| p.into_inner());
            workers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: wait for a first job, take its queued shape-mates, execute
/// the batch. Exits when shutdown is flagged *and* the queue is empty.
// cmr-lint: allow(panic-path) the q[i] probe is guarded by `i < q.len()` in its loop condition
fn worker_loop(inner: &Inner) {
    loop {
        let mut q = inner.lock_queue();
        // Sleep until any job exists (or the drain completes).
        while q.is_empty() {
            if inner.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            q = inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        let Some(first) = q.pop_front() else {
            continue;
        };
        // Collect queue-mates sharing the batchable shape (direction, k),
        // preserving arrival order for everyone left behind.
        let mut batch = vec![first];
        let mut i = 0;
        while i < q.len() && batch.len() < inner.max_batch {
            let mate = q[i].direction == batch[0].direction && q[i].k == batch[0].k;
            if mate {
                if let Some(job) = q.remove(i) {
                    batch.push(job);
                }
            } else {
                i += 1;
            }
        }
        let more_work = !q.is_empty();
        drop(q);
        if more_work {
            // Leftover jobs (other shapes) should not wait for this batch
            // to finish executing before another worker picks them up. The
            // queue guard was dropped just above on purpose: the woken
            // worker re-checks the queue under the mutex, so the handoff is
            // race-free without re-serializing on the lock here.
            // cmr-lint: allow(condvar-discipline) woken worker re-checks the queue under the mutex; guard deliberately dropped before the handoff
            inner.cv.notify_one();
        }
        inner.batches.fetch_add(1, Ordering::Relaxed);
        execute_batch(&inner.engine, batch);
    }
}

/// Runs one micro-batch through the engine and answers every job.
fn execute_batch(engine: &Engine, batch: Vec<Job>) {
    let _span = cmr_obs::span("serve.batch_exec_s");
    if cmr_obs::enabled() {
        cmr_obs::counter_add("serve.batches", 1);
        cmr_obs::counter_add("serve.batched_requests", batch.len() as u64);
        cmr_obs::observe("serve.batch_size", batch.len() as f64);
    }
    let mut queries = Embeddings::with_capacity(engine.dim(), batch.len());
    for job in &batch {
        queries.push(&job.query);
    }
    match engine.search_batch(batch[0].direction, &queries, batch[0].k) {
        Ok(results) => {
            for (job, hits) in batch.iter().zip(results) {
                // A receiver that hung up (client gone) is not an error here.
                let _ = job.resp.send(Ok(render_hits(&hits)));
            }
        }
        Err(e) => {
            // Every job in the batch shares the refused shape; answer each
            // with the typed error instead of dropping the senders (a
            // dropped sender reads as ShuttingDown at the HTTP layer).
            for job in &batch {
                let _ = job.resp.send(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn engine(seed: u64) -> Arc<Engine> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut gallery = |n: usize| {
            Embeddings::new(4, (0..n * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .l2_normalized()
        };
        Arc::new(Engine::exact(gallery(30), gallery(20)).expect("valid galleries"))
    }

    #[test]
    fn a_lone_submit_round_trips_without_waiting_for_company() {
        let e = engine(1);
        let reference =
            render_hits(&e.search_one(Direction::ImToRec, &[1.0, 0.0, 0.0, 0.0], 3).unwrap());
        // A 5 s max_wait and an unreachable batch ceiling: a queue that
        // lingered for company would hold this job for the whole 5 s.
        let b = Batcher::new(e, 64, Duration::from_secs(5), 1);
        let rx = b.submit(Direction::ImToRec, 3, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(Ok(reference)), "waited on a timer");
        b.shutdown();
    }

    #[test]
    fn concurrent_submits_all_answer_identically_to_reference() {
        let e = engine(2);
        let b = Arc::new(Batcher::new(Arc::clone(&e), 8, Duration::ZERO, 2));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let queries: Vec<Vec<f32>> = (0..24)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let handles: Vec<_> = queries
            .iter()
            .cloned()
            .map(|qv| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    b.submit(Direction::RecToIm, 5, qv).unwrap().recv().unwrap().unwrap()
                })
            })
            .collect();
        for (h, qv) in handles.into_iter().zip(&queries) {
            let got = h.join().unwrap();
            let want = render_hits(&e.search_one(Direction::RecToIm, qv, 5).unwrap());
            assert_eq!(got, want);
        }
        b.shutdown();
    }

    #[test]
    fn mixed_shapes_are_never_batched_together() {
        // Different k values must still each get correct (k-length) answers.
        let e = engine(4);
        let b = Arc::new(Batcher::new(Arc::clone(&e), 16, Duration::ZERO, 1));
        let handles: Vec<_> = (1..=6)
            .map(|k| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let rx = b.submit(Direction::ImToRec, k, vec![0.5, 0.5, 0.0, 0.0]).unwrap();
                    (k, rx.recv().unwrap().unwrap())
                })
            })
            .collect();
        for h in handles {
            let (k, body) = h.join().unwrap();
            let want = render_hits(
                &e.search_one(Direction::ImToRec, &[0.5, 0.5, 0.0, 0.0], k).unwrap(),
            );
            assert_eq!(body, want, "k={k}");
        }
        b.shutdown();
    }

    type Rx = mpsc::Receiver<Result<String, SearchError>>;

    /// Queues `n` identical jobs, then runs `then`, under one hold of the
    /// queue lock: no worker sees any of the jobs before all are queued.
    fn enqueue_unseen(b: &Batcher, n: usize, then: impl FnOnce()) -> Vec<Rx> {
        let mut q = b.inner.lock_queue();
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (resp, rx) = mpsc::channel();
            let query = vec![1.0, 0.0, 0.0, 0.0];
            q.push_back(Job { direction: Direction::ImToRec, k: 2, query, resp });
            rxs.push(rx);
        }
        then();
        b.inner.cv.notify_one();
        rxs
    }

    fn all_answered(rxs: &[Rx]) -> bool {
        rxs.iter().all(|rx| matches!(rx.recv_timeout(Duration::from_secs(5)), Ok(Ok(_))))
    }

    #[test]
    fn jobs_queued_behind_a_busy_worker_leave_in_full_batches() {
        let b = Batcher::new(engine(7), 4, Duration::ZERO, 1);
        assert!(all_answered(&enqueue_unseen(&b, 10, || {})));
        let batches = b.inner.batches.load(Ordering::Relaxed);
        assert_eq!(batches, 3, "10 queued jobs at max_batch 4 leave in ceil(10 / 4) batches");
        b.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_refuses_new_ones() {
        let b = Batcher::new(engine(5), 64, Duration::ZERO, 1);
        // Queue the jobs and flip the flag under one hold of the queue lock,
        // as shutdown() does: the worker first sees them already draining.
        let rxs = enqueue_unseen(&b, 10, || b.inner.shutting_down.store(true, Ordering::SeqCst));
        b.shutdown();
        assert!(all_answered(&rxs), "queued job dropped during drain");
        assert!(matches!(
            b.submit(Direction::ImToRec, 2, vec![1.0, 0.0, 0.0, 0.0]),
            Err(ServeError::ShuttingDown)
        ));
    }
}
