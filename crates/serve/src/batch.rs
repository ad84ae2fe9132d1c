//! The admission queue: runs a lone query on the thread that submitted it,
//! and coalesces queries that pile up into micro-batches for the ranking
//! kernel.
//!
//! Execution is bounded by slots, one per worker: at most `workers`
//! batches run at once, whoever runs them. When [`submit`](Batcher::submit)
//! finds the queue empty and a slot free, the calling (connection) thread
//! takes the slot and ranks its own query, so a lone query pays no thread
//! handoff: the returned receiver already holds the answer. Otherwise the
//! job is queued, and a worker that holds a free slot takes up to
//! `CMR_SERVE_BATCH` queued jobs that share `(direction, k)` — the axes the
//! kernel batches over — and dispatches them at once. Nothing waits on a
//! timer for company: batches grow only when jobs pile up behind busy
//! slots.
//!
//! Because the engine's batch path is bit-identical to its single-query
//! path (see [`crate::engine`]), who runs a job and with whom is invisible
//! in the response bytes; it only moves the throughput/latency trade-off.
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

/// What the queue mutex guards: the queued jobs and the execution slots
/// not currently running a batch.
struct Queue {
    jobs: VecDeque<Job>,
    free_slots: usize,
}

struct Inner {
    engine: Arc<Engine>,
    queue: Mutex<Queue>,
    cv: Condvar,
    shutting_down: AtomicBool,
    max_batch: usize,
    batches: AtomicU64, // dispatched so far; the unit tests read it
}

impl Inner {
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// One taken execution slot. Dropping it hands the slot back and wakes a
/// worker if jobs queued up meanwhile, also when the batch it ran
/// unwound.
struct Slot<'a>(&'a Inner);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut q = self.0.lock_queue();
        q.free_slots += 1;
        if !q.jobs.is_empty() {
            self.0.cv.notify_one();
        }
    }
}

/// The admission queue plus its worker threads.
pub struct Batcher {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawns `workers` batch workers draining into `engine`, with one
    /// execution slot each. `max_wait` is ignored (the queue never
    /// lingers); it is kept only for the call in
    /// `perfbench/src/layers.rs`, until that uses [`from_config`](Self::from_config).
    pub fn new(engine: Arc<Engine>, max_batch: usize, _max_wait: Duration, workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            engine,
            queue: Mutex::new(Queue { jobs: VecDeque::new(), free_slots: workers }),
            cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            max_batch: max_batch.max(1),
            batches: AtomicU64::new(0),
        });
        let handles = (0..workers)
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

    /// Admits one query; the returned receiver yields the rendered
    /// response body, or the typed [`SearchError`] the engine refused the
    /// batch with (bad `k`/dimension slip through admission only via
    /// internal callers; the engine no longer panics on them either way).
    ///
    /// With nothing queued and a slot free, the query runs on the calling
    /// thread before this returns, and the receiver already holds the
    /// answer; otherwise it is queued for a worker.
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
        let job = Job { direction, k, query, resp: tx };
        let mut q = self.inner.lock_queue();
        // Checked under the queue lock: shutdown() flips the flag under
        // this same lock, so a job admitted here is ordered before the
        // drain decision and cannot be stranded.
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        if !q.jobs.is_empty() || q.free_slots == 0 {
            q.jobs.push_back(job);
            self.inner.cv.notify_one();
            return Ok(rx);
        }
        // Nobody is waiting ahead of this job and a slot is free: run it
        // here, outside the lock, rather than wake a worker and sleep until
        // it answers.
        q.free_slots -= 1;
        drop(q);
        let _slot = Slot(&self.inner);
        self.inner.batches.fetch_add(1, Ordering::Relaxed);
        execute_batch(&self.inner.engine, vec![job]);
        Ok(rx)
    }

    /// Jobs currently queued (diagnostics).
    pub fn queued(&self) -> usize {
        self.inner.lock_queue().jobs.len()
    }

    /// Refuses new work, drains everything already admitted, and joins the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let _q = self.inner.lock_queue();
            self.inner.shutting_down.store(true, Ordering::SeqCst);
            self.inner.cv.notify_all();
        }
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

/// One worker: wait until a job is queued and a slot is free, take the
/// slot and the first job's queued shape-mates, execute the batch, hand
/// the slot back. Exits when shutdown is flagged *and* the queue is
/// empty, waking its peers so they re-check the same.
// cmr-lint: allow(panic-path) the q.jobs[i] probe is guarded by `i < q.jobs.len()` in its loop condition
fn worker_loop(inner: &Inner) {
    loop {
        let mut q = inner.lock_queue();
        while q.jobs.is_empty() || q.free_slots == 0 {
            if q.jobs.is_empty() && inner.shutting_down.load(Ordering::SeqCst) {
                // A peer may be waiting for a slot to drain jobs that this
                // worker took; the queue is now empty for good.
                inner.cv.notify_all();
                return;
            }
            q = inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        let Some(first) = q.jobs.pop_front() else {
            continue;
        };
        q.free_slots -= 1;
        // Collect queue-mates sharing the batchable shape (direction, k),
        // preserving arrival order for everyone left behind.
        let mut batch = vec![first];
        let mut i = 0;
        while i < q.jobs.len() && batch.len() < inner.max_batch {
            let mate = q.jobs[i].direction == batch[0].direction && q.jobs[i].k == batch[0].k;
            if mate {
                if let Some(job) = q.jobs.remove(i) {
                    batch.push(job);
                }
            } else {
                i += 1;
            }
        }
        if !q.jobs.is_empty() && q.free_slots > 0 {
            // Leftover jobs (other shapes) should not wait for this batch
            // to finish executing while another slot is free.
            inner.cv.notify_one();
        }
        drop(q);
        let _slot = Slot(inner);
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
    let Some(&Job { direction, k, .. }) = batch.first() else {
        return;
    };
    let mut queries = Embeddings::with_capacity(engine.dim(), batch.len());
    for job in &batch {
        queries.push(&job.query);
    }
    match engine.search_batch(direction, &queries, k) {
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
    fn a_lone_submit_is_answered_on_the_calling_thread() {
        let e = engine(8);
        let q = vec![0.0, 1.0, 0.0, 0.0];
        let reference = render_hits(&e.search_one(Direction::RecToIm, &q, 4).unwrap());
        let b = Batcher::new(e, 8, Duration::ZERO, 1);
        let rx = b.submit(Direction::RecToIm, 4, q).unwrap();
        assert_eq!(rx.try_recv(), Ok(Ok(reference)), "answer not ready when submit returned");
        assert_eq!(b.inner.batches.load(Ordering::Relaxed), 1);
        b.shutdown();
    }

    #[test]
    fn submits_racing_shutdown_are_answered_once_or_refused() {
        let e = engine(9);
        let (mut admitted, mut refused) = (0usize, 0usize);
        for _ in 0..20 {
            let b = Arc::new(Batcher::new(Arc::clone(&e), 4, Duration::ZERO, 2));
            let start = Arc::new(std::sync::Barrier::new(7));
            let submitters: Vec<_> = (0..6)
                .map(|t| {
                    let (b, start) = (Arc::clone(&b), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        (0..40)
                            .map(|i| {
                                let k = 1 + (t + i) % 3;
                                b.submit(Direction::ImToRec, k, vec![0.5, 0.5, 0.5, 0.5])
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            start.wait();
            b.shutdown();
            for handle in submitters {
                for outcome in handle.join().unwrap() {
                    match outcome {
                        Ok(rx) => {
                            assert!(matches!(rx.recv(), Ok(Ok(_))), "admitted job unanswered");
                            assert!(rx.recv().is_err(), "admitted job answered twice");
                            admitted += 1;
                        }
                        Err(err) => {
                            assert!(matches!(err, ServeError::ShuttingDown), "{err:?}");
                            refused += 1;
                        }
                    }
                }
            }
        }
        assert!(admitted > 0 && refused > 0, "admitted {admitted}, refused {refused}");
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
            q.jobs.push_back(Job { direction: Direction::ImToRec, k: 2, query, resp });
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
