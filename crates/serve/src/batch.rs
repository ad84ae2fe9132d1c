//! The admission queue: runs queries on the threads that submitted them,
//! and coalesces queries that pile up into micro-batches for the ranking
//! kernel.
//!
//! Execution is bounded by slots: at most `workers` batches run at once,
//! and only the submitting threads run them. [`submit`](Batcher::submit)
//! queues its job and, under the queue lock, looks at it. If the job is at
//! the front and a slot is free, the calling (connection) thread takes the
//! slot and runs the batch its job heads: the job plus up to
//! `CMR_SERVE_BATCH − 1` queued jobs that share its `(direction, k)` — the
//! axes the kernel batches over — in arrival order. If a batch-mate has
//! already answered the job, it returns; otherwise it parks. A lone query
//! is the first case with an empty queue, so it pays no thread handoff.
//! Either way the returned receiver already holds the answer. Nothing
//! waits on a timer for company: batches grow only when jobs pile up
//! behind busy slots.
//!
//! Wake-ups are targeted. A released slot unparks the owner of the front
//! job; a batch's mates are unparked once, after their answers are sent
//! (or the batch unwound). A submitter runs at most one batch, and that
//! batch holds its own job, so no client waits while its thread drains
//! other clients' queries.
//!
//! Because the engine's batch path is bit-identical to its single-query
//! path (see [`crate::engine`]), who runs a job and with whom is invisible
//! in the response bytes; it only moves the throughput/latency trade-off.
//!
//! Shutdown refuses new submissions with a typed
//! [`ServeError::ShuttingDown`]. Every admitted job still has its
//! submitter parked in `submit`, which runs it or is answered by a
//! batch-mate, so no accepted job is dropped or answered twice, and there
//! is nothing to join.

use crate::config::ServeConfig;
use crate::engine::{render_hits, Direction, Engine};
use crate::error::ServeError;
use cmr_retrieval::{Embeddings, SearchError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::Duration;

/// One submitter waiting in [`Batcher::submit`]: the thread to unpark,
/// and whether a batch-mate has answered its job. The flag lets a woken
/// mate return without taking the queue lock.
struct Waiter {
    thread: Thread,
    answered: AtomicBool,
}

/// One queued query, the channel its rendered response (or the typed
/// search error the HTTP layer maps to a status) goes back on, and its
/// submitter.
struct Job {
    direction: Direction,
    k: usize,
    query: Vec<f32>,
    resp: mpsc::Sender<Result<String, SearchError>>,
    owner: Arc<Waiter>,
}

/// What the queue mutex guards.
struct Queue {
    /// Admitted jobs no batch has taken yet, in arrival order.
    jobs: VecDeque<Job>,
    /// Execution slots not currently running a batch.
    free_slots: usize,
    shutting_down: bool,
}

impl Queue {
    /// Takes a slot and the batch the front job heads: it plus up to
    /// `max_batch − 1` queued jobs of its shape, in arrival order.
    /// Everyone left behind keeps their order.
    fn take_batch(&mut self, max_batch: usize) -> Vec<Job> {
        let Some(first) = self.jobs.pop_front() else {
            return Vec::new();
        };
        self.free_slots -= 1;
        let shape = (first.direction, first.k);
        let mut batch = vec![first];
        let mut i = 0;
        while batch.len() < max_batch {
            match self.jobs.get(i).map(|job| (job.direction, job.k) == shape) {
                None => break,
                Some(true) => batch.extend(self.jobs.remove(i)),
                Some(false) => i += 1,
            }
        }
        batch
    }

    /// Unparks the front job's owner if a slot is free for it: the one
    /// submitter that may take it.
    fn wake_front(&self) {
        if self.free_slots > 0 {
            if let Some(job) = self.jobs.front() {
                job.owner.thread.unpark();
            }
        }
    }
}

/// One running batch: a taken execution slot and the submitters riding
/// in it. Dropping it — after the batch's answers are sent, or when the
/// batch unwound — wakes the mates, then hands the slot back and wakes
/// the front job's owner to take it.
struct Running<'a> {
    batcher: &'a Batcher,
    mates: Vec<Arc<Waiter>>,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        // Mates first, while the slot is still taken: their clients' next
        // requests then queue behind it and tend to leave together. With the
        // slot freed first, tests/serve_batching.rs's coalescing test read
        // batch-size p50 = 1 in 5 of 10 runs (EXPERIMENTS.md, "Admission
        // without worker threads").
        for mate in &self.mates {
            mate.answered.store(true, Ordering::Release);
            mate.thread.unpark();
        }
        let mut q = self.batcher.lock_queue();
        q.free_slots += 1;
        q.wake_front();
    }
}

/// The admission queue: execution slots over one engine, run by the
/// submitting threads.
pub struct Batcher {
    engine: Arc<Engine>,
    queue: Mutex<Queue>,
    max_batch: usize,
    batches: AtomicU64, // dispatched so far; the unit tests read it
}

impl Batcher {
    /// A queue ranking through `engine` with `workers` execution slots (at
    /// most that many batches run at once) and at most `max_batch` jobs
    /// per batch. `max_wait` is ignored (the queue never lingers); it is
    /// kept only for the call in `perfbench/src/layers.rs`, until that
    /// uses [`from_config`](Self::from_config).
    pub fn new(engine: Arc<Engine>, max_batch: usize, _max_wait: Duration, workers: usize) -> Self {
        Batcher {
            engine,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                free_slots: workers.max(1),
                shutting_down: false,
            }),
            max_batch: max_batch.max(1),
            batches: AtomicU64::new(0),
        }
    }

    /// A queue with `cfg.workers` execution slots, each batch holding at
    /// most `cfg.max_batch` jobs.
    pub fn from_config(engine: Arc<Engine>, cfg: &ServeConfig) -> Self {
        Self::new(engine, cfg.max_batch, Duration::ZERO, cfg.workers)
    }

    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admits one query and returns once it is answered: the returned
    /// receiver already holds the rendered response body, or the typed
    /// [`SearchError`] the engine refused the batch with (bad
    /// `k`/dimension slip through admission only via internal callers; the
    /// engine no longer panics on them either way).
    ///
    /// The calling thread either runs the batch its job heads or parks
    /// until a batch-mate has answered it (see the module docs).
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
        let (resp, rx) = mpsc::channel();
        let me = Arc::new(Waiter { thread: thread::current(), answered: AtomicBool::new(false) });
        let mut q = self.lock_queue();
        if q.shutting_down {
            return Err(ServeError::ShuttingDown);
        }
        q.jobs.push_back(Job { direction, k, query, resp, owner: Arc::clone(&me) });
        loop {
            let front = q.jobs.front().is_some_and(|job| Arc::ptr_eq(&job.owner, &me));
            if front && q.free_slots > 0 {
                let batch = q.take_batch(self.max_batch);
                // Leftover jobs of other shapes need not wait for this
                // batch while another slot is free.
                q.wake_front();
                drop(q);
                let mates = batch.iter().skip(1).map(|job| Arc::clone(&job.owner)).collect();
                let _running = Running { batcher: self, mates };
                self.batches.fetch_add(1, Ordering::Relaxed);
                execute_batch(&self.engine, batch);
                return Ok(rx);
            }
            // Every wake re-checks, so a stale or spurious unpark only costs
            // a loop turn.
            drop(q);
            thread::park();
            if me.answered.load(Ordering::Acquire) {
                return Ok(rx);
            }
            q = self.lock_queue();
        }
    }

    /// Refuses new work. Every job already admitted still has its
    /// submitter in [`submit`](Self::submit), which runs it or is answered
    /// by a batch-mate, so nothing is stranded and nothing needs joining.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.lock_queue().shutting_down = true;
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
        sized_engine(seed, 30, 20)
    }

    fn sized_engine(seed: u64, recipes: usize, images: usize) -> Arc<Engine> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut gallery = |n: usize| {
            Embeddings::new(4, (0..n * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .l2_normalized()
        };
        Arc::new(Engine::exact(gallery(recipes), gallery(images)).expect("valid galleries"))
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
        assert_eq!(b.batches.load(Ordering::Relaxed), 1);
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
        // An image gallery large enough that a search outlasts a submit, so
        // the 24 submitters keep queueing behind the 2 busy slots.
        let e = sized_engine(2, 30, 5000);
        let b = Arc::new(Batcher::new(Arc::clone(&e), 8, Duration::ZERO, 2));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let queries: Vec<Vec<f32>> = (0..24)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let start = Arc::new(std::sync::Barrier::new(queries.len()));
        let handles: Vec<_> = queries
            .iter()
            .cloned()
            .map(|qv| {
                let (b, start) = (Arc::clone(&b), Arc::clone(&start));
                // Whether this thread ran the job or a batch-mate did, the
                // answer is in the receiver by the time submit returns.
                std::thread::spawn(move || {
                    start.wait();
                    let mut answers = (0..100).map(|_| {
                        b.submit(Direction::RecToIm, 5, qv.clone()).unwrap().try_recv().unwrap()
                    });
                    let first = answers.next().unwrap().unwrap();
                    assert!(answers.all(|a| a.as_ref() == Ok(&first)), "answers differ");
                    first
                })
            })
            .collect();
        for (h, qv) in handles.into_iter().zip(&queries) {
            let got = h.join().unwrap();
            let want = render_hits(&e.search_one(Direction::RecToIm, qv, 5).unwrap());
            assert_eq!(got, want);
        }
        let batches = b.batches.load(Ordering::Relaxed);
        assert!(batches < 2400, "no submit queued: {batches} batches for 2400 submits");
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

    /// Holds `b`'s one slot while `n` submitter threads queue identical
    /// jobs behind it; once all are queued, runs `then` and releases the
    /// slot. Returns each submitter's receiver.
    fn queue_behind_held_slot(b: &Batcher, n: usize, then: impl FnOnce()) -> Vec<Rx> {
        b.lock_queue().free_slots -= 1;
        let held = Running { batcher: b, mates: Vec::new() };
        thread::scope(|s| {
            let submitters: Vec<_> = (0..n)
                .map(|_| s.spawn(|| b.submit(Direction::ImToRec, 2, vec![1.0, 0.0, 0.0, 0.0])))
                .collect();
            while b.lock_queue().jobs.len() < n {
                thread::sleep(Duration::from_millis(1));
            }
            then();
            drop(held);
            submitters.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
        })
    }

    fn all_answered(rxs: &[Rx]) -> bool {
        rxs.iter().all(|rx| matches!(rx.recv_timeout(Duration::from_secs(5)), Ok(Ok(_))))
    }

    #[test]
    fn jobs_queued_behind_a_busy_slot_leave_in_full_batches() {
        let b = Batcher::new(engine(7), 4, Duration::ZERO, 1);
        assert!(all_answered(&queue_behind_held_slot(&b, 10, || {})));
        let batches = b.batches.load(Ordering::Relaxed);
        assert_eq!(batches, 3, "10 queued jobs at max_batch 4 leave in ceil(10 / 4) batches");
        b.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_then_refuses_new_ones() {
        let b = Batcher::new(engine(5), 64, Duration::ZERO, 1);
        // Shutdown is flagged while all 10 jobs wait behind the held slot.
        let rxs = queue_behind_held_slot(&b, 10, || b.shutdown());
        assert!(all_answered(&rxs), "queued job dropped during drain");
        assert!(matches!(
            b.submit(Direction::ImToRec, 2, vec![1.0, 0.0, 0.0, 0.0]),
            Err(ServeError::ShuttingDown)
        ));
    }
}
