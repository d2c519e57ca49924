//! A hand-rolled worker pool over `std::thread`.
//!
//! The build environment is offline, so there is no tokio; the serving
//! pipeline instead uses a fixed pool of panic-isolated worker threads.
//! Dispatch is **work-conserving**: all workers pop from one shared,
//! bounded `Mutex<VecDeque>` queue, with one condvar for "a job is
//! waiting" and one for "a slot is free". A job therefore never waits
//! behind a busy worker while another worker idles. An earlier design gave
//! every worker its own queue and dispatched round-robin to avoid
//! contention on a shared lock; but a pop under the mutex takes
//! nanoseconds against requests of 0.1–700 ms, and the per-worker queues
//! made a request wait behind a slow one whenever the cursor pointed at a
//! busy worker.
//!
//! Workers drain in **batches**: a worker takes up to `max_batch` queued
//! jobs at once and hands the whole batch to the handler in one call.
//! Batch handlers amortise per-wakeup costs — the feedback service loads
//! each problem's index snapshot once per batch and deduplicates
//! structurally identical submissions within it.
//!
//! Workers are panic-isolated: a batch whose handler panics is counted and
//! dropped, and the worker keeps serving subsequent jobs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Error returned when submitting to a pool that has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool is shut down")
    }
}

impl std::error::Error for PoolClosed {}

/// The queue every worker pops from.
struct Queue<J> {
    jobs: VecDeque<J>,
    /// Set by shutdown: submissions fail, workers exit once `jobs` drains.
    closed: bool,
}

/// State shared by the pool handle and its workers.
struct Shared<J> {
    queue: Mutex<Queue<J>>,
    /// Signalled when a job is queued (or the pool closes).
    not_empty: Condvar,
    /// Signalled when workers take jobs off a full queue (or the pool
    /// closes).
    not_full: Condvar,
    /// Most jobs that may wait at once.
    capacity: usize,
    /// Jobs whose handler panicked.
    panics: AtomicU64,
}

impl<J> Shared<J> {
    fn lock(&self) -> MutexGuard<'_, Queue<J>> {
        // Handlers run outside the lock, so a poisoned lock can only come
        // from a panic inside this module's own short critical sections.
        self.queue.lock().expect("pool lock poisoned")
    }
}

/// A fixed-size pool of panic-isolated worker threads draining one shared
/// bounded job queue in batches.
pub struct WorkerPool<J: Send + 'static> {
    shared: Arc<Shared<J>>,
    workers: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads handling one job per call with `handler`.
    /// At most `workers × queue_capacity` jobs wait; submissions block only
    /// when that many are queued (backpressure).
    pub fn new(workers: usize, queue_capacity: usize, handler: impl Fn(J) + Send + Sync + 'static) -> Self {
        // max_batch = 1 keeps the one-job-at-a-time contract (and its
        // per-job panic accounting) for callers that don't batch.
        Self::new_batched(workers, queue_capacity, 1, move |batch| {
            for job in batch {
                handler(job);
            }
        })
    }

    /// Spawns `workers` threads handling jobs in batches of up to
    /// `max_batch` with `handler`. A worker blocks until a job is queued,
    /// then takes whatever is queued (up to the batch limit) and hands the
    /// whole batch to one handler call.
    pub fn new_batched(
        workers: usize,
        queue_capacity: usize,
        max_batch: usize,
        handler: impl Fn(Vec<J>) + Send + Sync + 'static,
    ) -> Self {
        let workers = workers.max(1);
        let max_batch = max_batch.max(1);
        let handler = Arc::new(handler);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: workers * queue_capacity.max(1),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|index| {
                let handler = Arc::clone(&handler);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clara-worker-{index}"))
                    .spawn(move || worker_loop(&shared, max_batch, handler.as_ref()))
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool { shared, workers: handles }
    }

    /// Queues `job` on a locked queue with a free slot.
    fn push(&self, mut queue: MutexGuard<'_, Queue<J>>, job: J) {
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.not_empty.notify_one();
    }

    /// Submits a job, blocking while the queue is full until a worker
    /// takes a job off it.
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] when the pool has shut down.
    pub fn submit(&self, job: J) -> Result<(), PoolClosed> {
        let mut queue = self.shared.lock();
        while !queue.closed && queue.jobs.len() >= self.shared.capacity {
            queue = self.shared.not_full.wait(queue).expect("pool lock poisoned");
        }
        if queue.closed {
            return Err(PoolClosed);
        }
        self.push(queue, job);
        Ok(())
    }

    /// Submits a job without blocking; `Ok(false)` signals that the queue
    /// is full (the caller can shed load instead of waiting — the job
    /// itself is dropped, so callers keep their own copy to retry).
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] when the pool has shut down.
    pub fn try_submit(&self, job: J) -> Result<bool, PoolClosed> {
        let queue = self.shared.lock();
        if queue.closed {
            return Err(PoolClosed);
        }
        if queue.jobs.len() >= self.shared.capacity {
            return Ok(false);
        }
        self.push(queue, job);
        Ok(true)
    }

    /// Number of jobs whose handler panicked (the jobs were dropped, the
    /// workers survived).
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Jobs currently waiting in the queue (submitted, not yet picked up).
    /// The queue-depth gauge of the `/stats` endpoint.
    pub fn queued(&self) -> u64 {
        self.shared.lock().jobs.len() as u64
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queue, drains the remaining jobs and joins all workers.
    pub fn shutdown(&mut self) {
        self.shared.lock().closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop<J>(shared: &Shared<J>, max_batch: usize, handler: &(impl Fn(Vec<J>) + ?Sized)) {
    loop {
        let batch: Vec<J> = {
            let mut queue = shared.lock();
            while queue.jobs.is_empty() {
                // Closed and drained means exit.
                if queue.closed {
                    return;
                }
                queue = shared.not_empty.wait(queue).expect("pool lock poisoned");
            }
            let take = queue.jobs.len().min(max_batch);
            let batch = queue.jobs.drain(..take).collect();
            if !queue.jobs.is_empty() {
                // More work than this batch: make sure an idle sibling
                // hears about it.
                shared.not_empty.notify_one();
            }
            batch
        };
        shared.not_full.notify_all();
        let lost = batch.len() as u64;
        if catch_unwind(AssertUnwindSafe(|| handler(batch))).is_err() {
            shared.panics.fetch_add(lost, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;

    #[test]
    fn jobs_are_processed_by_multiple_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&counter);
        let mut pool = WorkerPool::new(4, 8, move |n: usize| {
            seen.fetch_add(n, Ordering::SeqCst);
        });
        for _ in 0..100 {
            pool.submit(1).unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.panic_count(), 0);
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn panicking_jobs_do_not_kill_the_pool() {
        let (reply, responses) = channel::<usize>();
        let mut pool = WorkerPool::new(2, 4, move |n: usize| {
            assert!(n != 13, "unlucky job");
            reply.send(n).unwrap();
        });
        for n in [1, 13, 2, 13, 3] {
            pool.submit(n).unwrap();
        }
        pool.shutdown();
        let mut survived: Vec<usize> = responses.iter().collect();
        survived.sort_unstable();
        assert_eq!(survived, vec![1, 2, 3]);
        assert_eq!(pool.panic_count(), 2);
    }

    #[test]
    fn try_submit_signals_when_every_queue_is_full() {
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let mut pool = WorkerPool::new(1, 1, move |_: usize| {
            let _ = gate.lock().unwrap().recv();
        });
        // First job occupies the worker; the queue (capacity 1) then fills.
        pool.submit(0).unwrap();
        let mut accepted = 0;
        while pool.try_submit(1).unwrap() {
            accepted += 1;
            assert!(accepted < 100, "queue never filled");
        }
        for _ in 0..=accepted {
            release.send(()).unwrap();
        }
        pool.shutdown();
    }

    #[test]
    fn submitting_after_shutdown_errors() {
        let mut pool = WorkerPool::new(1, 1, |_: usize| {});
        pool.shutdown();
        assert_eq!(pool.submit(1), Err(PoolClosed));
        assert_eq!(pool.try_submit(1), Err(PoolClosed));
    }

    #[test]
    fn full_queues_route_to_idle_workers() {
        // With capacity 1 per worker, the quick jobs queued behind the
        // blocked job 0 must reach the idle worker and finish while job 0
        // is still stuck.
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(Some(gate));
        let (reply, done) = channel::<usize>();
        let mut pool = WorkerPool::new(2, 1, move |n: usize| {
            if n == 0 {
                // Only the first job blocks (takes the gate receiver).
                if let Some(gate) = gate.lock().unwrap().take() {
                    let _ = gate.recv();
                }
            }
            reply.send(n).unwrap();
        });
        pool.submit(0).unwrap();
        for n in 1..=5 {
            pool.submit(n).unwrap();
        }
        // At least four of the five quick jobs complete while job 0 blocks.
        let quick: Vec<usize> = (0..4)
            .map(|_| {
                done.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("quick jobs must not starve behind the blocked worker")
            })
            .collect();
        assert!(!quick.contains(&0), "job 0 is still blocked: {quick:?}");
        release.send(()).unwrap();
        // The blocked job and any stragglers behind it drain on release.
        let mut all = quick;
        while all.len() < 6 {
            all.push(done.recv_timeout(std::time::Duration::from_secs(10)).unwrap());
        }
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        pool.shutdown();
    }

    #[test]
    fn queued_jobs_never_wait_behind_a_busy_worker() {
        // Work conservation: with room in the queue, no quick job may wait
        // for the worker stuck on job 0 while the other worker idles.
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(Some(gate));
        let (reply, done) = channel::<usize>();
        let mut pool = WorkerPool::new(2, 8, move |n: usize| {
            if n == 0 {
                if let Some(gate) = gate.lock().unwrap().take() {
                    let _ = gate.recv();
                }
            }
            reply.send(n).unwrap();
        });
        pool.submit(0).unwrap();
        // Job 0 is picked up before the quick jobs arrive.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        for n in 1..=5 {
            pool.submit(n).unwrap();
        }
        let mut quick: Vec<usize> =
            (0..5).map_while(|_| done.recv_timeout(std::time::Duration::from_secs(5)).ok()).collect();
        // Release before asserting, so a failure reports instead of hanging
        // in the shutdown join.
        release.send(()).unwrap();
        pool.shutdown();
        quick.sort_unstable();
        assert_eq!(quick, vec![1, 2, 3, 4, 5], "every quick job must finish while job 0 is blocked");
        assert_eq!(done.try_recv(), Ok(0));
    }

    #[test]
    fn blocked_submitters_park_instead_of_spinning() {
        // A submitter against a full queue waits on a condvar (an untimed
        // wait cannot spin) and returns only once a worker frees a slot.
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let pool = Arc::new(WorkerPool::new(1, 1, move |_: usize| {
            let _ = gate.lock().unwrap().recv();
        }));
        pool.submit(0).unwrap();
        // Wait until the worker picked job 0 up, then fill the queue.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        pool.submit(1).unwrap();
        let submitter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.submit(2))
        };
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert!(!submitter.is_finished(), "the third submit must block while the pool is wedged");
        // Unwedge: the worker drains job 0 then job 1; freeing the slot
        // must wake the blocked submitter so job 2 lands and completes.
        for _ in 0..3 {
            release.send(()).unwrap();
        }
        submitter.join().unwrap().unwrap();
        drop(release);
    }

    #[test]
    fn batched_workers_drain_queued_jobs_in_one_wakeup() {
        let batches: Arc<Mutex<Vec<usize>>> = Arc::default();
        let seen = Arc::clone(&batches);
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let mut pool = WorkerPool::new_batched(1, 16, 8, move |batch: Vec<usize>| {
            seen.lock().unwrap().push(batch.len());
            let _ = gate.lock().unwrap().recv();
        });
        // First job wakes the worker (batch of 1, then blocks in the
        // handler); nine more queue up behind it and must drain as two
        // batches of 8 and 1.
        pool.submit(0).unwrap();
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        for n in 1..10 {
            pool.submit(n).unwrap();
        }
        for _ in 0..3 {
            release.send(()).unwrap();
        }
        pool.shutdown();
        let sizes = batches.lock().unwrap().clone();
        assert_eq!(sizes.iter().sum::<usize>(), 10, "every job handled: {sizes:?}");
        assert!(sizes.len() < 10, "queued jobs must coalesce into batches: {sizes:?}");
        assert!(sizes.iter().all(|s| *s <= 8), "batch limit respected: {sizes:?}");
    }

    #[test]
    fn queue_depth_gauge_tracks_waiting_jobs() {
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let mut pool = WorkerPool::new(1, 8, move |_: usize| {
            let _ = gate.lock().unwrap().recv();
        });
        pool.submit(0).unwrap();
        // Wait until the worker picked the first job up.
        while pool.queued() > 0 {
            std::thread::yield_now();
        }
        for n in 1..=3 {
            pool.submit(n).unwrap();
        }
        assert_eq!(pool.queued(), 3, "three jobs waiting behind the blocked worker");
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        pool.shutdown();
        assert_eq!(pool.queued(), 0);
    }
}
