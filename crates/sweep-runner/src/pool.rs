//! Worker pools: the scoped per-sweep pool and the long-lived shared
//! pool used by the serve daemon.
//!
//! * [`run_indexed_cancellable`] — a
//!   `std::thread::scope` pool over an indexed job list. Workers drain
//!   a shared atomic counter, so scheduling is dynamic (long cells
//!   don't block short ones behind a static partition), but results
//!   are returned **in job-index order** regardless of which worker
//!   finished when. Combined with per-cell seeding this makes a
//!   parallel sweep bit-identical to a serial one.
//! * [`SharedPool`] — a persistent pool that multiplexes many
//!   *requests* onto one set of workers. Each request registers its own
//!   queue of jobs; workers pick the next job **round-robin across
//!   queues**, so a small request is never starved behind a large one
//!   (fairness across clients). The number of simultaneously active
//!   queues is bounded (admission backpressure):
//!   [`SharedPool::try_submit`] refuses new queues beyond the limit
//!   instead of queueing unboundedly.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of workers to use when the caller does not say: the host's
/// available parallelism, or 1 if that cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(0..count)` on `jobs` workers, stopping dispatch of new
/// jobs once `cancel` reads true (jobs already in flight run to
/// completion). Returns the completed `(index, result)` pairs in index
/// order — a prefix-free subset when cancelled, everything otherwise.
///
/// `jobs <= 1` runs inline on the calling thread with no pool at all,
/// so the serial path has zero threading overhead. A panic in any job
/// propagates to the caller once the scope joins.
pub fn run_indexed_cancellable<T, F>(
    count: usize,
    jobs: usize,
    cancel: Option<&AtomicBool>,
    f: F,
) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::SeqCst));
    let jobs = jobs.max(1).min(count.max(1));
    if jobs <= 1 {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            if cancelled() {
                break;
            }
            out.push((i, f(i)));
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if cancelled() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let r = f(i);
                done.lock().expect("result sink poisoned").push((i, r));
            });
        }
    });

    let mut results = done.into_inner().expect("result sink poisoned");
    results.sort_unstable_by_key(|&(i, _)| i);
    results
}

/// A job owned by a [`SharedPool`] queue.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Sched {
    /// Active request-scoped queues of pending jobs; a queue leaves the
    /// list when its last pending job is taken (jobs already dispatched
    /// keep running).
    queues: Vec<VecDeque<Job>>,
    /// Round-robin cursor over `queues`.
    rr: usize,
    /// Jobs currently executing on workers.
    running: usize,
    /// Stop dispatching and let workers exit.
    shutdown: bool,
}

struct PoolShared {
    sched: Mutex<Sched>,
    /// Workers wait here for dispatchable jobs.
    work: Condvar,
    /// Waiters (drain, shutdown) wait here for quiescence.
    idle: Condvar,
}

impl PoolShared {
    /// Takes the next dispatchable job round-robin across queues.
    fn take(sched: &mut Sched) -> Option<Job> {
        if sched.queues.is_empty() {
            return None;
        }
        if sched.rr >= sched.queues.len() {
            sched.rr = 0;
        }
        let q = &mut sched.queues[sched.rr];
        // Queues are never empty: `try_submit` admits only non-empty
        // job lists and a queue leaves the list with its last job.
        let job = q.pop_front();
        if q.is_empty() {
            sched.queues.remove(sched.rr);
        } else {
            sched.rr += 1;
        }
        job
    }
}

/// A long-lived worker pool multiplexing request-scoped job queues.
///
/// See the module docs for the scheduling contract (round-robin
/// fairness, bounded admission).
pub struct SharedPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    max_queues: usize,
}

/// [`SharedPool::try_submit`] refusal: the pool already has its maximum
/// number of active queues — try again once one drains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolBusy;

impl std::fmt::Display for PoolBusy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool is at its active-queue limit")
    }
}

impl std::error::Error for PoolBusy {}

impl SharedPool {
    /// Spawns `jobs` workers (at least 1) accepting up to `max_queues`
    /// simultaneously active request queues.
    pub fn new(jobs: usize, max_queues: usize) -> SharedPool {
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(Sched {
                queues: Vec::new(),
                rr: 0,
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..jobs.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("slip-pool-{i}"))
                    .spawn(move || Self::worker(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        SharedPool {
            shared,
            workers,
            max_queues: max_queues.max(1),
        }
    }

    fn worker(shared: &PoolShared) {
        loop {
            let job = {
                let mut sched = shared.sched.lock().expect("pool scheduler poisoned");
                loop {
                    if let Some(job) = PoolShared::take(&mut sched) {
                        sched.running += 1;
                        break Some(job);
                    }
                    if sched.shutdown {
                        break None;
                    }
                    sched = shared.work.wait(sched).expect("pool scheduler poisoned");
                }
            };
            let Some(job) = job else { return };
            // A panicking job must not take the worker (and with it the
            // whole server) down; the submitter observes the missing
            // result through its own completion tracking.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let mut sched = shared.sched.lock().expect("pool scheduler poisoned");
            sched.running -= 1;
            if sched.running == 0 && sched.queues.is_empty() {
                shared.idle.notify_all();
            }
        }
    }

    /// Registers a new request queue holding `jobs`, or refuses with
    /// [`PoolBusy`] when the active-queue limit is reached
    /// (admission backpressure). An empty job list is accepted and
    /// completes immediately.
    pub fn try_submit(&self, jobs: Vec<Job>) -> Result<(), PoolBusy> {
        if jobs.is_empty() {
            return Ok(());
        }
        let mut sched = self.shared.sched.lock().expect("pool scheduler poisoned");
        if sched.queues.len() >= self.max_queues {
            return Err(PoolBusy);
        }
        sched.queues.push(jobs.into());
        drop(sched);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Blocks until no queue holds pending jobs and no job is running.
    pub fn drain(&self) {
        let mut sched = self.shared.sched.lock().expect("pool scheduler poisoned");
        while sched.running > 0 || !sched.queues.is_empty() {
            sched = self
                .shared
                .idle
                .wait(sched)
                .expect("pool scheduler poisoned");
        }
    }

    /// Graceful shutdown: stops dispatching (pending jobs are
    /// discarded), lets in-flight jobs finish, and joins the workers.
    pub fn shutdown(mut self) {
        {
            let mut sched = self.shared.sched.lock().expect("pool scheduler poisoned");
            sched.shutdown = true;
            sched.queues.clear();
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Submits closures as one request queue.
    fn submit<F: FnOnce() + Send + 'static>(
        pool: &SharedPool,
        jobs: impl IntoIterator<Item = F>,
    ) -> Result<(), PoolBusy> {
        pool.try_submit(jobs.into_iter().map(|f| Box::new(f) as Job).collect())
    }

    /// Every result of an uncancelled run, in index order.
    fn run_indexed<T: Send>(count: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let ran = run_indexed_cancellable(count, jobs, None, f);
        assert_eq!(ran.len(), count);
        ran.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn results_come_back_in_index_order() {
        // Make later jobs finish first by sleeping inversely to index.
        let out = run_indexed(16, 4, |i| {
            std::thread::sleep(Duration::from_millis((16 - i as u64) % 4));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_runs_inline() {
        let tid = std::thread::current().id();
        let out = run_indexed(4, 1, |i| {
            assert_eq!(std::thread::current().id(), tid);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let n = 100;
        run_indexed(n, 8, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn zero_jobs_and_empty_lists_are_fine() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn cancellation_stops_dispatch_but_keeps_completed_prefix() {
        let cancel = AtomicBool::new(false);
        // Serial path: cancel after job 2; jobs 3.. never run.
        let ran = run_indexed_cancellable(10, 1, Some(&cancel), |i| {
            if i == 2 {
                cancel.store(true, Ordering::SeqCst);
            }
            i * 7
        });
        assert_eq!(ran, vec![(0, 0), (1, 7), (2, 14)]);

        // Parallel path: at least the in-flight jobs complete, nothing
        // is dispatched after the flag trips, and results stay sorted.
        let cancel = AtomicBool::new(false);
        let ran = run_indexed_cancellable(64, 4, Some(&cancel), |i| {
            if i == 8 {
                cancel.store(true, Ordering::SeqCst);
            }
            i
        });
        assert!(ran.len() < 64, "cancellation must drop some jobs");
        assert!(ran.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(ran.iter().any(|&(i, _)| i == 8));
    }

    #[test]
    fn shared_pool_runs_all_jobs_of_all_queues() {
        let pool = SharedPool::new(4, 8);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let handles: Vec<_> = (0..10)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect();
            submit(&pool, handles).unwrap();
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 30);
        pool.shutdown();
    }

    #[test]
    fn single_worker_interleaves_queues_round_robin() {
        let pool = SharedPool::new(1, 8);
        let order = Arc::new(Mutex::new(Vec::new()));
        // Stall the worker so both queues are registered before any job
        // is dispatched.
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            submit(
                &pool,
                [move || {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }],
            )
            .unwrap();
        }
        for tag in ["a", "b"] {
            let jobs: Vec<_> = (0..3)
                .map(|i| {
                    let order = Arc::clone(&order);
                    move || order.lock().unwrap().push(format!("{tag}{i}"))
                })
                .collect();
            submit(&pool, jobs).unwrap();
        }
        gate.store(true, Ordering::SeqCst);
        pool.drain();
        let order = order.lock().unwrap().clone();
        // One worker, two queues: dispatch alternates a0 b0 a1 b1 a2 b2.
        assert_eq!(order, ["a0", "b0", "a1", "b1", "a2", "b2"]);
        pool.shutdown();
    }

    #[test]
    fn admission_backpressure_refuses_excess_queues() {
        let pool = SharedPool::new(1, 1);
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        // Queue 1: a job blocking the only worker, plus a pending one so
        // the queue stays active.
        pool.try_submit(vec![
            Box::new({
                let g = Arc::clone(&g);
                move || {
                    while !g.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }),
            Box::new(move || {
                let _ = &g;
            }),
        ])
        .unwrap();
        // Queue 2 must be refused while queue 1 still has pending jobs.
        assert_eq!(submit(&pool, [|| {}]).unwrap_err(), PoolBusy);
        gate.store(true, Ordering::SeqCst);
        pool.drain();
        // Once drained, admission reopens.
        submit(&pool, [|| {}]).unwrap();
        pool.drain();
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = SharedPool::new(2, 4);
        submit(&pool, [|| panic!("job blew up")]).unwrap();
        pool.drain();
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        submit(
            &pool,
            [move || {
                r.fetch_add(1, Ordering::Relaxed);
            }],
        )
        .unwrap();
        pool.drain();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        pool.shutdown();
    }

    #[test]
    fn shutdown_discards_pending_and_joins() {
        let pool = SharedPool::new(1, 4);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            submit(
                &pool,
                [move || {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }],
            )
            .unwrap();
        }
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        submit(
            &pool,
            [move || {
                r.fetch_add(1, Ordering::Relaxed);
            }],
        )
        .unwrap();
        gate.store(true, Ordering::SeqCst);
        pool.shutdown();
        // The pending second queue may or may not have been dispatched
        // before shutdown flipped; what matters is that shutdown
        // returned (workers joined) without running anything after it.
        assert!(ran.load(Ordering::Relaxed) <= 1);
    }
}
