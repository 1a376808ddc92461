//! Two-level work-sharing executor for Monte-Carlo campaigns.
//!
//! The campaign runner used to maintain two rigid pools: scenario-level
//! workers (one point per worker) and, inside each point, a per-point
//! Monte-Carlo fan-out. A single huge point (`--samples 1000`) then ran on
//! one point-level worker while every other core idled. This module
//! replaces both with one shared [`Pool`] whose unit of work is a *(job,
//! unit-range)* chunk: a job is one point's batch of seeded simulation
//! units, owners enqueue seed-range chunks, and idle workers steal chunks
//! across jobs (and therefore across campaign points).
//!
//! Determinism contract: a unit's seed is `base_seed.wrapping_add(index)`
//! (wrapping by definition, so seeds near `u64::MAX` walk around zero
//! instead of panicking), each unit is a pure function of `(context,
//! seed)`, and [`Pool::join`] returns results sorted by unit index. Chunk
//! boundaries and which thread ran which chunk affect scheduling only —
//! the returned vector is bit-identical at any worker count.
//!
//! Telemetry attribution follows the job, not the thread: [`Pool::submit`]
//! captures the caller's [`coopckpt_obs`] scope and every chunk executes
//! under it, so a stolen chunk still bills its samples to the point that
//! submitted it.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// How many chunks each worker's fair share of a job is split into.
/// More chunks = better load balance against stragglers; fewer = less
/// queue traffic. Four per worker keeps the tail short without measurable
/// overhead at the ~millisecond-per-unit granularity of a simulation.
const CHUNKS_PER_WORKER: usize = 4;

/// Count of threads currently executing a chunk, process-wide, and the
/// high-water mark since the last [`reset_unit_worker_peak`]. The peak is
/// the observable end of the `--threads` contract: a run asked to use one
/// thread must never have two chunks in flight.
static LIVE_UNIT_WORKERS: AtomicUsize = AtomicUsize::new(0);
static PEAK_UNIT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Resets the high-water mark of concurrent unit workers (test hook).
pub fn reset_unit_worker_peak() {
    PEAK_UNIT_WORKERS.store(0, Ordering::SeqCst);
}

/// Highest number of simultaneously executing unit workers observed since
/// the last [`reset_unit_worker_peak`], across every pool in the process.
pub fn unit_worker_peak() -> usize {
    PEAK_UNIT_WORKERS.load(Ordering::SeqCst)
}

/// One point's batch of units: the shared context, the seed origin, and
/// the landing zone for results.
struct JobInner<C, U> {
    ctx: Arc<C>,
    base_seed: u64,
    /// Units not yet fully executed; 0 = job complete (all results in).
    remaining: AtomicUsize,
    /// `(unit index, result)` in completion order; sorted at join.
    results: Mutex<Vec<(usize, U)>>,
    /// Telemetry scope of the submitter, entered around every chunk.
    scope: Option<coopckpt_obs::Scope>,
}

/// A contiguous slice of one job's units, the queue's unit of theft.
struct Chunk<C, U> {
    job: Arc<JobInner<C, U>>,
    range: Range<usize>,
}

/// Handle to a submitted job; redeem with [`Pool::join`].
pub struct Job<C, U> {
    inner: Arc<JobInner<C, U>>,
}

impl<C, U> Job<C, U> {
    /// True once every unit's result has landed.
    pub fn is_done(&self) -> bool {
        self.inner.remaining.load(Ordering::SeqCst) == 0
    }
}

/// Runs one unit of work from the job context and the unit's seed.
pub type UnitFn<C, U> = dyn Fn(&C, u64) -> U + Send + Sync;

/// The shared work-sharing executor. `C` is the per-job context (shared
/// read-only by every unit), `U` the per-unit result.
///
/// The pool itself owns no threads — it is a queue plus the unit-runner
/// function. [`Pool::run_workers`] lends it a fixed set of threads, and
/// each thread donates itself by calling [`Pool::join`] (which executes
/// chunks until its own job completes, stealing other jobs' chunks while
/// waiting) or [`Pool::help_until`] (which executes chunks until an
/// external condition holds). That inversion is what lets the campaign's
/// point-level workers double as sample-level workers without a second
/// pool: `--threads n` means *n threads total*, wherever the work happens
/// to be.
pub struct Pool<C, U> {
    run: Box<UnitFn<C, U>>,
    queue: Mutex<VecDeque<Chunk<C, U>>>,
    /// Signals both "queue non-empty" and "a job completed"; waiters
    /// re-check their own condition under the queue lock.
    cv: Condvar,
    workers: usize,
}

impl<C: Send + Sync, U: Send> Pool<C, U> {
    /// A pool sized for `workers` threads (affects chunk granularity
    /// only — the pool spawns nothing). `run` executes one unit from the
    /// job context and its seed.
    pub fn new(workers: usize, run: impl Fn(&C, u64) -> U + Send + Sync + 'static) -> Pool<C, U> {
        Pool {
            run: Box::new(run),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            workers: workers.max(1),
        }
    }

    /// The worker count this pool's chunk granularity is sized for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues `units` units with seeds `base_seed.wrapping_add(0..units)`
    /// as seed-range chunks and returns the job handle. The caller's
    /// telemetry scope (if any) is captured and re-entered around every
    /// chunk, wherever it runs. Submission never blocks on execution.
    pub fn submit(&self, ctx: Arc<C>, base_seed: u64, units: usize) -> Job<C, U> {
        assert!(units > 0, "a job needs at least one unit");
        let job = Arc::new(JobInner {
            ctx,
            base_seed,
            remaining: AtomicUsize::new(units),
            results: Mutex::new(Vec::with_capacity(units)),
            scope: coopckpt_obs::current_scope(),
        });
        let chunk_size = units.div_ceil(self.workers * CHUNKS_PER_WORKER).max(1);
        {
            let mut queue = self.queue.lock().unwrap();
            let mut start = 0;
            while start < units {
                let end = (start + chunk_size).min(units);
                queue.push_back(Chunk {
                    job: Arc::clone(&job),
                    range: start..end,
                });
                start = end;
            }
        }
        self.cv.notify_all();
        Job { inner: job }
    }

    /// Runs one chunk to completion and deposits its results. On the last
    /// chunk of a job, wakes every waiter (joiners of that job and helpers
    /// whose condition may now hold).
    fn exec_chunk(&self, chunk: Chunk<C, U>) {
        let live = LIVE_UNIT_WORKERS.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK_UNIT_WORKERS.fetch_max(live, Ordering::SeqCst);
        let _guard = chunk.job.scope.as_ref().map(coopckpt_obs::enter);
        let mut local = Vec::with_capacity(chunk.range.len());
        for i in chunk.range.clone() {
            let seed = chunk.job.base_seed.wrapping_add(i as u64);
            local.push((i, (self.run)(&chunk.job.ctx, seed)));
        }
        let done = local.len();
        chunk.job.results.lock().unwrap().extend(local);
        LIVE_UNIT_WORKERS.fetch_sub(1, Ordering::SeqCst);
        // Results land before the count drops, so `remaining == 0`
        // implies every result is visible to whoever observes it.
        if chunk.job.remaining.fetch_sub(done, Ordering::SeqCst) == done {
            // Lock-then-notify: a joiner checks `remaining` under the
            // queue lock before waiting, so taking the lock here makes
            // that check and this notification mutually ordered — the
            // wakeup cannot fall between its check and its wait.
            drop(self.queue.lock().unwrap());
            self.cv.notify_all();
        }
    }

    /// Blocks until `job` completes, executing queued chunks (of *any*
    /// job) the whole time, and returns the job's results sorted by unit
    /// index. Because the owner drains the queue itself, every job is
    /// completable by its submitter alone — no worker count, cache fill,
    /// or helper scheduling can deadlock a join. Joining the same job
    /// twice yields an empty second result (the first join drains it).
    pub fn join(&self, job: &Job<C, U>) -> Vec<U> {
        loop {
            if job.is_done() {
                break;
            }
            let mut queue = self.queue.lock().unwrap();
            match queue.pop_front() {
                Some(chunk) => {
                    drop(queue);
                    self.exec_chunk(chunk);
                }
                None => {
                    // Re-check under the lock (see exec_chunk) — the last
                    // chunk may have completed since the unlocked check.
                    if job.is_done() {
                        break;
                    }
                    drop(self.cv.wait(queue).unwrap());
                }
            }
        }
        let mut collected = std::mem::take(&mut *job.inner.results.lock().unwrap());
        collected.sort_unstable_by_key(|(i, _)| *i);
        collected.into_iter().map(|(_, v)| v).collect()
    }

    /// Executes queued chunks until `done()` holds, then returns. `done`
    /// is re-checked under the queue lock before every wait; any event
    /// that can turn it true must be followed by [`Pool::notify`] (job
    /// completions notify internally).
    pub fn help_until(&self, done: impl Fn() -> bool) {
        loop {
            if done() {
                return;
            }
            let mut queue = self.queue.lock().unwrap();
            match queue.pop_front() {
                Some(chunk) => {
                    drop(queue);
                    self.exec_chunk(chunk);
                }
                None => {
                    if done() {
                        return;
                    }
                    drop(self.cv.wait(queue).unwrap());
                }
            }
        }
    }

    /// Wakes every waiting thread so it re-checks its condition. Call
    /// after externally changing any state a [`Pool::help_until`]
    /// condition reads.
    pub fn notify(&self) {
        // Lock-then-notify, same reasoning as in exec_chunk.
        drop(self.queue.lock().unwrap());
        self.cv.notify_all();
    }

    /// Runs `body(w)` for every `w` in `0..workers` on `workers` threads:
    /// the caller is worker 0 and `workers - 1` scoped threads run the
    /// rest. A thread whose body has returned keeps executing queued
    /// chunks until every body has returned, so a job submitted by a slow
    /// body is shared by all workers, not left to its owner. This is the
    /// one place simulation threads are spawned: `workers` is the total
    /// thread count, wherever the work happens to be.
    pub fn run_workers(&self, workers: usize, body: impl Fn(usize) + Sync) {
        let workers = workers.max(1);
        let running = AtomicUsize::new(workers);
        /// Counts a body out on drop, so a panicking body cannot leave
        /// the other workers helping forever.
        struct Done<'a, C: Send + Sync, U: Send>(&'a Pool<C, U>, &'a AtomicUsize);
        impl<C: Send + Sync, U: Send> Drop for Done<'_, C, U> {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
                self.0.notify();
            }
        }
        let work = |w: usize| {
            {
                let _done = Done(self, &running);
                body(w);
            }
            self.help_until(|| running.load(Ordering::SeqCst) == 0);
        };
        std::thread::scope(|scope| {
            for w in 1..workers {
                let work = &work;
                scope.spawn(move || work(w));
            }
            work(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests in this module: the worker-count gauge is
    /// process-global, so a gauge assertion must not overlap any other
    /// test's chunk execution.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn square_pool(workers: usize) -> Pool<u64, u64> {
        Pool::new(workers, |offset: &u64, seed: u64| {
            seed.wrapping_mul(*offset)
        })
    }

    #[test]
    fn join_returns_results_in_unit_order() {
        let _gate = gate();
        for workers in [1, 4] {
            let pool = square_pool(workers);
            let job = pool.submit(Arc::new(3), 10, 9);
            let got = pool.join(&job);
            let want: Vec<u64> = (10..19).map(|s| s * 3).collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn seeds_wrap_around_u64_max() {
        let _gate = gate();
        let pool = square_pool(1);
        let job = pool.submit(Arc::new(1), u64::MAX - 1, 4);
        assert_eq!(pool.join(&job), vec![u64::MAX - 1, u64::MAX, 0, 1]);
    }

    #[test]
    fn jobs_interleave_and_join_independently() {
        let _gate = gate();
        let pool = Arc::new(square_pool(2));
        let a = pool.submit(Arc::new(2), 0, 100);
        let b = pool.submit(Arc::new(5), 0, 50);
        // Join in the opposite order of submission; joining `b` first
        // drains `a`'s chunks too (cross-job stealing).
        assert_eq!(pool.join(&b), (0..50u64).map(|s| s * 5).collect::<Vec<_>>());
        assert_eq!(
            pool.join(&a),
            (0..100u64).map(|s| s * 2).collect::<Vec<_>>()
        );
    }

    /// One job submitted and joined by worker 0 while the other workers
    /// only help: the library's Monte-Carlo fallback shape.
    fn run_on_workers(workers: usize) -> Vec<u64> {
        let pool = square_pool(workers);
        let out = Mutex::new(Vec::new());
        pool.run_workers(workers, |w| {
            if w == 0 {
                let job = pool.submit(Arc::new(7), 5, 33);
                *out.lock().unwrap() = pool.join(&job);
            }
        });
        out.into_inner().unwrap()
    }

    #[test]
    fn run_workers_results_do_not_depend_on_the_worker_count() {
        let _gate = gate();
        let serial = run_on_workers(1);
        assert_eq!(serial, (5..38u64).map(|s| s * 7).collect::<Vec<_>>());
        for workers in [2, 8] {
            assert_eq!(serial, run_on_workers(workers), "workers = {workers}");
        }
    }

    #[test]
    fn run_workers_runs_every_body_once_and_drains_late_jobs() {
        let _gate = gate();
        // Every body submits its own job; bodies that finish early keep
        // helping, so all jobs complete whatever the interleaving.
        let pool = square_pool(4);
        let seen = Mutex::new(Vec::new());
        pool.run_workers(4, |w| {
            let job = pool.submit(Arc::new(w as u64 + 1), 0, 10);
            let got = pool.join(&job);
            assert_eq!(
                got,
                (0..10u64).map(|s| s * (w as u64 + 1)).collect::<Vec<_>>()
            );
            seen.lock().unwrap().push(w);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn helpers_drain_the_queue_under_contention() {
        let _gate = gate();
        // Many tiny jobs joined from many threads; every join must see
        // exactly its own job's results despite arbitrary stealing.
        let pool = Arc::new(square_pool(4));
        std::thread::scope(|scope| {
            for k in 1..=8u64 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let job = pool.submit(Arc::new(k), 1, 20);
                    let got = pool.join(&job);
                    let want: Vec<u64> = (1..21).map(|s| s * k).collect();
                    assert_eq!(got, want);
                });
            }
        });
    }

    #[test]
    fn worker_peak_is_one_when_single_threaded() {
        let _gate = gate();
        reset_unit_worker_peak();
        let got = run_on_workers(1);
        assert_eq!(got.len(), 33);
        assert_eq!(unit_worker_peak(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_jobs_are_rejected() {
        square_pool(1).submit(Arc::new(1), 0, 0);
    }
}
