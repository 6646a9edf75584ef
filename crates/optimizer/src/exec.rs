//! The global batch executor: one job-level work pool shared by the
//! batch server, the annealer, and the session layer.
//!
//! PR 8's measurements showed that for paper-sized trees (FP1–FP4)
//! intra-tree parallelism never pays — `auto_serial_for` keeps those
//! runs serial — so the axis that actually scales with cores is
//! *across* whole optimizations. This module provides that axis: whole
//! optimize jobs are scheduled onto one persistent worker pool, and a
//! tree only splits internally when `split_threshold` says it pays
//! *and* the pool has spare capacity to lease.
//!
//! Three kinds of work share the pool:
//!
//! * **`'static` jobs** ([`Executor::submit`]) — server requests and
//!   other self-contained closures, popped from one FIFO queue (the
//!   [`JobClass`] only tags their trace events);
//! * **borrowed batches** ([`Executor::run_batch`]) — anneal chains
//!   borrowing the caller's tree/library run on *scoped* threads leased
//!   from the pool's capacity, every participant claiming the next
//!   unstarted chain from one counter (the caller always helps, so a
//!   saturated pool degrades to caller-serial instead of deadlocking);
//!   the tree scheduler runs its tasks on the same claim model;
//! * **accounted scopes** ([`Executor::run_scoped`]) — session
//!   re-optimizations run on the calling thread but hold an execution
//!   slot, so they show up in the same queue-depth/active gauges and
//!   `job_start`/`job_done` trace stream as everything else.
//!
//! Determinism is inherited, not negotiated: every optimization is
//! byte-identical at any thread count (the serial-replay discipline of
//! the tree scheduler), so the executor may grant *any* number of
//! threads to any job — under load a job simply runs more serially,
//! never differently.
//!
//! Deadlines ride the existing [`CancelToken`] path: a job submitted
//! with a deadline is registered with the executor's watchdog, which
//! cancels the token when the deadline passes; the resource governor
//! inside the run polls the token and trips. Nothing in the engine
//! needed to change.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fp_trace::{JobClass, TraceEvent, Tracer};

use crate::governor::CancelToken;
use crate::OptimizeConfig;

/// Watchdog sweep cadence: granularity of deadline-cancel enforcement.
const WATCHDOG_TICK: Duration = Duration::from_millis(2);

/// Idle workers re-check the queue at least this often even without a
/// wakeup, making the pool robust to (theoretical) lost notifications.
const IDLE_RECHECK: Duration = Duration::from_millis(50);

/// Locks a mutex, recovering the guard from a poisoned lock: pool state
/// stays usable even if a job panicked mid-update (job bodies are
/// additionally unwind-caught, so this is belt and braces).
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

type Thunk = Box<dyn FnOnce() + Send + 'static>;

/// A `run_batch` slot holding the not-yet-claimed job closure; taken
/// exactly once by whichever participant claims it.
type PendingJob<'env, T> = Mutex<Option<Box<dyn FnOnce() -> T + Send + 'env>>>;

struct Job {
    id: u32,
    class: JobClass,
    enqueued: Instant,
    run: Thunk,
}

/// One watchdog registration: cancel `token` once `deadline` passes,
/// unless the job deregisters first.
struct Watch {
    job: u32,
    deadline: Instant,
    token: CancelToken,
}

struct Shared {
    /// Submitted jobs not yet started, oldest first.
    queue: Mutex<VecDeque<Job>>,
    /// Signalled on submit and shutdown; workers wait here when idle.
    work: Condvar,
    shutdown: AtomicBool,
    /// Jobs currently executing (holding a worker).
    active: AtomicUsize,
    /// Extra threads granted to in-job scoped pools (tree splits,
    /// anneal batches) beyond the one the job itself holds.
    leased: AtomicUsize,
    /// Worker count — the pool's total thread budget.
    capacity: usize,
    completed: AtomicU64,
    shed: AtomicU64,
    next_job: AtomicU32,
    /// Deadline registry swept by the watchdog thread.
    watches: Mutex<Vec<Watch>>,
    watch_signal: Condvar,
    tracer: Mutex<Option<Tracer>>,
}

impl Shared {
    fn emit(&self, worker: u32, event: TraceEvent) {
        if let Some(tracer) = lock_or_recover(&self.tracer).as_ref() {
            tracer.emit(worker, event);
        }
    }

    fn start_job(&self, worker: u32, id: u32, class: JobClass, enqueued: Instant) -> Instant {
        let started = Instant::now();
        self.active.fetch_add(1, Ordering::AcqRel);
        self.emit(
            worker,
            TraceEvent::JobStart {
                job: id,
                class,
                queue_ns: u64::try_from(started.duration_since(enqueued).as_nanos())
                    .unwrap_or(u64::MAX),
            },
        );
        started
    }

    fn finish_job(&self, worker: u32, id: u32, class: JobClass, started: Instant) {
        self.active.fetch_sub(1, Ordering::AcqRel);
        self.completed.fetch_add(1, Ordering::AcqRel);
        self.emit(
            worker,
            TraceEvent::JobDone {
                job: id,
                class,
                dur_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            },
        );
    }

    fn unwatch(&self, job: u32) {
        lock_or_recover(&self.watches).retain(|w| w.job != job);
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    loop {
        let job = {
            let mut queue = lock_or_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(queue, IDLE_RECHECK)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                queue = guard;
            }
        };
        let Some(job) = job else { return };
        let started = shared.start_job(worker, job.id, job.class, job.enqueued);
        // Job bodies are caller code; a panic must not take the worker
        // (or the pool's accounting) down with it. The panic payload is
        // re-thrown at `join`.
        let outcome = catch_unwind(AssertUnwindSafe(job.run));
        shared.finish_job(worker, job.id, job.class, started);
        shared.unwatch(job.id);
        drop(outcome);
    }
}

fn watchdog_loop(shared: &Shared) {
    let mut watches = lock_or_recover(&shared.watches);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain: fire everything still registered so no waiter can
            // hang across shutdown.
            for watch in watches.drain(..) {
                watch.token.cancel();
            }
            return;
        }
        if watches.is_empty() {
            let (guard, _) = shared
                .watch_signal
                .wait_timeout(watches, IDLE_RECHECK)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            watches = guard;
            continue;
        }
        let now = Instant::now();
        watches.retain(|watch| {
            if watch.deadline <= now {
                watch.token.cancel();
                false
            } else {
                true
            }
        });
        let (guard, _) = shared
            .watch_signal
            .wait_timeout(watches, WATCHDOG_TICK)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        watches = guard;
    }
}

enum Slot<T> {
    Pending,
    Done(T),
    Panicked(Box<dyn std::any::Any + Send>),
}

struct HandleState<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

/// The submitting side's view of one queued job: [`JobHandle::join`]
/// blocks until the job finishes and returns its result. Dropping the
/// handle detaches the job (it still runs); it never cancels.
pub struct JobHandle<T> {
    state: Arc<HandleState<T>>,
    id: u32,
}

impl<T> JobHandle<T> {
    /// The executor-assigned job id (matches the `job_start`/`job_done`
    /// trace events).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Blocks until the job completes and returns its result.
    ///
    /// # Panics
    ///
    /// Re-throws the job's panic if the job panicked.
    #[must_use]
    pub fn join(self) -> T {
        // Taking the value leaves a transient `Pending` behind the held
        // lock; nothing else can observe it — `join` consumes the
        // handle and handles are not cloneable.
        let mut slot = lock_or_recover(&self.state.slot);
        loop {
            match std::mem::replace(&mut *slot, Slot::Pending) {
                Slot::Done(value) => return value,
                Slot::Panicked(payload) => resume_unwind(payload),
                Slot::Pending => {
                    slot = self
                        .state
                        .ready
                        .wait(slot)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }
}

/// A grant of extra pool threads to an in-job scoped pool (a tree split
/// or an anneal batch). Returned by [`Executor::lease`]; the grant is
/// returned to the pool on drop.
pub struct Lease {
    shared: Arc<Shared>,
    granted: usize,
}

impl Lease {
    /// Extra threads granted beyond the caller's own (may be 0).
    #[must_use]
    pub fn granted(&self) -> usize {
        self.granted
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.granted > 0 {
            self.shared.leased.fetch_sub(self.granted, Ordering::AcqRel);
        }
    }
}

/// The global job pool. See the module docs for the execution model.
pub struct Executor {
    shared: Arc<Shared>,
    /// Worker threads that actually came up (≤ capacity on thread
    /// exhaustion); `0` routes submissions to the caller's thread.
    live_workers: usize,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Executor {
    /// Spawns a pool with `threads` workers (`0` resolves like
    /// [`OptimizeConfig::resolved_threads`]: the `FP_THREADS`
    /// environment variable, then all available cores).
    #[must_use]
    pub fn new(threads: usize) -> Arc<Executor> {
        let capacity = if threads == 0 {
            OptimizeConfig::default().resolved_threads()
        } else {
            threads
        }
        .max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            leased: AtomicUsize::new(0),
            capacity,
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            next_job: AtomicU32::new(1),
            watches: Mutex::new(Vec::new()),
            watch_signal: Condvar::new(),
            tracer: Mutex::new(None),
        });
        let mut workers = Vec::with_capacity(capacity + 1);
        let mut live_workers = 0;
        for w in 0..capacity {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("fp-exec-{w}"))
                .spawn(move || worker_loop(&shared, u32::try_from(w + 1).unwrap_or(u32::MAX)));
            match spawned {
                Ok(handle) => {
                    workers.push(handle);
                    live_workers += 1;
                }
                // Thread exhaustion: run with however many workers came
                // up (zero makes `submit_with` run jobs caller-inline).
                Err(_) => break,
            }
        }
        {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("fp-exec-watchdog".to_owned())
                .spawn(move || watchdog_loop(&shared));
            // Without a watchdog, deadline cancellation degrades to the
            // governor's own wall-clock checks inside each job.
            if let Ok(handle) = spawned {
                workers.push(handle);
            }
        }
        Arc::new(Executor {
            shared,
            live_workers,
            workers: Mutex::new(workers),
        })
    }

    /// The pool's worker count (its total thread budget).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.shared.capacity
    }

    /// Attaches a tracer: `job_start`/`job_done`/`shed` events are
    /// emitted for every job from now on.
    pub fn set_tracer(&self, tracer: &Tracer) {
        *lock_or_recover(&self.shared.tracer) = Some(tracer.clone());
    }

    /// Jobs waiting in the queue (not yet started).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock_or_recover(&self.shared.queue).len()
    }

    /// Jobs currently executing.
    #[must_use]
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Jobs completed over the pool's lifetime.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Jobs shed (refused before execution) over the pool's lifetime.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shared.shed.load(Ordering::Acquire)
    }

    /// Records a shed decision (admission refusal, queue-deadline trip)
    /// in the pool's counters and trace stream. The executor never
    /// sheds on its own — admission policy belongs to the caller (the
    /// server's status-7 contract).
    pub fn note_shed(&self, reason: &'static str) {
        self.shared.shed.fetch_add(1, Ordering::AcqRel);
        self.shared.emit(0, TraceEvent::Shed { reason });
    }

    /// Enqueues a self-contained job. The returned handle's
    /// [`JobHandle::join`] blocks for the result; dropping it detaches
    /// the job instead.
    pub fn submit<T, F>(&self, class: JobClass, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_with(class, None, None, f)
    }

    /// Enqueues a job with an optional deadline and cancel token. The
    /// watchdog cancels `cancel` when `deadline` passes (jobs observe
    /// the token through the resource governor's poll points); both are
    /// deregistered when the job finishes first.
    pub fn submit_with<T, F>(
        &self,
        class: JobClass,
        deadline: Option<Instant>,
        cancel: Option<CancelToken>,
        f: F,
    ) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let id = self.shared.next_job.fetch_add(1, Ordering::AcqRel);
        let state = Arc::new(HandleState {
            slot: Mutex::new(Slot::Pending),
            ready: Condvar::new(),
        });
        if let (Some(deadline), Some(token)) = (deadline, cancel) {
            let mut watches = lock_or_recover(&self.shared.watches);
            watches.push(Watch {
                job: id,
                deadline,
                token,
            });
            self.shared.watch_signal.notify_all();
        }
        let fill = Arc::clone(&state);
        let run: Thunk = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            let mut slot = lock_or_recover(&fill.slot);
            *slot = match outcome {
                Ok(value) => Slot::Done(value),
                Err(payload) => Slot::Panicked(payload),
            };
            fill.ready.notify_all();
        });
        // Degraded mode: a pool whose workers all failed to spawn has
        // nobody to pop the queue — run the job on the caller's thread
        // so submissions still complete (slower, never stuck).
        if self.live_workers == 0 {
            run();
            return JobHandle { state, id };
        }
        lock_or_recover(&self.shared.queue).push_back(Job {
            id,
            class,
            enqueued: Instant::now(),
            run,
        });
        self.shared.work.notify_one();
        JobHandle { state, id }
    }

    /// Runs `f` on the *calling* thread under job accounting: it gets a
    /// job id, shows up in `active` and the trace stream, but never
    /// waits in a queue. This is the borrowed-data entry point for work
    /// that holds non-`'static` state (session re-optimizations).
    pub fn run_scoped<T>(&self, class: JobClass, f: impl FnOnce() -> T) -> T {
        let id = self.shared.next_job.fetch_add(1, Ordering::AcqRel);
        let started = self.shared.start_job(0, id, class, Instant::now());
        let outcome = catch_unwind(AssertUnwindSafe(f));
        self.shared.finish_job(0, id, class, started);
        match outcome {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Grants up to `want` extra threads to an in-job scoped pool,
    /// bounded by the pool's spare capacity (capacity − active −
    /// already-leased). Never blocks; under full load the grant is 0
    /// and the caller simply runs serially — which, by the determinism
    /// contract, cannot change its result.
    #[must_use]
    pub fn lease(&self, want: usize) -> Lease {
        let mut granted = 0;
        if want > 0 {
            let mut current = self.shared.leased.load(Ordering::Acquire);
            loop {
                let busy = self.shared.active.load(Ordering::Acquire) + current;
                let spare = self.shared.capacity.saturating_sub(busy);
                let grant = want.min(spare);
                if grant == 0 {
                    break;
                }
                match self.shared.leased.compare_exchange(
                    current,
                    current + grant,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        granted = grant;
                        break;
                    }
                    Err(actual) => current = actual,
                }
            }
        }
        Lease {
            shared: Arc::clone(&self.shared),
            granted,
        }
    }

    /// Runs a batch of borrowed jobs (anneal chains) with caller
    /// helping: scoped helper threads are leased from the pool's spare
    /// capacity, and every participant — helpers *and* the calling
    /// thread — claims the next unstarted job until the batch is
    /// drained. Results come back in submission order. A saturated pool
    /// grants no helpers and the batch runs caller-serial; it can never
    /// deadlock on pool exhaustion.
    ///
    /// Each job gets its own id and `job_start`/`job_done` events
    /// (class-tagged), so a 4-chain anneal shows up as 4 jobs.
    ///
    /// # Panics
    ///
    /// Re-throws the first job panic after the whole batch drains.
    pub fn run_batch<'env, T: Send>(
        &self,
        class: JobClass,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let first_id = self
            .shared
            .next_job
            .fetch_add(u32::try_from(n).unwrap_or(u32::MAX), Ordering::AcqRel);
        let batch_start = Instant::now();
        let lease = self.lease(n.saturating_sub(1));
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let next = AtomicUsize::new(0);
        let pending: Vec<PendingJob<'env, T>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let shared = &self.shared;
        let run_share = |worker: u32| loop {
            let i = next.fetch_add(1, Ordering::AcqRel);
            if i >= n {
                return;
            }
            let Some(job) = lock_or_recover(&pending[i]).take() else {
                continue;
            };
            let id = first_id.saturating_add(u32::try_from(i).unwrap_or(u32::MAX));
            let started = shared.start_job(worker, id, class, batch_start);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            shared.finish_job(worker, id, class, started);
            match outcome {
                Ok(value) => *lock_or_recover(&slots[i]) = Some(value),
                // A panicked job leaves its slot empty; the caller
                // re-throws after the whole batch drains (helpers keep
                // going so sibling results are not lost).
                Err(payload) => {
                    let mut first = lock_or_recover(&first_panic);
                    if first.is_none() {
                        *first = Some(payload);
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            for h in 0..lease.granted() {
                let run_share = &run_share;
                let spawned = std::thread::Builder::new()
                    .name(format!("fp-exec-batch-{h}"))
                    .spawn_scoped(scope, move || {
                        run_share(u32::try_from(h + 1).unwrap_or(u32::MAX));
                    });
                // Thread exhaustion: stop growing the crew — the caller
                // share below still drains every job.
                if spawned.is_err() {
                    break;
                }
            }
            run_share(0);
        });
        drop(lease);
        if let Some(payload) = lock_or_recover(&first_panic).take() {
            resume_unwind(payload);
        }
        let results: Vec<T> = slots
            .into_iter()
            .filter_map(|slot| lock_or_recover(&slot).take())
            .collect();
        // No panic was recorded, and the claim loop hands every index to
        // exactly one participant, so every slot is filled.
        debug_assert_eq!(results.len(), n);
        results
    }

    /// Drains the queue and joins every worker. Called automatically
    /// on drop; explicit calls make shutdown ordering visible at the
    /// call site (the server calls it after the listener closes).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify_all();
        self.shared.watch_signal.notify_all();
        let mut workers = lock_or_recover(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_join_round_trips() {
        let exec = Executor::new(2);
        let handles: Vec<JobHandle<usize>> = (0..16)
            .map(|i| exec.submit(JobClass::Serve, move || i * 2))
            .collect();
        let results: Vec<usize> = handles.into_iter().map(JobHandle::join).collect();
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(exec.completed(), 16);
        assert_eq!(exec.queue_depth(), 0);
        assert_eq!(exec.active(), 0);
    }

    #[test]
    fn deadline_watchdog_cancels_the_token() {
        let exec = Executor::new(1);
        let token = CancelToken::new();
        let observed = token.clone();
        let handle = exec.submit_with(
            JobClass::Serve,
            Some(Instant::now() + Duration::from_millis(20)),
            Some(token),
            move || {
                let start = Instant::now();
                while !observed.is_cancelled() {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "watchdog never fired"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            },
        );
        assert!(handle.join(), "job observed the cancel");
    }

    #[test]
    fn finished_job_is_deregistered_from_the_watchdog() {
        let exec = Executor::new(1);
        let token = CancelToken::new();
        let kept = token.clone();
        let handle = exec.submit_with(
            JobClass::Serve,
            Some(Instant::now() + Duration::from_millis(40)),
            Some(token),
            || 7,
        );
        assert_eq!(handle.join(), 7);
        std::thread::sleep(Duration::from_millis(80));
        assert!(!kept.is_cancelled(), "completed job must not be cancelled");
    }

    #[test]
    fn run_batch_returns_results_in_submission_order() {
        let exec = Executor::new(4);
        let inputs: Vec<usize> = (0..32).collect();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = inputs
            .iter()
            .map(|&i| {
                let boxed: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i * i);
                boxed
            })
            .collect();
        let results = exec.run_batch(JobClass::Anneal, jobs);
        assert_eq!(results, inputs.iter().map(|&i| i * i).collect::<Vec<_>>());
        assert_eq!(exec.completed(), 32);
    }

    #[test]
    fn run_batch_on_saturated_pool_degrades_to_caller_serial() {
        let exec = Executor::new(1);
        // Saturate the only worker.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let parked = exec.submit(JobClass::Serve, move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        // The batch must complete on the caller thread (no deadlock).
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4)
            .map(|i| {
                let boxed: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i + 1);
                boxed
            })
            .collect();
        let results = exec.run_batch(JobClass::Anneal, jobs);
        assert_eq!(results, vec![1, 2, 3, 4]);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let () = parked.join();
    }

    #[test]
    fn lease_is_bounded_by_capacity_and_returned_on_drop() {
        let exec = Executor::new(4);
        let a = exec.lease(3);
        assert_eq!(a.granted(), 3);
        let b = exec.lease(3);
        assert_eq!(b.granted(), 1, "only one spare thread left");
        drop(a);
        let c = exec.lease(3);
        assert_eq!(c.granted(), 3, "dropped lease returns capacity");
        drop(b);
        drop(c);
    }

    #[test]
    fn run_scoped_accounts_like_a_job() {
        let exec = Executor::new(1);
        let tracer = Tracer::new();
        exec.set_tracer(&tracer);
        let value = exec.run_scoped(JobClass::Session, || 41 + 1);
        assert_eq!(value, 42);
        assert_eq!(exec.completed(), 1);
        let summary = tracer.drain().summary();
        assert_eq!(summary.jobs, 1);
    }

    #[test]
    fn note_shed_counts_and_traces() {
        let exec = Executor::new(1);
        let tracer = Tracer::new();
        exec.set_tracer(&tracer);
        exec.note_shed("queue_full");
        assert_eq!(exec.shed_total(), 1);
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].event.name(), "shed");
        assert_eq!(trace.summary().jobs_shed, 1);
    }

    #[test]
    fn panicked_job_does_not_take_down_the_pool() {
        let exec = Executor::new(1);
        let bomb = exec.submit(JobClass::Serve, || panic!("boom"));
        let after = exec.submit(JobClass::Serve, || 5);
        assert_eq!(after.join(), 5, "worker survived the panic");
        let caught = catch_unwind(AssertUnwindSafe(move || bomb.join()));
        assert!(caught.is_err(), "join re-throws the panic");
    }

    #[test]
    fn shutdown_joins_cleanly_with_empty_queues() {
        let exec = Executor::new(2);
        let h = exec.submit(JobClass::Serve, || ());
        let () = h.join();
        exec.shutdown();
        assert_eq!(exec.completed(), 1);
    }
}
