//! A deterministic-scheduler model checker for small concurrent
//! programs (a loom-lite).
//!
//! [`check`] runs a closure many times. Inside the closure, threads are
//! spawned with [`spawn`] and communicate through [`Mutex`],
//! [`Condvar`] and [`AtomicUsize`] — drop-in shaped replacements for
//! their `std::sync` namesakes. Exactly one virtual thread runs at a
//! time; every primitive operation is a *yield point* where the
//! scheduler chooses which runnable thread proceeds. The choice
//! sequence of one run is a *schedule*; [`check`] enumerates schedules
//! depth-first (replay a prefix, flip the last choice that still has
//! unexplored options) until the space is exhausted or a bound is hit.
//!
//! Because the scheduler controls every interleaving, the checker
//! detects, deterministically and with a replayable trace:
//!
//! - **assertion failures / panics** under any explored interleaving,
//! - **deadlocks** — no thread is runnable but some are blocked,
//! - **lost wakeups** — a notify that lands on an empty waiter set
//!   followed by a wait that nothing will ever end surfaces as a
//!   deadlock,
//! - **livelocks** — runs exceeding [`Config::max_steps`].
//!
//! # Semantics and limits
//!
//! - The modeled program must be *deterministic* apart from scheduling:
//!   rerunning the closure under the same choice sequence must perform
//!   the same operations. No time, no I/O, no randomness.
//! - [`Condvar`] has **no spurious wakeups**: a waiter wakes only via
//!   `notify_one`/`notify_all`. Code that is correct only thanks to a
//!   `while` re-check loop still deadlocks here if a wakeup is lost,
//!   which is exactly the bug class the checker is for.
//! - `notify_one` picks the woken waiter through a scheduler choice, so
//!   all wake orders are explored.
//! - Exploration is **preemption-bounded** (the CHESS strategy): a run
//!   may switch away from a still-runnable thread at most
//!   [`Config::preemption_bound`] times; switches where the current
//!   thread blocked or finished are free. Within the bound the space is
//!   exhausted, and empirically almost all concurrency bugs manifest
//!   within two or three preemptions. Raw schedule counts grow
//!   exponentially with threads × operations, so keep modeled programs
//!   tiny anyway: 2–3 spawned threads and a handful of operations each.
//!
//! # Example
//!
//! ```
//! use parallel::model::{self, Config};
//!
//! let report = model::check(Config::default(), || {
//!     let flag = std::sync::Arc::new(model::AtomicUsize::new(0));
//!     let f = std::sync::Arc::clone(&flag);
//!     let t = model::spawn(move || {
//!         f.store(1);
//!     });
//!     t.join();
//!     assert_eq!(flag.load(), 1);
//! });
//! assert!(report.failure.is_none());
//! assert!(report.complete);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::thread;

/// Exploration bounds for [`check`].
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Stop after exploring this many schedules even if the space is
    /// not exhausted (`complete` will be `false` in the report).
    pub max_schedules: usize,
    /// Fail a single run after this many scheduler steps (livelock
    /// guard).
    pub max_steps: usize,
    /// Maximum forced context switches per run (CHESS-style preemption
    /// bounding). Switches at blocking points are free; switching away
    /// from a thread that could continue spends budget. The schedule
    /// space is exhausted *within this bound* — raising it widens
    /// coverage exponentially.
    pub preemption_bound: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_schedules: 1_000_000,
            max_steps: 20_000,
            preemption_bound: 3,
        }
    }
}

/// One scheduler decision: `(chosen, options)`. Only points with more
/// than one option are recorded.
pub type Choice = (usize, usize);

/// A failing schedule and what went wrong on it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The choice sequence that reproduces the failure.
    pub schedule: Vec<Choice>,
    /// Human-readable description (panic message, deadlock, livelock).
    pub message: String,
}

/// The outcome of a [`check`] exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of schedules executed.
    pub schedules: usize,
    /// Whether the whole schedule space (within
    /// [`Config::preemption_bound`]) was exhausted.
    pub complete: bool,
    /// The first failing schedule found, if any (exploration stops on
    /// the first failure).
    pub failure: Option<Failure>,
}

/// Why a virtual thread is not runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Runnable (or running).
    None,
    /// Blocked acquiring the mutex with this id.
    Mutex(usize),
    /// Waiting on the condvar with this id.
    Condvar(usize),
    /// Waiting for the thread with this id to finish.
    Join(usize),
}

/// Lifecycle of a virtual thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked,
    Done,
}

/// Panic payload used to unwind parked threads once a run is abandoned
/// (failure found or exploration shutting down).
struct Abandon;

/// Mutable scheduler state for one run.
#[derive(Debug)]
struct State {
    status: Vec<Status>,
    waiting: Vec<Wait>,
    /// Whose turn it is.
    active: usize,
    /// Decisions taken this run.
    trace: Vec<Choice>,
    /// Decision prefix to replay this run.
    replay: Vec<usize>,
    steps: usize,
    max_steps: usize,
    /// Forced context switches taken so far this run.
    preemptions: usize,
    preemption_bound: usize,
    /// Per-thread fairness flag: set by [`yield_now`], meaning "do not
    /// schedule me again while anyone else is runnable". Cleared when
    /// the thread is next scheduled.
    yielded: Vec<bool>,
    failure: Option<String>,
    /// Once set, every thread unwinds at its next yield point.
    abandoned: bool,
    /// All threads done (or run abandoned).
    finished: bool,
    /// Lock bit per registered mutex.
    mutexes: Vec<bool>,
    /// Waiting tids per registered condvar, in wait order.
    waiters: Vec<Vec<usize>>,
}

/// One run's shared scheduler.
struct Sched {
    state: StdMutex<State>,
    /// Signalled whenever `active` changes or the run is abandoned.
    turn: StdCondvar,
    /// Signalled when the run finishes.
    done: StdCondvar,
    /// Real join handles of the virtual threads, joined by the
    /// controller at the end of the run.
    handles: StdMutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Sched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sched").finish_non_exhaustive()
    }
}

/// The executing virtual thread's identity, stored thread-locally in
/// the real thread backing it.
#[derive(Clone)]
struct Ctx {
    sched: Arc<Sched>,
    tid: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The calling virtual thread's context.
fn current() -> Ctx {
    CURRENT.with(|c| c.borrow().clone()).expect(
        "model primitive used outside model::check (construct and use them inside the closure)",
    )
}

impl Sched {
    fn lock_state(&self) -> StdMutexGuard<'_, State> {
        self.state.lock().expect("model scheduler lock")
    }

    /// Takes one scheduler decision among `options` alternatives.
    /// Decisions with a single option are not recorded so traces stay
    /// dense.
    fn decide(st: &mut State, options: usize) -> usize {
        if options <= 1 {
            return 0;
        }
        let chosen = match st.replay.get(st.trace.len()) {
            Some(&c) => c.min(options - 1),
            None => 0,
        };
        st.trace.push((chosen, options));
        chosen
    }

    /// Records a failure and abandons the run. The caller must unwind
    /// afterwards (every parked thread will, at its next yield point).
    fn fail(&self, st: &mut State, message: String) {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abandoned = true;
        st.finished = true;
        self.turn.notify_all();
        self.done.notify_all();
    }

    /// Picks the next thread to run from the runnable set. Called with
    /// the current thread's status already updated (blocked or done).
    /// Detects deadlock and run completion.
    ///
    /// Scheduling is preemption-bounded (CHESS-style): switching away
    /// from a thread that could keep running counts against
    /// [`Config::preemption_bound`], and once the budget is spent the
    /// active thread runs on until it blocks or finishes. Switches at
    /// blocking points are free. This collapses the schedule space from
    /// exponential to polynomial while keeping the classic coverage
    /// guarantee: every bug reachable with at most `preemption_bound`
    /// preemptions is found.
    fn schedule(&self, st: &mut State) {
        st.steps += 1;
        if st.steps > st.max_steps {
            self.fail(
                st,
                format!("livelock: run exceeded {} scheduler steps", st.max_steps),
            );
            return;
        }
        // Order the candidates with the active thread first (when still
        // runnable), so option 0 always means "continue, no preemption"
        // and depth-first exploration tries preemption-free schedules
        // before spending budget. A thread that called [`yield_now`] is
        // excluded while anyone else can run (fairness: spin loops
        // yield, and an all-spin schedule is not a livelock), and the
        // switch away from it is free.
        let others: Vec<usize> = (0..st.status.len())
            .filter(|&t| t != st.active && st.status[t] == Status::Runnable)
            .collect();
        let active_runnable = st
            .status
            .get(st.active)
            .is_some_and(|&s| s == Status::Runnable);
        let active_contends = active_runnable && (others.is_empty() || !st.yielded[st.active]);
        let mut runnable: Vec<usize> = Vec::new();
        if active_contends {
            runnable.push(st.active);
        }
        runnable.extend(others);
        if runnable.is_empty() {
            if st.status.iter().all(|&s| s == Status::Done) {
                st.finished = true;
                self.done.notify_all();
            } else {
                let blocked: Vec<String> = (0..st.status.len())
                    .filter(|&t| st.status[t] == Status::Blocked)
                    .map(|t| format!("thread {} on {:?}", t, st.waiting[t]))
                    .collect();
                self.fail(st, format!("deadlock: {}", blocked.join(", ")));
            }
            return;
        }
        let idx = if active_contends && st.preemptions >= st.preemption_bound {
            // Budget spent: the active thread is forced to continue
            // (not a decision, so it is not recorded in the trace).
            0
        } else {
            Self::decide(st, runnable.len())
        };
        if active_contends && idx != 0 {
            st.preemptions += 1;
        }
        st.active = runnable[idx];
        st.yielded[st.active] = false;
        self.turn.notify_all();
    }

    /// Parks the calling virtual thread until the scheduler hands it
    /// the turn. Unwinds if the run was abandoned meanwhile.
    fn wait_for_turn(&self, tid: usize) {
        let mut st = self.lock_state();
        while st.active != tid || st.status[tid] != Status::Runnable {
            if st.abandoned {
                drop(st);
                panic_any(Abandon);
            }
            st = self.turn.wait(st).expect("model scheduler lock");
        }
        if st.abandoned {
            drop(st);
            panic_any(Abandon);
        }
    }

    /// A plain yield point: the calling thread stays runnable and the
    /// scheduler picks who runs next (possibly the caller again).
    fn yield_point(&self, tid: usize) {
        {
            let mut st = self.lock_state();
            self.schedule(&mut st);
        }
        self.wait_for_turn(tid);
    }

    /// Blocks the calling thread on `wait`, schedules someone else, and
    /// parks until woken and re-scheduled.
    fn block_on(&self, tid: usize, wait: Wait) {
        {
            let mut st = self.lock_state();
            st.status[tid] = Status::Blocked;
            st.waiting[tid] = wait;
            self.schedule(&mut st);
        }
        self.wait_for_turn(tid);
    }
}

/// Runs `body` as virtual thread `tid`: wait for the first turn, run,
/// mark done (or record the panic and abandon the run).
fn virtual_main(sched: &Arc<Sched>, tid: usize, body: impl FnOnce()) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            sched: Arc::clone(sched),
            tid,
        });
    });
    sched.wait_for_turn(tid);
    let outcome = catch_unwind(AssertUnwindSafe(body));
    CURRENT.with(|c| c.borrow_mut().take());
    let mut st = sched.lock_state();
    match outcome {
        Ok(()) => {
            st.status[tid] = Status::Done;
            // Wake joiners; they re-contend through the scheduler.
            for t in 0..st.status.len() {
                if st.waiting[t] == Wait::Join(tid) {
                    st.status[t] = Status::Runnable;
                    st.waiting[t] = Wait::None;
                }
            }
            sched.schedule(&mut st);
        }
        Err(payload) => {
            if payload.downcast_ref::<Abandon>().is_none() {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                sched.fail(&mut st, format!("thread {tid} panicked: {message}"));
            } else {
                st.status[tid] = Status::Done;
            }
        }
    }
}

/// Spawns a virtual thread running `f`. Must be called inside the
/// closure passed to [`check`]. Returns a handle whose
/// [`join`](JoinHandle::join) blocks the calling virtual thread until
/// `f` finishes.
pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
    let ctx = current();
    ctx.sched.yield_point(ctx.tid);
    let tid = {
        let mut st = ctx.sched.lock_state();
        let tid = st.status.len();
        st.status.push(Status::Runnable);
        st.waiting.push(Wait::None);
        st.yielded.push(false);
        tid
    };
    let sched = Arc::clone(&ctx.sched);
    let handle = thread::Builder::new()
        .name(format!("model-{tid}"))
        .spawn(move || virtual_main(&sched, tid, f))
        .expect("spawn model thread");
    ctx.sched
        .handles
        .lock()
        .expect("model handle lock")
        .push(handle);
    JoinHandle { tid }
}

/// Handle to a virtual thread created by [`spawn`].
pub struct JoinHandle {
    tid: usize,
}

impl std::fmt::Debug for JoinHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("tid", &self.tid)
            .finish()
    }
}

impl JoinHandle {
    /// Blocks the calling virtual thread until the target finishes.
    pub fn join(self) {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        loop {
            {
                let st = ctx.sched.lock_state();
                if st.status[self.tid] == Status::Done {
                    return;
                }
            }
            ctx.sched.block_on(ctx.tid, Wait::Join(self.tid));
        }
    }
}

/// A model-checked mutual-exclusion lock. Same shape as
/// [`std::sync::Mutex`], but every acquisition is a scheduler yield
/// point and contention order is explored exhaustively.
pub struct Mutex<T> {
    id: usize,
    data: StdMutex<T>,
}

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("model::Mutex")
            .field("id", &self.id)
            .finish()
    }
}

impl<T> Mutex<T> {
    /// Creates a mutex registered with the current run's scheduler.
    /// Must be called inside the closure passed to [`check`].
    pub fn new(value: T) -> Self {
        let ctx = current();
        let mut st = ctx.sched.lock_state();
        let id = st.mutexes.len();
        st.mutexes.push(false);
        Self {
            id,
            data: StdMutex::new(value),
        }
    }

    /// Acquires the lock, blocking (through the model scheduler) while
    /// another virtual thread holds it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        self.acquire(&ctx)
    }

    /// The acquisition loop shared by [`lock`](Self::lock) and
    /// [`Condvar::wait`] re-acquisition: take the lock bit or block
    /// until the holder releases it.
    fn acquire(&self, ctx: &Ctx) -> MutexGuard<'_, T> {
        loop {
            {
                let mut st = ctx.sched.lock_state();
                if !st.mutexes[self.id] {
                    st.mutexes[self.id] = true;
                    break;
                }
            }
            ctx.sched.block_on(ctx.tid, Wait::Mutex(self.id));
        }
        // The model lock bit gives exclusivity, so the real try_lock
        // cannot contend.
        let data = self.data.try_lock().expect("model mutex held exclusively");
        MutexGuard {
            mutex: self,
            data: Some(data),
            ctx: ctx.clone(),
        }
    }

    /// Releases the lock bit and wakes every thread blocked on it; the
    /// winner is decided at the next scheduler choice.
    fn release(&self, ctx: &Ctx) {
        let mut st = ctx.sched.lock_state();
        st.mutexes[self.id] = false;
        for t in 0..st.status.len() {
            if st.waiting[t] == Wait::Mutex(self.id) {
                st.status[t] = Status::Runnable;
                st.waiting[t] = Wait::None;
            }
        }
    }
}

/// RAII guard for [`Mutex`]; releases at drop like its `std` namesake.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    /// `Some` until the guard is dismantled by drop or `Condvar::wait`.
    data: Option<StdMutexGuard<'a, T>>,
    ctx: Ctx,
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("model::MutexGuard").finish_non_exhaustive()
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard holds data until dropped")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard holds data until dropped")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            drop(data);
            self.mutex.release(&self.ctx);
        }
    }
}

/// A model-checked condition variable. No spurious wakeups;
/// `notify_one` explores every possible waiter as the woken one.
pub struct Condvar {
    id: usize,
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("model::Condvar")
            .field("id", &self.id)
            .finish()
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates a condvar registered with the current run's scheduler.
    /// Must be called inside the closure passed to [`check`].
    #[must_use]
    pub fn new() -> Self {
        let ctx = current();
        let mut st = ctx.sched.lock_state();
        let id = st.waiters.len();
        st.waiters.push(Vec::new());
        Self { id }
    }

    /// Atomically releases `guard`'s mutex and waits for a
    /// notification, then re-acquires the mutex before returning — the
    /// same contract as [`std::sync::Condvar::wait`], minus spurious
    /// wakeups.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let ctx = guard.ctx.clone();
        let mutex = guard.mutex;
        // Entering the wait is a yield point: other threads may run
        // between the caller's last check under the lock and its
        // enrolment. A notifier that takes the lock still cannot slip in
        // (it blocks on the held mutex); one that skips the lock can,
        // and its wakeup is lost.
        ctx.sched.yield_point(ctx.tid);
        // Dismantle the guard by hand so the release of the mutex and
        // the enrolment as a waiter are one atomic scheduler action (a
        // plain drop would open a window where a notify could slip in
        // between release and wait and be counted as consumed).
        drop(guard.data.take());
        {
            let mut st = ctx.sched.lock_state();
            st.mutexes[mutex.id] = false;
            for t in 0..st.status.len() {
                if st.waiting[t] == Wait::Mutex(mutex.id) {
                    st.status[t] = Status::Runnable;
                    st.waiting[t] = Wait::None;
                }
            }
            st.waiters[self.id].push(ctx.tid);
            st.status[ctx.tid] = Status::Blocked;
            st.waiting[ctx.tid] = Wait::Condvar(self.id);
            ctx.sched.schedule(&mut st);
        }
        ctx.sched.wait_for_turn(ctx.tid);
        mutex.acquire(&ctx)
    }

    /// Wakes one waiter if any; which one is a scheduler choice, so
    /// every wake order is explored. A notify with no waiters is lost,
    /// exactly like the real primitive.
    pub fn notify_one(&self) {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        let mut st = ctx.sched.lock_state();
        let n_waiting = st.waiters[self.id].len();
        if n_waiting > 0 {
            let idx = Sched::decide(&mut st, n_waiting);
            let tid = st.waiters[self.id].remove(idx);
            st.status[tid] = Status::Runnable;
            st.waiting[tid] = Wait::None;
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        let mut st = ctx.sched.lock_state();
        let woken = std::mem::take(&mut st.waiters[self.id]);
        for tid in woken {
            st.status[tid] = Status::Runnable;
            st.waiting[tid] = Wait::None;
        }
    }
}

/// A model-checked counter with sequentially-consistent semantics.
/// Every operation is a yield point.
#[derive(Debug)]
pub struct AtomicUsize {
    value: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    /// Creates a counter. Must be used inside [`check`]'s closure.
    #[must_use]
    pub fn new(value: usize) -> Self {
        Self {
            value: std::sync::atomic::AtomicUsize::new(value),
        }
    }

    /// Reads the value (yield point).
    pub fn load(&self) -> usize {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        self.value.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Writes the value (yield point).
    pub fn store(&self, value: usize) {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        self.value.store(value, std::sync::atomic::Ordering::SeqCst);
    }

    /// Adds and returns the previous value (one atomic yield point).
    pub fn fetch_add(&self, delta: usize) -> usize {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        self.value
            .fetch_add(delta, std::sync::atomic::Ordering::SeqCst)
    }

    /// Subtracts and returns the previous value (one atomic yield
    /// point).
    pub fn fetch_sub(&self, delta: usize) -> usize {
        let ctx = current();
        ctx.sched.yield_point(ctx.tid);
        self.value
            .fetch_sub(delta, std::sync::atomic::Ordering::SeqCst)
    }
}

/// Fair yield: the calling thread declares it cannot make progress
/// until another thread runs (a spin-loop backoff, like
/// `std::thread::yield_now` in real code). The scheduler will not pick
/// it again while any other thread is runnable, and the forced switch
/// does not count against [`Config::preemption_bound`]. Spin loops in
/// modeled programs **must** call this, or the checker reports the
/// schedule that starves every other thread as a livelock.
pub fn yield_now() {
    let ctx = current();
    {
        let mut st = ctx.sched.lock_state();
        st.yielded[ctx.tid] = true;
        ctx.sched.schedule(&mut st);
    }
    ctx.sched.wait_for_turn(ctx.tid);
}

/// Runs one schedule: execute `body` as virtual thread 0 under the
/// given replay prefix; returns the trace and the failure, if any.
fn run_one(
    config: Config,
    replay: Vec<usize>,
    body: &Arc<dyn Fn() + Send + Sync>,
) -> (Vec<Choice>, Option<String>) {
    let sched = Arc::new(Sched {
        state: StdMutex::new(State {
            status: vec![Status::Runnable],
            waiting: vec![Wait::None],
            active: 0,
            trace: Vec::new(),
            replay,
            steps: 0,
            max_steps: config.max_steps,
            preemptions: 0,
            preemption_bound: config.preemption_bound,
            yielded: vec![false],
            failure: None,
            abandoned: false,
            finished: false,
            mutexes: Vec::new(),
            waiters: Vec::new(),
        }),
        turn: StdCondvar::new(),
        done: StdCondvar::new(),
        handles: StdMutex::new(Vec::new()),
    });
    let root_sched = Arc::clone(&sched);
    let body = Arc::clone(body);
    let root = thread::Builder::new()
        .name("model-0".to_string())
        .spawn(move || virtual_main(&root_sched, 0, move || body()))
        .expect("spawn model root thread");
    {
        let mut st = sched.lock_state();
        while !st.finished {
            st = sched.done.wait(st).expect("model scheduler lock");
        }
    }
    // Join the root and every spawned thread; abandoned threads unwind
    // with the Abandon payload, which join surfaces as Err — expected.
    let _ = root.join();
    let handles = std::mem::take(&mut *sched.handles.lock().expect("model handle lock"));
    for handle in handles {
        let _ = handle.join();
    }
    let st = sched.lock_state();
    (st.trace.clone(), st.failure.clone())
}

/// Explores the schedule space of `body` depth-first and reports the
/// first failure found.
///
/// The closure runs once per schedule; see the [module docs](self) for
/// the determinism requirements and the failure classes detected.
pub fn check(config: Config, body: impl Fn() + Send + Sync + 'static) -> Report {
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut replay: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    loop {
        let (trace, failure) = run_one(config, replay, &body);
        schedules += 1;
        if let Some(message) = failure {
            return Report {
                schedules,
                complete: false,
                failure: Some(Failure {
                    schedule: trace,
                    message,
                }),
            };
        }
        // Backtrack: rewind to the deepest choice with unexplored
        // alternatives and take the next one.
        let mut prefix: VecDeque<Choice> = trace.into();
        let next = loop {
            match prefix.pop_back() {
                Some((chosen, options)) if chosen + 1 < options => {
                    let mut r: Vec<usize> = prefix.iter().map(|&(c, _)| c).collect();
                    r.push(chosen + 1);
                    break Some(r);
                }
                Some(_) => continue,
                None => break None,
            }
        };
        match next {
            Some(r) => replay = r,
            None => {
                return Report {
                    schedules,
                    complete: true,
                    failure: None,
                }
            }
        }
        if schedules >= config.max_schedules {
            return Report {
                schedules,
                complete: false,
                failure: None,
            };
        }
    }
}
