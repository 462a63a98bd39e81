//! Model checking of the pool's concurrency protocols (and of the
//! checker itself).
//!
//! Each test models one protocol from `pool.rs` in miniature against
//! `parallel::model` primitives and exhaustively explores every
//! interleaving within the preemption bound. The `checker_finds_*`
//! tests validate the checker: they hand it deliberately broken
//! programs and require that it finds the bug.

use parallel::model::{self, AtomicUsize, Condvar, Config, Mutex};
use std::sync::Arc;

fn exhaustive() -> Config {
    Config {
        max_schedules: 2_000_000,
        max_steps: 20_000,
        preemption_bound: 3,
    }
}

/// A checker that cannot find a two-thread read-modify-write race would
/// vacuously pass every protocol test below.
#[test]
fn checker_finds_lost_update_race() {
    let report = model::check(exhaustive(), || {
        let counter = Arc::new(AtomicUsize::new(0));
        let (a, b) = (Arc::clone(&counter), Arc::clone(&counter));
        // BROKEN on purpose: load + store instead of fetch_add.
        let ta = model::spawn(move || {
            let v = a.load();
            a.store(v + 1);
        });
        let tb = model::spawn(move || {
            let v = b.load();
            b.store(v + 1);
        });
        ta.join();
        tb.join();
        assert_eq!(counter.load(), 2, "an increment was lost");
    });
    let failure = report.failure.expect("the race must be found");
    assert!(
        failure.message.contains("an increment was lost"),
        "unexpected failure: {failure:?}"
    );
    assert!(
        !failure.schedule.is_empty(),
        "failing schedule is replayable"
    );
}

/// The classic lost wakeup: check the condition, drop the lock, then
/// decide to wait. The notify can land in the window and the waiter
/// sleeps forever. The checker must surface this as a deadlock.
#[test]
fn checker_finds_lost_wakeup_deadlock() {
    let report = model::check(exhaustive(), || {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let consumer_shared = Arc::clone(&shared);
        let consumer = model::spawn(move || {
            let (flag, ready) = &*consumer_shared;
            // BROKEN on purpose: the condition is checked in one
            // critical section and the wait happens in another.
            let set = *flag.lock();
            if !set {
                let guard = flag.lock();
                drop(ready.wait(guard));
            }
        });
        let (flag, ready) = &*shared;
        let mut guard = flag.lock();
        *guard = true;
        drop(guard);
        ready.notify_one();
        consumer.join();
    });
    let failure = report.failure.expect("the lost wakeup must be found");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {failure:?}"
    );
}

/// A notifier that sets the flag and signals without taking the lock.
/// The waiter re-checks the flag under the lock and then waits; the
/// store and the notify can both land between that check and the
/// enrolment, so the wakeup is lost. The checker must find the
/// deadlock, which needs entry to `Condvar::wait` to be a yield point.
#[test]
fn checker_finds_notify_that_skips_the_lock() {
    let report = model::check(exhaustive(), || {
        let shared = Arc::new((Mutex::new(()), Condvar::new(), AtomicUsize::new(0)));
        let waiter_shared = Arc::clone(&shared);
        let waiter = model::spawn(move || {
            let (lock, ready, flag) = &*waiter_shared;
            let mut guard = lock.lock();
            while flag.load() == 0 {
                guard = ready.wait(guard);
            }
        });
        let (_, ready, flag) = &*shared;
        // BROKEN on purpose: neither the store nor the notify holds the
        // lock the waiter checks under.
        flag.store(1);
        ready.notify_all();
        waiter.join();
    });
    let failure = report.failure.expect("the lost wakeup must be found");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected failure: {failure:?}"
    );
}

/// The fixed version of the same program — condition re-checked under
/// the lock that the notifier holds while signalling — must be clean
/// across the whole schedule space.
#[test]
fn correct_wait_protocol_is_clean() {
    let report = model::check(exhaustive(), || {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let consumer_shared = Arc::clone(&shared);
        let consumer = model::spawn(move || {
            let (flag, ready) = &*consumer_shared;
            let mut guard = flag.lock();
            while !*guard {
                guard = ready.wait(guard);
            }
        });
        let (flag, ready) = &*shared;
        let mut guard = flag.lock();
        *guard = true;
        ready.notify_one();
        drop(guard);
        consumer.join();
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "space not exhausted in {} runs",
        report.schedules
    );
}

/// The one-lock protocol of `Pool::run_region` + `worker_loop`. The pool
/// lock guards the open region's claim cursor and the shutdown flag;
/// chunk completion is counted outside it, like `Region::execute`. The
/// submitter opens a two-chunk region, notifies after releasing the
/// lock, claims and runs chunks while any are left, then sleeps until
/// the region is done; the worker claims what it can and sleeps. The
/// thread that completes the last chunk takes and releases the pool lock
/// and notifies after the release. Shutdown happens only after the
/// region is done, like `Drop for Pool` running after `run_region`
/// returned. Under every interleaving each chunk is claimed exactly
/// once and both threads terminate — a lost wakeup on either side would
/// surface as a deadlock.
#[test]
fn one_lock_protocol_claims_each_chunk_once_and_never_loses_a_wakeup() {
    const CHUNKS: usize = 2;
    let report = model::check(exhaustive(), || {
        /// What the pool lock guards: the region's next unclaimed chunk
        /// (`None` until the region opens) and the shutdown flag.
        struct Queue {
            next: Option<usize>,
            shutdown: bool,
        }
        impl Queue {
            /// Claims the next chunk; the caller holds the lock.
            fn claim(&mut self) -> Option<usize> {
                let index = self.next.filter(|&next| next < CHUNKS)?;
                self.next = Some(index + 1);
                Some(index)
            }
        }
        struct Shared {
            queue: Mutex<Queue>,
            wake: Condvar,
            done: AtomicUsize,
            claimed: AtomicUsize,
        }
        impl Shared {
            /// Runs a chunk outside the lock; the last one notifies after
            /// taking and releasing the lock.
            fn execute(&self, index: usize) {
                self.claimed.fetch_add(1 << index);
                if self.done.fetch_add(1) + 1 == CHUNKS {
                    drop(self.queue.lock());
                    self.wake.notify_all();
                }
            }
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                next: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
        });

        let worker_shared = Arc::clone(&shared);
        let worker = model::spawn(move || {
            let shared = &*worker_shared;
            let mut queue = shared.queue.lock();
            loop {
                if let Some(index) = queue.claim() {
                    drop(queue);
                    shared.execute(index);
                    queue = shared.queue.lock();
                } else if queue.shutdown {
                    return;
                } else {
                    queue = shared.wake.wait(queue);
                }
            }
        });

        // Open the region, then notify after the release.
        shared.queue.lock().next = Some(0);
        shared.wake.notify_all();
        // Help until the region is done, re-checking under the lock.
        let mut queue = shared.queue.lock();
        loop {
            if let Some(index) = queue.claim() {
                drop(queue);
                shared.execute(index);
                queue = shared.queue.lock();
            } else if shared.done.load() == CHUNKS {
                break;
            } else {
                queue = shared.wake.wait(queue);
            }
        }
        // Region done: shut down the way `Drop for Pool` does.
        queue.shutdown = true;
        drop(queue);
        shared.wake.notify_all();
        worker.join();
        assert_eq!(
            shared.claimed.load(),
            (1 << CHUNKS) - 1,
            "a chunk was lost or claimed twice"
        );
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "space not exhausted in {} runs",
        report.schedules
    );
}
