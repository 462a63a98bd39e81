//! Model checking of the hot-swap handle.
//!
//! `netserve::Swap` is a `Mutex<Arc<T>>` with two operations: `load`
//! (lock, clone the `Arc`, unlock) and `store` (lock, replace the
//! `Arc`, unlock). These tests rebuild that protocol on
//! `parallel::model` primitives and explore every interleaving within
//! the preemption bound, checking the properties the serving tier
//! relies on:
//!
//! - a reader only ever observes a **fully published** version — one
//!   of the values a writer actually stored, never a torn or
//!   intermediate state;
//! - versions observed by one reader are **monotonic** (a hot-swap is
//!   never observed to roll back);
//! - a retired version is torn down **only after its last holder
//!   drops** (in-flight requests finish on the engine they started
//!   on) — modeled with a drop counter standing in for the engine's
//!   drain-on-last-drop;
//! - no interleaving of concurrent loads and stores deadlocks.

use parallel::model::{self, AtomicUsize, Config, Mutex};
use std::sync::Arc;

fn exhaustive() -> Config {
    Config {
        max_schedules: 2_000_000,
        max_steps: 20_000,
        preemption_bound: 3,
    }
}

/// A served version: its number, plus a shared retirement counter
/// bumped on drop — the stand-in for an engine being freed when the
/// last in-flight holder releases it.
struct Version {
    id: usize,
    retired: Arc<AtomicUsize>,
}

impl Drop for Version {
    fn drop(&mut self) {
        self.retired.fetch_add(1);
    }
}

/// The `Swap` protocol on model primitives.
struct ModelSwap {
    current: Mutex<Arc<Version>>,
}

impl ModelSwap {
    fn new(initial: usize, retired: &Arc<AtomicUsize>) -> Self {
        Self {
            current: Mutex::new(Arc::new(Version {
                id: initial,
                retired: Arc::clone(retired),
            })),
        }
    }

    fn load(&self) -> Arc<Version> {
        Arc::clone(&self.current.lock())
    }

    fn store(&self, id: usize, retired: &Arc<AtomicUsize>) {
        let replacement = Arc::new(Version {
            id,
            retired: Arc::clone(retired),
        });
        let mut guard = self.current.lock();
        let _old = std::mem::replace(&mut *guard, replacement);
        // `_old` drops after the guard: release the lock first so the
        // (possibly expensive) engine teardown never runs inside the
        // pointer-swap critical section.
        drop(guard);
    }
}

/// Two readers race one writer publishing versions 1 then 2: every
/// load sees a published version, per-reader observations are
/// monotonic, and nothing deadlocks in any interleaving.
#[test]
fn readers_always_see_a_fully_published_version() {
    let report = model::check(exhaustive(), || {
        let retired = Arc::new(AtomicUsize::new(0));
        let swap = Arc::new(ModelSwap::new(0, &retired));

        let writer_swap = Arc::clone(&swap);
        let writer_retired = Arc::clone(&retired);
        let writer = model::spawn(move || {
            writer_swap.store(1, &writer_retired);
            writer_swap.store(2, &writer_retired);
        });

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let swap = Arc::clone(&swap);
                model::spawn(move || {
                    let first = swap.load();
                    assert!(first.id <= 2, "unpublished version {}", first.id);
                    let second = swap.load();
                    assert!(second.id <= 2, "unpublished version {}", second.id);
                    assert!(
                        second.id >= first.id,
                        "hot-swap rolled back: {} then {}",
                        first.id,
                        second.id
                    );
                })
            })
            .collect();

        writer.join();
        for reader in readers {
            reader.join();
        }

        // Quiescent: versions 0 and 1 are retired exactly once each —
        // and only now that every holder is gone; version 2 is live.
        assert_eq!(swap.load().id, 2, "final load must see the last store");
        assert_eq!(
            retired.load(),
            2,
            "exactly the two replaced versions retire"
        );
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "schedule space not exhausted in {} runs",
        report.schedules
    );
}

/// A reader holding a loaded version across a store keeps it alive:
/// the writer's replacement must not tear down the old version while
/// the in-flight holder still has it.
#[test]
fn in_flight_holder_outlives_the_swap() {
    let report = model::check(exhaustive(), || {
        let retired = Arc::new(AtomicUsize::new(0));
        let swap = Arc::new(ModelSwap::new(0, &retired));

        let reader_swap = Arc::clone(&swap);
        let reader_retired = Arc::clone(&retired);
        let reader = model::spawn(move || {
            let held = reader_swap.load();
            // The "request" runs here, concurrent with the writer's
            // store. Whatever interleaving the scheduler picks, the
            // held version cannot have been retired yet.
            let retired_now = reader_retired.load();
            if held.id == 0 {
                assert_eq!(
                    retired_now, 0,
                    "version 0 retired while a request still held it"
                );
            }
            drop(held);
        });

        let writer_swap = Arc::clone(&swap);
        let writer_retired = Arc::clone(&retired);
        let writer = model::spawn(move || {
            writer_swap.store(1, &writer_retired);
        });

        reader.join();
        writer.join();
        assert_eq!(
            retired.load(),
            1,
            "the replaced version retires exactly once"
        );
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "schedule space not exhausted in {} runs",
        report.schedules
    );
}
