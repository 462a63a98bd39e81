//! Model checking of the engine's request queue.
//!
//! The engine owns no thread. `Shared` in `src/lib.rs` keeps a bounded
//! queue that the callers themselves drain:
//!
//! - `submit` enqueues, and under `Block` a submitter that finds the
//!   queue full serves its oldest batch instead of parking;
//! - `answer` returns the request's answer once it is there, serves a
//!   batch while the queue has one, and parks on the request's own slot
//!   only when the queue is empty (the request is then in flight on
//!   another thread, which will answer it);
//! - `serve` drains up to `max_batch` requests, counts the batch in
//!   `in_flight` while it answers them outside the lock, and the last
//!   in-flight batch of a closed queue wakes `shutdown`;
//! - `shutdown` closes the queue, serves what is left, then waits until
//!   `in_flight` is zero.
//!
//! These tests rebuild that protocol in miniature on `parallel::model`
//! primitives and explore every interleaving within the preemption
//! bound: every accepted request is answered exactly once, no schedule
//! deadlocks, and `shutdown` returns only with an empty queue and no
//! batch in flight. One test hands the checker a `shutdown` that stops
//! waiting once the queue is empty and requires that the schedule where
//! it returns under a batch still in flight is found.
//!
//! Deadlines are not modeled: an expired request is answered on the
//! submitter's own thread at admission or inside a batch, both of which
//! are plain answers here. `Timeout` is modeled by its number of serve
//! turns, because `parallel::model` has no clock.

use parallel::model::{self, Condvar, Config, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{self as std_sync, Arc};

fn exhaustive() -> Config {
    Config {
        max_schedules: 2_000_000,
        max_steps: 20_000,
        preemption_bound: 3,
    }
}

/// What the queue lock guards, as in the engine's `QueueState`.
struct State {
    requests: VecDeque<usize>,
    closed: bool,
    in_flight: usize,
}

/// One request's response slot: how many times it was answered, under
/// its own lock, and the condvar its submitter parks on.
struct Slot {
    answers: Mutex<usize>,
    ready: Condvar,
}

/// The overload policies. `Timeout` carries the number of batches a
/// submitter may serve before it sheds, standing in for a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    Block,
    Shed,
    Timeout(usize),
}

/// What a submit attempt came back with, mirroring the engine's
/// `Ok(slot)` / `Err(Overloaded)` / `Err(ShutDown)` split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Accepted,
    Shed,
    Rejected,
}

/// The engine's `Shared`, reduced to its synchronization skeleton:
/// requests are slot indices, and answering one bumps its count.
struct Engine {
    state: Mutex<State>,
    drained: Condvar,
    slots: Vec<Slot>,
    capacity: usize,
    max_batch: usize,
    policy: Policy,
    /// Each request's submit outcome. Test bookkeeping outside the
    /// modeled protocol: a plain `std` lock, which is no yield point and
    /// never contends because one virtual thread runs at a time.
    outcomes: std_sync::Mutex<Vec<Option<Outcome>>>,
}

impl Engine {
    fn new(requests: usize, capacity: usize, max_batch: usize, policy: Policy) -> Self {
        Self {
            state: Mutex::new(State {
                requests: VecDeque::new(),
                closed: false,
                in_flight: 0,
            }),
            drained: Condvar::new(),
            slots: (0..requests)
                .map(|_| Slot {
                    answers: Mutex::new(0),
                    ready: Condvar::new(),
                })
                .collect(),
            capacity,
            max_batch,
            policy,
            outcomes: std_sync::Mutex::new(vec![None; requests]),
        }
    }

    /// Mirrors `Shared::submit`: while the queue is full, refuse under
    /// `Shed` (no serve and no wait transition exist on that path, so
    /// termination across every schedule is the proof that `Shed` never
    /// blocks), refuse under `Timeout` once its turns are spent, and
    /// otherwise serve the oldest batch.
    fn submit(&self, id: usize) -> Outcome {
        let mut turns = 0;
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return Outcome::Rejected;
            }
            if state.requests.len() < self.capacity {
                break;
            }
            match self.policy {
                Policy::Shed => return Outcome::Shed,
                Policy::Timeout(patience) if turns == patience => return Outcome::Shed,
                _ => turns += 1,
            }
            self.serve(state);
            state = self.state.lock();
        }
        state.requests.push_back(id);
        Outcome::Accepted
    }

    /// Mirrors `Shared::answer`: take the answer once it is there;
    /// otherwise serve a batch, or park on the slot when the queue is
    /// empty.
    fn answer(&self, id: usize) {
        let slot = &self.slots[id];
        loop {
            if *slot.answers.lock() > 0 {
                return;
            }
            let state = self.state.lock();
            if state.requests.is_empty() {
                drop(state);
                let mut answers = slot.answers.lock();
                while *answers == 0 {
                    answers = slot.ready.wait(answers);
                }
                return;
            }
            self.serve(state);
        }
    }

    /// A submitter's whole call: submit, record the outcome, then
    /// answer what was accepted.
    fn request(&self, id: usize) -> Outcome {
        let outcome = self.submit(id);
        self.outcomes.lock().expect("outcome lock")[id] = Some(outcome);
        if outcome == Outcome::Accepted {
            self.answer(id);
        }
        outcome
    }

    /// The recorded outcomes, once every submitter is done.
    fn outcomes(&self) -> Vec<Outcome> {
        self.outcomes
            .lock()
            .expect("outcome lock")
            .iter()
            .map(|outcome| outcome.expect("every request was submitted"))
            .collect()
    }

    /// Mirrors `Shared::serve`: drain a batch and count it in flight,
    /// answer it outside the lock, then let the last in-flight batch of
    /// a closed queue wake `shutdown` (after the release, like the
    /// engine).
    fn serve(&self, mut state: MutexGuard<'_, State>) {
        let take = state.requests.len().min(self.max_batch);
        let batch: Vec<usize> = state.requests.drain(..take).collect();
        state.in_flight += 1;
        drop(state);
        for id in batch {
            // Mirrors `Slot::fulfill`: store under the slot lock, then
            // notify after the release.
            let slot = &self.slots[id];
            *slot.answers.lock() += 1;
            slot.ready.notify_one();
        }
        let mut state = self.state.lock();
        state.in_flight -= 1;
        let drained = state.closed && state.in_flight == 0;
        drop(state);
        if drained {
            self.drained.notify_all();
        }
    }

    /// Mirrors `Engine::shutdown`. Returns the queue length and the
    /// in-flight count it saw under the lock when it decided to return.
    fn shutdown(&self) -> (usize, usize) {
        let mut state = self.state.lock();
        state.closed = true;
        loop {
            if !state.requests.is_empty() {
                self.serve(state);
                state = self.state.lock();
            } else if state.in_flight == 0 {
                return (state.requests.len(), state.in_flight);
            } else {
                state = self.drained.wait(state);
            }
        }
    }

    /// BROKEN on purpose: returns as soon as the queue is empty, without
    /// waiting for batches in flight on other threads.
    fn shutdown_broken(&self) -> (usize, usize) {
        let mut state = self.state.lock();
        state.closed = true;
        while !state.requests.is_empty() {
            self.serve(state);
            state = self.state.lock();
        }
        (state.requests.len(), state.in_flight)
    }

    /// Asserts, after every thread is done, that each accepted request
    /// was answered exactly once and no refused one was answered.
    fn assert_answered_once(&self) {
        for (id, outcome) in self.outcomes().iter().enumerate() {
            let answers = *self.slots[id].answers.lock();
            let expected = usize::from(*outcome == Outcome::Accepted);
            assert_eq!(
                answers, expected,
                "request {id} ({outcome:?}) answered {answers} times"
            );
        }
    }
}

/// Asserts what `shutdown` saw when it returned.
fn assert_drained((queued, in_flight): (usize, usize)) {
    assert_eq!(queued, 0, "shutdown returned with requests still queued");
    assert_eq!(
        in_flight, 0,
        "shutdown returned with a batch still in flight"
    );
}

/// Runs `body` under the checker and requires a clean, exhausted
/// schedule space.
fn assert_clean(body: impl Fn() + Send + Sync + 'static) {
    let report = model::check(exhaustive(), body);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.complete,
        "space not exhausted in {} runs",
        report.schedules
    );
}

/// Capacity 1, batches of 1, two submitters and three requests: in
/// some schedules a submitter finds the queue full and serves the other
/// one's request, whose submitter then finds the queue empty and parks
/// on its slot. Under `Block` every request is accepted. Under
/// `Timeout` a submitter serves one batch, and sheds when the queue is
/// full again by then; some schedule must shed, or the model would not
/// reach that path. Every accepted request is answered exactly once and
/// both threads finish.
#[test]
fn full_queue_submitters_serve_and_answer_each_request_once() {
    for policy in [Policy::Block, Policy::Timeout(1)] {
        let shed_seen = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&shed_seen);
        assert_clean(move || {
            let engine = Arc::new(Engine::new(3, 1, 1, policy));
            let other = Arc::clone(&engine);
            let submitter = model::spawn(move || {
                other.request(1);
            });
            engine.request(0);
            engine.request(2);
            submitter.join();
            assert_drained(engine.shutdown());
            let outcomes = engine.outcomes();
            assert!(
                !outcomes.contains(&Outcome::Rejected),
                "queue closed too early"
            );
            if outcomes.contains(&Outcome::Shed) {
                assert_ne!(policy, Policy::Block, "Block never sheds");
                seen.store(true, Ordering::Relaxed);
            }
            engine.assert_answered_once();
        });
        assert_eq!(
            shed_seen.load(Ordering::Relaxed),
            policy != Policy::Block,
            "{policy:?}: shed path reached"
        );
    }
}

/// A submitter racing `shutdown`, with room for the whole batch: each
/// request is either rejected or accepted, and an accepted one may be
/// in flight on the submitter's thread when `shutdown` finds the queue
/// empty. `shutdown` must then wait for it, and must return with an
/// empty queue and nothing in flight.
#[test]
fn shutdown_racing_a_submitter_waits_for_its_batch() {
    assert_clean(|| {
        let engine = Arc::new(Engine::new(2, 2, 2, Policy::Block));
        let other = Arc::clone(&engine);
        let submitter = model::spawn(move || {
            other.request(0);
            other.request(1);
        });
        assert_drained(engine.shutdown());
        submitter.join();
        let outcomes = engine.outcomes();
        assert!(!outcomes.contains(&Outcome::Shed), "Block never sheds");
        assert!(
            outcomes != [Outcome::Rejected, Outcome::Accepted],
            "a submit after a refusal was accepted"
        );
        engine.assert_answered_once();
    });
}

/// Under `Shed`, every submit returns immediately — accepted or shed —
/// in every interleaving, and each accepted request is answered exactly
/// once; with no close racing, every attempt is accepted or shed.
#[test]
fn shed_policy_never_blocks_and_reconciles() {
    assert_clean(|| {
        let engine = Arc::new(Engine::new(2, 1, 1, Policy::Shed));
        let other = Arc::clone(&engine);
        let submitter = model::spawn(move || {
            other.request(1);
        });
        engine.request(0);
        submitter.join();
        assert_drained(engine.shutdown());
        assert!(
            !engine.outcomes().contains(&Outcome::Rejected),
            "close had not happened yet"
        );
        engine.assert_answered_once();
    });
}

/// Checker validation for this protocol: a `shutdown` that returns once
/// the queue is empty, without waiting for `in_flight`, returns in some
/// schedule while the submitter's batch is still being answered. The
/// checker must find that schedule.
#[test]
fn checker_finds_shutdown_that_skips_in_flight_batches() {
    let report = model::check(exhaustive(), || {
        let engine = Arc::new(Engine::new(1, 1, 1, Policy::Block));
        let other = Arc::clone(&engine);
        let submitter = model::spawn(move || {
            other.request(0);
        });
        assert_drained(engine.shutdown_broken());
        submitter.join();
    });
    let failure = report.failure.expect("the early return must be found");
    assert!(
        failure.message.contains("still in flight"),
        "unexpected failure: {failure:?}"
    );
}
