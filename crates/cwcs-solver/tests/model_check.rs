//! Model-checked concurrency suites for the solver's lock-free core.
//!
//! This file only builds under `RUSTFLAGS="--cfg cwcs_check"`, which routes
//! every atomic in [`cwcs_solver::sync`] through the `cwcs-check` runtime:
//! test bodies run as cooperative threads under a bounded-DFS scheduler with
//! a weak-memory model (per-location store histories), so both interleaving
//! bugs *and* ordering bugs are observable.  See `CONCURRENCY.md` for how to
//! write these tests.
//!
//! Three protocols are covered:
//!
//! * the Chase–Lev deque's **exactly-once** pop/steal invariant, in tiny
//!   configurations (2–3 threads, 1–2 items, rings down to 2 slots);
//! * [`SharedBound`]'s fetch-min **monotonicity** under concurrent publish;
//! * [`PendingCounter`]'s **drain soundness**: observing the counter at zero
//!   proves every published unit of work has completed *and published its
//!   effects*.
//!
//! The `mutation_*` tests only exist under the `cwcs_mutate_take_fence` /
//! `cwcs_mutate_steal_cas` cfgs, which weaken a load-bearing `SeqCst` site
//! in `deque.rs`.  Each asserts the checker *finds* a violation — proof the
//! suite has teeth.  CI runs those builds filtered to `mutation_` so the
//! regular tests (which would rightly fail on a mutated deque) stay out.
#![cfg(cwcs_check)]

use std::sync::Arc;

use cwcs_check::{CheckConfig, Checker};
use cwcs_solver::sync::{thread, AtomicI64, Ordering};
use cwcs_solver::{work_deque, PendingCounter, SharedBound, Steal};

/// A config for the deque state spaces: the protocol has ~40 scheduling
/// points per execution, so an unbounded DFS is hopeless — two preemptions
/// plus a seeded-random tail is the classic CHESS recipe (most concurrency
/// bugs need very few preemptions; both deque mutations need exactly one).
fn deque_config() -> CheckConfig {
    CheckConfig {
        max_executions: 20_000,
        random_tail: 500,
        ..CheckConfig::bounded(2)
    }
}

/// Drive one deque configuration to completion inside the model: push
/// `items` tasks, race `stealers` thieves against the owner's pop loop, and
/// assert every item surfaced exactly once.  Panics (= model violations)
/// on duplication or loss under *any* explored schedule.
fn deque_exactly_once(items: i64, ring: usize, stealers: usize) {
    let (worker, stealer) = work_deque::<i64>(ring, items as usize);
    for i in 0..items {
        worker
            .push(i)
            .unwrap_or_else(|_| panic!("ring sized for the run"));
    }
    let thieves: Vec<_> = (0..stealers)
        .map(|_| {
            let stealer = stealer.clone();
            thread::spawn(move || {
                let mut mine = Vec::new();
                // Retries are bounded: each one means another thread advanced
                // `top`, which happens at most `items` times — so a small cap
                // terminates every schedule without masking a livelock.
                for _ in 0..(items * 2 + 2) {
                    match stealer.steal() {
                        Steal::Success(v) => mine.push(v),
                        Steal::Retry => {}
                        Steal::Empty => break,
                    }
                }
                mine
            })
        })
        .collect();
    let mut seen = Vec::new();
    while let Some(v) = worker.pop() {
        seen.push(v);
    }
    for thief in thieves {
        seen.extend(thief.join().expect("stealer panicked"));
    }
    // A thief that hit its attempt cap may have left items behind; the
    // post-join drain is sequential, so it recovers them exactly once.
    while let Some(v) = worker.pop() {
        seen.push(v);
    }
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..items).collect::<Vec<i64>>(),
        "an item was lost or taken twice"
    );
}

/// The minimal two-thief configuration: two items, each thief makes exactly
/// one steal attempt while the owner drains.  This is the precise shape in
/// which a `Relaxed` steal CAS duplicates an item (see
/// `mutation_steal_cas_is_detected`); the short body keeps the DFS space
/// small enough for a two-preemption bound.
fn deque_single_attempt_thieves() {
    let (worker, stealer) = work_deque::<i64>(2, 2);
    worker.push(0).expect("ring sized for the run");
    worker.push(1).expect("ring sized for the run");
    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let stealer = stealer.clone();
            thread::spawn(move || match stealer.steal() {
                Steal::Success(v) => Some(v),
                Steal::Retry | Steal::Empty => None,
            })
        })
        .collect();
    let mut seen = Vec::new();
    while let Some(v) = worker.pop() {
        seen.push(v);
    }
    for thief in thieves {
        seen.extend(thief.join().expect("stealer panicked"));
    }
    // A thief that lost its race leaves its item behind; the post-join
    // drain is sequential, so it recovers it exactly once.
    while let Some(v) = worker.pop() {
        seen.push(v);
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1], "an item was lost or taken twice");
}

/// Owner vs one stealer over two items in a two-slot ring: the minimal
/// configuration where the pop fence and the steal CAS are both load-bearing
/// (with a single item the `top` CAS alone arbitrates).
#[test]
fn deque_two_items_one_stealer_exactly_once() {
    Checker::new(deque_config())
        .check(|| deque_exactly_once(2, 2, 1))
        .unwrap_or_else(|v| panic!("deque violates exactly-once:\n{v}"));
}

/// The classic hot spot: exactly one item, owner popping while a thief
/// steals — the `top` CAS must hand it to exactly one side.
#[test]
fn deque_last_item_race_exactly_once() {
    Checker::new(deque_config())
        .check(|| deque_exactly_once(1, 2, 1))
        .unwrap_or_else(|v| panic!("deque duplicates the last item:\n{v}"));
}

/// Three threads: two thieves racing each other *and* the owner.  One
/// preemption keeps the 3-thread space tractable; the seeded-random tail
/// adds schedules beyond the bound.
#[test]
fn deque_two_items_two_stealers_exactly_once() {
    let config = CheckConfig {
        max_executions: 20_000,
        random_tail: 500,
        ..CheckConfig::bounded(1)
    };
    Checker::new(config)
        .check(|| deque_exactly_once(2, 2, 2))
        .unwrap_or_else(|v| panic!("deque violates exactly-once:\n{v}"));
}

/// The unmutated deque survives the exact configuration the steal-CAS
/// mutation fails: the checker has no false positive on the repaired
/// protocol under the same two-preemption budget.
#[test]
fn deque_single_attempt_thieves_exactly_once() {
    Checker::new(deque_config())
        .check(deque_single_attempt_thieves)
        .unwrap_or_else(|v| panic!("deque violates exactly-once:\n{v}"));
}

/// `SharedBound::publish` is a fetch-min: no observer ever sees the bound
/// rise, and the final bound is the global minimum of everything published.
#[test]
fn shared_bound_fetch_min_is_monotone() {
    Checker::new(CheckConfig::bounded(2))
        .check(|| {
            let bound = SharedBound::new();
            let remote = bound.clone();
            let racer = thread::spawn(move || {
                remote.publish(40);
                remote.publish(25);
            });
            let first = bound.best_cost();
            bound.publish(30);
            let second = bound.best_cost();
            if let (Some(a), Some(b)) = (first, second) {
                assert!(b <= a, "bound rose from {a} to {b} at one observer");
            }
            racer.join().expect("publisher panicked");
            assert_eq!(
                bound.best_cost(),
                Some(25),
                "final bound must be the global minimum"
            );
        })
        .unwrap_or_else(|v| panic!("SharedBound violates monotonicity:\n{v}"));
}

/// Drain soundness of the portfolio's pending-checkpoint counter: the
/// coordinator seeds one `publish` per unit of work *before* the workers
/// start (the over-approximation invariant), each worker publishes its
/// result and then `complete`s, and any observer that sees `drained()`
/// must also see every result — the `AcqRel`/`Acquire` edge carries them.
#[test]
fn pending_counter_drain_is_sound() {
    Checker::new(CheckConfig::bounded(2))
        .check(|| {
            let pending = Arc::new(PendingCounter::new());
            let results: Vec<Arc<AtomicI64>> =
                (0..2).map(|_| Arc::new(AtomicI64::new(0))).collect();
            // Seeded before spawn: the counter over-approximates from the
            // start, so `drained()` can never be observed early.
            pending.publish();
            pending.publish();
            let workers: Vec<_> = results
                .iter()
                .map(|slot| {
                    let slot = Arc::clone(slot);
                    let pending = Arc::clone(&pending);
                    thread::spawn(move || {
                        // relaxed: the `complete` below (AcqRel) publishes
                        // this result to whoever observes `drained()`.
                        slot.store(7, Ordering::Relaxed);
                        pending.complete();
                    })
                })
                .collect();
            if pending.drained() {
                for (i, slot) in results.iter().enumerate() {
                    // relaxed: ordered by the drained() Acquire edge above.
                    assert_eq!(
                        slot.load(Ordering::Relaxed),
                        7,
                        "drained() observed but worker {i}'s result is stale"
                    );
                }
            }
            for worker in workers {
                worker.join().expect("worker panicked");
            }
        })
        .unwrap_or_else(|v| panic!("PendingCounter drain is unsound:\n{v}"));
}

/// A failed donation retracts its publish; the counter still drains to
/// exactly zero and never goes negative (u64 wrap would read as huge).
#[test]
fn pending_counter_retract_balances() {
    Checker::new(CheckConfig::bounded(2))
        .check(|| {
            let pending = Arc::new(PendingCounter::new());
            pending.publish();
            pending.publish();
            let remote = Arc::clone(&pending);
            let worker = thread::spawn(move || {
                // This worker's push failed: retract instead of complete.
                remote.retract();
            });
            pending.complete();
            worker.join().expect("worker panicked");
            assert!(pending.drained(), "balanced counter must drain");
            assert_eq!(pending.outstanding(), 0);
        })
        .unwrap_or_else(|v| panic!("PendingCounter retract is unsound:\n{v}"));
}

/// Teeth check: with pop's `SeqCst` fence weakened to `Release`, the owner
/// can miss a stealer's `top` advance and hand out an already-stolen item.
/// The checker must find that schedule.  (Two items: the one-item path is
/// immune — the CAS arbitrates it.)
#[cfg(cwcs_mutate_take_fence)]
#[test]
fn mutation_take_fence_is_detected() {
    let violation = Checker::new(deque_config())
        .check(|| deque_exactly_once(2, 2, 1))
        .expect_err("weakened pop fence must be caught by the model checker");
    assert!(
        !violation.trace.is_empty(),
        "violation should carry a schedule trace"
    );
}

/// Teeth check: with the steal CAS weakened to `Relaxed`, a claim never
/// enters the SeqCst order the pop fence synchronizes with, so the owner
/// can miss it even with the fence intact.  A *single* stealer cannot show
/// this — its own `SeqCst` fence runs at the start of each steal, so every
/// CAS but the last leaks into the SC order and the owner stale-reads `top`
/// by at most one, which CAS atomicity repairs.  Two stealers doing one
/// claim each leave both claims outside the SC order: the owner can read
/// `top == 0` after both items are gone and hand out `ring[1]` twice.
#[cfg(cwcs_mutate_steal_cas)]
#[test]
fn mutation_steal_cas_is_detected() {
    let violation = Checker::new(deque_config())
        .check(deque_single_attempt_thieves)
        .expect_err("relaxed steal CAS must be caught by the model checker");
    assert!(
        !violation.trace.is_empty(),
        "violation should carry a schedule trace"
    );
}
