//! Bin packing woken only by fixed variables reaches the fixpoints it
//! reached when every narrowing woke it (seeded, like
//! `property_engine.rs`).
//!
//! [`BinPacking`] subscribes with [`WakeOn::Fixed`]: the model wakes it for
//! a popped variable only when that variable is fixed.  The reference here
//! is the same constraint behind a wrapper that subscribes with the default
//! [`WakeOn::Narrowed`] and, like the constraint used to, returns at once
//! for a variable that is still open.  Two models with the same variables
//! and the same 1–3 packing dimensions — one with the constraints, one with
//! the wrappers — are walked in lockstep through random `mark`, `assign`,
//! propagate and `undo_to` steps:
//!
//! * every propagation gives both stores equal domains and equal loads, and
//!   both fail or neither does;
//! * the fixed-only model never runs more propagators than the reference,
//!   and over the whole walk it runs strictly fewer.

use cwcs_model::SmallRng;
use cwcs_solver::constraints::BinPacking;
use cwcs_solver::{DomainStore, Inconsistency, Mark, Model, Propagator, VarId, WakeOn};

const CASES: usize = 256;
const STEPS: usize = 64;

/// The constraint woken on every narrowing of a watched variable, doing
/// nothing for one that is still open.
struct EveryNarrowing(BinPacking);

impl Propagator for EveryNarrowing {
    fn watched(&self) -> &[VarId] {
        self.0.watched()
    }

    fn wake_on(&self) -> WakeOn {
        WakeOn::Narrowed
    }

    fn claim_cells(&mut self, first: usize) -> usize {
        self.0.claim_cells(first)
    }

    fn propagate(&self, store: &mut DomainStore) -> Result<(), Inconsistency> {
        self.0.propagate(store)
    }

    fn narrowed(&self, store: &mut DomainStore, var: VarId) -> Result<(), Inconsistency> {
        if !store.is_fixed(var) {
            return Ok(());
        }
        self.0.narrowed(store, var)
    }
}

/// The same packing model twice: with the constraint, and with the wrapper.
struct Pair {
    fixed_only: Model,
    every: Model,
    vars: Vec<VarId>,
}

fn pair(rng: &mut SmallRng) -> Pair {
    let bins = rng.u64_in(1, 7) as u32;
    let (mut fixed_only, mut every) = (Model::new(), Model::new());
    let mut vars = Vec::new();
    for _ in 0..rng.u64_in(2, 12) {
        let (lo, hi) = match rng.index(8) {
            // Fixed from the start.
            0 => {
                let bin = rng.index(bins as usize) as u32;
                (bin, bin)
            }
            // Candidate bins that do not exist.
            1 => (0, bins + 1),
            _ => (0, bins - 1),
        };
        let var = fixed_only.new_var(lo, hi);
        assert_eq!(every.new_var(lo, hi), var);
        vars.push(var);
    }
    for _ in 0..rng.u64_in(1, 4) {
        let sizes: Vec<u64> = vars.iter().map(|_| rng.u64_in(0, 6)).collect();
        let capacities: Vec<u64> = (0..bins).map(|_| rng.u64_in(2, 17)).collect();
        let packing = BinPacking::new(vars.clone(), sizes, capacities);
        fixed_only.post(packing.clone());
        every.post(EveryNarrowing(packing));
    }
    assert_eq!(fixed_only.cell_count(), every.cell_count());
    Pair {
        fixed_only,
        every,
        vars,
    }
}

/// Both stores, walked in lockstep.
struct Walk {
    fixed_only: DomainStore,
    every: DomainStore,
}

impl Walk {
    fn cells(store: &DomainStore, count: usize) -> Vec<u64> {
        (0..count).map(|cell| store.cell(cell)).collect()
    }

    fn assert_same(&self, pair: &Pair, context: &str) {
        assert!(self.fixed_only == self.every, "{context}: domains differ");
        let count = pair.fixed_only.cell_count();
        let (a, b) = (
            Walk::cells(&self.fixed_only, count),
            Walk::cells(&self.every, count),
        );
        assert_eq!(a, b, "{context}: loads differ");
    }
}

#[test]
fn fixed_only_wakeups_reach_the_fixpoints_of_every_narrowing() {
    let mut rng = SmallRng::seed_from_u64(0xF1C5ED);
    let (mut propagations, mut failures, mut undos) = (0usize, 0u64, 0usize);
    let (mut fixed_only_runs, mut every_runs) = (0u64, 0u64);
    for case in 0..CASES {
        let pair = pair(&mut rng);
        let mut walk = Walk {
            fixed_only: pair.fixed_only.root_store(),
            every: pair.every.root_store(),
        };
        let mark =
            |walk: &mut Walk| -> (Mark, Mark) { (walk.fixed_only.mark(), walk.every.mark()) };
        // The first mark is the root before anything was propagated on it.
        let mut marks = vec![mark(&mut walk)];
        // True while a decision awaits its propagation; `None` once the
        // stores are wiped out and must be undone.
        let mut pending = Some(true);
        for step in 0..STEPS {
            let context = format!("case {case}, step {step}");
            match (pending, rng.index(10)) {
                (Some(false), 0 | 1) => marks.push(mark(&mut walk)),
                (Some(false), 2..=7) | (Some(true), 0..=2) => {
                    let var = pair.vars[rng.index(pair.vars.len())];
                    let held = walk.fixed_only.domain(var).values();
                    let value = match rng.bool_with(0.9) {
                        true => held[rng.index(held.len())],
                        false => rng.u64_in(0, 8) as u32,
                    };
                    let a = walk.fixed_only.assign(var, value).is_ok();
                    let b = walk.every.assign(var, value).is_ok();
                    assert_eq!(a, b, "{context}: the decision");
                    pending = a.then_some(true);
                }
                (Some(false), 8) | (Some(true), 3..=8) => {
                    propagations += 1;
                    let (mut fewer, mut more) = (0, 0);
                    let a = pair.fixed_only.propagate(&mut walk.fixed_only, &mut fewer);
                    let b = pair.every.propagate(&mut walk.every, &mut more);
                    assert_eq!(a.is_ok(), b.is_ok(), "{context}: {a:?} vs {b:?}");
                    assert!(fewer <= more, "{context}: {fewer} runs > {more}");
                    (fixed_only_runs, every_runs) = (fixed_only_runs + fewer, every_runs + more);
                    if a.is_ok() {
                        walk.assert_same(&pair, &context);
                    } else {
                        failures += 1;
                    }
                    pending = a.is_ok().then_some(false);
                }
                _ => {
                    undos += 1;
                    marks.truncate(rng.index(marks.len()) + 1);
                    let &(a, b) = marks.last().expect("the root mark is never dropped");
                    walk.fixed_only.undo_to(a);
                    walk.every.undo_to(b);
                    walk.assert_same(&pair, &context);
                    pending = Some(marks.len() == 1);
                }
            }
        }
    }
    // The walk really went everywhere it claims to …
    assert!(propagations > 20 * CASES, "{propagations} propagations");
    assert!(failures > CASES as u64, "{failures} failures");
    assert!(undos > 5 * CASES, "{undos} undos");
    // … and the open narrowings the reference woke on cost nothing here.
    assert!(
        fixed_only_runs < every_runs,
        "{fixed_only_runs} runs with fixed-only wakeups, {every_runs} with every narrowing"
    );
    println!("{fixed_only_runs} runs with fixed-only wakeups, {every_runs} with every narrowing");
}
