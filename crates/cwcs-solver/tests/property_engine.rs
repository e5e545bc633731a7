//! The propagation engine against a from-scratch oracle (seeded, like
//! `property_solver.rs`).
//!
//! [`Model::propagate`] wakes a propagator only for a variable that was
//! narrowed, and `BinPacking` keeps its committed loads in trailed cells
//! instead of recomputing them.  The oracle here is the loop the engine
//! replaced: run **every** constraint from scratch, again and again, until a
//! whole round changes nothing.  It works on a clone of the store taken
//! before the engine runs, re-derives each packing's loads from the domains
//! (its own code, not `BinPacking`'s) and calls the from-scratch
//! [`Propagator::propagate`] of the stateless constraints.
//!
//! Random models are walked through random sequences of `mark`, `assign`,
//! propagate and `undo_to`:
//!
//! * after every propagation the engine's store `==` the oracle's, and the
//!   engine fails exactly when the oracle does;
//! * after every propagation each bin's trailed load is the total size of
//!   the items fixed to it;
//! * after every `undo_to` the domains and the loads are those of the mark.
//!
//! Marks are taken on a propagated store, where the search takes them, and
//! on the root store before anything was propagated on it (coming back
//! there makes the next propagation start from scratch).

use cwcs_model::SmallRng;
use cwcs_solver::constraints::{AllDifferent, BinPacking, LinearLeq};
use cwcs_solver::{DomainStore, Mark, Model, Propagator, VarId};

const CASES: usize = 256;
const STEPS: usize = 64;

/// One packing dimension, as the oracle sees it.
struct Packing {
    vars: Vec<VarId>,
    sizes: Vec<u64>,
    capacities: Vec<u64>,
    /// The model's cell count when the constraint was posted: bin `b`'s
    /// trailed load is cell `first_cell + b`.
    first_cell: usize,
}

impl Packing {
    /// Total size of the items fixed to each bin, from the domains alone.
    fn committed(&self, store: &DomainStore) -> Vec<u64> {
        let mut committed = vec![0; self.capacities.len()];
        for (&var, &size) in self.vars.iter().zip(&self.sizes) {
            if let Some(bin) = store.fixed_value(var) {
                committed[bin as usize] += size;
            }
        }
        committed
    }

    /// The loads the engine trailed.
    fn trailed(&self, store: &DomainStore) -> Vec<u64> {
        let cells = self.first_cell..self.first_cell + self.capacities.len();
        cells.map(|cell| store.cell(cell)).collect()
    }

    /// One round of the constraint from scratch; `Err` when it cannot hold.
    fn prune(&self, store: &mut DomainStore) -> Result<(), ()> {
        let bins = self.capacities.len();
        if bins == 0 {
            return if self.vars.is_empty() {
                Ok(())
            } else {
                Err(())
            };
        }
        if self.sizes.iter().sum::<u64>() > self.capacities.iter().sum() {
            return Err(());
        }
        for &var in &self.vars {
            store.remove_above(var, bins as u32 - 1).map_err(drop)?;
        }
        let committed = self.committed(store);
        if committed.iter().zip(&self.capacities).any(|(l, c)| l > c) {
            return Err(());
        }
        for (&var, &size) in self.vars.iter().zip(&self.sizes) {
            if !store.is_fixed(var) {
                let fits =
                    |bin: u32| committed[bin as usize] + size <= self.capacities[bin as usize];
                store.retain(var, fits).map_err(drop)?;
            }
        }
        Ok(())
    }
}

/// A random model, and what the oracle needs to know about it.
struct Instance {
    model: Model,
    vars: Vec<VarId>,
    packings: Vec<Packing>,
    /// Copies of the stateless constraints posted next to the packings.
    others: Vec<Box<dyn Propagator>>,
}

/// A random non-empty subset of `vars`, in order; all of them half the time.
fn subset(rng: &mut SmallRng, vars: &[VarId]) -> Vec<VarId> {
    if rng.bool_with(0.5) {
        return vars.to_vec();
    }
    let mut chosen: Vec<VarId> = vars
        .iter()
        .copied()
        .filter(|_| rng.bool_with(0.6))
        .collect();
    if chosen.is_empty() {
        chosen.push(vars[rng.index(vars.len())]);
    }
    chosen
}

fn instance(rng: &mut SmallRng) -> Instance {
    let bins = rng.u64_in(1, 6) as u32;
    let mut model = Model::new();
    let vars: Vec<VarId> = (0..rng.u64_in(2, 9))
        .map(|_| match rng.index(8) {
            // Fixed from the start.
            0 => {
                let bin = rng.index(bins as usize) as u32;
                model.new_var(bin, bin)
            }
            // Candidate bins that do not exist.
            1 => model.new_var(0, bins + 1),
            _ => model.new_var(0, bins - 1),
        })
        .collect();
    let mut packings = Vec::new();
    for _ in 0..rng.u64_in(1, 4) {
        let mut items = subset(rng, &vars);
        if rng.bool_with(0.1) {
            // A variable may carry two items.
            items.push(items[rng.index(items.len())]);
        }
        let sizes: Vec<u64> = items.iter().map(|_| rng.u64_in(0, 6)).collect();
        let capacities: Vec<u64> = (0..bins).map(|_| rng.u64_in(2, 17)).collect();
        let first_cell = model.cell_count();
        model.post(BinPacking::new(
            items.clone(),
            sizes.clone(),
            capacities.clone(),
        ));
        packings.push(Packing {
            vars: items,
            sizes,
            capacities,
            first_cell,
        });
    }
    let mut others: Vec<Box<dyn Propagator>> = Vec::new();
    if rng.bool_with(0.4) {
        // Rarely more variables than values.
        let mut scope = subset(rng, &vars);
        scope.truncate(bins as usize + rng.index(2));
        let constraint = AllDifferent::new(scope);
        model.post(constraint.clone());
        others.push(Box::new(constraint));
    }
    if rng.bool_with(0.4) {
        let scope = subset(rng, &vars);
        let coefficients = scope.iter().map(|_| rng.u64_in(0, 4)).collect();
        let bound = rng.u64_in(scope.len() as u64, 6 * scope.len() as u64);
        let constraint = LinearLeq::new(scope, coefficients, bound);
        model.post(constraint.clone());
        others.push(Box::new(constraint));
    }
    Instance {
        model,
        vars,
        packings,
        others,
    }
}

impl Instance {
    /// The loop the engine replaced: every constraint from scratch until a
    /// whole round changes nothing.
    fn reference_fixpoint(&self, store: &mut DomainStore) -> Result<(), ()> {
        loop {
            let before = store.clone();
            for packing in &self.packings {
                packing.prune(store)?;
            }
            for other in &self.others {
                other.propagate(store).map_err(drop)?;
            }
            if *store == before {
                return Ok(());
            }
        }
    }

    /// Propagate with the engine and hold the outcome against the oracle's;
    /// `false` when both failed.
    fn propagate(&self, store: &mut DomainStore, runs: &mut u64, context: &str) -> bool {
        let mut expected = store.clone();
        let reference = self.reference_fixpoint(&mut expected);
        let engine = self.model.propagate(store, runs);
        assert_eq!(engine.is_ok(), reference.is_ok(), "{context}: {engine:?}");
        if engine.is_err() {
            return false;
        }
        assert_eq!(*store, expected, "{context}: another fixpoint");
        for (d, packing) in self.packings.iter().enumerate() {
            let (trailed, committed) = (packing.trailed(store), packing.committed(store));
            assert_eq!(trailed, committed, "{context}: loads of packing {d}");
        }
        true
    }
}

/// What the store was when a mark was taken.
struct Remembered {
    mark: Mark,
    store: DomainStore,
    loads: Vec<Vec<u64>>,
}

#[test]
fn the_engine_reaches_the_fixpoint_of_the_run_everything_loop() {
    let mut rng = SmallRng::seed_from_u64(0xE461E);
    let (mut propagations, mut failures, mut undos, mut runs) = (0, 0, 0, 0);
    for case in 0..CASES {
        let instance = instance(&mut rng);
        let mut store = instance.model.root_store();
        let remember = |store: &mut DomainStore| Remembered {
            mark: store.mark(),
            store: store.clone(),
            loads: instance.packings.iter().map(|p| p.trailed(store)).collect(),
        };
        // The first mark is the root before anything was propagated on it.
        let mut marks = vec![remember(&mut store)];
        // True while a decision awaits its propagation (a mark must wait
        // too); `None` once the store is wiped out and must be undone.
        let mut pending = Some(true);
        for step in 0..STEPS {
            let context = format!("case {case}, step {step}");
            match (pending, rng.index(10)) {
                (Some(false), 0 | 1) => marks.push(remember(&mut store)),
                (Some(false), 2..=7) | (Some(true), 0..=2) => {
                    // A decision: usually a value the variable can take.
                    let var = instance.vars[rng.index(instance.vars.len())];
                    let held = store.domain(var).values();
                    let value = match rng.bool_with(0.9) {
                        true => held[rng.index(held.len())],
                        false => rng.u64_in(0, 8) as u32,
                    };
                    pending = store.assign(var, value).is_ok().then_some(true);
                }
                (Some(false), 8) | (Some(true), 3..=8) => {
                    propagations += 1;
                    let alive = instance.propagate(&mut store, &mut runs, &context);
                    failures += u64::from(!alive);
                    pending = alive.then_some(false);
                }
                _ => {
                    // Back to a random live mark, possibly several levels
                    // up, which kills the marks above it.
                    undos += 1;
                    marks.truncate(rng.index(marks.len()) + 1);
                    let remembered = marks.last().expect("the root mark is never dropped");
                    store.undo_to(remembered.mark);
                    assert_eq!(store, remembered.store, "{context}: domains");
                    // Only the root mark is on a store nothing was
                    // propagated on: its loads are all 0 and the next
                    // propagation starts over.
                    let virgin = marks.len() == 1;
                    for (packing, loads) in instance.packings.iter().zip(&remembered.loads) {
                        let trailed = packing.trailed(&store);
                        assert_eq!(&trailed, loads, "{context}: loads");
                        if !virgin {
                            assert_eq!(trailed, packing.committed(&store), "{context}");
                        }
                    }
                    pending = Some(virgin);
                }
            }
        }
    }
    // The walk really went everywhere it claims to.
    assert!(propagations > 20 * CASES, "{propagations} propagations");
    assert!(failures > CASES as u64, "{failures} failures");
    assert!(undos > 5 * CASES, "{undos} undos");
    assert!(runs > propagations as u64, "{runs} propagator runs");
}
