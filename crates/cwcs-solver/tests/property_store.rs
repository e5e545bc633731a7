//! The trailed domain store against two oracles (seeded, like
//! `property_solver.rs`):
//!
//! * **the trail against a clone** — random sequences of marks, narrowing
//!   operations, failed decisions (which leave the store wiped out) and
//!   nested undos; every `undo_to(mark)` must leave the store `==` to a
//!   `clone()` taken at the mark.  Copying the store is this test's oracle
//!   and nothing else's: search never clones to remember a choice point;
//! * **the bitset against a `BTreeSet`** — every word-level domain operation
//!   on domains that straddle word boundaries, bounds and iteration order
//!   included.

use std::collections::BTreeSet;

use cwcs_model::SmallRng;
use cwcs_solver::{DomainStore, IntDomain, Mark, Model, VarId};

/// Values around every word boundary of a three-word domain.
const EDGES: [u32; 6] = [0, 63, 64, 127, 128, 191];

/// A value to aim an operation at: an edge half of the time.
fn pick_value(rng: &mut SmallRng) -> u32 {
    if rng.bool_with(0.5) {
        EDGES[rng.index(EDGES.len())]
    } else {
        rng.u64_in(0, 200) as u32
    }
}

/// One random narrowing of `var`; `Err` is a wipe-out.
fn narrow(store: &mut DomainStore, var: VarId, rng: &mut SmallRng) -> Result<bool, ()> {
    let value = pick_value(rng);
    let result = match rng.index(6) {
        0 => store.assign(var, value),
        // An assignment that usually succeeds: a value the domain holds.
        1 => {
            let held = store.domain(var).values();
            store.assign(var, held[rng.index(held.len())])
        }
        2 => store.remove(var, value),
        3 => store.remove_below(var, value),
        4 => store.remove_above(var, value),
        _ => {
            let (modulus, residue) = (rng.u64_in(2, 5) as u32, rng.index(2) as u32);
            store.retain(var, |v| v % modulus != residue)
        }
    };
    result.map_err(|_| ())
}

#[test]
fn undo_to_restores_the_store_a_clone_remembers() {
    let mut rng = SmallRng::seed_from_u64(0x5702E);
    for case in 0..64 {
        // Domains of one, two and three words in one arena.
        let mut model = Model::new();
        let vars: Vec<VarId> = (0..rng.u64_in(2, 9))
            .map(|_| model.new_var(0, [40, 63, 64, 100, 191][rng.index(5)]))
            .collect();
        let mut store = model.root_store();
        // Narrowing before the first mark is never undone.
        if (0..3).any(|_| narrow(&mut store, vars[rng.index(vars.len())], &mut rng).is_err()) {
            continue;
        }
        let mut marks: Vec<(Mark, DomainStore)> = vec![(store.mark(), store.clone())];
        for step in 0..200 {
            let wiped = match rng.index(10) {
                0 | 1 => {
                    marks.push((store.mark(), store.clone()));
                    false
                }
                2 => true, // undo although nothing failed
                _ => narrow(&mut store, vars[rng.index(vars.len())], &mut rng).is_err(),
            };
            if wiped {
                // Back to a random live mark — possibly several levels up —
                // which kills the marks above it.
                marks.truncate(rng.index(marks.len()) + 1);
                let (mark, remembered) = marks.last().expect("the first mark is never dropped");
                store.undo_to(*mark);
                assert!(
                    store == *remembered,
                    "case {case} step {step}: undo lost a change"
                );
            }
            let fixed = vars.iter().all(|&v| store.is_fixed(v));
            assert_eq!(
                store.all_fixed(),
                fixed,
                "case {case} step {step}: open count"
            );
        }
    }
}

/// Everything observable about a domain, against the model set.
fn assert_same(domain: &IntDomain, model: &BTreeSet<u32>, context: &str) {
    assert_eq!(domain.size() as usize, model.len(), "{context}: size");
    assert_eq!(domain.is_empty(), model.is_empty(), "{context}: is_empty");
    assert_eq!(domain.is_fixed(), model.len() == 1, "{context}: is_fixed");
    let in_order: Vec<u32> = model.iter().copied().collect();
    assert_eq!(
        domain.iter().collect::<Vec<_>>(),
        in_order,
        "{context}: iter"
    );
    assert_eq!(domain.values(), in_order, "{context}: values");
    for value in 0..200 {
        assert_eq!(
            domain.contains(value),
            model.contains(&value),
            "{context}: contains {value}"
        );
    }
    if let (Some(&min), Some(&max)) = (model.first(), model.last()) {
        assert_eq!(
            (domain.min(), domain.max()),
            (min, max),
            "{context}: bounds"
        );
    }
}

#[test]
fn word_level_operations_agree_with_a_set_model() {
    let mut rng = SmallRng::seed_from_u64(0xB175);
    for case in 0..200 {
        // A random subset of 0..=191, each edge forced in or out in turn.
        let mut model: BTreeSet<u32> = (0..192).filter(|_| rng.bool_with(0.4)).collect();
        for (bit, &edge) in EDGES.iter().enumerate() {
            if case >> bit & 1 == 1 {
                model.insert(edge);
            } else {
                model.remove(&edge);
            }
        }
        if model.is_empty() {
            continue;
        }
        let mut domain = IntDomain::from_values(&model.iter().copied().collect::<Vec<_>>());
        assert_same(&domain, &model, &format!("case {case}: built"));
        for step in 0..24 {
            if model.is_empty() {
                break;
            }
            let before = model.clone();
            let value = pick_value(&mut rng);
            // Removing an extreme is the path that recomputes a bound.
            let (min, max) = (*model.first().unwrap(), *model.last().unwrap());
            let (op, changed) = match rng.index(8) {
                0 => {
                    model.remove(&value);
                    ("remove", domain.remove(value))
                }
                1 => {
                    model.remove(&min);
                    ("remove min", domain.remove(min))
                }
                2 => {
                    model.remove(&max);
                    ("remove max", domain.remove(max))
                }
                3 => {
                    model.retain(|&v| v >= value);
                    ("remove_below", domain.remove_below(value))
                }
                4 => {
                    model.retain(|&v| v <= value);
                    ("remove_above", domain.remove_above(value))
                }
                5 => {
                    model.retain(|&v| v == value);
                    ("assign", domain.assign(value))
                }
                6 => {
                    model.retain(|&v| v == min);
                    ("assign min", domain.assign(min))
                }
                _ => {
                    let modulus = rng.u64_in(2, 7) as u32;
                    model.retain(|&v| v % modulus != 0);
                    ("retain", domain.retain(|v| v % modulus != 0))
                }
            };
            let context = format!("case {case} step {step}: {op}({value})");
            assert_eq!(changed, model != before, "{context}: change report");
            assert_same(&domain, &model, &context);
        }
    }
}
