//! # cwcs-solver — a finite-domain constraint-programming solver
//!
//! Entropy delegates the search for a cheap viable configuration to a
//! constraint-programming solver (Choco in the original Java implementation).
//! This crate is a from-scratch reimplementation of the primitives the paper
//! relies on:
//!
//! * finite integer **domains** — one bitset implementation with word-level
//!   operations ([`domain`]) — and a **domain store** that keeps every domain
//!   of a search in one flat word arena, next to the `u64` cells propagators
//!   keep their state in, with an undo **trail** for both behind `mark()` /
//!   `undo_to(mark)` ([`store`]),
//! * a **propagator** interface ([`propagator`]) and the event-driven
//!   propagation engine that drives it ([`Model::propagate`]),
//! * the **constraints** used by the placement model: the **bin-packing**
//!   constraint of Shaw (2004) that Entropy uses to model per-node CPU and
//!   memory capacities, one per resource dimension, plus the linear
//!   inequalities, constant (dis)equalities and all-different that test
//!   fixtures are built from ([`constraints`]),
//! * the **anchored-cost objective**, the paper's incremental plan-cost
//!   estimate: one price per variable at its anchor value and one
//!   elsewhere, posted into the model as a propagator that keeps each
//!   variable's cheapest price and their sum in trailed cells, so the bound
//!   a node prunes with costs what its decision changed
//!   ([`anchored_cost`]),
//! * a depth-first **search** with first-fail variable ordering, configurable
//!   value ordering, **branch & bound** minimisation, a solve **timeout** and
//!   anytime behaviour (the best solution found so far is kept, exactly like
//!   Entropy keeps improving the plan until it proves optimality or hits its
//!   time limit) ([`search`]),
//! * a parallel **portfolio** that partitions the root decision across
//!   workers (each keeps its slice of the root values), shares the
//!   incumbent of timed races through one atomic bound and proves
//!   optimality when no worker stopped early ([`portfolio`]).
//!
//! The solver is deliberately small and deterministic.  What a budget buys
//! is search nodes per second, so a node is built to cost what its decision
//! changed and nothing else.  Propagation is a queue of the variables that
//! were narrowed, drained until it is empty: each wakes the propagators
//! subscribed to it, with the variable, and the bin-packing constraint
//! keeps its per-bin loads in trailed cells and is woken only by an item
//! that became fixed, so fixing an item touches one bin
//! (`tests/property_engine.rs` holds the fixpoints against the loop that
//! re-ran every propagator).  The plan-cost bound is kept on the same
//! trail (`tests/property_bound.rs` holds it to the scan it replaced).  A search (or a portfolio worker) owns **one**
//! store, remembers a choice point as a mark on the trail instead of a copy,
//! and walks the tree with one iterative loop over an explicit stack of
//! frames — a steady-state node performs no heap allocation
//! (`tests/alloc_free_search.rs` counts them) and a dive as deep as the
//! model has variables costs heap frames, not thread stack.
//!
//! ```
//! use cwcs_solver::{Model, VarId};
//! use cwcs_solver::constraints::AllDifferent;
//! use cwcs_solver::search::{Search, SearchConfig};
//!
//! // Three tasks, three slots, all different.
//! let mut model = Model::new();
//! let vars: Vec<VarId> = (0..3).map(|_| model.new_var(0, 2)).collect();
//! model.post(AllDifferent::new(vars.clone()));
//! let solution = Search::new(&model, SearchConfig::default()).solve().unwrap();
//! let values: Vec<u32> = vars.iter().map(|&v| solution[v]).collect();
//! let mut sorted = values.clone();
//! sorted.sort();
//! assert_eq!(sorted, vec![0, 1, 2]);
//! ```

pub mod anchored_cost;
pub mod constraints;
pub mod domain;
pub mod portfolio;
pub mod propagator;
pub mod search;
pub mod store;

pub use anchored_cost::{capacity_floor, AnchoredCost, CostRow};
pub use domain::{Domain, DomainRef, IntDomain};
pub use portfolio::{
    PortfolioConfig, PortfolioOutcome, PortfolioSearch, PortfolioStats, WorkerReport, WorkerRole,
};
pub use propagator::{Inconsistency, Propagator, WakeOn};
pub use search::{Objective, Search, SearchConfig, SearchStats, Solution};
pub use store::{DomainStore, Mark, Model, VarId};
