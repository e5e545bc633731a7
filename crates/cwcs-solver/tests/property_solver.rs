//! Property-based tests of the constraint solver: soundness of propagation
//! (no feasible value is ever pruned), completeness of search on small
//! instances, and optimality of branch & bound.
//!
//! The properties are exercised over seeded randomized instances (the
//! container has no crates.io access, so `proptest` is replaced by a
//! deterministic [`SmallRng`] driver — same seed, same cases, every run).

use cwcs_model::SmallRng;
use cwcs_solver::constraints::{AllDifferent, BinPacking, LinearLeq};
use cwcs_solver::search::{ClosureObjective, Search, SearchConfig};
use cwcs_solver::{DomainStore, Model, VarId};

const CASES: usize = 64;

/// Brute-force enumeration of the assignments of `domains` (small sizes only)
/// that satisfy `check`.
fn brute_force<F: Fn(&[u32]) -> bool>(domains: &[Vec<u32>], check: F) -> Vec<Vec<u32>> {
    let mut solutions = Vec::new();
    let mut assignment = vec![0u32; domains.len()];
    fn recurse<F: Fn(&[u32]) -> bool>(
        domains: &[Vec<u32>],
        index: usize,
        assignment: &mut Vec<u32>,
        check: &F,
        out: &mut Vec<Vec<u32>>,
    ) {
        if index == domains.len() {
            if check(assignment) {
                out.push(assignment.clone());
            }
            return;
        }
        for &value in &domains[index] {
            assignment[index] = value;
            recurse(domains, index + 1, assignment, check, out);
        }
    }
    recurse(domains, 0, &mut assignment, &check, &mut solutions);
    solutions
}

/// Random vector of `len in len_range` values drawn from `lo..hi`.
fn random_vec(rng: &mut SmallRng, len_lo: usize, len_hi: usize, lo: u64, hi: u64) -> Vec<u64> {
    let len = rng.u64_in(len_lo as u64, len_hi as u64) as usize;
    (0..len).map(|_| rng.u64_in(lo, hi)).collect()
}

/// Bin packing: the solver finds a solution exactly when brute force does,
/// and every solution it returns satisfies the capacities.
#[test]
fn bin_packing_agrees_with_brute_force() {
    let mut rng = SmallRng::seed_from_u64(0xB1);
    for case in 0..CASES {
        let sizes = random_vec(&mut rng, 1, 5, 1, 5);
        let capacities = random_vec(&mut rng, 1, 4, 1, 8);

        let mut model = Model::new();
        let n_bins = capacities.len() as u32;
        let vars: Vec<VarId> = (0..sizes.len())
            .map(|_| model.new_var(0, n_bins - 1))
            .collect();
        model.post(BinPacking::new(
            vars.clone(),
            sizes.clone(),
            capacities.clone(),
        ));
        let solution = Search::new(&model, SearchConfig::default()).solve();

        let domains: Vec<Vec<u32>> = (0..sizes.len()).map(|_| (0..n_bins).collect()).collect();
        let reference = brute_force(&domains, |assignment| {
            let mut load = vec![0u64; capacities.len()];
            for (i, &bin) in assignment.iter().enumerate() {
                load[bin as usize] += sizes[i];
            }
            load.iter().zip(&capacities).all(|(l, c)| l <= c)
        });

        assert_eq!(
            solution.is_some(),
            !reference.is_empty(),
            "case {case}: sizes {sizes:?} capacities {capacities:?}"
        );
        if let Some(solution) = solution {
            let mut load = vec![0u64; capacities.len()];
            for (i, &var) in vars.iter().enumerate() {
                load[solution[var] as usize] += sizes[i];
            }
            for (l, c) in load.iter().zip(&capacities) {
                assert!(l <= c, "case {case}: overloaded bin");
            }
        }
    }
}

/// Linear inequalities: every enumerated solution satisfies the bound and
/// the count matches brute force.
#[test]
fn linear_leq_enumeration_matches_brute_force() {
    let mut rng = SmallRng::seed_from_u64(0x1E);
    for case in 0..CASES {
        let coefficients = random_vec(&mut rng, 1, 4, 0, 4);
        let bound = rng.u64_in(0, 10);
        let domain_max = rng.u64_in(1, 4) as u32;

        let mut model = Model::new();
        let vars: Vec<VarId> = (0..coefficients.len())
            .map(|_| model.new_var(0, domain_max))
            .collect();
        model.post(LinearLeq::new(vars.clone(), coefficients.clone(), bound));
        let solutions = Search::new(&model, SearchConfig::default()).solve_all(100_000);

        let domains: Vec<Vec<u32>> = (0..coefficients.len())
            .map(|_| (0..=domain_max).collect())
            .collect();
        let reference = brute_force(&domains, |assignment| {
            assignment
                .iter()
                .enumerate()
                .map(|(i, &v)| coefficients[i] * v as u64)
                .sum::<u64>()
                <= bound
        });
        assert_eq!(
            solutions.len(),
            reference.len(),
            "case {case}: coefficients {coefficients:?} bound {bound} max {domain_max}"
        );
    }
}

/// Branch & bound returns the true optimum on small all-different
/// weighted-assignment problems.
#[test]
fn minimize_finds_the_true_optimum() {
    let mut rng = SmallRng::seed_from_u64(0xBB);
    for case in 0..CASES {
        // 3 variables over values {0,1,2}, all different, minimise the sum of
        // per-variable value costs.
        let costs: Vec<Vec<i64>> = (0..3)
            .map(|_| (0..3).map(|_| rng.u64_in(0, 20) as i64).collect())
            .collect();

        let mut model = Model::new();
        let vars: Vec<VarId> = (0..3).map(|_| model.new_var(0, 2)).collect();
        model.post(AllDifferent::new(vars.clone()));
        let cost_table = costs.clone();
        let vars_for_eval = vars.clone();
        let objective = ClosureObjective::new(
            move |store: &DomainStore| {
                vars_for_eval
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| cost_table[i][store.value(v) as usize])
                    .sum()
            },
            |_| i64::MIN,
        );
        let outcome = Search::new(&model, SearchConfig::default()).minimize(&objective);
        let best = outcome.best_cost.expect("a permutation always exists");

        // Brute force over the 6 permutations.
        let mut reference = i64::MAX;
        for p in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let cost: i64 = (0..3).map(|i| costs[i][p[i] as usize]).sum();
            reference = reference.min(cost);
        }
        assert_eq!(best, reference, "case {case}: costs {costs:?}");
        assert!(outcome.stats.completed, "case {case}: search must complete");
    }
}
