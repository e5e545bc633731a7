//! Kernel micro-bench: what one search node costs, per model shape.
//!
//! The repo benchmark (`perf/`) reports `solver.nodes_per_s` per workload,
//! but a set takes eight minutes.  This bench times the node-budgeted search
//! of each of [`KERNEL_SHAPES`] in a few seconds and prints nodes per second
//! and microseconds per node.  The trees those budgets explore, and the
//! propagator executions under them, are pinned by the `solver_kernel` test,
//! so a timing here is only ever compared across identical trees.

use cwcs_bench::kernel::KERNEL_SHAPES;
use cwcs_bench::BenchGroup;

fn main() {
    let mut group = BenchGroup::new("solver_kernel");
    group.sample_size(10);
    for shape in &KERNEL_SHAPES {
        let instance = shape.instance();
        let id = shape.id();
        let stats = instance.search();
        let median = group.bench(&id, || instance.search()).as_secs_f64();
        println!(
            "solver_kernel/{id}: {} nodes, {} failures, {:.1} propagations/node: \
             {:.0} nodes/s, {:.2} µs/node",
            stats.nodes,
            stats.failures,
            stats.propagations as f64 / stats.nodes as f64,
            stats.nodes as f64 / median,
            median * 1e6 / stats.nodes as f64,
        );
    }
}
