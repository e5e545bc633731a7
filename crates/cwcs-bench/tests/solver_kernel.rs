//! The solver kernel's pinned trees: the node-budgeted search of each of
//! [`KERNEL_SHAPES`] explores exactly the committed `(nodes, failures)` and
//! runs exactly the committed number of propagators under them.
//!
//! A change that moves the first pair changed the search, not just its
//! speed, and the `solver_kernel` bench's timings stop being comparable.  A
//! change that moves only the propagations changed the engine or a
//! propagator's wake-ups: a node wakes the propagators of the variables its
//! decision changed, and bin packing only on fixed variables.  Re-take a
//! constant only when that was the point of the change.

use cwcs_bench::kernel::KERNEL_SHAPES;

/// `(nodes, failures, propagations)` per shape, in [`KERNEL_SHAPES`] order.
const PINNED: [(u64, u64, u64); 3] = [
    (2_000, 1_482, 88_836),
    (4_000, 3_351, 27_860),
    (20_000, 17_022, 102_844),
];

#[test]
fn the_kernel_explores_its_pinned_trees() {
    for (shape, (nodes, failures, propagations)) in KERNEL_SHAPES.iter().zip(PINNED) {
        let id = shape.id();
        let stats = shape.instance().search();
        assert_eq!(
            (stats.nodes, stats.failures),
            (nodes, failures),
            "{id}: the kernel explored a different tree"
        );
        assert_eq!(
            stats.propagations, propagations,
            "{id}: the same tree took other propagation work"
        );
    }
}
