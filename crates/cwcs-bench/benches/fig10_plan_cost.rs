//! Bench for Figure 10: cost of the reconfiguration plan computed by
//! First-Fit Decreasing vs the CP optimizer on generated configurations.
//!
//! The benchmark measures the optimization time on down-scaled instances so
//! that `cargo bench` stays fast; it also prints the FFD vs Entropy costs so
//! the ~order-of-magnitude reduction of the paper is visible in the output.
//! The full-size sweep is available via `cargo run --release --bin
//! fig10_cost_reduction`.

use std::time::Duration;

use cwcs_bench::BenchGroup;
use cwcs_core::decision::DecisionModule;
use cwcs_core::{FcfsConsolidation, SolverConfig};
use cwcs_workload::{GeneratorParams, TraceGenerator};

fn main() {
    let mut group = BenchGroup::new("fig10_plan_cost");
    group.sample_size(10);

    for vm_target in [36usize, 72] {
        let params = GeneratorParams {
            node_count: 40,
            ..GeneratorParams::figure_10(vm_target, 1)
        };
        let generated = TraceGenerator::new(params).generate();
        let decision = FcfsConsolidation::new()
            .decide(
                &generated.configuration,
                &generated.vjobs,
                &Default::default(),
            )
            .expect("decision succeeds");

        group.bench(&format!("ffd/{vm_target}"), || {
            let optimizer = SolverConfig::default()
                .with_timeout(Duration::from_millis(200))
                .build_optimizer();
            optimizer
                .ffd_outcome(&generated.configuration, &decision, &generated.vjobs)
                .map(|o| o.cost.total)
                .unwrap_or(0)
        });
        group.bench(&format!("entropy/{vm_target}"), || {
            let optimizer = SolverConfig::default()
                .with_timeout(Duration::from_millis(200))
                .build_optimizer();
            optimizer
                .optimize(&generated.configuration, &decision, &generated.vjobs)
                .map(|o| o.cost.total)
                .unwrap_or(0)
        });

        let optimizer = SolverConfig::default()
            .with_timeout(Duration::from_millis(500))
            .build_optimizer();
        let ffd = optimizer
            .ffd_outcome(&generated.configuration, &decision, &generated.vjobs)
            .map(|o| o.cost.total)
            .unwrap_or(0);
        let entropy = optimizer
            .optimize(&generated.configuration, &decision, &generated.vjobs)
            .map(|o| o.cost.total)
            .unwrap_or(0);
        println!(
            "fig10 ({} VMs, 40 nodes): FFD cost {}, Entropy cost {} ({:.1}% reduction)",
            generated.vm_count(),
            ffd,
            entropy,
            if ffd > 0 {
                100.0 * (ffd as f64 - entropy as f64) / ffd as f64
            } else {
                0.0
            }
        );
    }
}
