//! Figure 1 — batch-scheduler limitations: FCFS vs EASY backfilling vs
//! backfilling with preemption.
//!
//! Runs the illustrative 4-job scenario of the figure and a larger random
//! job stream through the four scheduling policies, and reports makespan,
//! utilization and mean wait time.  On the random stream it asserts the
//! expected shape: preemption ≤ EASY ≤ FCFS for the makespan, and the
//! opposite order for utilization — preemption runs jobs "even partially"
//! on idle processors, which is the motivation for cluster-wide context
//! switches.

use cwcs_model::SmallRng;
use cwcs_workload::{BatchJob, BatchOutcome, BatchScheduler, SchedulerKind};

fn policies() -> [SchedulerKind; 4] {
    [
        SchedulerKind::Fcfs,
        SchedulerKind::EasyBackfilling,
        SchedulerKind::ConservativeBackfilling,
        SchedulerKind::EasyWithPreemption,
    ]
}

/// Print each policy's outcome on `jobs`, and return them in [`policies`]
/// order.
fn report(title: &str, jobs: &[BatchJob], processors: u32) -> [BatchOutcome; 4] {
    println!("{title} ({} jobs, {processors} processors)", jobs.len());
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "policy", "makespan(s)", "utilization", "mean wait(s)"
    );
    let outcomes = policies().map(|kind| BatchScheduler::new(kind, processors).schedule(jobs));
    for outcome in &outcomes {
        println!(
            "{:<26} {:>12.0} {:>11.1}% {:>12.0}",
            format!("{:?}", outcome.kind),
            outcome.makespan,
            outcome.utilization * 100.0,
            outcome.mean_wait
        );
    }
    println!();
    outcomes
}

fn main() {
    // The 4-job illustration of Figure 1.
    let figure_1 = vec![
        BatchJob::exact(1, 0.0, 5, 120.0),
        BatchJob::exact(2, 5.0, 3, 60.0),
        BatchJob::exact(3, 10.0, 3, 60.0),
        BatchJob::exact(4, 15.0, 7, 90.0),
    ];
    report("Figure 1 example", &figure_1, 8);

    // A random stream of 60 jobs on 22 processors (the capacity of the
    // paper's 11-node dual-core cluster).
    let mut rng = SmallRng::seed_from_u64(42);
    let stream: Vec<BatchJob> = (0..60)
        .map(|i| {
            let submit = i as f64 * rng.f64_in(5.0, 30.0);
            let procs = rng.u32_in_inclusive(1, 9);
            let runtime = rng.f64_in(120.0, 1800.0);
            BatchJob::exact(i, submit, procs, runtime)
        })
        .collect();
    let [fcfs, easy, _, preemption] = report("Random job stream", &stream, 22);
    assert!(
        preemption.makespan <= easy.makespan && easy.makespan <= fcfs.makespan,
        "makespan must order preemption <= EASY <= FCFS"
    );
    assert!(
        preemption.utilization >= easy.utilization && easy.utilization >= fcfs.utilization,
        "utilization must order preemption >= EASY >= FCFS"
    );
}
