//! Batch-scheduler baselines (Figure 1 and the static allocation of §5.2).
//!
//! Jobs are the classic rigid batch jobs: a submission time, a number of
//! processors, a user-provided walltime estimate and an actual runtime.  Four
//! scheduling policies are provided:
//!
//! * [`SchedulerKind::Fcfs`] — strict First-Come/First-Served: no job may
//!   start before an earlier-submitted job has started;
//! * [`SchedulerKind::EasyBackfilling`] — FCFS with EASY backfilling: a later
//!   job may jump ahead as long as it does not delay the *first* job of the
//!   queue (whose start is protected by a reservation based on walltime
//!   estimates);
//! * [`SchedulerKind::ConservativeBackfilling`] — backfilling that gives a
//!   reservation to *every* queued job;
//! * [`SchedulerKind::EasyWithPreemption`] — the idealised policy of
//!   Figure 1(c): processors are re-allocated to jobs in FCFS order at every
//!   event, so a later job can run "even partially" on idle processors and is
//!   suspended (its progress preserved) whenever an earlier job needs the
//!   processors back.
//!
//! The outcome reports per-job start/end times, the makespan and the average
//! utilization, which is what Figures 1 and 12 display.

/// A rigid batch job.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJob {
    /// Identifier (report key).
    pub(crate) id: u32,
    /// Submission time, in seconds.
    pub(crate) submit_time: f64,
    /// Number of processors requested.
    pub(crate) processors: u32,
    /// User walltime estimate, in seconds (used for reservations).
    pub(crate) estimate_secs: f64,
    /// Actual runtime, in seconds (used for execution).
    pub(crate) runtime_secs: f64,
}

impl BatchJob {
    /// A job whose estimate equals its actual runtime.
    pub fn exact(id: u32, submit_time: f64, processors: u32, runtime_secs: f64) -> Self {
        BatchJob {
            id,
            submit_time,
            processors,
            estimate_secs: runtime_secs,
            runtime_secs,
        }
    }
}

/// The scheduling policies of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Strict FCFS, no overtaking.
    Fcfs,
    /// FCFS + EASY backfilling.
    EasyBackfilling,
    /// Conservative backfilling (a reservation per queued job).
    ConservativeBackfilling,
    /// EASY backfilling with preemption (Figure 1(c)).
    EasyWithPreemption,
}

/// Execution record of one job.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobSchedule {
    /// The job.
    pub(crate) job_id: u32,
    /// Time the job first received processors.
    pub(crate) start: f64,
    /// Time the job completed.
    pub(crate) end: f64,
    /// Total time the job was suspended (only non-zero with preemption).
    pub(crate) suspended_secs: f64,
}

impl JobSchedule {
    /// Wait time between submission and first start.
    pub(crate) fn wait(&self, job: &BatchJob) -> f64 {
        self.start - job.submit_time
    }
}

/// Aggregate outcome of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Which policy produced the schedule.
    pub kind: SchedulerKind,
    /// Per-job records, in job id order.
    pub(crate) schedules: Vec<JobSchedule>,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Average processor utilization over `[0, makespan]`, in `[0, 1]`.
    pub utilization: f64,
    /// Mean job wait time.
    pub mean_wait: f64,
}

impl BatchOutcome {
    /// Schedule record of one job.
    #[cfg(test)]
    pub(crate) fn schedule_of(&self, job_id: u32) -> Option<&JobSchedule> {
        self.schedules.iter().find(|s| s.job_id == job_id)
    }
}

/// A step-wise profile of free processors over time, used by the
/// profile-based policies (FCFS, EASY, conservative).
#[derive(Debug, Clone)]
struct ResourceProfile {
    /// Breakpoints `(time, free_processors_from_that_time)`, sorted by time.
    steps: Vec<(f64, i64)>,
    capacity: i64,
}

impl ResourceProfile {
    fn new(capacity: u32) -> Self {
        ResourceProfile {
            steps: vec![(0.0, capacity as i64)],
            capacity: capacity as i64,
        }
    }

    fn free_at(&self, time: f64) -> i64 {
        let mut free = self.capacity;
        for &(t, f) in &self.steps {
            if t <= time + 1e-9 {
                free = f;
            } else {
                break;
            }
        }
        free
    }

    /// Earliest start `>= not_before` at which `procs` processors are free
    /// for `duration` seconds.
    fn earliest_slot(&self, not_before: f64, duration: f64, procs: u32) -> f64 {
        let mut candidates: Vec<f64> = self
            .steps
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| t >= not_before - 1e-9)
            .collect();
        candidates.push(not_before);
        candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        'candidate: for &start in &candidates {
            if start < not_before - 1e-9 {
                continue;
            }
            // Check every breakpoint within [start, start + duration).
            let end = start + duration;
            if self.free_at(start) < procs as i64 {
                continue;
            }
            for &(t, f) in &self.steps {
                if t > start + 1e-9 && t < end - 1e-9 && f < procs as i64 {
                    continue 'candidate;
                }
            }
            return start;
        }
        unreachable!("a slot always exists at the end of the profile")
    }

    /// Subtract `procs` processors during `[start, start + duration)`.
    fn reserve(&mut self, start: f64, duration: f64, procs: u32) {
        let end = start + duration;
        self.insert_breakpoint(start);
        self.insert_breakpoint(end);
        for step in &mut self.steps {
            if step.0 >= start - 1e-9 && step.0 < end - 1e-9 {
                step.1 -= procs as i64;
            }
        }
    }

    fn insert_breakpoint(&mut self, time: f64) {
        if self.steps.iter().any(|&(t, _)| (t - time).abs() < 1e-9) {
            return;
        }
        let value = self.free_at(time);
        let pos = self
            .steps
            .iter()
            .position(|&(t, _)| t > time)
            .unwrap_or(self.steps.len());
        self.steps.insert(pos, (time, value));
    }
}

/// The batch scheduler: a policy plus the machine size.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    kind: SchedulerKind,
    processors: u32,
}

impl BatchScheduler {
    /// Build a scheduler for a machine with `processors` processors.
    pub fn new(kind: SchedulerKind, processors: u32) -> Self {
        assert!(processors > 0, "the machine needs at least one processor");
        BatchScheduler { kind, processors }
    }

    /// Schedule the given jobs and report the outcome.
    ///
    /// # Panics
    /// Panics when a job requests more processors than the machine has.
    pub fn schedule(&self, jobs: &[BatchJob]) -> BatchOutcome {
        for job in jobs {
            assert!(
                job.processors <= self.processors,
                "job {} requests {} processors but the machine only has {}",
                job.id,
                job.processors,
                self.processors
            );
        }
        let schedules = match self.kind {
            SchedulerKind::Fcfs => self.schedule_fcfs(jobs),
            SchedulerKind::EasyBackfilling => self.schedule_backfilling(jobs, false),
            SchedulerKind::ConservativeBackfilling => self.schedule_backfilling(jobs, true),
            SchedulerKind::EasyWithPreemption => self.schedule_preemptive(jobs),
        };
        self.outcome(jobs, schedules)
    }

    fn outcome(&self, jobs: &[BatchJob], mut schedules: Vec<JobSchedule>) -> BatchOutcome {
        schedules.sort_by_key(|s| s.job_id);
        let makespan = schedules.iter().map(|s| s.end).fold(0.0, f64::max);
        let busy_area: f64 = jobs
            .iter()
            .map(|j| j.runtime_secs * j.processors as f64)
            .sum();
        let utilization = if makespan > 0.0 {
            busy_area / (makespan * self.processors as f64)
        } else {
            0.0
        };
        let mean_wait = if jobs.is_empty() {
            0.0
        } else {
            jobs.iter()
                .map(|j| {
                    schedules
                        .iter()
                        .find(|s| s.job_id == j.id)
                        .map(|s| s.wait(j))
                        .unwrap_or(0.0)
                })
                .sum::<f64>()
                / jobs.len() as f64
        };
        BatchOutcome {
            kind: self.kind,
            schedules,
            makespan,
            utilization,
            mean_wait,
        }
    }

    /// Strict FCFS: jobs start in submission order; a job may not start
    /// before the previous one has started.
    fn schedule_fcfs(&self, jobs: &[BatchJob]) -> Vec<JobSchedule> {
        let mut order: Vec<&BatchJob> = jobs.iter().collect();
        order.sort_by(|a, b| {
            a.submit_time
                .partial_cmp(&b.submit_time)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        let mut profile = ResourceProfile::new(self.processors);
        let mut schedules = Vec::new();
        let mut previous_start: f64 = 0.0;
        for job in order {
            let not_before = job.submit_time.max(previous_start);
            let start = profile.earliest_slot(not_before, job.runtime_secs, job.processors);
            profile.reserve(start, job.runtime_secs, job.processors);
            previous_start = start;
            schedules.push(JobSchedule {
                job_id: job.id,
                start,
                end: start + job.runtime_secs,
                suspended_secs: 0.0,
            });
        }
        schedules
    }

    /// EASY (`conservative == false`) or conservative (`true`) backfilling.
    ///
    /// Jobs are examined in submission order.  With EASY, only the head of
    /// the queue receives a reservation and later jobs may start earlier as
    /// long as they do not push that reservation back.  With conservative
    /// backfilling every job receives a reservation in turn and may only slot
    /// into holes that delay nobody.  Reservations use the walltime
    /// *estimates*; execution uses the actual runtimes.
    fn schedule_backfilling(&self, jobs: &[BatchJob], conservative: bool) -> Vec<JobSchedule> {
        let mut order: Vec<&BatchJob> = jobs.iter().collect();
        order.sort_by(|a, b| {
            a.submit_time
                .partial_cmp(&b.submit_time)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });

        // Profile of *estimated* occupation used to compute reservations.
        let mut estimate_profile = ResourceProfile::new(self.processors);
        let mut schedules: Vec<JobSchedule> = Vec::new();
        // Reservation of the current queue head (EASY): (start, processors).
        let mut head_reservation: Option<(f64, f64, u32)> = None;

        for (index, job) in order.iter().enumerate() {
            // Earliest start honouring the already-placed jobs.
            let mut start =
                estimate_profile.earliest_slot(job.submit_time, job.estimate_secs, job.processors);

            if !conservative {
                // EASY: this job may not delay the head reservation, i.e. the
                // first job (in submission order) that could not start at its
                // submission.  We approximate the head as the earliest
                // not-yet-started job among those placed before this one.
                if let Some((res_start, res_duration, res_procs)) = head_reservation {
                    // If starting now would overlap the reservation window and
                    // exhaust its processors, push this job after it.
                    let overlaps =
                        start < res_start + res_duration && start + job.estimate_secs > res_start;
                    if overlaps {
                        let free_during = estimate_profile.free_at(res_start);
                        if free_during < (res_procs + job.processors) as i64 {
                            start = estimate_profile.earliest_slot(
                                res_start + res_duration,
                                job.estimate_secs,
                                job.processors,
                            );
                        }
                    }
                }
            }

            estimate_profile.reserve(start, job.estimate_secs, job.processors);
            schedules.push(JobSchedule {
                job_id: job.id,
                start,
                end: start + job.runtime_secs,
                suspended_secs: 0.0,
            });

            // The first delayed job becomes the protected head (EASY).
            if !conservative && head_reservation.is_none() && start > job.submit_time + 1e-9 {
                head_reservation = Some((start, job.estimate_secs, job.processors));
            }
            let _ = index;
        }
        schedules
    }

    /// Idealised preemptive policy: at every event, processors are handed to
    /// the submitted jobs in FCFS order; jobs that lose their processors are
    /// suspended and keep their progress.
    fn schedule_preemptive(&self, jobs: &[BatchJob]) -> Vec<JobSchedule> {
        #[derive(Debug)]
        struct JobState {
            remaining: f64,
            started_at: Option<f64>,
            finished_at: Option<f64>,
            suspended: f64,
            last_suspend: Option<f64>,
        }

        let mut order: Vec<&BatchJob> = jobs.iter().collect();
        order.sort_by(|a, b| {
            a.submit_time
                .partial_cmp(&b.submit_time)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        let mut states: Vec<JobState> = order
            .iter()
            .map(|j| JobState {
                remaining: j.runtime_secs,
                started_at: None,
                finished_at: None,
                suspended: 0.0,
                last_suspend: None,
            })
            .collect();

        let mut time = order.first().map(|j| j.submit_time).unwrap_or(0.0);

        loop {
            // Allocate processors in FCFS order among submitted, unfinished jobs.
            let mut free = self.processors as i64;
            let mut running: Vec<usize> = Vec::new();
            for (i, job) in order.iter().enumerate() {
                if states[i].finished_at.is_some() || job.submit_time > time + 1e-9 {
                    continue;
                }
                if free >= job.processors as i64 {
                    free -= job.processors as i64;
                    running.push(i);
                }
            }
            // Book-keeping: mark starts, suspensions and resumptions.
            for (i, job) in order.iter().enumerate() {
                if states[i].finished_at.is_some() || job.submit_time > time + 1e-9 {
                    continue;
                }
                if running.contains(&i) {
                    if states[i].started_at.is_none() {
                        states[i].started_at = Some(time);
                    }
                    if let Some(since) = states[i].last_suspend.take() {
                        states[i].suspended += time - since;
                    }
                } else if states[i].started_at.is_some() && states[i].last_suspend.is_none() {
                    states[i].last_suspend = Some(time);
                }
            }

            if running.is_empty() {
                // Jump to the next arrival, if any.
                let next_arrival = order
                    .iter()
                    .enumerate()
                    .filter(|(i, j)| states[*i].finished_at.is_none() && j.submit_time > time)
                    .map(|(_, j)| j.submit_time)
                    .fold(f64::INFINITY, f64::min);
                if next_arrival.is_finite() {
                    time = next_arrival;
                    continue;
                }
                break; // everything finished
            }

            // Next event: earliest completion of a running job or next arrival.
            let next_completion = running
                .iter()
                .map(|&i| time + states[i].remaining)
                .fold(f64::INFINITY, f64::min);
            let next_arrival = order
                .iter()
                .enumerate()
                .filter(|(i, j)| states[*i].finished_at.is_none() && j.submit_time > time + 1e-9)
                .map(|(_, j)| j.submit_time)
                .fold(f64::INFINITY, f64::min);
            let next_time = next_completion.min(next_arrival);
            let dt = next_time - time;

            for &i in &running {
                states[i].remaining -= dt;
                if states[i].remaining <= 1e-9 {
                    states[i].remaining = 0.0;
                    states[i].finished_at = Some(next_time);
                }
            }
            time = next_time;

            if states.iter().all(|s| s.finished_at.is_some()) {
                break;
            }
        }

        order
            .iter()
            .enumerate()
            .map(|(i, job)| JobSchedule {
                job_id: job.id,
                start: states[i].started_at.unwrap_or(job.submit_time),
                end: states[i].finished_at.expect("every job finishes"),
                suspended_secs: states[i].suspended,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4-job scenario of Figure 1: a wide long job, two narrow jobs and a
    /// wide job at the end, on a small machine.
    fn figure_1_jobs() -> Vec<BatchJob> {
        vec![
            BatchJob::exact(1, 0.0, 4, 100.0),
            BatchJob::exact(2, 1.0, 2, 40.0),
            BatchJob::exact(3, 2.0, 2, 40.0),
            BatchJob::exact(4, 3.0, 6, 60.0),
        ]
    }

    #[test]
    fn fcfs_never_overtakes() {
        let scheduler = BatchScheduler::new(SchedulerKind::Fcfs, 8);
        let outcome = scheduler.schedule(&figure_1_jobs());
        let starts: Vec<f64> = (1..=4)
            .map(|id| outcome.schedule_of(id).unwrap().start)
            .collect();
        // Submission order is respected: start times are non-decreasing.
        for w in starts.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
    }

    #[test]
    fn easy_backfills_without_delaying_the_head() {
        // Machine of 4: job1 takes everything, job2 (wide) must wait, job3 is
        // narrow and short and can backfill while job1 runs.
        let jobs = vec![
            BatchJob::exact(1, 0.0, 4, 100.0),
            BatchJob::exact(2, 1.0, 4, 50.0),
            BatchJob::exact(3, 2.0, 1, 100.0),
        ];
        let fcfs = BatchScheduler::new(SchedulerKind::Fcfs, 4).schedule(&jobs);
        let easy = BatchScheduler::new(SchedulerKind::EasyBackfilling, 4).schedule(&jobs);
        // job2's start must not be delayed by the backfilling of job3.
        assert!(easy.schedule_of(2).unwrap().start <= fcfs.schedule_of(2).unwrap().start + 1e-9);
        // Overall the makespan with EASY is never worse than plain FCFS here.
        assert!(easy.makespan <= fcfs.makespan + 1e-9);
    }

    #[test]
    fn preemption_improves_utilization_over_easy() {
        let jobs = figure_1_jobs();
        let easy = BatchScheduler::new(SchedulerKind::EasyBackfilling, 8).schedule(&jobs);
        let preempt = BatchScheduler::new(SchedulerKind::EasyWithPreemption, 8).schedule(&jobs);
        assert!(preempt.makespan <= easy.makespan + 1e-9);
        assert!(preempt.utilization >= easy.utilization - 1e-9);
    }

    #[test]
    fn preemptive_jobs_record_suspensions() {
        // Machine of 2: job1 runs 100 s on 2 procs; job2 (1 proc, 50 s)
        // arrives later and can only run after job1 — no preemption happens
        // because job1 was first.  Now make job2 arrive first and job1 wide:
        // job2 starts, job1 (2 procs, earlier submit? no) ...
        // Job 1 (1 proc, 100 s) runs first; job 2 (2 procs) has to wait for
        // it; job 3 (1 proc, long) backfills on the spare processor at its
        // submission and is preempted when job 2 finally gets both
        // processors at t = 100.
        let jobs = vec![
            BatchJob::exact(1, 0.0, 1, 100.0),
            BatchJob::exact(2, 1.0, 2, 50.0),
            BatchJob::exact(3, 2.0, 1, 200.0),
        ];
        let outcome = BatchScheduler::new(SchedulerKind::EasyWithPreemption, 2).schedule(&jobs);
        // Job 3 starts on the spare processor right away (at its submission),
        // then is suspended while job 2 occupies both processors.
        let s3 = outcome.schedule_of(3).unwrap();
        assert!(s3.start < 3.0 + 1e-9);
        assert!((s3.suspended_secs - 50.0).abs() < 1e-6);
        assert!((s3.end - 252.0).abs() < 1e-6);
        // Everything completes.
        assert!(outcome.schedules.iter().all(|s| s.end > 0.0));
    }

    #[test]
    fn conservative_respects_every_reservation() {
        let jobs = figure_1_jobs();
        let conservative =
            BatchScheduler::new(SchedulerKind::ConservativeBackfilling, 8).schedule(&jobs);
        let fcfs = BatchScheduler::new(SchedulerKind::Fcfs, 8).schedule(&jobs);
        // Conservative backfilling never makes any job later than plain FCFS
        // when estimates are exact.
        for id in 1..=4 {
            assert!(
                conservative.schedule_of(id).unwrap().start
                    <= fcfs.schedule_of(id).unwrap().start + 1e-9
            );
        }
    }

    #[test]
    fn utilization_and_wait_are_reported() {
        let jobs = vec![
            BatchJob::exact(1, 0.0, 2, 50.0),
            BatchJob::exact(2, 0.0, 2, 50.0),
        ];
        let outcome = BatchScheduler::new(SchedulerKind::Fcfs, 2).schedule(&jobs);
        assert!((outcome.makespan - 100.0).abs() < 1e-6);
        assert!((outcome.utilization - 1.0).abs() < 1e-6);
        assert!(outcome.mean_wait >= 0.0);
    }

    #[test]
    fn single_job_runs_immediately() {
        let jobs = vec![BatchJob::exact(7, 5.0, 3, 42.0)];
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::EasyBackfilling,
            SchedulerKind::ConservativeBackfilling,
            SchedulerKind::EasyWithPreemption,
        ] {
            let outcome = BatchScheduler::new(kind, 4).schedule(&jobs);
            let s = outcome.schedule_of(7).unwrap();
            assert!(
                (s.start - 5.0).abs() < 1e-6,
                "{kind:?} must start at submission"
            );
            assert!((s.end - 47.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn oversized_job_is_rejected() {
        let jobs = vec![BatchJob::exact(1, 0.0, 10, 10.0)];
        BatchScheduler::new(SchedulerKind::Fcfs, 4).schedule(&jobs);
    }
}
