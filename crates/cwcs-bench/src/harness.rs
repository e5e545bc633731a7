//! Minimal benchmark harness for the `benches/*.rs` targets.
//!
//! The container this workspace builds in has no access to crates.io, so the
//! benches cannot depend on Criterion.  This module provides the small subset
//! we need: named benchmark groups, a configurable sample count, warm-up, and
//! a `median / mean / min` summary line per benchmark.  Benches are declared
//! with `harness = false` in `cwcs-bench/Cargo.toml` and call this directly.

use std::time::{Duration, Instant};

/// A named group of benchmarks sharing a sample count.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    samples: usize,
}

impl BenchGroup {
    /// Create a group with the default of 20 samples per benchmark.
    pub fn new(name: impl Into<String>) -> Self {
        BenchGroup {
            name: name.into(),
            samples: 20,
        }
    }

    /// Override the number of measured samples.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Run `f` once as warm-up and `self.samples` measured times, print a
    /// summary line and return the median.  The closure's return value is
    /// passed through [`std::hint::black_box`] so the optimizer cannot elide
    /// the work.
    pub fn bench<R>(&self, id: &str, mut f: impl FnMut() -> R) -> Duration {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            std::hint::black_box(f());
            times.push(start.elapsed());
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        let min = times[0];
        let total: Duration = times.iter().sum();
        let mean = total / times.len() as u32;
        println!(
            "bench {}/{}: median {} | mean {} | min {} ({} samples)",
            self.name,
            id,
            fmt_duration(median),
            fmt_duration(mean),
            fmt_duration(min),
            times.len(),
        );
        median
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure_expected_number_of_times() {
        let mut group = BenchGroup::new("test");
        group.sample_size(5);
        let mut calls = 0u32;
        group.bench("count", || {
            calls += 1;
            calls
        });
        // one warm-up + five samples
        assert_eq!(calls, 6);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
