//! Offline stand-in for `criterion`.
//!
//! Implements the API surface the workspace's benches use — groups,
//! `bench_function`, `criterion_group!` / `criterion_main!` — with a
//! straightforward wall-clock measurement loop (no statistics engine,
//! plots, or saved baselines). Timings print per benchmark as mean
//! time/iteration.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine`, called `iters` times back-to-back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level harness handle.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
            sample_size: 10,
        }
    }
}

/// A group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Target time spent measuring each benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Warm-up time before measurement.
    pub fn warm_up_time(&mut self, t: Duration) -> &mut Self {
        self.warm_up_time = t;
        self
    }

    /// Number of measurement samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run a benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        self.run(id, &mut f);
        self
    }

    /// End the group.
    pub fn finish(self) {}

    fn run(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let label = format!("{}/{}", self.name, id);

        // Warm up and calibrate: grow the iteration count until one batch
        // costs ~1/sample_size of the measurement budget.
        let mut iters: u64 = 1;
        let warm_deadline = Instant::now() + self.warm_up_time;
        let mut per_iter;
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            per_iter = b.elapsed.max(Duration::from_nanos(1)) / (iters as u32).max(1);
            let batch_budget = self.measurement_time / self.sample_size as u32;
            if Instant::now() >= warm_deadline && b.elapsed >= batch_budget / 2 {
                break;
            }
            if b.elapsed < batch_budget {
                let scale = (batch_budget.as_nanos()
                    / b.elapsed.max(Duration::from_nanos(1)).as_nanos())
                .clamp(2, 16) as u64;
                iters = iters.saturating_mul(scale).min(1 << 40);
            } else if Instant::now() >= warm_deadline {
                break;
            }
        }

        // Measure.
        let mut total = Duration::ZERO;
        let mut total_iters: u64 = 0;
        let mut best = Duration::MAX;
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            total += b.elapsed;
            total_iters += iters;
            let sample_per_iter = b.elapsed / (iters as u32).max(1);
            if sample_per_iter < best {
                best = sample_per_iter;
            }
        }
        if total_iters > 0 {
            per_iter = Duration::from_nanos((total.as_nanos() / total_iters as u128) as u64);
        }

        println!(
            "{label:<40} time: {} (best {})",
            fmt_duration(per_iter),
            fmt_duration(best)
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
