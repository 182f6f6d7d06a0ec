//! The §1 motivation measurements: how much more work fault injection is
//! at scale. The paper reports that CG with four MPI processes executes
//! 74.5 % more instructions than serial execution and that F-SEFI's fault
//! injection time grows 58 % — here we measure the tracked-op and
//! campaign-time growth of every app.
//!
//! A campaign's wall time on a shared host moves by tens of percent from
//! run to run, so each campaign is timed on the CPU clock of the thread
//! that runs it: a one-worker runner drives its worker inline, and on
//! x86_64 Linux every rank of a world is a coroutine on that thread, so
//! the thread's CPU time is the campaign's and excludes whatever else the
//! host runs (other targets run ranks on threads of their own and keep
//! wall time). The growth is measured [`TIMING_REPEATS`] times (the
//! campaigns alternate serial, parallel) and reported as the median with
//! its min..max range.

use crate::campaign::{CampaignRunner, ErrorSpec};
use crate::experiments::ExperimentConfig;
use crate::report::Table;
use resilim_apps::App;
use serde::{Deserialize, Serialize};

/// How many times each of the two campaigns is timed.
const TIMING_REPEATS: usize = 3;

/// Scale-growth measurements for one app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MotivationRow {
    /// Workload label.
    pub app: String,
    /// Total tracked ops, serial.
    pub serial_ops: u64,
    /// Total tracked ops across all ranks at the parallel scale.
    pub parallel_ops: u64,
    /// Relative op growth (`parallel/serial − 1`).
    pub op_growth: f64,
    /// Serial 1-error campaign seconds, timed as the module docs say
    /// (median of the repeats).
    pub serial_fi_secs: f64,
    /// Parallel 1-error campaign seconds (median of the repeats).
    pub parallel_fi_secs: f64,
    /// Relative fault-injection time growth (`parallel/serial − 1`), the
    /// median over the repeats.
    pub fi_time_growth: f64,
    /// Smallest fault-injection time growth of the repeats.
    pub fi_time_growth_min: f64,
    /// Largest fault-injection time growth of the repeats.
    pub fi_time_growth_max: f64,
}

/// The motivation study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Motivation {
    /// Parallel scale compared against serial.
    pub procs: usize,
    /// Per-app rows.
    pub rows: Vec<MotivationRow>,
}

/// Measure op-count and FI-time growth from serial to `procs` ranks.
/// Op counts come from `runner`'s golden runs; the campaigns are timed
/// uncached on a one-worker runner of their own, so `runner`'s worker
/// count and campaign cache do not enter the times.
pub fn motivation(runner: &CampaignRunner, cfg: &ExperimentConfig, procs: usize) -> Motivation {
    let timer = CampaignRunner::new();
    let mut rows = Vec::new();
    for app in App::ALL {
        let ops = |p| -> u64 {
            let golden = runner.golden().get(&app.default_spec(), p);
            golden.profiles.iter().map(|r| r.total()).sum()
        };
        let (serial_ops, parallel_ops) = (ops(1), ops(procs));
        // The timed campaigns must not include a golden measurement.
        timer.golden().get(&app.default_spec(), 1);
        timer.golden().get(&app.default_spec(), procs);

        let serial = cfg.campaign(app.default_spec(), 1, ErrorSpec::SerialErrors(1));
        let parallel = cfg.campaign(app.default_spec(), procs, ErrorSpec::OneParallel);
        let mut serial_secs = Vec::with_capacity(TIMING_REPEATS);
        let mut parallel_secs = Vec::with_capacity(TIMING_REPEATS);
        let mut growth = Vec::with_capacity(TIMING_REPEATS);
        for _ in 0..TIMING_REPEATS {
            let s = campaign_secs(|| timer.run_uncached(&serial));
            let p = campaign_secs(|| timer.run_uncached(&parallel));
            serial_secs.push(s);
            parallel_secs.push(p);
            growth.push(p / s.max(1e-9) - 1.0);
        }
        let fi_time_growth = median(&mut growth);
        rows.push(MotivationRow {
            app: app.name().to_string(),
            serial_ops,
            parallel_ops,
            op_growth: parallel_ops as f64 / serial_ops.max(1) as f64 - 1.0,
            serial_fi_secs: median(&mut serial_secs),
            parallel_fi_secs: median(&mut parallel_secs),
            fi_time_growth,
            fi_time_growth_min: growth[0],
            fi_time_growth_max: growth[TIMING_REPEATS - 1],
        });
    }
    Motivation { procs, rows }
}

/// Seconds `run` takes on the calling thread's CPU clock.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
fn campaign_secs<R>(run: impl FnOnce() -> R) -> f64 {
    /// `struct timespec` on x86_64 Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        /// libc's `clock_gettime(2)` (std already links libc).
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let now = || {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec`.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    };
    let start = now();
    run();
    now() - start
}

/// Seconds `run` takes by the wall clock.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
fn campaign_secs<R>(run: impl FnOnce() -> R) -> f64 {
    let start = std::time::Instant::now();
    run();
    start.elapsed().as_secs_f64()
}

/// The median of `xs`, which it leaves sorted.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

impl Motivation {
    /// Render as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "Motivation: cost growth from serial to {} ranks",
                self.procs
            ),
            &[
                "benchmark",
                "ops serial",
                "ops parallel",
                "op growth",
                "FI time growth",
                "min..max",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                r.serial_ops.to_string(),
                r.parallel_ops.to_string(),
                format!("{:+.1}%", r.op_growth * 100.0),
                format!("{:+.1}%", r.fi_time_growth * 100.0),
                format!(
                    "{:+.1}..{:+.1}%",
                    r.fi_time_growth_min * 100.0,
                    r.fi_time_growth_max * 100.0
                ),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivation_measures_growth() {
        let runner = CampaignRunner::new();
        let cfg = ExperimentConfig {
            tests: 5,
            seed: 1,
            ..Default::default()
        };
        let m = motivation(&runner, &cfg, 2);
        assert_eq!(m.rows.len(), App::ALL.len());
        for row in &m.rows {
            assert!(row.serial_ops > 0);
            // Parallel executions do at least the serial work (common
            // computation plus possibly parallel-unique extra).
            assert!(
                row.parallel_ops >= row.serial_ops,
                "{}: {} vs {}",
                row.app,
                row.parallel_ops,
                row.serial_ops
            );
            assert!(
                row.fi_time_growth_min <= row.fi_time_growth
                    && row.fi_time_growth <= row.fi_time_growth_max,
                "{}: {} not in {}..{}",
                row.app,
                row.fi_time_growth,
                row.fi_time_growth_min,
                row.fi_time_growth_max
            );
        }
        assert!(m.render().contains("op growth"));
    }
}
