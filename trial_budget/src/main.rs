//! `trial-budget`: the repo's benchmark.
//!
//! ```text
//! trial-budget [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!              [--workload NAME] [--check-repeat] [--print-manifest]
//! ```
//!
//! Without `--workload`, every workload runs in its own fresh child
//! process (so peak RSS, pool threads and caches are per workload) and
//! the results are printed together; with it, that one workload runs
//! in this process and the last line of stdout is the result object
//! the benchmark contract asks for.

use serde_json::Value;
use std::process::ExitCode;
use trial_budget::metrics::{manifest, END_TO_END, RUN_SECONDS};
use trial_budget::run::{run_workload, RunArgs};
use trial_budget::workload::{Sizes, Workload};

const USAGE: &str = "trial-budget [--seed N] [--seconds S] [--trace 0|1] [--quick] \
                     [--workload NAME] [--check-repeat] [--print-manifest]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 2018,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check_repeat: false,
        print_manifest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
                }
            }
            "--quick" => a.quick = true,
            "--check-repeat" => a.check_repeat = true,
            "--print-manifest" => a.print_manifest = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(a)
}

/// One child's result line, parsed.
struct Outcome {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Run `workload` in a fresh child process and parse its result line.
fn run_child(a: &Args, workload: Workload) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| v.get(k).ok_or(format!("result line lacks '{k}'"));
    Ok(Outcome {
        correct: field("correct")?.as_bool().ok_or("correct: not a bool")?,
        failed: field("failed")?.as_u64().ok_or("failed: not a count")?,
        metrics: field("metrics")?
            .as_object()
            .ok_or("metrics: not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                value
                    .map(|x| (name.clone(), x))
                    .ok_or(format!("{name}: no value"))
            })
            .collect::<Result<_, _>>()?,
    })
}

/// Every workload once, each in its own process. `Ok(false)` when any
/// workload reported a failed check or a failed record.
fn run_all(a: &Args) -> Result<(bool, Vec<(Workload, Outcome)>), String> {
    let mut ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        let r = run_child(a, w)?;
        ok &= r.correct && r.failed == 0;
        results.push((w, r));
    }
    Ok((ok, results))
}

/// Two untraced passes back to back: every end-to-end metric of every
/// workload must agree within its own regression bound.
fn check_repeat(a: &Args) -> Result<bool, String> {
    let (ok1, first) = run_all(a)?;
    let (ok2, second) = run_all(a)?;
    let mut ok = ok1 && ok2;
    println!("== check-repeat ==");
    for ((w, r1), (_, r2)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let get = |r: &Outcome| {
                r.metrics
                    .iter()
                    .find(|(name, _)| name == m.name)
                    .map(|(_, v)| *v)
                    .ok_or(format!("{} lacks {}", w.name(), m.name))
            };
            let (x1, x2) = (get(r1)?, get(r2)?);
            // "Worse" in the metric's own direction, as a share of the
            // first pass — the same test the driver applies to a PR.
            let worse = if m.better == "higher" {
                (x1 - x2) / x1
            } else {
                (x2 - x1) / x1
            };
            let within = worse.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<16} {:<18} {:>12.4} {:>12.4} {:>+7.2} % (bound {:.0} %) {}",
                w.name(),
                m.name,
                x1,
                x2,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.print_manifest {
        println!(
            "{}",
            serde_json::to_string_pretty(&manifest()).expect("manifest serializes")
        );
        return ExitCode::SUCCESS;
    }
    if let Some(workload) = a.workload {
        let report = run_workload(&RunArgs {
            workload,
            seed: a.seed,
            // Smoke size is exactly warm-up + `min_segments` segments.
            seconds: if a.quick { 0.0 } else { a.seconds },
            trace: a.trace,
            sizes: if a.quick { Sizes::QUICK } else { Sizes::FULL },
        });
        // The result line is the contract; `correct` carries the verdict.
        println!("{}", report.json_line());
        return ExitCode::SUCCESS;
    }
    let verdict = if a.check_repeat {
        if a.trace {
            eprintln!("--check-repeat compares end-to-end metrics: run it untraced");
            return ExitCode::from(2);
        }
        check_repeat(&a)
    } else {
        run_all(&a).map(|(ok, _)| ok)
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("trial-budget: a check failed (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("trial-budget: {e}");
            ExitCode::FAILURE
        }
    }
}
