//! Greedy minimization of a failing case.
//!
//! Given a case that violates an oracle, repeatedly propose a strictly
//! smaller candidate (fewer trials → fewer ranks → coarser model →
//! cheaper app → simpler strategy → simpler injection plan), keep it if
//! the *same oracle* still fails, and stop when no reduction survives
//! (or the attempt cap is hit). Only the violated oracle is re-run per
//! attempt, so shrinking a campaign-level failure stays cheap.

use crate::case::CaseSpec;
use crate::ops::SamplingOps;
use crate::oracles::{run_oracle, Violation};
use resilim_apps::App;
use resilim_core::SamplePoints;
use resilim_harness::ErrorSpec;
use resilim_inject::FaultModelSpec;
use resilim_obs as obs;

/// Hard cap on shrink attempts — a safety net against a pathological
/// oracle that fails on everything (each attempt may run campaigns).
pub const MAX_SHRINK_ATTEMPTS: u64 = 40;

/// The outcome of shrinking: the smallest still-failing case found.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimal failing case.
    pub case: CaseSpec,
    /// The violation as observed on the minimal case.
    pub violation: Violation,
    /// How many candidate reductions were tried (accepted + rejected).
    pub attempts: u64,
}

/// Strictly smaller candidates derived from `case`, most aggressive
/// first within each dimension. Every candidate passes
/// [`CaseSpec::validate`].
fn candidates(case: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    let mut fewer_tests = vec![case.tests / 2, 4];
    fewer_tests.retain(|&t| t >= 4 && t < case.tests);
    fewer_tests.dedup();
    for tests in fewer_tests {
        out.push(CaseSpec {
            tests,
            ..case.clone()
        });
    }
    if case.procs / 2 >= 2 {
        out.push(CaseSpec {
            procs: case.procs / 2,
            s: case.s.min(case.procs / 2),
            ..case.clone()
        });
    }
    if case.s / 2 >= 2 {
        out.push(CaseSpec {
            s: case.s / 2,
            ..case.clone()
        });
    }
    if let Some(app) = App::parse(&case.app) {
        let idx = App::ALL.iter().position(|a| *a == app).unwrap_or(0);
        for cheaper in &App::ALL[..idx] {
            out.push(CaseSpec {
                app: cheaper.name().to_string(),
                ..case.clone()
            });
        }
    }
    if case.strategy != SamplePoints::BucketUpper {
        out.push(CaseSpec {
            strategy: SamplePoints::BucketUpper,
            ..case.clone()
        });
    }
    if case.errors != ErrorSpec::OneParallel {
        out.push(CaseSpec {
            errors: ErrorSpec::OneParallel,
            ..case.clone()
        });
    }
    if !case.fault_model.is_default() {
        out.push(CaseSpec {
            fault_model: FaultModelSpec::default(),
            ..case.clone()
        });
    }
    if case.replicate {
        out.push(CaseSpec {
            replicate: false,
            ..case.clone()
        });
    }
    out.retain(|c| c.validate().is_ok());
    out
}

/// Greedily minimize `case` while `violation.oracle` keeps failing.
pub fn shrink(case: &CaseSpec, violation: &Violation, ops: &dyn SamplingOps) -> ShrinkResult {
    let mut best = case.clone();
    let mut best_violation = violation.clone();
    let mut attempts = 0u64;
    'passes: loop {
        for candidate in candidates(&best) {
            if attempts >= MAX_SHRINK_ATTEMPTS {
                break 'passes;
            }
            attempts += 1;
            let still_fails = run_oracle(&candidate, violation.oracle, ops);
            let accepted = still_fails.is_err();
            obs::emit(&obs::Event::CheckShrink {
                case: case.id,
                attempt: attempts,
                accepted,
                procs: candidate.procs,
                tests: candidate.tests,
            });
            if let Err(v) = still_fails {
                best = candidate;
                best_violation = v;
                // Restart the pass from the new (smaller) case so the
                // most aggressive reductions get first try again.
                continue 'passes;
            }
        }
        // A full pass with no accepted reduction: `best` is minimal.
        break;
    }
    ShrinkResult {
        case: best,
        violation: best_violation,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CoreOps, OffByOneBucket};
    use crate::oracles::check_case;

    #[test]
    fn candidates_are_strictly_smaller_and_valid() {
        let case = CaseSpec {
            id: 0,
            seed: 9,
            app: "pennant".into(),
            procs: 4,
            s: 4,
            tests: 16,
            errors: ErrorSpec::OneParallelMultiBit(2),
            strategy: SamplePoints::PaperEq8,
            fault_model: FaultModelSpec::Due,
            replicate: true,
        };
        let cands = candidates(&case);
        assert!(!cands.is_empty());
        for c in &cands {
            c.validate().unwrap();
            assert_ne!(*c, case, "candidate must differ from its parent");
        }
        // Every reduction dimension is represented.
        assert!(cands.iter().any(|c| c.tests < case.tests));
        assert!(cands.iter().any(|c| c.procs < case.procs));
        assert!(cands
            .iter()
            .any(|c| c.strategy == SamplePoints::BucketUpper));
        assert!(cands.iter().any(|c| c.errors == ErrorSpec::OneParallel));
        assert!(cands.iter().any(|c| c.fault_model.is_default()));
        assert!(cands.iter().any(|c| !c.replicate));
    }

    #[test]
    fn shrinks_injected_bug_to_minimal_case() {
        // A deliberately large case; the injected bucket bug fails the
        // (pure, cheap) bucket-cover oracle at every size, so the
        // shrinker must drive everything to its floor.
        let case = CaseSpec {
            id: 3,
            seed: 77,
            app: "pennant".into(),
            procs: 4,
            s: 4,
            tests: 16,
            errors: ErrorSpec::OneParallelMultiBit(2),
            strategy: SamplePoints::PaperEq8,
            fault_model: FaultModelSpec::Due,
            replicate: true,
        };
        let violation = check_case(&case, &OffByOneBucket).unwrap_err();
        let shrunk = shrink(&case, &violation, &OffByOneBucket);
        assert_eq!(shrunk.violation.oracle, violation.oracle);
        assert_eq!(shrunk.case.tests, 4, "tests at floor");
        assert_eq!(shrunk.case.procs, 2, "procs at floor");
        assert_eq!(shrunk.case.s, 2, "s clamped with procs");
        assert_eq!(shrunk.case.app, App::ALL[0].name(), "cheapest app");
        assert_eq!(shrunk.case.strategy, SamplePoints::BucketUpper);
        assert_eq!(shrunk.case.errors, ErrorSpec::OneParallel);
        assert!(shrunk.case.fault_model.is_default(), "model at floor");
        assert!(!shrunk.case.replicate, "replication shed");
        assert!(shrunk.attempts > 0 && shrunk.attempts <= MAX_SHRINK_ATTEMPTS);
        // The minimal case still fails under the bug and passes clean.
        run_oracle(&shrunk.case, violation.oracle, &OffByOneBucket).unwrap_err();
        run_oracle(&shrunk.case, violation.oracle, &CoreOps).unwrap();
    }
}
