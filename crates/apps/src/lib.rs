#![warn(missing_docs)]
//! # resilim-apps
//!
//! Rust ports of the six workloads the paper evaluates: four NAS Parallel
//! Benchmarks (CG, FT, MG, LU) and two proxy applications (MiniFE,
//! PENNANT). Each port keeps the original's numerical algorithm, domain
//! decomposition, and communication schedule, at problem sizes small
//! enough that thousands of fault-injection runs are feasible on one
//! machine.
//!
//! Every application:
//!
//! * runs the **same strong-scaling problem** at any supported rank count
//!   (1 = serial) — the paper's execution-mode axis;
//! * does all physics arithmetic on [`Tf64`](resilim_inject::Tf64), so
//!   faults can be injected and tracked;
//! * marks genuinely parallel-only computation with
//!   [`Region::ParallelUnique`](resilim_inject::Region) (Observation 1);
//! * returns an [`AppOutput`] digest that the harness compares against a
//!   fault-free golden run (bitwise for "identical", within
//!   [`App::epsilon`] for "passes the checker").
//!
//! | App | Algorithm | Decomposition | Communication | Parallel-unique | Charged blocks |
//! |-----|-----------|---------------|---------------|-----------------|----------------|
//! | CG  | NPB conjugate gradient eigenvalue estimation | 1-D row blocks | allgather (matvec), user-level recursive-doubling dots | reduction combine adds | matvec, vector updates, local dots |
//! | FT  | 3-D FFT + evolve (spectral PDE) | cyclic z-planes | alltoallv (four-step z-FFT) | inter-stage twiddle scaling | x/y, pencil and pair FFTs, twiddle scaling, evolve |
//! | MG  | V-cycle multigrid Poisson | 1-D z slabs, shrinking active set | halo exchange per level, redistribution | none | residual, smoothing update, restriction, prolongation, norms |
//! | LU  | SSOR wavefront solver | 2-D pencils | pipelined plane send/recv | none | residual, each plane of both sweeps, update, norms |
//! | MiniFE | FE assembly + CG solve (stencil matvec over a halo-extended vector) | 1-D element slabs | halo exchange, recursive-doubling dots | reduction combine adds | matvec, vector updates, local dots, Σu |
//! | PENNANT | staggered-grid Lagrangian hydro | 1-D zone slabs | boundary-point force/mass sums, dt min-reduce | none | corner forces, point update, digest energies |
//!
//! A *charged block* is a hot loop written once over
//! [`Arith`](resilim_inject::Arith) whose op counts are charged before it
//! runs hook-free (`resilim_inject::tf64::run_block`); the loops not
//! listed run op by op through the hooks: scalar work between blocks,
//! the combine adds of the recursive-doubling reductions, MiniFE's
//! assembly (branches on which stencil place an entry fills) and
//! PENNANT's zone-state and energy loops (a panic on a non-positive area
//! or energy, min/max scans).

mod blocks;
pub mod cg;
pub mod ft;
pub mod lu;
pub mod mg;
pub mod minife;
pub mod pennant;
pub mod reduction;
pub mod util;

use resilim_simmpi::Comm;
use serde::{Deserialize, Serialize};

/// The result of one application run: a digest of the numerical output.
///
/// The digest is a short vector of representative values (verification
/// norms, checksums, energies). The harness classifies a faulty run by
/// comparing its digest to the fault-free golden digest: bitwise equality
/// means the error was fully masked; a relative difference within the
/// app's [`App::epsilon`] passes the checker; anything else is silent data
/// corruption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppOutput {
    /// Representative output values (corrupted-world).
    pub digest: Vec<f64>,
}

impl AppOutput {
    /// Bitwise equality with another output (the paper's "exactly same as
    /// the fault-free run").
    pub fn identical(&self, other: &AppOutput) -> bool {
        self.digest.len() == other.digest.len()
            && self
                .digest
                .iter()
                .zip(other.digest.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Maximum relative difference against a reference output; `None` when
    /// any element is non-finite (which can never pass a checker).
    ///
    /// Each element is compared at a scale of its own golden magnitude,
    /// floored at `1e-12 ×` the largest golden element — a digest entry
    /// that converged to numerical zero (e.g. a final residual) would
    /// otherwise amplify harmless last-ulp noise into a huge "relative"
    /// difference.
    pub fn max_rel_diff(&self, golden: &AppOutput) -> Option<f64> {
        if self.digest.len() != golden.digest.len() {
            return None;
        }
        let magnitude = golden
            .digest
            .iter()
            .fold(0.0f64, |m, g| m.max(g.abs()))
            .max(1e-300);
        let floor = magnitude * 1e-12;
        let mut worst = 0.0f64;
        for (&a, &g) in self.digest.iter().zip(golden.digest.iter()) {
            if !a.is_finite() {
                return None;
            }
            let scale = g.abs().max(floor);
            worst = worst.max((a - g).abs() / scale);
        }
        Some(worst)
    }

    /// The paper's checker predicate: output valid iff every digest element
    /// is finite and within `eps` relative difference of the golden run.
    pub fn passes_checker(&self, golden: &AppOutput, eps: f64) -> bool {
        matches!(self.max_rel_diff(golden), Some(d) if d <= eps)
    }
}

/// The six evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum App {
    /// NPB CG: conjugate-gradient eigenvalue estimation on a random sparse
    /// symmetric matrix.
    Cg,
    /// NPB FT: 3-D FFT-based spectral solver.
    Ft,
    /// NPB MG: V-cycle multigrid Poisson solver.
    Mg,
    /// NPB LU: SSOR solver with pipelined wavefront sweeps.
    Lu,
    /// MiniFE: implicit finite-element proxy (assembly + CG solve).
    MiniFe,
    /// PENNANT: staggered-grid Lagrangian hydrodynamics proxy (Leblanc-like
    /// shock tube).
    Pennant,
}

impl App {
    /// All applications in evaluation order.
    pub const ALL: [App; 6] = [
        App::Cg,
        App::Ft,
        App::Mg,
        App::Lu,
        App::MiniFe,
        App::Pennant,
    ];

    /// Short lowercase name (CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            App::Cg => "cg",
            App::Ft => "ft",
            App::Mg => "mg",
            App::Lu => "lu",
            App::MiniFe => "minife",
            App::Pennant => "pennant",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<App> {
        App::ALL.into_iter().find(|a| a.name() == s.to_lowercase())
    }

    /// Checker tolerance: maximum relative digest deviation that still
    /// counts as a valid output (per-app, like NPB verification epsilons).
    pub fn epsilon(self) -> f64 {
        match self {
            App::Cg => 1e-8,
            App::Ft => 1e-8,
            App::Mg => 1e-8,
            App::Lu => 1e-8,
            App::MiniFe => 1e-8,
            App::Pennant => 1e-8,
        }
    }

    /// Largest rank count the default problem decomposes to.
    pub fn max_procs(self) -> usize {
        match self {
            App::Cg => 128,
            App::Ft => 128,
            App::Mg => 64,
            App::Lu => 64,
            App::MiniFe => 64,
            App::Pennant => 64,
        }
    }

    /// Run this app's default problem on the calling rank.
    ///
    /// Must be invoked inside a [`World::run`](resilim_simmpi::World::run)
    /// body; every rank calls it collectively.
    pub fn run_rank(self, comm: &Comm) -> AppOutput {
        self.default_spec().run_rank(comm)
    }

    /// The default (small, campaign-friendly) problem.
    pub fn default_spec(self) -> ProblemSpec {
        match self {
            App::Cg => ProblemSpec::Cg(cg::CgProblem::default()),
            App::Ft => ProblemSpec::Ft(ft::FtProblem::default()),
            App::Mg => ProblemSpec::Mg(mg::MgProblem::default()),
            App::Lu => ProblemSpec::Lu(lu::LuProblem::default()),
            App::MiniFe => ProblemSpec::MiniFe(minife::MiniFeProblem::default()),
            App::Pennant => ProblemSpec::Pennant(pennant::PennantProblem::default()),
        }
    }

    /// A **weak-scaling** problem for `procs` ranks: the decomposed
    /// dimension grows proportionally with the rank count, so per-rank
    /// work stays constant.
    ///
    /// The paper restricts itself to strong scaling ("executions at
    /// different scales use the same input problem size"); these variants
    /// power the repo's weak-scaling extension study, which asks whether
    /// the small-scale/serial methodology survives when the problem grows
    /// with the machine.
    pub fn weak_spec(self, procs: usize) -> ProblemSpec {
        assert!(procs.is_power_of_two(), "weak specs scale by powers of two");
        match self {
            App::Cg => ProblemSpec::Cg(cg::CgProblem {
                n: 64 * procs,
                ..cg::CgProblem::default()
            }),
            App::Ft => ProblemSpec::Ft(ft::FtProblem {
                nz: 16 * procs,
                ..ft::FtProblem::default()
            }),
            App::Mg => ProblemSpec::Mg(mg::MgProblem {
                nz: 8 * procs,
                ..mg::MgProblem::default()
            }),
            App::Lu => {
                // LU decomposes in (x, y); grow x with the process grid.
                ProblemSpec::Lu(lu::LuProblem {
                    nx: 8 * procs,
                    ny: 8,
                    ..lu::LuProblem::default()
                })
            }
            App::MiniFe => ProblemSpec::MiniFe(minife::MiniFeProblem {
                nz: 8 * procs,
                ..minife::MiniFeProblem::default()
            }),
            App::Pennant => ProblemSpec::Pennant(pennant::PennantProblem {
                nzx: 8 * procs,
                ..pennant::PennantProblem::default()
            }),
        }
    }

    /// A larger problem variant, for the apps whose Table 1 rows compare
    /// problem classes (CG Class B, FT Class B, MiniFE 300³ — scaled to
    /// stay laptop-feasible). `None` for the rest.
    pub fn large_spec(self) -> Option<ProblemSpec> {
        match self {
            App::Cg => Some(ProblemSpec::Cg(cg::CgProblem {
                n: 1024,
                pairs_per_row: 7,
                ..cg::CgProblem::default()
            })),
            App::Ft => Some(ProblemSpec::Ft(ft::FtProblem {
                nx: 8,
                ny: 8,
                nz: 128,
                ..ft::FtProblem::default()
            })),
            App::MiniFe => Some(ProblemSpec::MiniFe(minife::MiniFeProblem {
                nx: 6,
                ny: 6,
                nz: 64,
                ..minife::MiniFeProblem::default()
            })),
            _ => None,
        }
    }
}

/// A concrete problem configuration for one application — the unit the
/// campaign harness runs and caches golden outputs for.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// CG with explicit parameters.
    Cg(cg::CgProblem),
    /// FT with explicit parameters.
    Ft(ft::FtProblem),
    /// MG with explicit parameters.
    Mg(mg::MgProblem),
    /// LU with explicit parameters.
    Lu(lu::LuProblem),
    /// MiniFE with explicit parameters.
    MiniFe(minife::MiniFeProblem),
    /// PENNANT with explicit parameters.
    Pennant(pennant::PennantProblem),
}

impl ProblemSpec {
    /// Which application this problem belongs to.
    pub fn app(&self) -> App {
        match self {
            ProblemSpec::Cg(_) => App::Cg,
            ProblemSpec::Ft(_) => App::Ft,
            ProblemSpec::Mg(_) => App::Mg,
            ProblemSpec::Lu(_) => App::Lu,
            ProblemSpec::MiniFe(_) => App::MiniFe,
            ProblemSpec::Pennant(_) => App::Pennant,
        }
    }

    /// Run this problem on the calling rank (collective over `comm`).
    pub fn run_rank(&self, comm: &Comm) -> AppOutput {
        match self {
            ProblemSpec::Cg(p) => cg::run(p, comm),
            ProblemSpec::Ft(p) => ft::run(p, comm),
            ProblemSpec::Mg(p) => mg::run(p, comm),
            ProblemSpec::Lu(p) => lu::run(p, comm),
            ProblemSpec::MiniFe(p) => minife::run(p, comm),
            ProblemSpec::Pennant(p) => pennant::run(p, comm),
        }
    }

    /// Stable identity string for caching golden runs and campaigns.
    pub fn cache_key(&self) -> String {
        format!("{self:?}")
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for app in App::ALL {
            assert_eq!(App::parse(app.name()), Some(app));
            assert_eq!(App::parse(&app.name().to_uppercase()), Some(app));
        }
        assert_eq!(App::parse("nope"), None);
    }

    #[test]
    fn output_identity() {
        let a = AppOutput {
            digest: vec![1.0, 2.0],
        };
        let b = AppOutput {
            digest: vec![1.0, 2.0],
        };
        let c = AppOutput {
            digest: vec![1.0, 2.0 + 1e-12],
        };
        assert!(a.identical(&b));
        assert!(!a.identical(&c));
        assert!(!a.identical(&AppOutput { digest: vec![1.0] }));
    }

    #[test]
    fn checker_tolerance() {
        let golden = AppOutput {
            digest: vec![100.0],
        };
        let near = AppOutput {
            digest: vec![100.0 * (1.0 + 1e-10)],
        };
        let far = AppOutput {
            digest: vec![101.0],
        };
        assert!(near.passes_checker(&golden, 1e-8));
        assert!(!far.passes_checker(&golden, 1e-8));
    }

    #[test]
    fn checker_rejects_non_finite() {
        let golden = AppOutput { digest: vec![1.0] };
        let nan = AppOutput {
            digest: vec![f64::NAN],
        };
        let inf = AppOutput {
            digest: vec![f64::INFINITY],
        };
        assert!(!nan.passes_checker(&golden, 1e100));
        assert!(!inf.passes_checker(&golden, 1e100));
    }

    #[test]
    fn rel_diff_uses_golden_scale() {
        let golden = AppOutput {
            digest: vec![1000.0],
        };
        let off = AppOutput {
            digest: vec![1001.0],
        };
        let d = off.max_rel_diff(&golden).unwrap();
        assert!((d - 1e-3).abs() < 1e-12);
    }
}
