//! The claims registry: every claim of the source paper that this
//! reproduction is accountable for, as structured data.
//!
//! Coverage of the paper used to be tribal knowledge spread across
//! DESIGN.md and test names; this module makes it machine-checkable.
//! Each [`Claim`] names one verifiable statement — an equation of the
//! model (Eq. 1–9), an empirical observation (O1–O4), a table, a
//! figure, or a repo-level proof obligation (`INV_*`) that the paper's
//! arithmetic silently relies on. Tests and check oracles attest the
//! claims they verify with the [`verifies!`](crate::verifies) macro:
//!
//! ```
//! # fn some_test_body() {
//! resilim_core::verifies!(EQ8, O3);
//! # }
//! ```
//!
//! The macro expands to a compile-checked reference into this registry
//! (a typo'd id is a build error) and serves as a machine-readable
//! marker: `resilim trace-matrix` scans the workspace source for
//! `verifies!` invocations, joins them against [`ALL`], and fails CI
//! when any claim has no attesting artifact or an attestation names an
//! unknown claim (see `resilim_check::trace` and DESIGN.md §13).

/// What kind of paper artifact a claim is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimKind {
    /// A numbered equation of the model (paper §4).
    Equation,
    /// An empirical observation the model is built on (paper §3).
    Observation,
    /// An evaluation table.
    Table,
    /// An evaluation figure.
    Figure,
    /// A repo-level proof obligation: arithmetic the reproduction's
    /// statistics rest on, proved over exhaustive small domains.
    Invariant,
}

impl ClaimKind {
    /// Stable lower-case name (JSON, matrix rendering).
    pub fn name(self) -> &'static str {
        match self {
            ClaimKind::Equation => "equation",
            ClaimKind::Observation => "observation",
            ClaimKind::Table => "table",
            ClaimKind::Figure => "figure",
            ClaimKind::Invariant => "invariant",
        }
    }
}

/// One claim of the source paper (or a supporting proof obligation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// Stable upper-case id (`EQ8`, `O3`, `TABLE2`, `FIG3`, `INV_STOP`).
    pub id: &'static str,
    /// Artifact kind.
    pub kind: ClaimKind,
    /// The statement, in this repo's vocabulary.
    pub statement: &'static str,
}

macro_rules! declare_claims {
    ($($(#[$doc:meta])* $id:ident : $kind:ident = $statement:expr;)+) => {
        $(
            $(#[$doc])*
            pub static $id: Claim = Claim {
                id: stringify!($id),
                kind: ClaimKind::$kind,
                statement: $statement,
            };
        )+
        /// Every registered claim, in presentation order.
        pub static ALL: &[&Claim] = &[$(&$id),+];
    };
}

declare_claims! {
    /// Eq. 1 — the mixture.
    EQ1: Equation = "FI_par = prob1 * FI_common + prob2 * FI_unique: the \
        large-scale result is a convex mixture of the common-computation \
        term and the parallel-unique term (`PaperEq8::predict`).";
    /// Eq. 2 — the mixture weights.
    EQ2: Equation = "prob1 + prob2 = 1: the mixture weights are the \
        common/parallel-unique shares of injectable operations \
        (`ModelInputs::unique_share`), so a distribution in yields a \
        distribution out.";
    /// Eq. 3 — the propagation probabilities.
    EQ3: Equation = "r_x = count(x)/total: the probability that one \
        injected error contaminates exactly x ranks, a probability \
        distribution over x in [1, p] (`PropagationProfile::r`).";
    /// Eq. 4 — serial emulation of contaminated parallel execution.
    EQ4: Equation = "FI_common = sum_x r_x * FI_ser(x): a parallel run \
        with x contaminated ranks is emulated by a serial run with x \
        injected errors, weighted by the propagation profile.";
    /// Eq. 5 — uniform grouping of propagation profiles.
    EQ5: Equation = "Grouping a scale-p propagation profile into S \
        uniform buckets conserves probability mass and is consistent \
        under refinement (`PropagationProfile::group`).";
    /// Eq. 6 — alpha fine-tuning.
    EQ6: Equation = "When serial and small-scale results diverge by more \
        than the threshold (paper: 20%), bucket values are replaced by \
        the small-scale per-contamination results FI'_ser(x_j) = \
        FI_small_par(j) (`PaperEq8::divergence`, §4.2).";
    /// Eq. 7 — sparse serial sample cases.
    EQ7: Equation = "The S serial sample cases {1, 2p/S, ..., p} are \
        strictly increasing, in range, and cover every bucket of the \
        S-way split exactly once (`sample_cases`).";
    /// Eq. 8 — the sparse closed form.
    EQ8: Equation = "FI_common = sum_j r'_j * FI_ser(x_j) with bucket map \
        ceil(x*S/p): the sparse propagation-weighted sum, degenerating \
        to direct measurement when s = p (`PaperEq8::predict`).";
    /// Eq. 9 — prediction accuracy.
    EQ9: Equation = "Prediction accuracy is the absolute rate error per \
        deployment and RMSE over (measured, predicted) pairs \
        (`prediction_error`, `rmse`).";
    /// Observation 1 — parallel executes a superset of serial.
    O1: Observation = "Parallel execution executes a superset of the \
        serial computation; the common part is shared across scales \
        (region-marked apps, `table1`).";
    /// Observation 2 — the parallel-unique share is small.
    O2: Observation = "The parallel-unique share of injectable \
        operations is a small fraction for most applications, largest \
        for FT's transpose (`table1`).";
    /// Observation 3 — small-scale propagation predicts large-scale.
    O3: Observation = "The grouped large-scale propagation profile \
        matches the small-scale profile (high cosine similarity), so \
        small-scale r' stands in for the large scale.";
    /// Observation 4 — serial multi-error emulates contamination.
    O4: Observation = "The outcome of a serial run with x errors \
        approximates a parallel run in which x ranks are contaminated, \
        sometimes after the alpha correction (Fig. 3).";
    /// Table 1 — parallel-unique computation shares.
    TABLE1: Table = "Per-app parallel-unique share of injectable \
        operations: FT largest, CG/MiniFE small, MG/LU/PENNANT none \
        (`resilim table1`).";
    /// Table 2 — propagation cosine similarity.
    TABLE2: Table = "Cosine similarity between small-scale and grouped \
        large-scale propagation distributions (4V64, 8V64) is high \
        (`resilim table2`).";
    /// Figure 3 — serial multi-error vs parallel contamination curves.
    FIG3: Figure = "Success rate of a serial run with x errors tracks \
        the parallel run conditioned on x contaminated ranks, x = 1..S \
        (`resilim fig3`).";
    /// Figure 8 — sensitivity to the small scale.
    FIG8: Figure = "As the small scale S grows, prediction RMSE falls \
        while fault-injection time rises (`resilim fig8`).";
    /// FiResult merge algebra.
    INV_MERGE: Invariant = "FiResult::merge is commutative, associative, \
        and has FiResult::new() as identity; FiAccumulator folds are \
        order-invariant over outcome multisets — sharded, streamed, and \
        batch aggregation cannot drift apart.";
    /// Stop-rule monotonicity.
    INV_STOP: Invariant = "StopRule::satisfied is monotone under \
        proportional growth: once a campaign's intervals are narrow \
        enough, scaling every outcome count by the same factor never \
        un-satisfies the rule.";
    /// Wilson interval sanity.
    INV_WILSON: Invariant = "wilson_ci bounds lie in [0, 1], bracket the \
        point estimate, and the interval width is monotone non-increasing \
        in the number of trials at a fixed rate.";
    /// Eq. 8 output fidelity.
    INV_PREDICT: Invariant = "PaperEq8's rates are bitwise identical to \
        the committed snapshot of the closed form's output (plain Eq. 8, \
        alpha-tuned, and Eq. 1-mixed), so refactoring the predictor \
        cannot move a prediction.";
}

impl Claim {
    /// Look a claim up by its stable id.
    pub fn by_id(id: &str) -> Option<&'static Claim> {
        ALL.iter().copied().find(|c| c.id == id)
    }
}

/// Attest that the enclosing test or check oracle verifies the named
/// claims.
///
/// Expands to a compile-checked reference into the claims registry, so
/// an id that does not exist in [`ALL`] is a build error. The
/// invocation itself is the machine-readable marker `resilim
/// trace-matrix` scans for; write it on one line, ids separated by
/// commas:
///
/// ```
/// # fn proof_body() {
/// resilim_core::verifies!(INV_MERGE);
/// resilim_core::verifies!(EQ8, O3, TABLE2);
/// # }
/// ```
#[macro_export]
macro_rules! verifies {
    ($($id:ident),+ $(,)?) => {
        {
            let _attested: &[&$crate::claims::Claim] = &[$(&$crate::claims::$id),+];
            let _ = _attested;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_resolvable() {
        let mut seen = std::collections::BTreeSet::new();
        for claim in ALL {
            assert!(seen.insert(claim.id), "duplicate claim id {}", claim.id);
            assert_eq!(Claim::by_id(claim.id), Some(*claim));
            assert!(!claim.statement.is_empty());
        }
        assert_eq!(Claim::by_id("EQ99"), None);
    }

    #[test]
    fn registry_covers_the_issue_scope() {
        // The enumerated scope of ROADMAP item 5: Eq 1-8, O1-O4,
        // Table 1-2, Fig 3, Fig 8 — all present (plus Eq 9 and the
        // proof obligations).
        for id in [
            "EQ1",
            "EQ2",
            "EQ3",
            "EQ4",
            "EQ5",
            "EQ6",
            "EQ7",
            "EQ8",
            "EQ9",
            "O1",
            "O2",
            "O3",
            "O4",
            "TABLE1",
            "TABLE2",
            "FIG3",
            "FIG8",
            "INV_MERGE",
            "INV_STOP",
            "INV_WILSON",
            "INV_PREDICT",
        ] {
            assert!(Claim::by_id(id).is_some(), "missing claim {id}");
        }
    }

    #[test]
    fn macro_accepts_single_and_multiple_ids() {
        crate::verifies!(EQ1);
        crate::verifies!(EQ1, O4, INV_STOP,);
    }

    #[test]
    fn kinds_have_stable_names() {
        assert_eq!(ClaimKind::Equation.name(), "equation");
        assert_eq!(ClaimKind::Invariant.name(), "invariant");
        assert_eq!(EQ8.kind, ClaimKind::Equation);
        assert_eq!(O3.kind, ClaimKind::Observation);
        assert_eq!(TABLE1.kind, ClaimKind::Table);
        assert_eq!(FIG8.kind, ClaimKind::Figure);
    }
}
