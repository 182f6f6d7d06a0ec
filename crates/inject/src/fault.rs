//! Fault-model vocabulary.
//!
//! The paper's baseline model is a *single-bit flip in an operand of one
//! floating-point operation*. A [`FaultModelSpec`] names the model of a
//! campaign (and is folded into ledger/cache keys so resume and dedup
//! stay correct); the harness's trial planner (`plan_test` in
//! `resilim-harness`) is what turns it, with the trial's RNG, into
//! concrete [`Target`](crate::Target)s or a wire fault.
//!
//! Four models ship:
//!
//! * [`FaultModelSpec::BitFlip`] — the baseline: one random bit (or `K`
//!   distinct bits under `--errors multi:K`) of one random operand.
//! * [`FaultModelSpec::Burst`] — `width` *consecutive* bits of one
//!   operand flip together (a spatial burst, as wide datapath upsets
//!   produce), unlike the independent random bits of `multi:K`.
//! * [`FaultModelSpec::Due`] — detected-uncorrectable error: the same
//!   draw as the baseline, but the afflicted rank is killed at the firing
//!   op (hardware detected the corruption and halted) instead of silently
//!   continuing. Surfaces as [`FailureKind::Due`](crate::FailureKind).
//! * [`FaultModelSpec::Msg`] — the corruption happens *on the wire*: a
//!   bit of one element of one numeric message payload, applied by the
//!   simmpi fabric rather than at an FP op. The site is drawn from golden
//!   per-rank send counts; no op target exists.
//!
//! The model is read once per **trial** (plan time), never per op: the
//! per-op hot path is the same for every model.

use serde::{Deserialize, Serialize};

/// Burst width used when `--fault-model burst` is given without `:K`.
pub const DEFAULT_BURST_WIDTH: u8 = 3;

/// The selectable fault model of a campaign.
///
/// `Copy`, orderable into a stable CLI spelling ([`cli_name`]) that
/// doubles as the ledger-key fragment, and serde-serializable (unit and
/// tuple variants only, per the vendored serde facade).
///
/// [`cli_name`]: FaultModelSpec::cli_name
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultModelSpec {
    /// Single-bit operand flip at one FP op (the paper's model).
    #[default]
    BitFlip,
    /// A burst of consecutive bit flips (width 2–8) in one operand.
    Burst(u8),
    /// Detected-uncorrectable error: single-bit flip + rank kill.
    Due,
    /// Message-payload corruption applied at the communication fabric.
    Msg,
}

impl FaultModelSpec {
    /// Every model, with the default burst width (CI matrices and the
    /// check fuzzer sweep this list).
    pub const ALL: [FaultModelSpec; 4] = [
        FaultModelSpec::BitFlip,
        FaultModelSpec::Burst(DEFAULT_BURST_WIDTH),
        FaultModelSpec::Due,
        FaultModelSpec::Msg,
    ];

    /// Parse a CLI spelling: `bitflip`, `burst` (width
    /// [`DEFAULT_BURST_WIDTH`]), `burst:K` (K in 2..=8), `due`, `msg`.
    pub fn parse(s: &str) -> Result<FaultModelSpec, String> {
        match s {
            "bitflip" => Ok(FaultModelSpec::BitFlip),
            "burst" => Ok(FaultModelSpec::Burst(DEFAULT_BURST_WIDTH)),
            "due" => Ok(FaultModelSpec::Due),
            "msg" => Ok(FaultModelSpec::Msg),
            _ => {
                if let Some(k) = s.strip_prefix("burst:") {
                    let k: u8 = k.parse().map_err(|_| format!("bad burst width in '{s}'"))?;
                    if !(2..=8).contains(&k) {
                        return Err(format!("burst width must be 2..=8, got {k}"));
                    }
                    Ok(FaultModelSpec::Burst(k))
                } else {
                    Err(format!(
                        "unknown fault model '{s}' (expected bitflip, burst[:K], due, or msg)"
                    ))
                }
            }
        }
    }

    /// The stable CLI spelling; also the ledger/cache-key fragment and
    /// the store file-name suffix for non-default models.
    pub fn cli_name(&self) -> String {
        match self {
            FaultModelSpec::BitFlip => "bitflip".to_string(),
            FaultModelSpec::Burst(k) => format!("burst:{k}"),
            FaultModelSpec::Due => "due".to_string(),
            FaultModelSpec::Msg => "msg".to_string(),
        }
    }

    /// Whether this is the default (paper baseline) model. Default-model
    /// campaigns must keep pre-trait ledger keys and outputs bitwise.
    pub fn is_default(&self) -> bool {
        *self == FaultModelSpec::BitFlip
    }

    /// Whether the model corrupts message payloads at the fabric instead
    /// of FP operands (no op targets are drawn).
    pub fn targets_messages(&self) -> bool {
        matches!(self, FaultModelSpec::Msg)
    }

    /// Whether a fired fault kills its rank (DUE semantics).
    pub fn kills_on_fire(&self) -> bool {
        matches!(self, FaultModelSpec::Due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_spelling() {
        for spelling in ["bitflip", "burst:2", "burst:8", "due", "msg"] {
            let spec = FaultModelSpec::parse(spelling).unwrap();
            assert_eq!(spec.cli_name(), spelling);
        }
        assert_eq!(
            FaultModelSpec::parse("burst").unwrap(),
            FaultModelSpec::Burst(DEFAULT_BURST_WIDTH)
        );
        assert!(FaultModelSpec::parse("burst:1").is_err());
        assert!(FaultModelSpec::parse("burst:9").is_err());
        assert!(FaultModelSpec::parse("burst:x").is_err());
        assert!(FaultModelSpec::parse("gamma-ray").is_err());
    }

    #[test]
    fn default_is_the_paper_baseline() {
        assert_eq!(FaultModelSpec::default(), FaultModelSpec::BitFlip);
        assert!(FaultModelSpec::BitFlip.is_default());
        assert!(!FaultModelSpec::Due.is_default());
        assert!(FaultModelSpec::Msg.targets_messages());
        assert!(FaultModelSpec::Due.kills_on_fire());
        assert!(!FaultModelSpec::BitFlip.kills_on_fire());
    }

    #[test]
    fn serde_round_trip() {
        for spec in FaultModelSpec::ALL {
            let json = serde_json::to_string(&spec).unwrap();
            let back: FaultModelSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }
}
