//! Pluggable fault models.
//!
//! The paper's baseline model is a *single-bit flip in an operand of one
//! floating-point operation*. This module makes the model a first-class,
//! selectable dimension of a campaign: a [`FaultModelSpec`] names the
//! model (and is folded into ledger/cache keys so resume and dedup stay
//! correct), and [`FaultModelSpec::op_targets`] turns the harness's
//! uniformly-drawn injection *site* into the concrete [`Target`]s to
//! corrupt.
//!
//! Four models ship:
//!
//! * [`FaultModelSpec::BitFlip`] — the baseline. Its draw sequence is
//!   bit-for-bit identical to the pre-trait code (proven by the
//!   `bitflip_matches_legacy_draw_sequence` test), so default
//!   campaigns reproduce historical results exactly.
//! * [`FaultModelSpec::Burst`] — `width` *consecutive* bits of one
//!   operand flip together (a spatial burst, as wide datapath upsets
//!   produce), unlike the independent random bits of `par:xK`.
//! * [`FaultModelSpec::Due`] — detected-uncorrectable error: the same
//!   single-bit draw, but the afflicted rank is killed at the firing op
//!   (hardware detected the corruption and halted) instead of silently
//!   continuing. Surfaces as [`FailureKind::Due`](crate::FailureKind).
//! * [`FaultModelSpec::Msg`] — the corruption happens *on the wire*: a
//!   bit of one element of one numeric message payload, applied by the
//!   simmpi fabric rather than at an FP op. The harness draws the
//!   message site from golden per-rank send counts; no op target exists.
//!
//! Model dispatch happens once per **trial** (plan time), never per op:
//! the per-op hot path is untouched and stays zero-cost for every model.

use crate::plan::{FaultPattern, Operand, Target};
use crate::region::Region;
use rand::rngs::SmallRng;
use rand::Rng;
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

    /// The operand-level targets this model corrupts at one uniformly
    /// drawn op site (region + dynamic op index). Draws from `rng` in a
    /// fixed order — the draws are part of a campaign's deterministic
    /// identity. `pattern` is the campaign's error pattern (`par` →
    /// [`FaultPattern::SingleBit`], `par:xK` → [`FaultPattern::MultiBit`]).
    ///
    /// * `BitFlip` and `Due` — the baseline flip, drawn in the pre-trait
    ///   `draw_targets` order exactly: operand first, then the bit(s) — a
    ///   single `gen_range(0..64)`, or a `BTreeSet` filled by rejection
    ///   for `MultiBit(k)`. DUE differs only in that the executing context
    ///   is armed with kill-on-fire, so the rank panics (with
    ///   [`DUE_MSG`](crate::ctx::DUE_MSG)) at the firing op.
    /// * `Burst(width)` — `width` consecutive bits of one operand; the
    ///   start bit is uniform over `0..=64-width`, so the burst never
    ///   wraps. It defines its own bit geometry, ignores `pattern`, and
    ///   is restricted to `par`.
    /// * `Msg` — none: the site is a message, not an op. The harness draws
    ///   `(sender, message index, element, bit)` from golden per-rank send
    ///   counts and arms the fabric with it.
    pub fn op_targets(
        &self,
        rng: &mut SmallRng,
        pattern: FaultPattern,
        region: Region,
        op_index: u64,
    ) -> Vec<Target> {
        let (operand, bits): (Operand, Vec<u8>) = match (*self, pattern) {
            (FaultModelSpec::Msg, _) => return Vec::new(),
            (FaultModelSpec::Burst(width), _) => {
                let operand = draw_operand(rng);
                let start = rng.gen_range(0..(65 - width));
                (operand, (start..start + width).collect())
            }
            (FaultModelSpec::BitFlip | FaultModelSpec::Due, FaultPattern::SingleBit) => {
                (draw_operand(rng), vec![rng.gen_range(0..64)])
            }
            (FaultModelSpec::BitFlip | FaultModelSpec::Due, FaultPattern::MultiBit(k)) => {
                let operand = draw_operand(rng);
                let mut set = std::collections::BTreeSet::new();
                while set.len() < k as usize {
                    set.insert(rng.gen_range(0..64u8));
                }
                (operand, set.into_iter().collect())
            }
        };
        bits.into_iter()
            .map(|bit| Target {
                region,
                op_index,
                bit,
                operand,
            })
            .collect()
    }
}

/// Draw the afflicted operand, A or B with equal odds.
pub fn draw_operand(rng: &mut SmallRng) -> Operand {
    if rng.gen_bool(0.5) {
        Operand::A
    } else {
        Operand::B
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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

    /// The pre-trait target draw, copied verbatim from the harness's
    /// `draw_targets` (PR 7 state): the refactored default model must
    /// reproduce it bit for bit or historical campaigns change.
    fn legacy_draw_targets(
        rng: &mut SmallRng,
        multi_bit: Option<u8>,
        region: Region,
        op_index: u64,
    ) -> Vec<Target> {
        let operand = if rng.gen_bool(0.5) {
            Operand::A
        } else {
            Operand::B
        };
        let bits: Vec<u8> = match multi_bit {
            Some(k) => {
                let mut set = std::collections::BTreeSet::new();
                while set.len() < k as usize {
                    set.insert(rng.gen_range(0..64u8));
                }
                set.into_iter().collect()
            }
            None => vec![rng.gen_range(0..64)],
        };
        bits.into_iter()
            .map(|bit| Target {
                region,
                op_index,
                bit,
                operand,
            })
            .collect()
    }

    #[test]
    fn bitflip_matches_legacy_draw_sequence() {
        let model = FaultModelSpec::BitFlip;
        for seed in 0..200u64 {
            for (pattern, multi) in [
                (FaultPattern::SingleBit, None),
                (FaultPattern::MultiBit(2), Some(2)),
                (FaultPattern::MultiBit(5), Some(5)),
            ] {
                let mut a = SmallRng::seed_from_u64(seed);
                let mut b = SmallRng::seed_from_u64(seed);
                let ours = model.op_targets(&mut a, pattern, Region::Common, seed % 97);
                let legacy = legacy_draw_targets(&mut b, multi, Region::Common, seed % 97);
                assert_eq!(ours, legacy, "seed {seed} pattern {pattern:?}");
                // The RNGs must also be in the same state afterwards:
                // later draws in the same trial depend on it.
                assert_eq!(a.next_u64(), b.next_u64(), "rng state diverged");
            }
        }
    }

    #[test]
    fn burst_flips_consecutive_bits_of_one_operand() {
        for seed in 0..100u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let model = FaultModelSpec::Burst(4);
            let targets =
                model.op_targets(&mut rng, FaultPattern::SingleBit, Region::ParallelUnique, 7);
            assert_eq!(targets.len(), 4);
            let operand = targets[0].operand;
            for (i, t) in targets.iter().enumerate() {
                assert_eq!(t.operand, operand, "one operand per burst");
                assert_eq!(t.bit, targets[0].bit + i as u8, "consecutive bits");
                assert!(t.bit < 64);
                assert_eq!(t.op_index, 7);
                assert_eq!(t.region, Region::ParallelUnique);
            }
        }
    }

    #[test]
    fn due_draws_like_the_baseline() {
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        let due =
            FaultModelSpec::Due.op_targets(&mut a, FaultPattern::SingleBit, Region::Common, 3);
        let base =
            FaultModelSpec::BitFlip.op_targets(&mut b, FaultPattern::SingleBit, Region::Common, 3);
        assert_eq!(due, base);
    }

    #[test]
    fn msg_model_plans_no_op_targets() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(FaultModelSpec::Msg
            .op_targets(&mut rng, FaultPattern::SingleBit, Region::Common, 0)
            .is_empty());
    }
}
