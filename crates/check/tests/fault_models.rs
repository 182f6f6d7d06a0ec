//! Determinism acceptance suite for the fault-model library: every
//! non-default model — burst, DUE, message corruption — and the
//! replicated backend must pass the `identity` oracle, so every
//! execution shape (parallel workers, the spawn-per-trial carrier,
//! batched admission, a ledger merged back from disk, a daemon-served
//! run) reproduces the jobs=1 result bitwise.

use resilim_apps::App;
use resilim_check::{run_oracle, CaseSpec, CoreOps, Oracle};
use resilim_inject::FaultModelSpec;

#[test]
fn fault_models_are_bitwise_deterministic_across_execution_shapes() {
    let mut case = CaseSpec::smoke_roster().remove(0);
    case.procs = 2;
    case.s = 2;
    case.tests = 10;
    case.seed = 4242;
    case.app = App::ALL[0].name().to_string();
    for (name, model, replicate) in [
        ("burst", FaultModelSpec::Burst(3), false),
        ("due", FaultModelSpec::Due, false),
        ("msg", FaultModelSpec::Msg, false),
        ("msg+replicate", FaultModelSpec::Msg, true),
    ] {
        case.fault_model = model;
        case.replicate = replicate;
        if let Err(v) = run_oracle(&case, Oracle::Identity, &CoreOps) {
            panic!("{name}: {v}");
        }
    }
}
