//! Trial results are pinned, not only the schedule that produced them.
//!
//! `schedule_pin` holds the fault-free communication schedule; this suite
//! holds what a small one-error campaign of every app makes of it at the
//! default taint threshold: each trial's classified outcome and its
//! 19-dimensional feature record. Both are functions of the injection
//! context's contamination accounting (which rank counts as contaminated,
//! at which op, after how many messages), so a change to the per-op hook
//! that moves any of them changes a digest below and has to say so by
//! editing this table. A second table runs every app under the message
//! fault model, where a corrupted payload can reach a kernel as a shape
//! (a length, an index) rather than as a value.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, ErrorSpec};
use resilim_inject::FaultModelSpec;

/// Trials per campaign and the campaign seed.
const TESTS: usize = 16;
const SEED: u64 = 7;

/// `(app, procs, digest)`: FNV-1a over the `Debug` form of every
/// `(TestOutcome, TrialFeatures)` pair of the campaign, in trial order.
const PINNED: [(App, usize, u64); 24] = [
    (App::Cg, 1, 0x46633edfb497d2c6),
    (App::Ft, 1, 0x8873868e365bb094),
    (App::Mg, 1, 0x73ffb744c225a007),
    (App::Lu, 1, 0x7e98f85d8baeb2fc),
    (App::MiniFe, 1, 0x2521dc86299e30e1),
    (App::Pennant, 1, 0xa1f05f120294c3f6),
    (App::Cg, 4, 0x496a89f227aecee2),
    (App::Ft, 4, 0x5aaaf3275cf13496),
    (App::Mg, 4, 0xb8b09085fe294b45),
    (App::Lu, 4, 0x9dcc56cc5773c716),
    (App::MiniFe, 4, 0x41442c26314a979f),
    (App::Pennant, 4, 0xac6a8739159f097a),
    (App::Cg, 8, 0x9af189d2140d3cee),
    (App::Ft, 8, 0x2cbe5310f9752390),
    (App::Mg, 8, 0x0edbc70398e96b2c),
    (App::Lu, 8, 0x03ea115ab35d86a2),
    (App::MiniFe, 8, 0x96a4d3da53998ce8),
    (App::Pennant, 8, 0xa3ecacf3a696c43c),
    (App::Cg, 64, 0x8815e6fa57df8c76),
    (App::Ft, 64, 0x767c38060eb8da13),
    (App::Mg, 64, 0x106ff2b508955595),
    (App::Lu, 64, 0xe83874c8c731a2b7),
    (App::MiniFe, 64, 0x1718750010706085),
    (App::Pennant, 64, 0xdd9c969fe58fb724),
];

/// `(app, procs, digest)` as in [`PINNED`], for the same campaigns under
/// `--fault-model msg`.
const PINNED_MSG: [(App, usize, u64); 12] = [
    (App::Cg, 4, 0xf4c555e3595ccf81),
    (App::Ft, 4, 0x6bcb68479602621a),
    (App::Mg, 4, 0xde9cfd310c42ce52),
    (App::Lu, 4, 0xc4c243f3a053b783),
    (App::MiniFe, 4, 0xaef68c4d749924a8),
    (App::Pennant, 4, 0xbeca664855247423),
    (App::Cg, 8, 0xf0ece492f8d4455a),
    (App::Ft, 8, 0x7d7e4a4fef4c70e8),
    (App::Mg, 8, 0xf95783b430ae1aed),
    (App::Lu, 8, 0x4e627bbac8e0fae6),
    (App::MiniFe, 8, 0x71edf44db0b850e8),
    (App::Pennant, 8, 0xac1e148b516cb776),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every pinned campaign of `table` under `model`, measured.
fn measure(table: &[(App, usize, u64)], model: FaultModelSpec) -> Vec<(App, usize, u64)> {
    let mut measured = Vec::new();
    for &(app, procs, _) in table {
        let spec = CampaignSpec::new(
            app.default_spec(),
            procs,
            ErrorSpec::OneParallel,
            TESTS,
            SEED,
        )
        .with_fault_model(model);
        let result = CampaignRunner::new().run_uncached(&spec);
        assert_eq!(result.features.len(), result.outcomes.len());
        let records: String = result
            .outcomes
            .iter()
            .zip(&result.features)
            .map(|pair| format!("{pair:?}\n"))
            .collect();
        measured.push((app, procs, fnv1a(records.as_bytes())));
    }
    measured
}

#[test]
fn par_campaigns_keep_their_outcomes_and_features() {
    let measured = measure(&PINNED, FaultModelSpec::default());
    assert_eq!(measured, PINNED, "a trial's outcome or features changed");
}

#[test]
fn msg_campaigns_keep_their_outcomes_and_features() {
    let measured = measure(&PINNED_MSG, FaultModelSpec::Msg);
    assert_eq!(
        measured, PINNED_MSG,
        "a trial's outcome or features changed"
    );
}
