//! The communication schedule itself is pinned, not just its result.
//!
//! The paper's model takes communication topology and schedule as its
//! input, and every ledger, feature shard and `--fault-model msg` index
//! is a function of them. A fault-free run of each app must therefore
//! keep making exactly these handoffs and sending exactly these messages
//! and bytes: a change to the fabric, a carrier, a collective or an app's
//! exchange that moves one of the numbers below has changed the schedule
//! and has to say so by editing this table.
//!
//! Single `#[test]` on purpose: the obs recorder is process-global.

use resilim_apps::App;
use resilim_harness::GoldenRun;
use resilim_obs as obs;

/// `(app, procs, rank switches, messages sent, bytes sent)` of one
/// fault-free run of the app's default problem, recorded at PR 17.
const PINNED: [(App, usize, u64, u64, u64); 12] = [
    (App::Cg, 4, 353, 729, 214_560),
    (App::Ft, 4, 24, 54, 74_304),
    (App::Mg, 4, 281, 534, 124_224),
    (App::Lu, 4, 64, 402, 42_016),
    (App::MiniFe, 4, 138, 297, 24_672),
    (App::Pennant, 4, 197, 330, 9_456),
    (App::Cg, 64, 13_373, 28_269, 4_609_440),
    (App::Ft, 64, 444, 12_474, 108_864),
    (App::Mg, 64, 3_065, 5_988, 1_812_768),
    (App::Lu, 64, 1_385, 10_962, 308_896),
    (App::MiniFe, 64, 6_031, 12_069, 564_768),
    (App::Pennant, 64, 3_557, 6_930, 198_576),
];

#[test]
fn golden_runs_keep_their_handoffs_messages_and_bytes() {
    obs::set_enabled(true);
    let mut measured = Vec::new();
    for (app, procs, ..) in PINNED {
        let before = obs::MetricsSnapshot::capture();
        GoldenRun::measure(&app.default_spec(), procs);
        let delta = obs::MetricsSnapshot::capture().delta(&before);
        measured.push((
            app,
            procs,
            delta.counter(obs::Counter::RankSwitches),
            delta.counter(obs::Counter::MsgsSent),
            delta.counter(obs::Counter::BytesSent),
        ));
    }
    obs::set_enabled(false);
    assert_eq!(measured, PINNED, "the communication schedule changed");
}
