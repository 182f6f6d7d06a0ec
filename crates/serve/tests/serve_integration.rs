//! End-to-end service tests: concurrent multi-campaign scheduling over
//! one shared pool, idempotent submission, cancellation isolation,
//! durable restart-resume, and the unix-socket daemon round trip.
//!
//! The load-bearing property throughout: a campaign's final summary is
//! **bitwise identical** to a solo `CampaignRunner` run of the same
//! spec, no matter how many campaigns shared the worker pool, where the
//! daemon was restarted, or which process executed which trial.

use resilim_apps::App;
use resilim_harness::{CampaignRunner, CampaignSpec, CampaignSummary, ErrorSpec};
use resilim_serve::{CampaignState, Client, Daemon, Request, Scheduler, ServeConfig, SubmitSpec};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resilim-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(app: App, procs: usize, tests: usize, seed: u64) -> CampaignSpec {
    CampaignSpec::new(
        app.default_spec(),
        procs,
        ErrorSpec::OneParallel,
        tests,
        seed,
    )
}

/// Solo one-shot run of `s`, as the summary the service must reproduce.
fn solo(s: &CampaignSpec) -> CampaignSummary {
    CampaignSummary::of(s, &CampaignRunner::new().run_uncached(s))
}

/// Bitwise equality modulo the wall-clock field.
fn assert_same_measurement(got: &CampaignSummary, want: &CampaignSummary) {
    let mut want = want.clone();
    want.wall_secs = got.wall_secs;
    assert_eq!(*got, want);
}

const WAIT: Duration = Duration::from_secs(120);

/// Acceptance: ≥4 campaigns concurrently over one shared pool, every
/// result bitwise identical to its solo run.
#[test]
fn four_concurrent_campaigns_match_their_solo_runs() {
    let specs = [
        spec(App::Lu, 2, 14, 1),
        spec(App::Cg, 2, 14, 2),
        spec(App::Lu, 4, 10, 3),
        spec(App::Cg, 1, 18, 4),
    ];
    let expected: Vec<CampaignSummary> = specs.iter().map(solo).collect();

    let sched = Scheduler::new(CampaignRunner::new(), 4, None);
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| {
            let (id, deduped) = sched.submit(s).expect("submit");
            assert!(!deduped);
            id
        })
        .collect();
    // All four run concurrently; all four must finish.
    for (&id, want) in ids.iter().zip(&expected) {
        assert_eq!(sched.wait(id, WAIT), Some(CampaignState::Done));
        assert_same_measurement(&sched.summary(id).expect("summary"), want);
    }
    // Fair sharing left every campaign registered and distinct.
    let listed = sched.list();
    assert_eq!(listed.len(), 4);
    assert!(listed.iter().all(|c| c.state == "done"));
}

/// Cancelling one campaign must not perturb its neighbours.
#[test]
fn cancellation_is_isolated() {
    let victim = spec(App::Lu, 2, 400, 77);
    let bystander = spec(App::Cg, 2, 12, 78);
    let want = solo(&bystander);

    let sched = Scheduler::new(CampaignRunner::new(), 2, None);
    let (victim_id, _) = sched.submit(&victim).unwrap();
    let (bystander_id, _) = sched.submit(&bystander).unwrap();
    // 400 trials over 2 workers: the victim cannot be done yet.
    assert!(sched.cancel(victim_id), "victim is known");
    assert_eq!(
        sched.status(victim_id).unwrap().state,
        "cancelled",
        "victim cancelled before its 400 trials could finish"
    );
    assert!(
        sched.summary(victim_id).is_none(),
        "no summary for cancelled"
    );

    assert_eq!(sched.wait(bystander_id, WAIT), Some(CampaignState::Done));
    assert_same_measurement(&sched.summary(bystander_id).unwrap(), &want);

    assert!(!sched.cancel(999_999_999), "unknown id");
}

/// Resubmitting a completed deployment to a *fresh* scheduler over the
/// same store finishes instantly from the ledger: zero trials executed.
#[test]
fn ledger_makes_resubmission_instant() {
    let store = temp_dir("dedup");
    let s = spec(App::Cg, 2, 16, 21);
    let want = solo(&s);

    let first = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
    let (id, deduped) = first.submit(&s).unwrap();
    assert!(!deduped);
    assert_eq!(first.wait(id, WAIT), Some(CampaignState::Done));
    assert_same_measurement(&first.summary(id).unwrap(), &want);
    first.shutdown();

    // New daemon process, same store: the submission completes inside
    // `submit` itself — every record is seeded from the ledger.
    let second = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
    let (id2, deduped2) = second.submit(&s).unwrap();
    assert!(!deduped2, "fresh scheduler has no in-memory entry");
    let status = second.status(id2).unwrap();
    assert_eq!(
        status.state, "done",
        "resumed to completion with no trial run"
    );
    assert_eq!(status.done, 16);
    assert_same_measurement(&second.summary(id2).unwrap(), &want);

    // Same-process resubmission is a pure dedup hit.
    let (id3, deduped3) = second.submit(&s).unwrap();
    assert!(deduped3);
    assert_eq!(id2, id3);
    let _ = std::fs::remove_dir_all(&store);
}

/// Acceptance: kill the service mid-campaign (graceful drain), restart
/// over the same store, and the campaign finishes with the bitwise-same
/// aggregate a solo uninterrupted run produces.
#[test]
fn restart_mid_campaign_resumes_to_identical_aggregate() {
    let store = temp_dir("restart");
    let s = spec(App::Lu, 2, 60, 42);
    let want = solo(&s);

    let first = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
    let (id, _) = first.submit(&s).unwrap();
    // Let some (but not all) trials land, then drain and stop.
    let deadline = std::time::Instant::now() + WAIT;
    loop {
        let done = first.status(id).unwrap().done;
        if done > 0 || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    first.shutdown();
    let partial = first.status(id).unwrap().done;
    assert!(partial > 0, "made progress before the shutdown");

    let second = Scheduler::new(CampaignRunner::new(), 2, Some(store.clone()));
    let (id2, _) = second.submit(&s).unwrap();
    assert_eq!(second.wait(id2, WAIT), Some(CampaignState::Done));
    assert_same_measurement(&second.summary(id2).unwrap(), &want);
    let _ = std::fs::remove_dir_all(&store);
}

/// Full wire round trip: spawn a daemon on a socket, submit over the
/// protocol, stream progress, list, status, shutdown — and the summary
/// a client receives equals the solo run.
#[test]
fn daemon_socket_round_trip() {
    let dir = temp_dir("socket");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let s = spec(App::Cg, 2, 12, 9);
    let want = solo(&s);

    // batch > 1 on purpose: the summary must still equal the solo run.
    let daemon = Daemon::spawn(ServeConfig {
        socket: socket.clone(),
        store: None,
        workers: 2,
        batch: 3,
    })
    .expect("spawn daemon");

    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).expect("connect");
    let (id, deduped) = client.submit(SubmitSpec::of_campaign(&s)).expect("submit");
    assert!(!deduped);

    let (state, summary) = client
        .watch(id, |done, total| assert!(done <= total))
        .expect("watch");
    assert_eq!(state, CampaignState::Done);
    assert_same_measurement(&summary.expect("done summary"), &want);

    // Status and list agree post-completion.
    let resp = client.call(&Request::status(id)).unwrap();
    assert_eq!(resp.kind, "status");
    assert_eq!(resp.state.as_deref(), Some("done"));
    assert_same_measurement(&resp.summary.expect("status summary"), &want);
    let resp = client.call(&Request::list()).unwrap();
    assert_eq!(resp.campaigns.expect("listing").len(), 1);

    // A second client sees the same daemon (true multi-tenancy).
    let mut other = Client::connect(&socket).expect("second client");
    let (id2, deduped2) = other.submit(SubmitSpec::of_campaign(&s)).expect("resubmit");
    assert!(deduped2, "identical submission joins the finished campaign");
    assert_eq!(id2, id);

    // Protocol-level graceful shutdown removes the socket.
    client.shutdown().expect("shutdown ack");
    daemon.join();
    assert!(!socket.exists(), "socket removed on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Daemon restart over a store: the submission journal resurrects
/// in-flight campaigns, the ledger completes them without re-running,
/// and cancelled campaigns stay dead.
#[test]
fn daemon_restart_replays_journal() {
    let dir = temp_dir("journal");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let store = dir.join("store");
    let kept = spec(App::Cg, 1, 10, 31);
    let dropped = spec(App::Lu, 2, 300, 32);
    let want = solo(&kept);
    let config = ServeConfig {
        socket: socket.clone(),
        store: Some(store.clone()),
        workers: 2,
        batch: 2,
    };

    let daemon = Daemon::spawn(config.clone()).expect("spawn");
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).unwrap();
    let (kept_id, _) = client.submit(SubmitSpec::of_campaign(&kept)).unwrap();
    let (dropped_id, _) = client.submit(SubmitSpec::of_campaign(&dropped)).unwrap();
    let resp = client.call(&Request::cancel(dropped_id)).unwrap();
    assert_eq!(resp.kind, "ok");
    let (state, _) = client.watch(kept_id, |_, _| {}).unwrap();
    assert_eq!(state, CampaignState::Done);
    daemon.stop();

    // Restart: the kept campaign reappears complete (journal + ledger);
    // the cancelled one does not come back.
    let daemon = Daemon::spawn(config).expect("respawn");
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).unwrap();
    let resp = client.call(&Request::list()).unwrap();
    let campaigns = resp.campaigns.expect("listing");
    assert_eq!(campaigns.len(), 1, "cancelled campaign stays dead");
    assert_eq!(campaigns[0].state, "done");
    assert_eq!(campaigns[0].seed, kept.seed);
    let resp = client.call(&Request::status(campaigns[0].id)).unwrap();
    assert_same_measurement(&resp.summary.expect("replayed summary"), &want);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire rejects what it should reject.
#[test]
fn daemon_rejects_bad_requests() {
    let dir = temp_dir("reject");
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let daemon = Daemon::spawn(ServeConfig {
        socket: socket.clone(),
        store: None,
        workers: 1,
        batch: 1,
    })
    .expect("spawn");

    // Unknown campaign id.
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).unwrap();
    let resp = client.call(&Request::status(123_456)).unwrap();
    assert_eq!(resp.kind, "error");

    // Invalid spec (validated daemon-side too, not just in the CLI).
    let mut bad = SubmitSpec::of_campaign(&spec(App::Cg, 1, 4, 1));
    bad.app = "not-an-app".into();
    let mut client = Client::connect(&socket).unwrap();
    let err = client.submit(bad).unwrap_err();
    assert!(err.contains("unknown app"), "{err}");

    // A well-formed submission no app can decompose (LU at p=3) is
    // refused with an error line before golden profiling could panic
    // the connection thread, and the same connection goes on serving.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut submit = |wire: SubmitSpec| {
            let mut line = serde_json::to_string(&Request::submit(wire)).unwrap();
            line.push('\n');
            raw.write_all(line.as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            serde_json::from_str::<resilim_serve::Response>(&reply).unwrap()
        };
        let mut odd = SubmitSpec::of_campaign(&spec(App::Lu, 2, 2, 1));
        odd.procs = 3;
        let resp = submit(odd);
        assert_eq!(resp.kind, "error");
        assert!(resp.message.unwrap().contains("power of two"));
        // Error counts the bit draw cannot honour, and `unique` on a
        // deployment with no parallel-unique operations (every app at one
        // rank), are refused before any worker claims a trial.
        for (procs, errors, why) in [
            (2, "multi:0", "1..=64"),
            (2, "multi:65", "1..=64"),
            (1, "ser:0", "N >= 1"),
            (
                1,
                "unique",
                "lu at --scale 1 has no parallel-unique operations",
            ),
        ] {
            let mut wire = SubmitSpec::of_campaign(&spec(App::Lu, procs, 2, 1));
            wire.errors = errors.into();
            let resp = submit(wire);
            assert_eq!(resp.kind, "error", "{errors}");
            let message = resp.message.unwrap();
            assert!(message.contains(why), "{errors}: {message}");
        }
        let resp = submit(SubmitSpec::of_campaign(&spec(App::Lu, 2, 2, 1)));
        assert_eq!(resp.kind, "submitted");
    }
    // The daemon's one worker survived the refusals: a valid campaign
    // submitted after them runs to completion.
    let mut client = Client::connect(&socket).unwrap();
    let (_, summary) = client
        .submit_and_wait(SubmitSpec::of_campaign(&spec(App::Lu, 2, 3, 2)))
        .unwrap();
    assert_eq!(summary.expect("done campaigns carry a summary").tests, 3);

    // A request from the future is refused.
    let mut client = Client::connect(&socket).unwrap();
    let mut req = Request::list();
    req.v = 99;
    let resp = client.call(&req).unwrap();
    assert_eq!(resp.kind, "error");
    assert!(resp.message.unwrap().contains("protocol"));

    // A request line past the daemon's 64 KiB cap is answered with one
    // error line and the connection closed, not buffered without end.
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(&vec![b'x'; 64 * 1024 + 1]).unwrap();
        let mut reader = BufReader::new(raw);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: resilim_serve::Response = serde_json::from_str(&line).unwrap();
        assert_eq!(resp.kind, "error");
        assert!(resp.message.unwrap().contains("longer than"), "{line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0, "closed");
    }
    // The daemon still serves a fresh client.
    let mut client = Client::connect(&socket).unwrap();
    assert_eq!(client.call(&Request::list()).unwrap().kind, "list");

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
