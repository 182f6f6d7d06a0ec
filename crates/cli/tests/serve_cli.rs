//! End-to-end service tests through the real binary: `resilim serve`
//! as a child process, driven by `resilim submit`/`status`/`shutdown`,
//! including the SIGTERM graceful-drain + restart-resume guarantee.

use resilim_harness::CampaignSummary;
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resilim-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn resilim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(args)
        .output()
        .expect("spawn resilim")
}

/// A `resilim serve` child that is killed and reaped when dropped, so
/// a failing assertion does not leave the daemon running. A test that
/// stops it gracefully waits on it first; the drop then finds it reaped.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl std::ops::Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

fn spawn_daemon(socket: &Path, store: &Path) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .spawn()
        .expect("spawn daemon");
    Daemon(child)
}

/// Run a client command, retrying while the daemon is still starting.
fn client_retry(args: &[&str]) -> Output {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let out = resilim(args);
        if out.status.success() || Instant::now() > deadline {
            return out;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn stdout_json<T: Deserialize>(out: &Output) -> T {
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {text}: {e:?}"))
}

fn send_sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(pid as i32, 15);
    }
}

#[derive(Deserialize)]
struct Submitted {
    id: u64,
}

#[derive(Deserialize)]
struct Progress {
    done: usize,
}

fn assert_same_measurement(mut got: CampaignSummary, want: &CampaignSummary) {
    got.wall_secs = want.wall_secs;
    assert_eq!(got, *want);
}

/// The daemon path is bitwise-identical to the one-shot CLI path, and
/// a protocol shutdown leaves no socket behind.
#[test]
fn submit_matches_one_shot_campaign() {
    let dir = temp_dir("identity");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&socket, &dir.join("store"));

    let deployment = [
        "--apps", "cg", "--scale", "2", "--tests", "10", "--seed", "5",
    ];
    let mut submit_args = vec!["submit", "--watch", "--json", "--socket", sock];
    submit_args.extend_from_slice(&deployment);
    let served: CampaignSummary = stdout_json(&client_retry(&submit_args));

    let mut solo_args = vec!["campaign", "--json"];
    solo_args.extend_from_slice(&deployment);
    let solo: CampaignSummary = stdout_json(&resilim(&solo_args));
    assert_same_measurement(served, &solo);

    // Resubmission is idempotent: same id, deduped.
    let mut resubmit = vec!["submit", "--json", "--socket", sock];
    resubmit.extend_from_slice(&deployment);
    let out = resilim(&resubmit);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success());
    assert!(text.contains("\"deduped\": true"), "{text}");

    // The listing shows the finished campaign.
    let out = resilim(&["status", "--socket", sock]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("done"));

    let out = resilim(&["shutdown", "--socket", sock]);
    assert!(out.status.success(), "clean shutdown request");
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "daemon exits 0 after shutdown request");
    assert!(!socket.exists(), "no leaked socket");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM mid-campaign: the daemon drains and exits 0; a restarted
/// daemon resumes from ledger + journal and the final aggregate is
/// bitwise-identical to an uninterrupted run.
#[test]
fn sigterm_drains_and_restart_resumes_identically() {
    let dir = temp_dir("sigterm");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let store = dir.join("store");
    let mut daemon = spawn_daemon(&socket, &store);

    let deployment = [
        "--apps", "lu", "--scale", "2", "--tests", "200", "--seed", "44",
    ];
    let mut submit_args = vec!["submit", "--json", "--socket", sock];
    submit_args.extend_from_slice(&deployment);
    let Submitted { id } = stdout_json(&client_retry(&submit_args));
    let id_arg = id.to_string();

    // Wait for some trials to land so the kill is genuinely mid-flight.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let out = resilim(&["status", "--json", "--socket", sock, "--campaign", &id_arg]);
        let text = String::from_utf8_lossy(&out.stdout);
        let done = serde_json::from_str::<Progress>(&text).map(|p| p.done);
        if done.map(|d| d > 0).unwrap_or(true) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    send_sigterm(daemon.id());
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "SIGTERM drain exits 0");
    assert!(!socket.exists(), "socket removed on signal exit");

    // Restart over the same store: the journal resubmits the campaign,
    // the ledger resumes it, and watching it to completion yields the
    // bitwise-identical summary of an uninterrupted run.
    let mut daemon = spawn_daemon(&socket, &store);
    let mut watch_args = vec!["submit", "--watch", "--json", "--socket", sock];
    watch_args.extend_from_slice(&deployment);
    let resumed: CampaignSummary = stdout_json(&client_retry(&watch_args));

    let mut solo_args = vec!["campaign", "--json"];
    solo_args.extend_from_slice(&deployment);
    let solo: CampaignSummary = stdout_json(&resilim(&solo_args));
    assert_same_measurement(resumed, &solo);

    let out = resilim(&["shutdown", "--socket", sock]);
    assert!(out.status.success());
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `submit --watch` prints the result the way `campaign` does: for a
/// non-baseline fault model that includes the fault-model/detection
/// line, byte for byte.
#[test]
fn submit_watch_prints_the_campaign_detection_line() {
    let dir = temp_dir("detection");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let mut daemon = spawn_daemon(&socket, &dir.join("store"));

    let deployment = [
        "--apps",
        "cg",
        "--scale",
        "2",
        "--tests",
        "10",
        "--seed",
        "5",
        "--fault-model",
        "due",
    ];
    let detection = |out: &Output| -> String {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("fault model")).collect();
        assert_eq!(lines.len(), 1, "{text}");
        lines[0].to_string()
    };
    let mut submit_args = vec!["submit", "--watch", "--socket", sock];
    submit_args.extend_from_slice(&deployment);
    let served = detection(&client_retry(&submit_args));
    let mut solo_args = vec!["campaign"];
    solo_args.extend_from_slice(&deployment);
    let solo = detection(&resilim(&solo_args));
    assert!(solo.contains("fault model due"), "{solo}");
    assert_eq!(served, solo);

    let out = resilim(&["shutdown", "--socket", sock]);
    assert!(out.status.success());
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served store is a store like any other: the serial cases and the
/// small-scale campaign submitted to `resilim serve --store`, modelled
/// offline after the daemon exits, print the same bytes as `model` over
/// the same campaigns run one-shot.
#[test]
fn model_reads_a_served_store_like_a_one_shot_one() {
    let dir = temp_dir("model");
    let socket = dir.join("d.sock");
    let sock = socket.to_str().unwrap();
    let served = dir.join("served");
    let one_shot = dir.join("one-shot");
    let mut daemon = spawn_daemon(&socket, &served);

    // Predicting 8 ranks from 2 reads the serial cases x = 1, 2, 8 and
    // the 2-rank campaign.
    let deployments: [&[&str]; 4] = [
        &["--errors", "ser:1"],
        &["--errors", "ser:2"],
        &["--errors", "ser:8"],
        &["--scale", "2"],
    ];
    let flags = ["--apps", "cg", "--tests", "10", "--seed", "5"];
    for deployment in deployments {
        let mut submit = vec!["submit", "--watch", "--socket", sock];
        submit.extend_from_slice(&flags);
        submit.extend_from_slice(deployment);
        let out = client_retry(&submit);
        assert!(out.status.success(), "{deployment:?}: {out:?}");

        let mut campaign = vec!["campaign", "--store", one_shot.to_str().unwrap()];
        campaign.extend_from_slice(&flags);
        campaign.extend_from_slice(deployment);
        let out = resilim(&campaign);
        assert!(out.status.success(), "{deployment:?}: {out:?}");
    }
    let out = resilim(&["shutdown", "--socket", sock]);
    assert!(out.status.success());
    assert!(daemon.wait().expect("daemon exit").success());

    let model = |store: &Path| {
        let mut args = vec!["model", "--scale", "8", "--small", "2"];
        args.extend_from_slice(&flags);
        args.extend_from_slice(&["--store", store.to_str().unwrap()]);
        let out = resilim(&args);
        assert!(out.status.success(), "{store:?}: {out:?}");
        out.stdout
    };
    let from_served = model(&served);
    assert!(String::from_utf8_lossy(&from_served).starts_with("predicted cg at 8 ranks"));
    assert_eq!(from_served, model(&one_shot));
    let _ = std::fs::remove_dir_all(&dir);
}
