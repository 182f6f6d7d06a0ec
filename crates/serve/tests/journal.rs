//! The submissions journal (`<store>/submissions.jsonl`) under
//! concurrent connections: every accepted submission is one whole line,
//! written before the client is answered, so a restarted daemon brings
//! back every one of them.

use resilim_apps::App;
use resilim_harness::{CampaignSpec, ErrorSpec};
use resilim_serve::{Client, Daemon, Request, ServeConfig, SubmitSpec};
use std::time::Duration;

#[test]
fn concurrent_submissions_all_survive_a_restart() {
    const CLIENTS: u64 = 8;
    const EACH: u64 = 16;
    let dir = std::env::temp_dir().join(format!("resilim-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let journal = dir.join("store").join("submissions.jsonl");
    let config = ServeConfig {
        socket: socket.clone(),
        store: Some(dir.join("store")),
        workers: 2,
        batch: 1,
    };

    let daemon = Daemon::spawn(config.clone()).expect("spawn");
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let socket = &socket;
            scope.spawn(move || {
                let mut client = Client::connect_retry(socket, Duration::from_secs(10)).unwrap();
                for i in 0..EACH {
                    let seed = 1000 + c * EACH + i;
                    let spec = CampaignSpec::new(
                        App::Cg.default_spec(),
                        1,
                        ErrorSpec::OneParallel,
                        1,
                        seed,
                    );
                    let (_, deduped) = client.submit(SubmitSpec::of_campaign(&spec)).unwrap();
                    assert!(!deduped);
                }
            });
        }
    });
    daemon.stop();
    let bytes = std::fs::read(&journal).unwrap();

    let daemon = Daemon::spawn(config).expect("respawn");
    let mut client = Client::connect_retry(&socket, Duration::from_secs(10)).unwrap();
    let campaigns = client
        .call(&Request::list())
        .unwrap()
        .campaigns
        .expect("listing");
    let mut seeds: Vec<u64> = campaigns.iter().map(|c| c.seed).collect();
    seeds.sort_unstable();
    assert_eq!(seeds, (1000..1000 + CLIENTS * EACH).collect::<Vec<_>>());
    daemon.stop();
    assert_eq!(
        std::fs::read(&journal).unwrap(),
        bytes,
        "a restart with no request changed the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
