//! `resilim campaign --store DIR` with a store that cannot be written
//! must fail loudly — non-zero exit, the directory and the OS error on
//! stderr — *before* running any trial, instead of finishing a silently
//! non-durable campaign that a later `--resume` would quietly re-run.
//! A deployment no app can decompose fails the same way, with an error
//! line rather than a panic, and so does a single-deployment command
//! that is not given exactly one app, an offline model whose inputs
//! the store does not hold, and a trace that cannot be written.

use std::process::Command;

#[test]
fn unwritable_store_fails_the_campaign_before_any_trial() {
    let base = std::env::temp_dir().join(format!("resilim-store-err-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // The "store" is a regular file: nothing can be created under it.
    let store = base.join("store");
    std::fs::write(&store, "not a directory").unwrap();
    let trace = base.join("trace.jsonl");

    let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(["campaign", "--apps", "cg", "--scale", "2", "--tests", "8"])
        .args(["--seed", "7", "--store", store.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn resilim");

    assert!(!out.status.success(), "exit status must be non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("ledger"), "{stderr}");
    assert!(stderr.contains(store.to_str().unwrap()), "{stderr}");
    assert!(stderr.contains("os error"), "{stderr}");
    assert!(out.stdout.is_empty(), "no summary may be printed");
    let events = std::fs::read_to_string(&trace).unwrap();
    assert!(
        !events.contains("\"ev\":\"trial\""),
        "a trial ran before the store error: {events}"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn undecomposable_scale_is_an_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(["campaign", "--apps", "lu", "--scale", "3", "--tests", "4"])
        .output()
        .expect("spawn resilim");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("power of two"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "no summary may be printed");
}

/// `campaign`, `merge` and `submit` run one deployment and `model`
/// models one workload: without `--apps`, or with more than one app,
/// they must refuse before doing anything rather than silently pick one.
#[test]
fn single_deployment_commands_need_exactly_one_app() {
    let store = std::env::temp_dir().join(format!("resilim-one-app-{}", std::process::id()));
    let store = store.to_str().unwrap();
    for apps in [&[][..], &["--apps", "lu,cg"]] {
        for command in [
            &["campaign"][..],
            &["merge", "--store", store],
            &["submit"],
            &["model", "--store", store],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
                .args(command)
                .args(apps)
                .args(["--scale", "2", "--tests", "3"])
                .output()
                .expect("spawn resilim");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command:?} {apps:?}: {stderr}");
            assert!(
                stderr.contains("exactly one app"),
                "{command:?} {apps:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "no summary may be printed");
        }
    }
    let _ = std::fs::remove_dir_all(store);
}

/// `resilim model` reads exactly the campaigns `--tests`/`--seed`
/// name, each merged from the ledger: a store whose small-scale
/// campaign exists only at another seed is refused, naming the missing
/// deployment, instead of being mixed with the requested seed's serial
/// campaigns.
#[test]
fn model_refuses_a_small_scale_campaign_at_another_seed() {
    let store = std::env::temp_dir().join(format!("resilim-model-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let store = store.to_str().unwrap();
    let campaign = |args: &[&str], seed: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
            .args(["campaign", "--apps", "cg", "--tests", "8", "--seed", seed])
            .args(["--store", store])
            .args(args)
            .output()
            .expect("spawn resilim");
        assert!(out.status.success(), "{args:?}: {out:?}");
    };
    let model = || {
        Command::new(env!("CARGO_BIN_EXE_resilim"))
            .args(["model", "--apps", "cg", "--scale", "8", "--small", "2"])
            .args(["--tests", "8", "--seed", "7", "--store", store])
            .output()
            .expect("spawn resilim")
    };
    // The serial cases of predicting 8 ranks from 2 are x = 1, 2, 8.
    for x in ["ser:1", "ser:2", "ser:8"] {
        campaign(&["--errors", x], "7");
    }
    campaign(&["--scale", "2"], "8");
    let out = model();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("cg --scale 2 --errors par --seed 7") && stderr.contains("8/8 trials"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no prediction may be printed");

    campaign(&["--scale", "2"], "7");
    let out = model();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("predicted cg at 8 ranks"));

    // A small scale that does not divide the target is refused, not a panic.
    let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(["model", "--apps", "cg", "--small", "3", "--store", store])
        .output()
        .expect("spawn resilim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--small 3 must divide"), "{stderr}");
    std::fs::remove_dir_all(store).unwrap();
}

/// A `--trace` file the disk refuses fails the command after it ran,
/// naming the flag and the OS error, instead of losing the trace.
#[cfg(target_os = "linux")]
#[test]
fn a_trace_the_disk_refuses_fails_the_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
        .args(["campaign", "--apps", "cg", "--scale", "2", "--tests", "8"])
        .args(["--seed", "7", "--trace", "/dev/full"])
        .output()
        .expect("spawn resilim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: --trace /dev/full: "), "{stderr}");
}

#[test]
fn error_counts_outside_the_draw_and_siteless_unique_are_refused() {
    let base = std::env::temp_dir().join(format!("resilim-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let cases: [(&str, &str, &str); 4] = [
        ("2", "multi:0", "multi:K needs K in 1..=64"),
        ("2", "multi:65", "multi:K needs K in 1..=64"),
        ("1", "ser:0", "ser:N needs N >= 1"),
        // No app has parallel-unique operations at one rank: refused
        // once the golden run is known, naming the app and the scale.
        (
            "1",
            "unique",
            "lu at --scale 1 has no parallel-unique operations",
        ),
    ];
    for (i, (scale, errors, why)) in cases.into_iter().enumerate() {
        let trace = base.join(format!("trace-{i}.jsonl"));
        let out = Command::new(env!("CARGO_BIN_EXE_resilim"))
            .args(["campaign", "--apps", "lu", "--scale", scale, "--tests", "2"])
            .args(["--errors", errors, "--trace", trace.to_str().unwrap()])
            .output()
            .expect("spawn resilim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{errors}: {stderr}");
        assert!(stderr.contains(why), "{errors}: {stderr}");
        assert!(!stderr.contains("panicked"), "{errors}: {stderr}");
        assert!(out.stdout.is_empty(), "{errors}: no summary may be printed");
        let events = std::fs::read_to_string(&trace).unwrap_or_default();
        assert!(
            !events.contains("\"ev\":\"trial\""),
            "{errors}: a trial ran before the refusal: {events}"
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}
