//! `resilim campaign --store DIR` with a store that cannot be written
//! must fail loudly — non-zero exit, the directory and the OS error on
//! stderr — *before* running any trial, instead of finishing a silently
//! non-durable campaign that a later `--resume` would quietly re-run.

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
