//! `resilim` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! resilim <command> [--tests N] [--seed S] [--json] [--out FILE] [options]
//!
//! commands:
//!   table1              parallel-unique computation share
//!   table2              propagation cosine similarity (4V64, 8V64)
//!   fig1                CG propagation histograms (8 vs 64 ranks)
//!   fig2                FT propagation histograms (8 vs 64 ranks)
//!   fig3                serial multi-error vs parallel contamination
//!   fig5                prediction for 64 ranks from serial + 4 ranks
//!   fig6                prediction for 64 ranks from serial + 8 ranks
//!   fig7                prediction for 128 ranks (CG, FT)
//!   fig8                sensitivity: small-scale size vs RMSE and FI time
//!   motivation          op-count / FI-time growth with scale
//!   apps                run each application fault-free and verify it
//!   weak                weak-scaling extension study (not in the paper)
//!   campaign            run one deployment; print or --store its summary
//!   merge               aggregate a deployment's shard ledgers (--store)
//!   model               predict from a --store directory (offline)
//!   metrics             aggregate report from a --trace JSONL file
//!   check               differential/metamorphic validation of the model
//!   trace-matrix        claims-to-oracle traceability matrix (--write/--check)
//!   serve               campaign daemon on a unix socket (--socket)
//!   submit              submit a campaign to a daemon (--watch streams)
//!   status              one campaign (--campaign ID) or the listing
//!   cancel              cancel a running campaign (--campaign ID)
//!   shutdown            ask the daemon to drain and exit
//!   all                 every table/figure above, in order
//! ```
//!
//! Validation: `resilim check` cross-validates the closed-form predictor
//! and the campaign machinery against measured mini-campaigns.
//! `--smoke` runs the fixed per-app roster (the PR gate), `--cases N`
//! or `--budget SECS` run randomized cases, and a failing case is
//! shrunk and written as a JSON repro record (`--repro-dir DIR`)
//! replayable with `--replay FILE`. `--inject-bug bucket-off-by-one`
//! swaps in a deliberately broken bucket map to demonstrate the
//! pipeline end to end.
//!
//! Traceability: `resilim trace-matrix` scans the workspace for
//! `verifies!` attestations, joins them against the claims registry
//! (`resilim_core::claims`), and renders the claims-to-oracle matrix
//! (`--json` for machines). `--write docs/TRACEABILITY.md` refreshes
//! the committed copy; `--check` fails on drift, on unverified claims,
//! and on attestations naming unregistered claims.
//!
//! Adaptive stopping: `--adaptive` ends each campaign as soon as every
//! outcome class's Wilson interval is narrower than `--ci HALFWIDTH`
//! (default 0.05), after at least `--min-tests N` trials; `--tests`
//! becomes the ceiling. The stop point is deterministic for a fixed
//! seed and configuration, independent of `--jobs`.
//!
//! Observability: `--trace FILE` streams structured events (campaign
//! starts, trials, fired injections, cache lookups) as JSONL; `--metrics`
//! prints the aggregate counter/histogram report to stderr after the run.
//! Either flag also enables a live progress line on stderr.
//!
//! Durability: with `--store DIR`, every completed trial is appended to a
//! crash-tolerant ledger under `DIR/ledger/`, and its per-trial feature
//! record to `DIR/features/`. `--resume` skips trials already ledgered
//! (a killed campaign restarts where it stopped, bitwise-identically);
//! `--shard i/N` runs only every N-th trial so N processes/machines can
//! split one campaign, and `resilim merge` reassembles their ledgers
//! (and feature shards) into the whole-campaign result.
//!
//! Prediction: `resilim model` predicts from a `--store` directory: the
//! paper's closed form (Eq. 8) over stored serial + small-scale
//! summaries.
//! `--trial-timeout SECS` arms a per-trial watchdog that kills and
//! retries wedged trials (`--retries N` bounds the attempts).
//!
//! Service mode: `resilim serve` runs a persistent daemon that accepts
//! campaign submissions over a unix socket (JSON lines) and fair-shares
//! one worker pool, golden cache, and ledger across many concurrent
//! campaigns. `resilim submit`/`status`/`cancel`/`shutdown` are the
//! clients. Submission is idempotent (an equal spec joins the existing
//! campaign; with `--store`, completed trials resume from the ledger),
//! and SIGTERM or `resilim shutdown` drains in-flight trials before
//! exiting — a restarted daemon finishes interrupted campaigns with
//! bitwise-identical aggregates.

mod cmd;
mod opts;
mod trace;

use opts::{parse_args, Options};
use resilim_harness::CampaignRunner;
use std::process::ExitCode;

/// Turn the observability recorder on and install the requested sinks.
/// No-op (recorder stays off, campaigns run untraced) without `--trace`
/// or `--metrics`, and for the offline `metrics` command.
fn setup_observability(opts: &Options) -> Result<(), String> {
    if opts.command == "metrics" || (opts.trace.is_none() && !opts.metrics) {
        return Ok(());
    }
    if let Some(path) = &opts.trace {
        let sink = resilim_obs::JsonlSink::create(std::path::Path::new(path))
            .map_err(|e| format!("--trace {path}: {e}"))?;
        resilim_obs::add_sink(std::sync::Arc::new(sink));
    }
    resilim_obs::add_sink(std::sync::Arc::new(resilim_obs::ProgressSink::new()));
    resilim_obs::set_enabled(true);
    Ok(())
}

/// Build the campaign runner the parsed flags describe.
fn build_runner(opts: &Options) -> CampaignRunner {
    let mut runner = match opts.jobs {
        None => CampaignRunner::new().with_auto_parallelism(),
        Some(k) => CampaignRunner::new().with_test_parallelism(k),
    };
    if let Some(dir) = &opts.store {
        // Persist golden profiling runs alongside the campaign summaries:
        // repeated invocations with the same --store skip re-profiling.
        // The trial ledger lives next to them; every completed trial is
        // appended durably so `--resume`/`merge` can pick it up.
        runner = runner
            .with_golden_dir(std::path::Path::new(dir).join("golden"))
            .with_ledger_dir(std::path::Path::new(dir).join("ledger"))
            .with_feature_dir(std::path::Path::new(dir).join("features"));
    }
    runner = runner.with_resume(opts.resume);
    if let Some(shard) = opts.shard {
        runner = runner.with_shard(shard);
    }
    if let Some(secs) = opts.trial_timeout {
        runner = runner.with_trial_deadline(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(retries) = opts.retries {
        runner = runner.with_max_retries(retries);
    }
    if let Some(batch) = opts.batch {
        runner = runner.with_trial_batch(batch);
    }
    runner
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = setup_observability(&opts) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let metrics_before = resilim_obs::MetricsSnapshot::capture();
    let runner = build_runner(&opts);
    let outcome = cmd::run_command(&opts, &runner, &opts.command.clone());
    resilim_obs::flush_sinks();
    if opts.metrics && opts.command != "metrics" {
        eprint!(
            "{}",
            resilim_obs::MetricsSnapshot::capture()
                .delta(&metrics_before)
                .render()
        );
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
