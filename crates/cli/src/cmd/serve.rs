//! The campaign-service commands: `serve` runs the daemon in the
//! foreground; `submit`, `status`, `cancel`, and `shutdown` are thin
//! protocol clients.
//!
//! All of them address the daemon by unix-socket path (`--socket`,
//! default `resilim.sock` in the system temp directory), so several
//! daemons — say, one per store — can coexist on one machine.

use crate::opts::{emit, one_deployment, Options};
use resilim_serve::{CampaignState, Client, Request, ServeConfig};
use std::path::PathBuf;

/// The daemon socket the flags address.
fn socket_path(opts: &Options) -> PathBuf {
    match &opts.socket {
        Some(path) => PathBuf::from(path),
        None => std::env::temp_dir().join("resilim.sock"),
    }
}

/// Resolve the daemon's worker count: `--jobs K`, else every core.
fn worker_count(opts: &Options) -> usize {
    opts.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `resilim serve`: run the daemon in the foreground until SIGTERM,
/// SIGINT, or a client `shutdown` request; drain in-flight trials and
/// exit 0.
pub fn serve(opts: &Options) -> Result<(), String> {
    resilim_serve::daemon::run(ServeConfig {
        socket: socket_path(opts),
        store: opts.store.as_ref().map(PathBuf::from),
        workers: worker_count(opts),
        batch: opts.batch.unwrap_or(1),
    })
}

/// `resilim submit`: submit the single-deployment flags as a campaign;
/// with `--watch`, stream progress and print the final summary in the
/// same shape `resilim campaign` prints.
pub fn submit(opts: &Options) -> Result<(), String> {
    let (wire, spec) = one_deployment(opts)?;
    let (app, procs, errors) = (spec.spec.app(), spec.procs, spec.errors);
    let mut client = Client::connect(socket_path(opts))?;
    let (id, deduped) = client.submit(wire)?;
    if !opts.watch {
        let text = format!(
            "campaign {id} submitted{}\n",
            if deduped { " (joined existing)" } else { "" }
        );
        let value = serde_json::json!({ "id": id, "deduped": deduped });
        return emit(opts, text, &value);
    }
    let (state, summary) = client.watch(id, |done, total| {
        eprint!("\rcampaign {id}: {done}/{total} trials");
    })?;
    eprintln!();
    match (state, summary) {
        (CampaignState::Done, Some(summary)) => {
            let text = format!(
                "{app} p={procs} {errors:?}: success {:.1}%  SDC {:.1}%  failure {:.1}%  ({} tests, campaign {id})\n",
                summary.fi.success_rate() * 100.0,
                summary.fi.sdc_rate() * 100.0,
                summary.fi.failure_rate() * 100.0,
                summary.tests,
            );
            emit(opts, text, &summary)
        }
        (CampaignState::Cancelled, _) => Err(format!("campaign {id} was cancelled")),
        _ => Err(format!("campaign {id} ended without a summary")),
    }
}

/// `resilim status`: one campaign's state (`--campaign ID`) or the full
/// listing.
pub fn status(opts: &Options) -> Result<(), String> {
    let mut client = Client::connect(socket_path(opts))?;
    match opts.campaign_id {
        Some(id) => {
            let resp = client.call(&Request::status(id))?;
            if resp.kind == "error" {
                return Err(resp.message.unwrap_or_else(|| "daemon error".into()));
            }
            let state = resp.state.clone().unwrap_or_default();
            let text = format!(
                "campaign {id}: {state} {}/{} trials\n",
                resp.done.unwrap_or(0),
                resp.total.unwrap_or(0),
            );
            // The summary rides along once the campaign is done; the
            // JSON form is then directly comparable to
            // `resilim campaign --json`.
            match &resp.summary {
                Some(summary) => emit(opts, text, summary),
                None => emit(
                    opts,
                    text,
                    &serde_json::json!({
                        "id": id,
                        "state": state,
                        "done": resp.done.unwrap_or(0),
                        "total": resp.total.unwrap_or(0),
                    }),
                ),
            }
        }
        None => {
            let resp = client.call(&Request::list())?;
            let campaigns = resp.campaigns.unwrap_or_default();
            let mut text = String::new();
            for c in &campaigns {
                text.push_str(&format!(
                    "campaign {}: {} p={} {} n={} seed={} — {} {}/{}\n",
                    c.id, c.app, c.procs, c.errors, c.tests, c.seed, c.state, c.done, c.total,
                ));
            }
            if campaigns.is_empty() {
                text.push_str("no campaigns\n");
            }
            emit(opts, text, &campaigns)
        }
    }
}

/// `resilim cancel --campaign ID`: stop a running campaign; its ledger
/// keeps what already ran.
pub fn cancel(opts: &Options) -> Result<(), String> {
    let id = opts.campaign_id.ok_or("cancel needs --campaign ID")?;
    let mut client = Client::connect(socket_path(opts))?;
    let resp = client.call(&Request::cancel(id))?;
    match resp.kind.as_str() {
        "ok" => {
            println!("campaign {id} cancelled");
            Ok(())
        }
        _ => Err(resp.message.unwrap_or_else(|| "cancel failed".into())),
    }
}

/// `resilim shutdown`: ask the daemon to drain in-flight trials, flush
/// ledgers, and exit.
pub fn shutdown(opts: &Options) -> Result<(), String> {
    let mut client = Client::connect(socket_path(opts))?;
    client.shutdown()?;
    println!("daemon shutting down");
    Ok(())
}
