//! Subcommand implementations, one module per command family.
//!
//! [`run_command`] is the dispatcher: it owns the command-name match and
//! the `all` meta-command; everything else lives with its family.

pub mod campaign;
pub mod check;
pub mod figures;
pub mod metrics;
pub mod model;
pub mod serve;
pub mod tables;
pub mod trace_matrix;

use crate::opts::{usage, Options};
use resilim_harness::CampaignRunner;

/// Run one subcommand by name.
pub fn run_command(opts: &Options, runner: &CampaignRunner, command: &str) -> Result<(), String> {
    match command {
        "table1" => tables::table1(opts, runner),
        "table2" => tables::table2(opts, runner),
        "apps" => tables::apps(opts, runner),
        "motivation" => tables::motivation(opts, runner),
        "weak" => tables::weak(opts, runner),
        "fig1" | "fig2" => figures::propagation(opts, runner, command),
        "fig3" => figures::fig3(opts, runner),
        "fig5" | "fig6" => figures::prediction(opts, runner, command),
        "fig7" => figures::fig7(opts, runner),
        "fig8" => figures::fig8(opts, runner),
        "campaign" => campaign::campaign(opts, runner),
        "merge" => campaign::merge(opts, runner),
        "model" => model::model(opts, runner),
        "metrics" => metrics::metrics(opts),
        "check" => check::check(opts),
        "trace-matrix" => trace_matrix::trace_matrix(opts),
        "serve" => serve::serve(opts),
        "submit" => serve::submit(opts),
        "status" => serve::status(opts),
        "cancel" => serve::cancel(opts),
        "shutdown" => serve::shutdown(opts),
        "all" => {
            for cmd in [
                "apps",
                "motivation",
                "table1",
                "table2",
                "fig1",
                "fig2",
                "fig3",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
            ] {
                eprintln!("--- {cmd} ---");
                run_command(opts, runner, cmd)?;
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::parse_args;

    #[test]
    fn unknown_command_errors_at_dispatch() {
        let opts = parse_args(["wat".to_string()].into_iter()).unwrap();
        let runner = CampaignRunner::new();
        assert!(run_command(&opts, &runner, "wat").is_err());
    }
}
