//! Command-line parsing and the shared output plumbing.
//!
//! Every subcommand reads the same [`Options`] struct; flag validation
//! (which flags need which others) happens once at the end of
//! [`parse_args`] so subcommands can trust the combination they see.

use resilim_apps::App;
use resilim_core::StopRule;
use resilim_harness::experiments::ExperimentConfig;
use resilim_harness::{CampaignSpec, Shard};
use resilim_inject::FaultModelSpec;
use resilim_serve::SubmitSpec;
use std::io::Write as _;
use std::str::FromStr;

/// Parsed command line: the subcommand plus every flag.
#[derive(Default)]
pub struct Options {
    pub command: String,
    pub cfg: ExperimentConfig,
    pub json: bool,
    pub out: Option<String>,
    /// `--apps`; `None` = not given. Table and figure commands then use
    /// every app ([`Options::apps`]); `campaign`/`merge`/`submit` refuse
    /// anything but exactly one.
    pub apps: Option<Vec<App>>,
    pub small: Option<usize>,
    pub scale: Option<usize>,
    pub errors: Option<String>,
    /// Fault model injected per trial (`--fault-model
    /// bitflip|burst[:K]|due|msg`). `None` = not given: campaigns use
    /// the default single-bit flip, `check` keeps its randomized model
    /// dimension instead of pinning one.
    pub fault_model: Option<FaultModelSpec>,
    /// TeaMPI-style replica payload comparison (`--replicate`).
    pub replicate: bool,
    pub store: Option<String>,
    pub svg: Option<String>,
    /// Concurrent fault-injection tests; `None` = auto
    /// (`available_parallelism()`, the default).
    pub jobs: Option<usize>,
    /// Trials admitted/committed per batch (`--batch`; default 1).
    /// Aggregates are bitwise identical at every batch size; batching
    /// only amortizes per-trial scheduling and ledger-write overhead.
    pub batch: Option<usize>,
    pub trace: Option<String>,
    pub metrics: bool,
    /// Skip trials already in the ledger (`--resume`; needs `--store`).
    pub resume: bool,
    /// Deterministic trial partition (`--shard i/N`; needs `--store`).
    pub shard: Option<Shard>,
    /// Per-trial watchdog deadline in seconds (`--trial-timeout`).
    pub trial_timeout: Option<f64>,
    /// Watchdog retry budget (`--retries`; default 2).
    pub retries: Option<u32>,
    /// Adaptive stopping: end each campaign once every outcome class's
    /// Wilson interval is tight enough (`--adaptive`; `--tests` becomes
    /// the ceiling).
    pub adaptive: bool,
    /// Target Wilson half-width for `--adaptive` (`--ci`; default 0.05).
    pub ci: Option<f64>,
    /// Minimum trials before `--adaptive` may stop (`--min-tests`).
    pub min_tests: Option<u64>,
    /// `check`: run the fixed smoke roster instead of randomized cases.
    pub smoke: bool,
    /// `check`: wall-clock fuzzing budget in seconds (`--budget 300s`).
    pub budget: Option<f64>,
    /// `check`: number of randomized cases (`--cases N`).
    pub cases: Option<u64>,
    /// `check`: replay a repro record instead of generating cases.
    pub replay: Option<String>,
    /// `check`: where to write repro records for failing cases.
    pub repro_dir: Option<String>,
    /// `check`: swap in a deliberately broken sampling layer by name.
    pub inject_bug: Option<String>,
    /// `serve`/`submit`/`status`: daemon unix-socket path (`--socket`;
    /// defaults to `resilim.sock` in the system temp directory).
    pub socket: Option<String>,
    /// `status`/`cancel`: target campaign id (`--campaign ID`).
    pub campaign_id: Option<u64>,
    /// `submit`: stream progress and wait for the final summary
    /// (`--watch`).
    pub watch: bool,
    /// `trace-matrix`: write the rendered matrix to this path instead
    /// of stdout (`--write docs/TRACEABILITY.md`).
    pub write: Option<String>,
    /// `trace-matrix`: compare the committed matrix against a fresh
    /// render and fail on drift (`--check`).
    pub check_drift: bool,
    /// `trace-matrix`: workspace root to scan (`--root DIR`; default:
    /// walk up from the current directory to the claims registry).
    pub root: Option<String>,
}

/// One-screen usage text.
pub fn usage() -> &'static str {
    "usage: resilim <table1|table2|fig1|fig2|fig3|fig5|fig6|fig7|fig8|motivation|apps|campaign|merge|model|metrics|check|trace-matrix|serve|submit|status|cancel|shutdown|all>\n\
     \u{20}       [--tests N] [--seed S] [--json] [--out FILE]\n\
     \u{20}       [--apps cg,ft,...] [--small S] [--scale P]\n\
     \u{20}       [--errors par|ser:N|unique|multi:K] [--store DIR] [--svg FILE] [--jobs K|auto]\n\
     \u{20}       [--fault-model bitflip|burst[:K]|due|msg] [--replicate]\n\
     \u{20}       [--batch N]\n\
     \u{20}       [--adaptive] [--ci HALFWIDTH] [--min-tests N]\n\
     \u{20}       [--trace FILE] [--metrics]\n\
     \u{20}       [--resume] [--shard i/N] [--trial-timeout SECS] [--retries N]\n\
     \u{20}       [--smoke] [--budget SECS] [--cases N] [--replay FILE] [--repro-dir DIR]\n\
     \u{20}       [--inject-bug NAME]\n\
     \u{20}       [--socket PATH] [--campaign ID] [--watch]\n\
     \u{20}       [--write FILE] [--check] [--root DIR]"
}

impl Options {
    /// The selected apps: `--apps`, or every app when it was not given.
    pub fn apps(&self) -> &[App] {
        self.apps.as_deref().unwrap_or(&App::ALL)
    }
}

/// Parse the argument vector (program name already stripped).
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let command = args.next().ok_or_else(|| usage().to_string())?;
    let mut opts = Options {
        command,
        ..Default::default()
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--tests" => opts.cfg.tests = number(&flag, &value(&flag)?)?,
            "--seed" => opts.cfg.seed = number(&flag, &value(&flag)?)?,
            "--json" => opts.json = true,
            "--out" => opts.out = Some(value("--out")?),
            "--apps" => {
                let list = value("--apps")?;
                opts.apps = Some(
                    list.split(',')
                        .map(|s| App::parse(s.trim()).ok_or(format!("unknown app '{s}'")))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            "--small" => opts.small = Some(number(&flag, &value(&flag)?)?),
            "--scale" => opts.scale = Some(number(&flag, &value(&flag)?)?),
            "--errors" => opts.errors = Some(value("--errors")?),
            "--fault-model" => {
                opts.fault_model = Some(FaultModelSpec::parse(&value("--fault-model")?)?)
            }
            "--replicate" => opts.replicate = true,
            "--store" => opts.store = Some(value("--store")?),
            "--svg" => opts.svg = Some(value("--svg")?),
            "--jobs" => {
                let v = value("--jobs")?;
                opts.jobs = if v == "auto" {
                    None
                } else {
                    let k: usize = number(&flag, &v)?;
                    if k == 0 {
                        return Err("--jobs must be >= 1 (or auto)".into());
                    }
                    Some(k)
                }
            }
            "--batch" => {
                let b: usize = number(&flag, &value(&flag)?)?;
                if b == 0 {
                    return Err("--batch must be >= 1".into());
                }
                opts.batch = Some(b);
            }
            "--trace" => opts.trace = Some(value("--trace")?),
            "--metrics" => opts.metrics = true,
            "--resume" => opts.resume = true,
            "--shard" => opts.shard = Some(Shard::parse(&value("--shard")?)?),
            "--trial-timeout" => {
                let secs: f64 = number(&flag, &value(&flag)?)?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--trial-timeout must be a positive number of seconds".into());
                }
                opts.trial_timeout = Some(secs);
            }
            "--retries" => opts.retries = Some(number(&flag, &value(&flag)?)?),
            "--adaptive" => opts.adaptive = true,
            "--ci" => {
                let hw: f64 = number(&flag, &value(&flag)?)?;
                if !hw.is_finite() || hw <= 0.0 || hw >= 0.5 {
                    return Err("--ci must be a half-width in (0, 0.5)".into());
                }
                opts.ci = Some(hw);
            }
            "--min-tests" => opts.min_tests = Some(number(&flag, &value(&flag)?)?),
            "--smoke" => opts.smoke = true,
            "--budget" => {
                // Accept "300" and "300s" alike.
                let v = value("--budget")?;
                let secs: f64 = number(&flag, v.strip_suffix('s').unwrap_or(&v))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--budget must be a positive number of seconds".into());
                }
                opts.budget = Some(secs);
            }
            "--cases" => {
                let n: u64 = number(&flag, &value(&flag)?)?;
                if n == 0 {
                    return Err("--cases must be >= 1".into());
                }
                opts.cases = Some(n);
            }
            "--replay" => opts.replay = Some(value("--replay")?),
            "--repro-dir" => opts.repro_dir = Some(value("--repro-dir")?),
            "--inject-bug" => opts.inject_bug = Some(value("--inject-bug")?),
            "--socket" => opts.socket = Some(value("--socket")?),
            "--campaign" => opts.campaign_id = Some(number(&flag, &value(&flag)?)?),
            "--watch" => opts.watch = true,
            "--write" => opts.write = Some(value("--write")?),
            "--check" => opts.check_drift = true,
            "--root" => opts.root = Some(value("--root")?),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if (opts.resume || opts.shard.is_some()) && opts.store.is_none() {
        return Err("--resume/--shard need --store DIR (the ledger lives there)".into());
    }
    if (opts.ci.is_some() || opts.min_tests.is_some()) && !opts.adaptive {
        return Err("--ci/--min-tests need --adaptive".into());
    }
    if opts.adaptive && opts.shard.is_some() {
        // A shard sees only every N-th trial, so the in-order prefix the
        // stop rule must be evaluated on does not exist locally.
        return Err("--adaptive cannot be combined with --shard (run the full campaign)".into());
    }
    if opts.adaptive {
        let mut rule = StopRule::new(opts.ci.unwrap_or(0.05));
        if let Some(n) = opts.min_tests {
            rule = rule.with_min_tests(n);
        }
        opts.cfg.stop = Some(rule);
    }
    Ok(opts)
}

/// Parse a flag's numeric value; the error names the flag.
fn number<T: FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Write an SVG rendering next to the text/JSON output when requested.
pub fn write_svg(opts: &Options, svg: String) -> Result<(), String> {
    if let Some(path) = &opts.svg {
        std::fs::write(path, svg).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The one `--apps` app of a command that measures or models a single
/// workload (`campaign`, `merge`, `submit`, `model`): without `--apps`,
/// or with more than one app, it refuses rather than pick one.
pub fn one_app(opts: &Options) -> Result<App, String> {
    match opts.apps.as_deref().unwrap_or_default() {
        [app] => Ok(*app),
        _ => Err(format!("{} needs --apps <exactly one app>", opts.command)),
    }
}

/// Resolve the single-deployment flags (`--apps`, `--scale`, `--errors`,
/// `--tests`, `--seed`, `--fault-model`, `--replicate`, `--adaptive`)
/// shared by the `campaign`, `merge` and `submit` commands: the wire
/// form `submit` sends, and the campaign it validates into through
/// [`SubmitSpec::to_campaign`], the one gate every front end shares.
pub fn one_deployment(opts: &Options) -> Result<(SubmitSpec, CampaignSpec), String> {
    let app = one_app(opts)?;
    let stop = opts.cfg.stop;
    let wire = SubmitSpec {
        app: app.name().to_string(),
        procs: opts.scale.unwrap_or(1),
        errors: opts.errors.clone().unwrap_or_else(|| "par".into()),
        tests: opts.cfg.tests,
        seed: opts.cfg.seed,
        ci: stop.map(|rule| rule.ci_halfwidth),
        min_tests: stop.map(|rule| rule.min_tests),
        fault_model: opts
            .fault_model
            .filter(|model| !model.is_default())
            .map(|model| model.cli_name()),
        replicate: opts.replicate.then_some(true),
    };
    let spec = wire.to_campaign()?;
    Ok((wire, spec))
}

/// Emit one experiment's text and JSON forms.
pub fn emit<T: serde::Serialize>(opts: &Options, text: String, value: &T) -> Result<(), String> {
    let body = if opts.json {
        serde_json::to_string_pretty(value).map_err(|e| e.to_string())?
    } else {
        text
    };
    match &opts.out {
        Some(path) => {
            let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            writeln!(f, "{body}").map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => println!("{body}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let opts = parse(&["fig5", "--tests", "500", "--seed", "9", "--json"]).unwrap();
        assert_eq!(opts.command, "fig5");
        assert_eq!(opts.cfg.tests, 500);
        assert_eq!(opts.cfg.seed, 9);
        assert!(opts.json);
        assert_eq!(opts.apps(), App::ALL);
    }

    #[test]
    fn parses_app_list() {
        let opts = parse(&["table2", "--apps", "cg,ft"]).unwrap();
        assert_eq!(opts.apps(), [App::Cg, App::Ft]);
    }

    #[test]
    fn parses_scales() {
        let opts = parse(&["fig6", "--small", "8", "--scale", "32"]).unwrap();
        assert_eq!(opts.small, Some(8));
        assert_eq!(opts.scale, Some(32));
    }

    #[test]
    fn rejects_unknown_flag_and_app() {
        assert!(parse(&["fig5", "--bogus"]).is_err());
        assert!(parse(&["fig5", "--apps", "nope"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&["fig5", "--tests"]).is_err());
    }

    #[test]
    fn jobs_defaults_to_auto() {
        assert_eq!(parse(&["fig5"]).unwrap().jobs, None);
        assert_eq!(parse(&["fig5", "--jobs", "auto"]).unwrap().jobs, None);
        assert_eq!(parse(&["fig5", "--jobs", "3"]).unwrap().jobs, Some(3));
        assert!(parse(&["fig5", "--jobs", "many"]).is_err());
        assert!(parse(&["campaign", "--jobs", "0"]).is_err());
        assert!(parse(&["serve", "--jobs", "0"]).is_err());
    }

    #[test]
    fn parses_ledger_flags() {
        let opts = parse(&[
            "campaign",
            "--store",
            "st",
            "--resume",
            "--shard",
            "1/3",
            "--trial-timeout",
            "2.5",
            "--retries",
            "4",
        ])
        .unwrap();
        assert!(opts.resume);
        assert_eq!(opts.shard, Some(Shard { index: 1, count: 3 }));
        assert_eq!(opts.trial_timeout, Some(2.5));
        assert_eq!(opts.retries, Some(4));
    }

    #[test]
    fn ledger_flags_need_a_store() {
        assert!(parse(&["campaign", "--resume"]).is_err());
        assert!(parse(&["campaign", "--shard", "0/2"]).is_err());
        assert!(parse(&["campaign", "--shard", "5/2", "--store", "st"]).is_err());
        assert!(parse(&["campaign", "--trial-timeout", "-1", "--store", "st"]).is_err());
    }

    #[test]
    fn adaptive_flags_build_a_stop_rule() {
        let opts = parse(&["campaign", "--adaptive"]).unwrap();
        let rule = opts.cfg.stop.unwrap();
        assert_eq!(rule.ci_halfwidth, 0.05);
        assert_eq!(rule.min_tests, resilim_core::accum::DEFAULT_MIN_TESTS);

        let opts = parse(&[
            "campaign",
            "--adaptive",
            "--ci",
            "0.02",
            "--min-tests",
            "30",
        ])
        .unwrap();
        let rule = opts.cfg.stop.unwrap();
        assert_eq!(rule.ci_halfwidth, 0.02);
        assert_eq!(rule.min_tests, 30);

        assert!(parse(&["campaign"]).unwrap().cfg.stop.is_none());
    }

    #[test]
    fn adaptive_flag_combinations_are_validated() {
        assert!(parse(&["campaign", "--ci", "0.02"]).is_err());
        assert!(parse(&["campaign", "--min-tests", "9"]).is_err());
        assert!(parse(&["campaign", "--adaptive", "--ci", "0.6"]).is_err());
        assert!(parse(&["campaign", "--adaptive", "--ci", "0"]).is_err());
        assert!(parse(&["campaign", "--adaptive", "--shard", "0/2", "--store", "st"]).is_err());
        // Adaptive + resume is fine: resumed trials replay the prefix.
        assert!(parse(&["campaign", "--adaptive", "--resume", "--store", "st"]).is_ok());
    }

    #[test]
    fn parses_fault_model_flags() {
        let opts = parse(&["campaign", "--fault-model", "burst:4", "--replicate"]).unwrap();
        assert_eq!(opts.fault_model, Some(FaultModelSpec::Burst(4)));
        assert!(opts.replicate);
        assert_eq!(parse(&["campaign"]).unwrap().fault_model, None);
        assert!(parse(&["campaign", "--fault-model", "cosmic"]).is_err());
    }

    #[test]
    fn fault_model_deployment_combinations_are_validated() {
        let run = |args: &[&str]| {
            one_deployment(&parse(&[&["campaign", "--apps", "cg"], args].concat()).unwrap())
        };
        // burst/msg need par errors; msg needs a communicating world.
        assert!(run(&[
            "--fault-model",
            "burst",
            "--errors",
            "unique",
            "--scale",
            "2"
        ])
        .is_err());
        assert!(run(&["--fault-model", "msg", "--errors", "unique", "--scale", "2"]).is_err());
        assert!(run(&["--fault-model", "msg"]).is_err());
        let (_, spec) = run(&["--fault-model", "msg", "--scale", "2", "--replicate"]).unwrap();
        assert_eq!(spec.fault_model, FaultModelSpec::Msg);
        assert!(spec.replicate);
        // due works at any deployment shape.
        assert!(run(&["--fault-model", "due", "--errors", "ser:2"]).is_ok());
    }

    #[test]
    fn model_has_no_predictor_flag() {
        let err = parse(&["model", "--predictor", "eq8"]).err().unwrap();
        assert!(err.starts_with("unknown flag '--predictor'"), "{err}");
    }

    #[test]
    fn parses_trace_matrix_flags() {
        let opts = parse(&[
            "trace-matrix",
            "--write",
            "docs/TRACEABILITY.md",
            "--root",
            "/tmp/ws",
        ])
        .unwrap();
        assert_eq!(opts.write.as_deref(), Some("docs/TRACEABILITY.md"));
        assert_eq!(opts.root.as_deref(), Some("/tmp/ws"));
        assert!(!opts.check_drift);
        assert!(parse(&["trace-matrix", "--check"]).unwrap().check_drift);
        assert!(parse(&["trace-matrix", "--write"]).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let opts = parse(&[
            "submit",
            "--socket",
            "/tmp/x.sock",
            "--campaign",
            "7",
            "--watch",
        ])
        .unwrap();
        assert_eq!(opts.socket.as_deref(), Some("/tmp/x.sock"));
        assert_eq!(opts.campaign_id, Some(7));
        assert!(opts.watch);
        assert!(parse(&["status", "--campaign", "soon"]).is_err());
    }

    #[test]
    fn parses_check_flags() {
        let opts = parse(&[
            "check",
            "--smoke",
            "--budget",
            "300s",
            "--cases",
            "9",
            "--repro-dir",
            "repros",
            "--inject-bug",
            "bucket-off-by-one",
        ])
        .unwrap();
        assert!(opts.smoke);
        assert_eq!(opts.budget, Some(300.0));
        assert_eq!(opts.cases, Some(9));
        assert_eq!(opts.repro_dir.as_deref(), Some("repros"));
        assert!(crate::cmd::check::check_ops(&opts).is_ok());
        assert_eq!(
            parse(&["check", "--budget", "45"]).unwrap().budget,
            Some(45.0)
        );
        assert_eq!(
            parse(&["check", "--replay", "r.json"])
                .unwrap()
                .replay
                .as_deref(),
            Some("r.json")
        );
        assert!(parse(&["check", "--budget", "-3"]).is_err());
        assert!(parse(&["check", "--budget", "soon"]).is_err());
        assert!(parse(&["check", "--cases", "0"]).is_err());
        let bogus = parse(&["check", "--inject-bug", "nope"]).unwrap();
        assert!(crate::cmd::check::check_ops(&bogus).is_err());
    }
}
