//! Structured trace events and their JSONL encoding.
//!
//! Events are hand-encoded (this crate depends on nothing) as one JSON
//! object per line with a `"ev"` discriminator — the format `resilim
//! metrics` reads back and anything downstream (jq, pandas) can consume.

use crate::metrics::Counter;
use std::time::Duration;

/// One structured observation from the campaign pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A campaign began executing (cache misses only).
    CampaignStart {
        /// Process-unique campaign sequence number (joins trial events).
        campaign: u64,
        /// Application name.
        app: String,
        /// Rank count.
        procs: usize,
        /// Number of trials the campaign will run.
        tests: usize,
        /// Debug rendering of the fault pattern.
        errors: String,
    },
    /// One fault-injection trial finished.
    Trial {
        /// Owning campaign.
        campaign: u64,
        /// Trial index within the campaign.
        test: usize,
        /// Outcome class: `"success"`, `"sdc"`, or `"failure"`.
        kind: &'static str,
        /// Whether the output was bitwise identical to the golden run.
        masked: bool,
        /// Contaminated ranks at end of run.
        contaminated: usize,
        /// Planned faults that actually fired.
        fired: usize,
        /// Wall-clock latency of the trial, microseconds.
        latency_us: u64,
    },
    /// A planned fault reached its target dynamic operation.
    InjectionFired {
        /// Rank that executed the faulted op.
        rank: usize,
        /// Region name (`"common"` / `"parallel_unique"`).
        region: &'static str,
        /// Dynamic op index within the region.
        op_index: u64,
        /// Bit flipped.
        bit: u8,
    },
    /// A rank transitioned to contaminated for the first time.
    TaintBorn {
        /// The newly-contaminated rank.
        rank: usize,
    },
    /// The injection hang guard tripped (op budget exceeded).
    HangGuardTrip {
        /// Rank whose budget ran out.
        rank: usize,
    },
    /// A golden-run or campaign cache lookup.
    CacheLookup {
        /// Which cache: `"golden"` or `"campaign"`.
        cache: &'static str,
        /// Whether the lookup hit.
        hit: bool,
    },
    /// A watchdog-tripped trial is being retried.
    TrialRetry {
        /// Owning campaign.
        campaign: u64,
        /// Trial index within the campaign.
        test: usize,
        /// Retry number (1 = first retry).
        attempt: u32,
    },
    /// An adaptive stop rule ended a campaign before its trial ceiling.
    CampaignEarlyStop {
        /// Owning campaign.
        campaign: u64,
        /// Trials delivered when the rule was satisfied.
        at_trial: usize,
        /// The campaign's `tests` ceiling.
        planned: usize,
    },
    /// A campaign finished.
    CampaignEnd {
        /// Owning campaign.
        campaign: u64,
        /// Total wall clock, microseconds.
        wall_us: u64,
        /// Trials executed.
        trials: usize,
        /// Baton handoffs between ranks while the campaign ran, golden
        /// profiling included (the campaign's delta of the process-wide
        /// `rank_switches` counter: exact on one-shot paths, which run
        /// one campaign at a time; served campaigns overlap).
        rank_switches: u64,
        /// Deadlocks the fabric detected in the same window.
        deadlocks: u64,
    },
    /// One differential-check case finished (`resilim check`).
    CheckCase {
        /// Case index within the check run.
        case: u64,
        /// Case seed (replays the case exactly).
        seed: u64,
        /// Application name.
        app: String,
        /// Rank count.
        procs: usize,
        /// Trials in the measured mini-campaign.
        tests: usize,
        /// Whether every oracle passed.
        ok: bool,
        /// Name of the first violated oracle (empty when `ok`).
        oracle: String,
    },
    /// The service daemon accepted a campaign submission.
    ServeSubmit {
        /// Daemon-assigned campaign id.
        id: u64,
        /// Application name.
        app: String,
        /// Rank count.
        procs: usize,
        /// Trial ceiling.
        tests: usize,
        /// Whether the submission joined an already-registered campaign
        /// with the same identity instead of scheduling new trials.
        deduped: bool,
    },
    /// A daemon-hosted campaign reached a terminal state.
    ServeCampaignDone {
        /// Daemon-assigned campaign id.
        id: u64,
        /// Trials delivered before the terminal state.
        trials: usize,
        /// Terminal state: `"done"` or `"cancelled"`.
        state: &'static str,
    },
    /// A message-payload fault was applied on the wire
    /// (`--fault-model msg`).
    WireFaultFired {
        /// Sending rank whose payload was corrupted.
        rank: usize,
        /// The sender's numeric-message index that was hit.
        msg_index: u64,
        /// Bit flipped in the chosen element.
        bit: u8,
    },
    /// A rank was killed by a detected-uncorrectable error
    /// (`--fault-model due`).
    DueKill {
        /// The killed rank.
        rank: usize,
    },
    /// A replica payload comparison flagged a divergence
    /// (`--replicate` detection).
    ReplicaDetection {
        /// Rank on which the comparison fired.
        rank: usize,
    },
    /// One shrink attempt while minimizing a failing check case.
    CheckShrink {
        /// Case index of the original failing case.
        case: u64,
        /// Shrink attempt number (1-based).
        attempt: u64,
        /// Whether the reduced case still violates the oracle
        /// (accepted = the shrinker keeps it).
        accepted: bool,
        /// Rank count of the candidate case.
        procs: usize,
        /// Trial count of the candidate case.
        tests: usize,
    },
}

impl Event {
    /// The `"ev"` discriminator.
    pub fn name(&self) -> &'static str {
        match self {
            Event::CampaignStart { .. } => "campaign_start",
            Event::Trial { .. } => "trial",
            Event::InjectionFired { .. } => "injection_fired",
            Event::TaintBorn { .. } => "taint_born",
            Event::HangGuardTrip { .. } => "hang_guard_trip",
            Event::CacheLookup { .. } => "cache_lookup",
            Event::TrialRetry { .. } => "trial_retry",
            Event::CampaignEarlyStop { .. } => "campaign_early_stop",
            Event::CampaignEnd { .. } => "campaign_end",
            Event::CheckCase { .. } => "check_case",
            Event::ServeSubmit { .. } => "serve_submit",
            Event::ServeCampaignDone { .. } => "serve_campaign_done",
            Event::WireFaultFired { .. } => "wire_fault_fired",
            Event::DueKill { .. } => "due_kill",
            Event::ReplicaDetection { .. } => "replica_detection",
            Event::CheckShrink { .. } => "check_shrink",
        }
    }

    /// The counters this event implies, each bumped by one when it is
    /// emitted: the one table from happening to counter. A golden disk
    /// hit adds nothing, because its `"golden"` lookup already counted.
    pub(crate) fn tally(&self) -> &'static [Counter] {
        match self {
            Event::InjectionFired { .. } => &[Counter::InjectionsFired],
            Event::TaintBorn { .. } => &[Counter::TaintBorn],
            Event::HangGuardTrip { .. } => &[Counter::HangGuardTrips],
            Event::DueKill { .. } => &[Counter::DueKills],
            Event::ReplicaDetection { .. } => &[Counter::ReplicaDetections],
            Event::WireFaultFired { .. } => &[Counter::MsgFaultsFired],
            Event::CacheLookup { cache, hit } => match (*cache, *hit) {
                ("golden", true) => &[Counter::GoldenCacheHits],
                ("golden", false) => &[Counter::GoldenCacheMisses],
                ("campaign", true) => &[Counter::CampaignCacheHits],
                ("campaign", false) => &[Counter::CampaignCacheMisses],
                _ => &[],
            },
            Event::TrialRetry { .. } => &[Counter::TrialRetries],
            Event::CampaignEarlyStop { .. } => &[Counter::CampaignsStoppedEarly],
            Event::CheckCase { ok: true, .. } => &[Counter::CheckCasesRun],
            Event::CheckCase { ok: false, .. } => {
                &[Counter::CheckCasesRun, Counter::CheckViolations]
            }
            Event::CheckShrink { .. } => &[Counter::CheckShrinkAttempts],
            Event::ServeSubmit { deduped: false, .. } => &[Counter::ServeSubmits],
            Event::ServeSubmit { deduped: true, .. } => {
                &[Counter::ServeSubmits, Counter::ServeDedupHits]
            }
            Event::ServeCampaignDone { state, .. } => match *state {
                "done" => &[Counter::ServeCampaignsDone],
                "cancelled" => &[Counter::ServeCampaignsCancelled],
                _ => &[],
            },
            Event::CampaignStart { .. } | Event::Trial { .. } | Event::CampaignEnd { .. } => &[],
        }
    }

    /// Encode as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut line = JsonLine::new(self.name());
        match self {
            Event::CampaignStart {
                campaign,
                app,
                procs,
                tests,
                errors,
            } => {
                line.num("campaign", *campaign);
                line.str("app", app);
                line.num("procs", *procs as u64);
                line.num("tests", *tests as u64);
                line.str("errors", errors);
            }
            Event::Trial {
                campaign,
                test,
                kind,
                masked,
                contaminated,
                fired,
                latency_us,
            } => {
                line.num("campaign", *campaign);
                line.num("test", *test as u64);
                line.str("kind", kind);
                line.bool("masked", *masked);
                line.num("contaminated", *contaminated as u64);
                line.num("fired", *fired as u64);
                line.num("latency_us", *latency_us);
            }
            Event::InjectionFired {
                rank,
                region,
                op_index,
                bit,
            } => {
                line.num("rank", *rank as u64);
                line.str("region", region);
                line.num("op_index", *op_index);
                line.num("bit", *bit as u64);
            }
            Event::TaintBorn { rank }
            | Event::HangGuardTrip { rank }
            | Event::DueKill { rank }
            | Event::ReplicaDetection { rank } => {
                line.num("rank", *rank as u64);
            }
            Event::WireFaultFired {
                rank,
                msg_index,
                bit,
            } => {
                line.num("rank", *rank as u64);
                line.num("msg_index", *msg_index);
                line.num("bit", *bit as u64);
            }
            Event::CacheLookup { cache, hit } => {
                line.str("cache", cache);
                line.bool("hit", *hit);
            }
            Event::TrialRetry {
                campaign,
                test,
                attempt,
            } => {
                line.num("campaign", *campaign);
                line.num("test", *test as u64);
                line.num("attempt", *attempt as u64);
            }
            Event::CampaignEarlyStop {
                campaign,
                at_trial,
                planned,
            } => {
                line.num("campaign", *campaign);
                line.num("at_trial", *at_trial as u64);
                line.num("planned", *planned as u64);
            }
            Event::CampaignEnd {
                campaign,
                wall_us,
                trials,
                rank_switches,
                deadlocks,
            } => {
                line.num("campaign", *campaign);
                line.num("wall_us", *wall_us);
                line.num("trials", *trials as u64);
                line.num("rank_switches", *rank_switches);
                line.num("deadlocks", *deadlocks);
            }
            Event::CheckCase {
                case,
                seed,
                app,
                procs,
                tests,
                ok,
                oracle,
            } => {
                line.num("case", *case);
                line.num("seed", *seed);
                line.str("app", app);
                line.num("procs", *procs as u64);
                line.num("tests", *tests as u64);
                line.bool("ok", *ok);
                line.str("oracle", oracle);
            }
            Event::ServeSubmit {
                id,
                app,
                procs,
                tests,
                deduped,
            } => {
                line.num("id", *id);
                line.str("app", app);
                line.num("procs", *procs as u64);
                line.num("tests", *tests as u64);
                line.bool("deduped", *deduped);
            }
            Event::ServeCampaignDone { id, trials, state } => {
                line.num("id", *id);
                line.num("trials", *trials as u64);
                line.str("state", state);
            }
            Event::CheckShrink {
                case,
                attempt,
                accepted,
                procs,
                tests,
            } => {
                line.num("case", *case);
                line.num("attempt", *attempt);
                line.bool("accepted", *accepted);
                line.num("procs", *procs as u64);
                line.num("tests", *tests as u64);
            }
        }
        line.finish()
    }
}

/// Microseconds helper for event fields.
pub fn as_micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

struct JsonLine {
    buf: String,
}

impl JsonLine {
    fn new(ev: &str) -> JsonLine {
        let mut line = JsonLine {
            buf: String::with_capacity(96),
        };
        line.buf.push_str("{\"ev\":");
        push_json_string(&mut line.buf, ev);
        line
    }

    fn num(&mut self, key: &str, value: u64) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_json_string(&mut self.buf, value);
    }

    fn key(&mut self, key: &str) {
        self.buf.push(',');
        push_json_string(&mut self.buf, key);
        self.buf.push(':');
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
            c => buf.push(c),
        }
    }
    buf.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_event_encodes_all_fields() {
        let e = Event::Trial {
            campaign: 7,
            test: 12,
            kind: "sdc",
            masked: false,
            contaminated: 3,
            fired: 1,
            latency_us: 420,
        };
        assert_eq!(
            e.to_json(),
            "{\"ev\":\"trial\",\"campaign\":7,\"test\":12,\"kind\":\"sdc\",\
             \"masked\":false,\"contaminated\":3,\"fired\":1,\"latency_us\":420}"
        );
    }

    #[test]
    fn check_events_encode_all_fields() {
        let e = Event::CheckCase {
            case: 3,
            seed: 99,
            app: "cg".to_string(),
            procs: 4,
            tests: 8,
            ok: false,
            oracle: "bucket-cover".to_string(),
        };
        assert_eq!(
            e.to_json(),
            "{\"ev\":\"check_case\",\"case\":3,\"seed\":99,\"app\":\"cg\",\
             \"procs\":4,\"tests\":8,\"ok\":false,\"oracle\":\"bucket-cover\"}"
        );
        let s = Event::CheckShrink {
            case: 3,
            attempt: 2,
            accepted: true,
            procs: 2,
            tests: 4,
        };
        assert_eq!(
            s.to_json(),
            "{\"ev\":\"check_shrink\",\"case\":3,\"attempt\":2,\
             \"accepted\":true,\"procs\":2,\"tests\":4}"
        );
    }

    #[test]
    fn serve_events_encode_all_fields() {
        let e = Event::ServeSubmit {
            id: 4,
            app: "jacobi".to_string(),
            procs: 2,
            tests: 16,
            deduped: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"ev\":\"serve_submit\",\"id\":4,\"app\":\"jacobi\",\
             \"procs\":2,\"tests\":16,\"deduped\":true}"
        );
        let d = Event::ServeCampaignDone {
            id: 4,
            trials: 16,
            state: "done",
        };
        assert_eq!(
            d.to_json(),
            "{\"ev\":\"serve_campaign_done\",\"id\":4,\"trials\":16,\"state\":\"done\"}"
        );
    }

    #[test]
    fn fault_model_events_encode_all_fields() {
        let w = Event::WireFaultFired {
            rank: 1,
            msg_index: 42,
            bit: 55,
        };
        assert_eq!(
            w.to_json(),
            "{\"ev\":\"wire_fault_fired\",\"rank\":1,\"msg_index\":42,\"bit\":55}"
        );
        let d = Event::DueKill { rank: 3 };
        assert_eq!(d.to_json(), "{\"ev\":\"due_kill\",\"rank\":3}");
        let r = Event::ReplicaDetection { rank: 0 };
        assert_eq!(r.to_json(), "{\"ev\":\"replica_detection\",\"rank\":0}");
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::CampaignStart {
            campaign: 1,
            app: "cg\"x\\y\n".to_string(),
            procs: 4,
            tests: 10,
            errors: "OneParallel".to_string(),
        };
        assert!(e.to_json().contains("cg\\\"x\\\\y\\n"));
    }
}
