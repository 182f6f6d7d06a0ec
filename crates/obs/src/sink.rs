//! Event sinks: where structured events go when the recorder is on.
//!
//! Sinks are process-global. Emission walks the registry under a mutex,
//! which is fine at trial granularity (events are per-trial/per-fire,
//! never per-FP-op).

use crate::event::Event;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A consumer of structured events. Implementations must tolerate
/// concurrent calls (rank threads and campaign workers emit in parallel).
pub trait EventSink: Send + Sync {
    /// Observe one event.
    fn event(&self, event: &Event);
    /// Flush buffered output (end of a CLI run), reporting any output
    /// the sink could not write.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

static SINKS: Mutex<Vec<Arc<dyn EventSink>>> = Mutex::new(Vec::new());

/// Register a sink. Sinks only see events while [`crate::enabled`].
pub fn add_sink(sink: Arc<dyn EventSink>) {
    SINKS.lock().expect("sink registry").push(sink);
}

/// Remove every registered sink (tests; CLI shutdown).
pub fn clear_sinks() {
    SINKS.lock().expect("sink registry").clear();
}

/// Flush every registered sink; the first error, after all were
/// flushed.
pub fn flush_sinks() -> std::io::Result<()> {
    let mut first = Ok(());
    for sink in SINKS.lock().expect("sink registry").iter() {
        first = first.and(sink.flush());
    }
    first
}

/// Record one observed happening: bump the counters it implies, then
/// deliver it to every sink. No-op while the recorder is disabled: the
/// check is inlined, so a disabled call site costs one relaxed load.
#[inline]
pub fn emit(event: &Event) {
    if crate::enabled() {
        record(event);
    }
}

fn record(event: &Event) {
    for &counter in event.tally() {
        crate::count(counter, 1);
    }
    for sink in SINKS.lock().expect("sink registry").iter() {
        sink.event(event);
    }
}

/// Writes one JSON object per line to a file (the `--trace` sink).
/// The first write error is kept (later events are dropped) and
/// reported by [`EventSink::flush`], so a lost trace is never silent.
pub struct JsonlSink {
    out: Mutex<(BufWriter<File>, Option<std::io::Error>)>,
}

impl JsonlSink {
    /// Create/truncate the trace file.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new((BufWriter::new(File::create(path)?), None)),
        })
    }
}

impl EventSink for JsonlSink {
    fn event(&self, event: &Event) {
        let (out, failed) = &mut *self.out.lock().expect("trace writer");
        if failed.is_none() {
            *failed = writeln!(out, "{}", event.to_json()).err();
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        let (out, failed) = &mut *self.out.lock().expect("trace writer");
        match failed {
            Some(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            None => out.flush(),
        }
    }
}

/// Keeps every event in memory (tests; reconciliation checks).
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Copy of everything seen so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink").clone()
    }
}

impl EventSink for MemorySink {
    fn event(&self, event: &Event) {
        self.events.lock().expect("memory sink").push(event.clone());
    }
}

/// Live one-line progress display on stderr: trial counts per running
/// campaign, rewritten in place with `\r`.
#[derive(Default)]
pub struct ProgressSink {
    state: Mutex<HashMap<u64, Progress>>,
}

struct Progress {
    app: String,
    tests: usize,
    done: usize,
    started: std::time::Instant,
    /// Set when an adaptive stop rule ended the campaign early: the
    /// display shows the stop point instead of a misleading ETA to the
    /// never-run ceiling.
    stopped: bool,
}

impl Progress {
    /// `" eta 12s"` once at least one trial landed, empty otherwise.
    fn eta(&self) -> String {
        if self.stopped || self.done == 0 || self.done >= self.tests {
            return String::new();
        }
        let per_trial = self.started.elapsed().as_secs_f64() / self.done as f64;
        let remaining = per_trial * (self.tests - self.done) as f64;
        format!(" eta {}s", remaining.ceil() as u64)
    }
}

impl ProgressSink {
    /// New progress display.
    pub fn new() -> ProgressSink {
        ProgressSink::default()
    }

    fn redraw(state: &HashMap<u64, Progress>, newline: bool) {
        let mut parts: Vec<String> = state
            .values()
            .map(|p| {
                if p.stopped {
                    format!("{} {}/{} (stopped early)", p.app, p.done, p.tests)
                } else {
                    format!("{} {}/{}{}", p.app, p.done, p.tests, p.eta())
                }
            })
            .collect();
        parts.sort();
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r\x1b[2K[campaign] {}", parts.join("  "));
        if newline {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }
}

impl EventSink for ProgressSink {
    fn event(&self, event: &Event) {
        let mut state = self.state.lock().expect("progress state");
        match event {
            Event::CampaignStart {
                campaign,
                app,
                tests,
                ..
            } => {
                state.insert(
                    *campaign,
                    Progress {
                        app: app.clone(),
                        tests: *tests,
                        done: 0,
                        started: std::time::Instant::now(),
                        stopped: false,
                    },
                );
                Self::redraw(&state, false);
            }
            Event::Trial { campaign, .. } => {
                if let Some(p) = state.get_mut(campaign) {
                    p.done += 1;
                    // Redraw at ~1% granularity to keep stderr cheap.
                    let stride = (p.tests / 100).max(1);
                    if p.done % stride == 0 || p.done == p.tests {
                        Self::redraw(&state, false);
                    }
                }
            }
            Event::CampaignEarlyStop {
                campaign, at_trial, ..
            } => {
                if let Some(p) = state.get_mut(campaign) {
                    p.done = *at_trial;
                    p.stopped = true;
                    Self::redraw(&state, false);
                }
            }
            Event::CampaignEnd { campaign, .. }
                if state.remove(campaign).is_some() && state.is_empty() =>
            {
                Self::redraw(&state, true);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_respects_enabled_flag_and_fans_out() {
        let _guard = crate::test_lock();
        clear_sinks();
        let sink = Arc::new(MemorySink::new());
        add_sink(sink.clone());

        crate::set_enabled(false);
        emit(&Event::TaintBorn { rank: 0 });
        assert!(sink.events().is_empty());

        crate::set_enabled(true);
        emit(&Event::TaintBorn { rank: 3 });
        emit(&Event::HangGuardTrip { rank: 1 });
        crate::set_enabled(false);
        clear_sinks();

        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event::TaintBorn { rank: 3 });
    }

    #[test]
    fn emit_tallies_exactly_the_counters_each_event_implies() {
        use crate::{Counter as C, MetricsSnapshot};
        let check_case = |ok| Event::CheckCase {
            case: 0,
            seed: 1,
            app: "cg".into(),
            procs: 2,
            tests: 8,
            ok,
            oracle: String::new(),
        };
        let submit = |deduped| Event::ServeSubmit {
            id: 1,
            app: "cg".into(),
            procs: 2,
            tests: 8,
            deduped,
        };
        let lookup = |cache, hit| Event::CacheLookup { cache, hit };
        let done = |state| Event::ServeCampaignDone {
            id: 1,
            trials: 8,
            state,
        };
        let table: Vec<(Event, &[(C, u64)])> = vec![
            (
                Event::InjectionFired {
                    rank: 0,
                    region: "common",
                    op_index: 5,
                    bit: 9,
                },
                &[(C::InjectionsFired, 1)],
            ),
            (Event::TaintBorn { rank: 1 }, &[(C::TaintBorn, 1)]),
            (Event::HangGuardTrip { rank: 1 }, &[(C::HangGuardTrips, 1)]),
            (Event::DueKill { rank: 1 }, &[(C::DueKills, 1)]),
            (
                Event::ReplicaDetection { rank: 1 },
                &[(C::ReplicaDetections, 1)],
            ),
            (
                Event::WireFaultFired {
                    rank: 1,
                    msg_index: 3,
                    bit: 2,
                },
                &[(C::MsgFaultsFired, 1)],
            ),
            (lookup("golden", true), &[(C::GoldenCacheHits, 1)]),
            (lookup("golden", false), &[(C::GoldenCacheMisses, 1)]),
            (lookup("golden-disk", true), &[]),
            (lookup("campaign", true), &[(C::CampaignCacheHits, 1)]),
            (lookup("campaign", false), &[(C::CampaignCacheMisses, 1)]),
            (
                Event::TrialRetry {
                    campaign: 1,
                    test: 2,
                    attempt: 1,
                },
                &[(C::TrialRetries, 1)],
            ),
            (
                Event::CampaignEarlyStop {
                    campaign: 1,
                    at_trial: 20,
                    planned: 400,
                },
                &[(C::CampaignsStoppedEarly, 1)],
            ),
            (check_case(true), &[(C::CheckCasesRun, 1)]),
            (
                check_case(false),
                &[(C::CheckCasesRun, 1), (C::CheckViolations, 1)],
            ),
            (
                Event::CheckShrink {
                    case: 0,
                    attempt: 1,
                    accepted: true,
                    procs: 2,
                    tests: 4,
                },
                &[(C::CheckShrinkAttempts, 1)],
            ),
            (submit(false), &[(C::ServeSubmits, 1)]),
            (
                submit(true),
                &[(C::ServeSubmits, 1), (C::ServeDedupHits, 1)],
            ),
            (done("done"), &[(C::ServeCampaignsDone, 1)]),
            (done("cancelled"), &[(C::ServeCampaignsCancelled, 1)]),
            (
                Event::CampaignStart {
                    campaign: 1,
                    app: "cg".into(),
                    procs: 2,
                    tests: 8,
                    errors: "OneParallel".into(),
                },
                &[],
            ),
            (
                Event::Trial {
                    campaign: 1,
                    test: 0,
                    kind: "sdc",
                    masked: false,
                    contaminated: 2,
                    fired: 1,
                    latency_us: 40,
                },
                &[],
            ),
            (
                Event::CampaignEnd {
                    campaign: 1,
                    wall_us: 99,
                    trials: 8,
                    rank_switches: 30,
                    deadlocks: 0,
                },
                &[],
            ),
        ];

        let _guard = crate::test_lock();
        clear_sinks();
        crate::set_enabled(true);
        for (event, expected) in &table {
            let before = MetricsSnapshot::capture();
            emit(event);
            let delta = MetricsSnapshot::capture().delta(&before);
            for c in C::ALL {
                let want = expected.iter().find(|(e, _)| *e == c).map_or(0, |e| e.1);
                assert_eq!(delta.counter(c), want, "{} after {event:?}", c.name());
            }
        }
        // Disabled, nothing is tallied.
        crate::set_enabled(false);
        let before = MetricsSnapshot::capture();
        emit(&check_case(false));
        assert_eq!(MetricsSnapshot::capture(), before);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let _guard = crate::test_lock();
        let dir = std::env::temp_dir().join("resilim-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));

        clear_sinks();
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        add_sink(sink);
        crate::set_enabled(true);
        emit(&Event::CampaignEnd {
            campaign: 1,
            wall_us: 99,
            trials: 4,
            rank_switches: 350,
            deadlocks: 0,
        });
        crate::set_enabled(false);
        flush_sinks().unwrap();
        clear_sinks();

        let raw = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            raw,
            "{\"ev\":\"campaign_end\",\"campaign\":1,\"wall_us\":99,\"trials\":4,\
             \"rank_switches\":350,\"deadlocks\":0}\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A trace the disk refused is reported at flush, every time, rather
    /// than dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_reports_a_failed_write() {
        let sink = JsonlSink::create(Path::new("/dev/full")).unwrap();
        sink.event(&Event::TaintBorn { rank: 0 });
        for _ in 0..2 {
            let err = sink.flush().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "{err}");
        }
    }
}
