//! The unix-socket daemon: the protocol adapter over a [`Scheduler`].
//! It binds the socket, accepts JSON-lines connections, turns each
//! request into one scheduler call (streaming `watch` events), and
//! drains gracefully on SIGTERM/SIGINT or a `shutdown` request.
//!
//! Everything a restart must bring back — the store layout, the
//! submissions journal and its replay — belongs to the scheduler (see
//! its module doc); [`Daemon::spawn`] only asks it to replay once the
//! socket is bound.

use crate::protocol::{self, Request, Response, PROTOCOL_VERSION};
use crate::scheduler::{Scheduler, WatchEvent};
use resilim_harness::CampaignRunner;
use std::io::{BufRead, BufReader, ErrorKind, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The longest request line a connection may send, newline included. A
/// `submit` line is under 1 KiB; a client that streams more without a
/// newline gets an error and is disconnected instead of growing the
/// daemon's buffer for as long as it keeps writing.
const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// Set by the SIGTERM/SIGINT handler; polled by every accept loop.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::Relaxed);
}

/// Install the termination handler for SIGTERM (15) and SIGINT (2).
///
/// Uses the raw libc `signal` symbol directly — the workspace is
/// offline and vendors no libc crate, and the handler only stores to an
/// atomic (async-signal-safe).
fn install_term_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler: extern "C" fn(i32) = on_term;
    unsafe {
        signal(15, handler as usize);
        signal(2, handler as usize);
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Durable store directory (golden cache, trial ledger, submissions
    /// journal; laid out by [`Scheduler::new`]). `None` runs fully in
    /// memory: no resume, no journal.
    pub store: Option<PathBuf>,
    /// Worker threads shared by all campaigns.
    pub workers: usize,
    /// Trials each worker claims and commits per batch (1 = unbatched;
    /// aggregates are bitwise identical at every batch size).
    pub batch: usize,
}

/// A running daemon handle (in-process embedding: tests, the
/// `identity` check oracle). The CLI entry point is [`run`].
pub struct Daemon {
    scheduler: Arc<Scheduler>,
    socket: PathBuf,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind `config.socket`, have the scheduler replay its journal,
    /// and start accepting connections on a background thread.
    pub fn spawn(config: ServeConfig) -> Result<Daemon, String> {
        let runner = CampaignRunner::new().with_trial_batch(config.batch.max(1));
        let scheduler = Arc::new(Scheduler::new(runner, config.workers, config.store));

        // Bind before replay so a client polling for the socket cannot
        // connect to a half-initialized daemon — the listener exists but
        // nothing is accepted until replay finished.
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)
                .map_err(|e| format!("stale socket {}: {e}", config.socket.display()))?;
        }
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| format!("bind {}: {e}", config.socket.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        if let Err(e) = scheduler.replay() {
            let _ = std::fs::remove_file(&config.socket);
            return Err(e);
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let scheduler = Arc::clone(&scheduler);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(&listener, &scheduler, &shutdown))
        };
        Ok(Daemon {
            scheduler,
            socket: config.socket,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The daemon's scheduler (for in-process inspection in tests).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Wait until the daemon exits (a `shutdown` request or signal),
    /// then drain as [`Daemon::stop`] does.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Request shutdown and drain: in-flight trials finish, ledgers
    /// flush, the socket file is removed. Dropping the handle does the
    /// same.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.scheduler.shutdown();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// CLI entry point: run a daemon in the foreground until SIGTERM,
/// SIGINT, or a `shutdown` request, then drain and exit cleanly.
pub fn run(config: ServeConfig) -> Result<(), String> {
    install_term_handler();
    TERM.store(false, Ordering::Relaxed);
    let socket = config.socket.clone();
    let daemon = Daemon::spawn(config)?;
    eprintln!("resilim serve: listening on {}", socket.display());
    daemon.join();
    eprintln!("resilim serve: drained, exiting");
    Ok(())
}

/// Accept connections until shutdown is requested (by flag, signal, or
/// a `shutdown` request handled on a connection), then join handlers.
fn accept_loop(listener: &UnixListener, scheduler: &Arc<Scheduler>, shutdown: &Arc<AtomicBool>) {
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) && !TERM.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let scheduler = Arc::clone(scheduler);
                let shutdown = Arc::clone(shutdown);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &scheduler, &shutdown);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => break,
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Serve one connection: a sequence of requests, one JSON object per
/// line of at most [`MAX_REQUEST_LINE`] bytes, each answered by one (or,
/// for `watch`, a stream of) response lines.
fn handle_connection(stream: UnixStream, scheduler: &Scheduler, shutdown: &Arc<AtomicBool>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Short read timeout so the handler notices daemon shutdown even
    // on an idle connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::Relaxed) || TERM.load(Ordering::Relaxed) {
            return;
        }
        // NB: on timeout, `read_line` has already appended any bytes it
        // read into `line` — keep them and retry for the rest, within
        // what is left of the cap.
        let room = MAX_REQUEST_LINE.saturating_sub(line.len() as u64);
        match (&mut reader).take(room).read_line(&mut line) {
            Ok(0) if room > 0 => return, // client hung up
            Ok(_) if line.len() as u64 >= MAX_REQUEST_LINE && !line.ends_with('\n') => {
                let _ = protocol::write_line(
                    &mut writer,
                    &Response::error(format!("request line longer than {MAX_REQUEST_LINE} bytes")),
                );
                return;
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => return,
        }
        let keep_going = dispatch(line.trim(), &mut writer, scheduler, shutdown);
        line.clear();
        if !keep_going {
            return;
        }
    }
}

/// Handle one request line. Returns `false` when the connection should
/// close (protocol error or daemon shutdown).
fn dispatch(
    line: &str,
    writer: &mut UnixStream,
    scheduler: &Scheduler,
    shutdown: &Arc<AtomicBool>,
) -> bool {
    if line.is_empty() {
        return true;
    }
    let req: Request = match protocol::parse_line(line) {
        Ok(req) => req,
        Err(e) => {
            let _ = protocol::write_line(writer, &Response::error(e));
            return false;
        }
    };
    if req.v > PROTOCOL_VERSION {
        let _ = protocol::write_line(
            writer,
            &Response::error(format!(
                "protocol v{} not supported (daemon speaks v{PROTOCOL_VERSION})",
                req.v
            )),
        );
        return false;
    }
    match req.cmd.as_str() {
        "submit" => {
            let Some(spec) = req.spec else {
                let _ = protocol::write_line(writer, &Response::error("submit needs a spec"));
                return false;
            };
            let resp = match spec.to_campaign().and_then(|c| scheduler.submit(&c)) {
                Ok((id, deduped)) => Response::submitted(id, deduped),
                Err(e) => Response::error(e),
            };
            let _ = protocol::write_line(writer, &resp);
            true
        }
        "status" => {
            let resp = match req.id.and_then(|id| scheduler.status(id)) {
                Some(status) => {
                    let summary = scheduler.summary(status.id);
                    Response::status(status, summary)
                }
                None => Response::error("unknown campaign"),
            };
            let _ = protocol::write_line(writer, &resp);
            true
        }
        "watch" => {
            let Some(rx) = req.id.and_then(|id| scheduler.watch(id)) else {
                let _ = protocol::write_line(writer, &Response::error("unknown campaign"));
                return true;
            };
            let id = req.id.expect("checked above");
            stream_watch(writer, id, &rx, shutdown)
        }
        "cancel" => {
            let resp = match req.id {
                Some(id) if scheduler.cancel(id) => Response::ok(),
                _ => Response::error("unknown campaign"),
            };
            let _ = protocol::write_line(writer, &resp);
            true
        }
        "list" => {
            let _ = protocol::write_line(writer, &Response::list(scheduler.list()));
            true
        }
        "shutdown" => {
            let _ = protocol::write_line(writer, &Response::ok());
            shutdown.store(true, Ordering::Relaxed);
            false
        }
        other => {
            let _ = protocol::write_line(
                writer,
                &Response::error(format!("unknown command {other:?}")),
            );
            true
        }
    }
}

/// Stream a campaign's watch events as response lines until terminal.
fn stream_watch(
    writer: &mut UnixStream,
    id: u64,
    rx: &mpsc::Receiver<WatchEvent>,
    shutdown: &Arc<AtomicBool>,
) -> bool {
    loop {
        if shutdown.load(Ordering::Relaxed) || TERM.load(Ordering::Relaxed) {
            return false;
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(WatchEvent::Progress { done, total }) => {
                if protocol::write_line(writer, &Response::progress(id, done, total)).is_err() {
                    return false; // watcher hung up
                }
            }
            Ok(WatchEvent::Terminal { state, summary }) => {
                let _ = protocol::write_line(
                    writer,
                    &Response::done(id, state.as_str(), summary.map(|s| *s)),
                );
                return true;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Scheduler dropped the sender without a terminal event
                // (daemon shutting down mid-campaign).
                let _ = protocol::write_line(writer, &Response::error("daemon stopped"));
                return false;
            }
        }
    }
}
