//! The client side of the wire protocol: what `resilim submit`,
//! `resilim status`, the CI smoke test, and the `identity` check
//! oracle use to talk to a daemon.

use crate::protocol::{self, Request, Response, SubmitSpec};
use crate::scheduler::CampaignState;
use resilim_harness::CampaignSummary;
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// A connection to a `resilim serve` daemon.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connect to the daemon at `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> Result<Client, String> {
        let socket = socket.as_ref();
        let stream = UnixStream::connect(socket).map_err(|e| {
            format!(
                "connect {}: {e} (is `resilim serve` running?)",
                socket.display()
            )
        })?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connect, retrying until the daemon's socket appears (used by
    /// tests and the CI smoke step, which race daemon startup).
    pub fn connect_retry(socket: impl AsRef<Path>, timeout: Duration) -> Result<Client, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(&socket) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Send one request line.
    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        protocol::write_line(&mut self.writer, req).map_err(|e| format!("send: {e}"))
    }

    /// Read one response line.
    pub fn recv(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => protocol::parse_line(&line),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request, one response.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        self.recv()
    }

    /// Submit a campaign; returns `(id, deduped)`.
    pub fn submit(&mut self, spec: SubmitSpec) -> Result<(u64, bool), String> {
        let resp = self.call(&Request::submit(spec))?;
        match resp.kind.as_str() {
            "submitted" => Ok((
                resp.id.ok_or("submitted without id")?,
                resp.deduped.unwrap_or(false),
            )),
            _ => Err(resp
                .message
                .unwrap_or_else(|| format!("unexpected response kind {:?}", resp.kind))),
        }
    }

    /// Watch campaign `id` to completion, invoking `progress` on each
    /// tick; returns the terminal state and (when done) the summary.
    pub fn watch(
        &mut self,
        id: u64,
        mut progress: impl FnMut(usize, usize),
    ) -> Result<(CampaignState, Option<CampaignSummary>), String> {
        self.send(&Request::watch(id))?;
        loop {
            let resp = self.recv()?;
            match resp.kind.as_str() {
                "progress" => {
                    progress(resp.done.unwrap_or(0), resp.total.unwrap_or(0));
                }
                "done" => {
                    let state = match resp.state.as_deref() {
                        Some("cancelled") => CampaignState::Cancelled,
                        _ => CampaignState::Done,
                    };
                    return Ok((state, resp.summary));
                }
                "error" => {
                    return Err(resp.message.unwrap_or_else(|| "daemon error".into()));
                }
                other => return Err(format!("unexpected response kind {other:?}")),
            }
        }
    }

    /// Submit and watch to completion (the `resilim submit --watch`
    /// path).
    pub fn submit_and_wait(
        &mut self,
        spec: SubmitSpec,
    ) -> Result<(u64, Option<CampaignSummary>), String> {
        let (id, _deduped) = self.submit(spec)?;
        let (_state, summary) = self.watch(id, |_, _| {})?;
        Ok((id, summary))
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let resp = self.call(&Request::shutdown())?;
        match resp.kind.as_str() {
            "ok" => Ok(()),
            _ => Err(resp.message.unwrap_or_else(|| "shutdown refused".into())),
        }
    }
}
