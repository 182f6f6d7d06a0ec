#![warn(missing_docs)]
//! # resilim-serve
//!
//! The campaign *service*: a persistent daemon (`resilim serve`) that
//! accepts campaign submissions from many clients over a unix-domain
//! socket and schedules their trials concurrently over one shared
//! world pool, golden cache, and trial ledger.
//!
//! The one-shot CLI reprofiles golden runs, rebuilds worker pools, and
//! re-reads the ledger on every invocation; a long-lived experiment
//! session (sweeps, CI matrices, several users on one box) pays that
//! setup once by submitting to a daemon instead. The layers:
//!
//! * [`protocol`] — the versioned JSON-lines wire vocabulary
//!   ([`protocol::Request`] / [`protocol::Response`]) and the
//!   [`protocol::SubmitSpec`] ⇄ [`resilim_harness::CampaignSpec`]
//!   translation. Plain named structs with string discriminators, so
//!   any JSON producer can speak it.
//! * [`scheduler`] — the socket-free core and the owner of a served
//!   campaign's lifecycle: worker threads round-robin trial admission
//!   across active campaigns (fair share with per-campaign
//!   backpressure), each campaign streaming its completed trials
//!   through the same deterministic reorder-buffer pipeline the
//!   one-shot runner uses — so per-campaign results are bitwise
//!   identical to solo runs by construction — plus the registry, dedup,
//!   cancel, the store layout and the submissions journal with its
//!   replay (restart resume).
//! * [`daemon`] — the protocol adapter: socket binding, connection
//!   handling, one scheduler call per request, watch streaming, and
//!   graceful drain-on-shutdown (SIGTERM or a `shutdown` request).
//! * [`client`] — the client side the `resilim submit`/`status`
//!   subcommands and the `identity` check oracle connect with.
//!
//! Everything is `std` + workspace shims: no async runtime, no HTTP —
//! one thread per connection, a JSON object per line.

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod scheduler;

pub use client::Client;
pub use daemon::{Daemon, ServeConfig};
pub use protocol::{CampaignStatus, Request, Response, SubmitSpec, PROTOCOL_VERSION};
pub use scheduler::{CampaignState, Scheduler, WatchEvent};
