//! `repro serve` / `repro work` — the TCP campaign dispatcher.
//!
//! Anything that crosses processes or hosts goes through this module, a
//! long-lived service built on [`crate::campaign`]'s shards: a
//! **coordinator** accepting submissions over TCP — catalog campaigns by
//! name, or full [`crate::scenario`] documents, whose submitter judges
//! the assertions against the merged result it receives — a fleet of
//! **workers** executing shards, and the job-lifecycle machinery between
//! them: idempotent submission keys, per-worker liveness via heartbeats,
//! re-queue of shards from dead or straggling workers, resume from the
//! cells a lost shard already finished, per-submitter token-bucket rate
//! limiting, and a status frame for observability. The delivery contract
//! is at-least-once with dedup at the coordinator's completion slots,
//! which is safe precisely because shard execution is deterministic and
//! [`merge`](crate::campaign::merge) is order-insensitive: however many
//! times a shard runs, its bytes are the same, and the merged
//! [`CampaignResult`](crate::campaign::CampaignResult) is bit-identical
//! to a sequential in-process run.
//!
//! The pieces, each its own module:
//!
//! * [`proto`] — one JSON object per line, bounded in length; typed
//!   parse errors, never panics.
//! * [`clock`] — the deadline clock abstraction; production reads a
//!   monotonic [`clock::SystemClock`], lifecycle tests drive
//!   the same coordinator with a hand-advanced
//!   [`clock::FakeClock`].
//! * [`coordinator`] — the pure state machine ([`Coordinator`]) and its
//!   TCP shell ([`Server`]).
//! * [`mod@status`] — the fleet snapshot ([`StatusReport`]) behind the
//!   `status` frames and `repro status`.
//! * [`worker`] — the worker loop: register, execute, heartbeat, and
//!   report each finished cell once.
//! * [`client`] — the blocking submitter (campaigns, scenarios, status
//!   polls) with jittered-exponential-backoff reconnects.
//! * [`journal`] — the coordinator's fsync'd write-ahead ledger; a
//!   restarted coordinator replays it and resumes its jobs.
//! * [`chaos`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   driving a frame-mangling TCP proxy, for the crash-recovery suites.
//! * `net` — socket set-up shared by all of the above: `TCP_NODELAY` on
//!   every stream, and one blocking accept loop that shutdown wakes.
//!
//! Wire format and failure semantics are documented in
//! `docs/PROTOCOL.md`; deployment, tuning and failure playbooks in
//! `docs/DISPATCHER.md`. The `repro serve` / `repro work` / `repro
//! submit` / `repro status` subcommands in `strex-bench` are thin CLIs
//! over these entry points.

pub mod chaos;
pub mod client;
pub mod clock;
pub mod coordinator;
pub mod journal;
mod net;
pub mod proto;
pub mod status;
pub mod worker;

pub use chaos::{ChaosProxy, ChaosRng, FaultPlan};
pub use client::{
    connect_with_retry, connect_with_retry_seeded, status, submit, submit_scenario,
    submit_scenario_with_retry, submit_with_retry, Backoff,
};
pub use clock::{Clock, FakeClock, SystemClock};
pub use coordinator::{
    job_key, Action, ConnId, Coordinator, DispatchConfig, Event, ServeOptions, ServeSummary,
    Server, WorkerLossReason, MAX_FINISHED, MAX_SHARDS,
};
pub use journal::{replay_journal_file, Journal, JournalEntry};
pub use proto::{
    read_message, read_message_buffered, write_message, FrameReader, JobSpec, Message, ProtoError,
    RejectReason,
};
pub use status::{
    AssignmentStatus, JobStatus, RateStatus, StatusCounters, StatusReport, WorkerStatus,
};
pub use worker::{run_worker, ShardRunner, WorkerOptions, WorkerSummary};

use std::fmt;

use crate::campaign::ShardSpec;

/// Why a dispatcher endpoint (server, worker or submitter) gave up.
#[derive(Debug)]
pub enum DispatchError {
    /// The transport failed.
    Io(std::io::Error),
    /// A frame could not be read or decoded.
    Proto(ProtoError),
    /// The coordinator refused the request, with a typed reason so
    /// callers can branch (retry after `RateLimited`, give up on
    /// `UnknownCampaign`) without parsing prose.
    Rejected {
        /// The typed refusal.
        reason: RejectReason,
        /// Human-readable detail.
        message: String,
    },
    /// The peer sent a well-formed frame that makes no sense here.
    Protocol(String),
    /// A worker's [`ShardRunner`] failed on an assigned shard.
    Runner {
        /// The campaign (or scenario name) the shard belongs to.
        campaign: String,
        /// Which shard failed.
        spec: ShardSpec,
        /// The runner's error.
        message: String,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Io(e) => write!(f, "transport error: {e}"),
            DispatchError::Proto(e) => write!(f, "{e}"),
            DispatchError::Rejected { reason, message } => {
                write!(f, "rejected by the coordinator ({reason}): {message}")
            }
            DispatchError::Protocol(m) => write!(f, "protocol violation: {m}"),
            DispatchError::Runner {
                campaign,
                spec,
                message,
            } => write!(f, "shard {spec} of campaign {campaign:?} failed: {message}"),
        }
    }
}

impl std::error::Error for DispatchError {}

impl From<std::io::Error> for DispatchError {
    fn from(e: std::io::Error) -> Self {
        DispatchError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_errors_render_their_context() {
        let e = DispatchError::Runner {
            campaign: "quick".into(),
            spec: ShardSpec { index: 1, count: 4 },
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("1/4") && s.contains("quick") && s.contains("boom"),
            "{s}"
        );
        let r = DispatchError::Rejected {
            reason: RejectReason::RateLimited,
            message: "nope".into(),
        }
        .to_string();
        assert!(r.contains("rate_limited") && r.contains("nope"), "{r}");
    }
}
