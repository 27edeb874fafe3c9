//! The dispatcher's wire protocol: one JSON object per line.
//!
//! Every message is one JSON object on one line, terminated by `\n` —
//! the dependency-free [`crate::json::JsonWriter`] / [`crate::jsonval`]
//! stack, so a worker on another machine needs nothing but a TCP
//! connection and this module. The object's `"type"` field names the
//! message; the payloads embed the campaign documents
//! ([`CampaignShard::to_json`](crate::campaign::CampaignShard::to_json),
//! [`CampaignResult::to_json`](crate::campaign::CampaignResult::to_json),
//! [`Scenario::to_json`](crate::scenario::Scenario::to_json)) verbatim.
//! A frame is at most [`MAX_FRAME`] bytes, newline included.
//!
//! The read side is a trust boundary: frames come from the network, so
//! oversized or truncated lines, malformed JSON, unknown message types
//! and mistyped payloads are all typed [`ProtoError`]s — never panics
//! (fuzzed in `tests/dispatch_protocol.rs`). See `docs/PROTOCOL.md` for
//! the message flow, the message table and the delivery contract.

use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::sync::Arc;

use crate::campaign::{
    cell_from_json, write_cell_json, CampaignCell, CampaignResult, CampaignShard, ShardSpec,
};
use crate::json::JsonWriter;
use crate::jsonval::{JsonValue, WireError};
use crate::scenario::{AssertionOutcome, Scenario};

use super::clock::Clock;
use super::status::StatusReport;

/// Cap on one frame's length, newline included. A full quick matrix is a
/// few MiB on the wire; the cap only exists so a peer that never sends a
/// newline cannot grow a reader's buffer without bound.
pub const MAX_FRAME: usize = 256 * 1024 * 1024;

/// What a submission asks the fleet to run: a campaign from the
/// coordinator's fixed catalog, by name, or a full
/// [`Scenario`] document carried inline — the declared
/// scheduler × workload × cores × team-size matrix plus its assertions.
///
/// The same enum rides in both `submit` (submitter → coordinator) and
/// `assign` (coordinator → worker), so every worker executes exactly
/// the document the submitter declared, not a re-encoding of it. The
/// scenario arm is an [`Arc`] because one submission fans out into many
/// assignments; cloning the spec per frame must not clone the document.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// A campaign the coordinator's catalog knows by name (e.g.
    /// `"quick"`).
    Catalog(String),
    /// A validated scenario document; workers run its declared matrix
    /// and the coordinator evaluates its assertions on the merged
    /// result.
    Scenario(Arc<Scenario>),
}

impl JobSpec {
    /// Short human-readable label: the catalog name or the scenario name.
    pub fn label(&self) -> &str {
        match self {
            JobSpec::Catalog(name) => name,
            JobSpec::Scenario(s) => &s.name,
        }
    }

    /// The canonical text the job key hashes: the catalog name, or the
    /// scenario's deterministic JSON — content-addressed, so two
    /// submissions of byte-identical documents coalesce onto one job
    /// even if their files were named differently.
    pub fn canonical(&self) -> String {
        match self {
            JobSpec::Catalog(name) => name.clone(),
            JobSpec::Scenario(s) => s.to_json(),
        }
    }

    /// Writes this spec's field into an open message object: either
    /// `"campaign": <name>` or `"scenario": <document>`.
    fn write_field(&self, w: &mut JsonWriter) {
        match self {
            JobSpec::Catalog(name) => {
                w.key("campaign");
                w.string(name);
            }
            JobSpec::Scenario(s) => {
                w.key("scenario");
                w.raw(&s.to_json());
            }
        }
    }

    /// Reads the spec from a message document: `"scenario"` wins when
    /// present (validated through the full scenario parser), otherwise
    /// `"campaign"` is required.
    fn from_doc(doc: &JsonValue) -> Result<JobSpec, WireError> {
        if let Some(sdoc) = doc.get("scenario") {
            let scenario = Scenario::from_json_value(sdoc)
                .map_err(|e| WireError::new(format!("invalid scenario: {e}")))?;
            Ok(JobSpec::Scenario(Arc::new(scenario)))
        } else {
            Ok(JobSpec::Catalog(doc.req_str("campaign")?.to_string()))
        }
    }
}

/// Why the coordinator refused a request — the typed half of
/// [`Message::Reject`], so callers can branch (retry after a rate limit,
/// give up on an unknown campaign) without parsing prose.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The submitted catalog name is not in the coordinator's catalog.
    UnknownCampaign,
    /// The shard count is zero or above [`super::MAX_SHARDS`].
    InvalidShards,
    /// The inline scenario document did not validate.
    InvalidScenario,
    /// The submitter's token bucket is empty; retry after the refill
    /// interval.
    RateLimited,
    /// The pending-job queue is at its bound; retry once jobs drain.
    QueueFull,
    /// The peer sent a well-formed frame that makes no sense in this
    /// direction.
    Protocol,
    /// Completed shards failed to merge or the merged result could not
    /// be evaluated (invariant breach — reported, never a panic).
    MergeFailed,
}

impl RejectReason {
    /// The snake_case wire tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::UnknownCampaign => "unknown_campaign",
            RejectReason::InvalidShards => "invalid_shards",
            RejectReason::InvalidScenario => "invalid_scenario",
            RejectReason::RateLimited => "rate_limited",
            RejectReason::QueueFull => "queue_full",
            RejectReason::Protocol => "protocol",
            RejectReason::MergeFailed => "merge_failed",
        }
    }

    /// Parses a wire tag.
    pub fn parse(s: &str) -> Result<RejectReason, WireError> {
        match s {
            "unknown_campaign" => Ok(RejectReason::UnknownCampaign),
            "invalid_shards" => Ok(RejectReason::InvalidShards),
            "invalid_scenario" => Ok(RejectReason::InvalidScenario),
            "rate_limited" => Ok(RejectReason::RateLimited),
            "queue_full" => Ok(RejectReason::QueueFull),
            "protocol" => Ok(RejectReason::Protocol),
            "merge_failed" => Ok(RejectReason::MergeFailed),
            other => Err(WireError::new(format!("unknown reject reason {other:?}"))),
        }
    }

    /// Every reason, in documentation order.
    pub const ALL: [RejectReason; 7] = [
        RejectReason::UnknownCampaign,
        RejectReason::InvalidShards,
        RejectReason::InvalidScenario,
        RejectReason::RateLimited,
        RejectReason::QueueFull,
        RejectReason::Protocol,
        RejectReason::MergeFailed,
    ];
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One protocol message, either direction.
#[derive(Clone, Debug)]
pub enum Message {
    /// Submitter → coordinator: run `work` split into `shards` shards.
    Submit {
        /// What to run: a catalog name or an inline scenario document.
        work: JobSpec,
        /// How many shards to partition the matrix into.
        shards: usize,
    },
    /// Worker → coordinator: this connection executes shards. `name` is
    /// a human-readable label for logs; identity is the connection.
    Register {
        /// Worker label (e.g. `host:pid`).
        name: String,
        /// Host cores available to the worker, as `repro status` shows.
        cores: usize,
    },
    /// Worker → coordinator: still alive. Sent on a fixed cadence, also
    /// while a shard is executing.
    Heartbeat,
    /// Coordinator → worker: execute one shard of a job.
    Assign {
        /// Idempotency key of the job this shard belongs to.
        job: String,
        /// What to run, exactly as submitted.
        work: JobSpec,
        /// Which shard of how many.
        spec: ShardSpec,
        /// Cells of this shard that earlier workers reported finished,
        /// with their matrix indices in ascending order: the worker adopts
        /// them and runs only the rest. Empty (and absent from the frame)
        /// on a fresh assignment.
        done: Vec<(usize, CampaignCell)>,
    },
    /// Worker → coordinator: one cell of the shard this connection is
    /// executing has finished — sent once per cell, so a reaped or
    /// disconnected worker's shard re-queues without the cells already
    /// reported. Purely advisory: a lost checkpoint costs re-simulation,
    /// never correctness.
    Checkpoint {
        /// The job key from the [`Message::Assign`] this reports on.
        job: String,
        /// The shard the cell belongs to.
        spec: ShardSpec,
        /// The finished cell and its matrix index, boxed so that every
        /// message stays small.
        cell: Box<(usize, CampaignCell)>,
    },
    /// Worker → coordinator: a finished shard, full payload inline.
    ShardDone {
        /// The job key from the [`Message::Assign`] this answers.
        job: String,
        /// The executed shard.
        shard: CampaignShard,
    },
    /// Coordinator → submitter: the merged campaign, bit-identical to a
    /// sequential in-process run, plus — for scenario jobs — one
    /// evaluated diagnostic per declared assertion.
    Result {
        /// The job's idempotency key.
        job: String,
        /// The merged result.
        result: CampaignResult,
        /// Per-assertion diagnostics in declaration order; empty for
        /// catalog jobs (they declare no assertions).
        outcomes: Vec<AssertionOutcome>,
    },
    /// Coordinator → peer: the request cannot be served. Terminal for
    /// the connection.
    Reject {
        /// The typed refusal.
        reason: RejectReason,
        /// Human-readable detail for logs.
        message: String,
    },
    /// Any peer → coordinator: describe the fleet. Answered with one
    /// [`Message::Status`]; the connection stays open, so a watcher can
    /// poll on one socket.
    StatusRequest,
    /// Coordinator → peer: the fleet snapshot a [`Message::StatusRequest`]
    /// asked for.
    Status {
        /// Jobs in flight, queue depth, per-worker liveness and
        /// assignment, completion counters, rate-limit state.
        report: StatusReport,
    },
}

impl Message {
    /// The wire name of this message's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Message::Submit { .. } => "submit",
            Message::Register { .. } => "register",
            Message::Heartbeat => "heartbeat",
            Message::Assign { .. } => "assign",
            Message::Checkpoint { .. } => "checkpoint",
            Message::ShardDone { .. } => "shard_done",
            Message::Result { .. } => "result",
            Message::Reject { .. } => "reject",
            Message::StatusRequest => "status",
            Message::Status { .. } => "status_report",
        }
    }

    /// Serializes the message as one newline-terminated JSON frame.
    pub fn to_frame(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("type");
        w.string(self.type_name());
        match self {
            Message::Submit { work, shards } => {
                work.write_field(&mut w);
                w.key("shards");
                w.number_u64(*shards as u64);
            }
            Message::Register { name, cores } => {
                w.key("name");
                w.string(name);
                w.key("cores");
                w.number_u64(*cores as u64);
            }
            Message::Heartbeat => {}
            Message::Assign {
                job,
                work,
                spec,
                done,
            } => {
                w.key("job");
                w.string(job);
                work.write_field(&mut w);
                write_spec(&mut w, *spec);
                if !done.is_empty() {
                    w.key("done");
                    w.begin_array();
                    for (i, cell) in done {
                        write_cell_json(&mut w, Some(*i), cell);
                    }
                    w.end_array();
                }
            }
            Message::Checkpoint { job, spec, cell } => {
                w.key("job");
                w.string(job);
                write_spec(&mut w, *spec);
                w.key("cell");
                write_cell_json(&mut w, Some(cell.0), &cell.1);
            }
            Message::ShardDone { job, shard } => {
                w.key("job");
                w.string(job);
                w.key("shard");
                w.raw(&shard.to_json());
            }
            Message::Result {
                job,
                result,
                outcomes,
            } => {
                w.key("job");
                w.string(job);
                w.key("outcomes");
                w.raw(&outcomes_json(outcomes));
                w.key("result");
                w.raw(&result.to_json());
            }
            Message::Reject { reason, message } => {
                w.key("reason");
                w.string(reason.as_str());
                w.key("message");
                w.string(message);
            }
            Message::StatusRequest => {}
            Message::Status { report } => {
                report.write_fields(&mut w);
            }
        }
        w.end_object();
        let mut frame = w.finish();
        frame.push('\n');
        frame
    }

    /// Parses a message from a parsed frame document.
    pub fn from_json_value(doc: &JsonValue) -> Result<Message, WireError> {
        let kind = doc.req_str("type")?;
        match kind {
            "submit" => Ok(Message::Submit {
                work: JobSpec::from_doc(doc)?,
                shards: doc.req_u64("shards")? as usize,
            }),
            "register" => {
                let cores = doc.req_u64("cores")? as usize;
                if cores == 0 {
                    return Err(WireError::new("register declares zero cores"));
                }
                Ok(Message::Register {
                    name: doc.req_str("name")?.to_string(),
                    cores,
                })
            }
            "heartbeat" => Ok(Message::Heartbeat),
            "assign" => {
                let spec = read_spec(doc)?;
                let done = match doc.get("done") {
                    Some(_) => doc
                        .req_array("done")?
                        .iter()
                        .map(cell_from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                    None => Vec::new(),
                };
                Ok(Message::Assign {
                    job: doc.req_str("job")?.to_string(),
                    work: JobSpec::from_doc(doc)?,
                    spec,
                    done,
                })
            }
            "checkpoint" => Ok(Message::Checkpoint {
                job: doc.req_str("job")?.to_string(),
                spec: read_spec(doc)?,
                cell: Box::new(cell_from_json(doc.req("cell")?)?),
            }),
            "shard_done" => Ok(Message::ShardDone {
                job: doc.req_str("job")?.to_string(),
                shard: CampaignShard::from_json_value(doc.req("shard")?)?,
            }),
            "result" => Ok(Message::Result {
                job: doc.req_str("job")?.to_string(),
                result: CampaignResult::from_json_value(doc.req("result")?)?,
                outcomes: outcomes_from_value(doc.req("outcomes")?)?,
            }),
            "reject" => Ok(Message::Reject {
                reason: RejectReason::parse(doc.req_str("reason")?)?,
                message: doc.req_str("message")?.to_string(),
            }),
            "status" => Ok(Message::StatusRequest),
            "status_report" => Ok(Message::Status {
                report: StatusReport::from_json_value(doc)?,
            }),
            other => Err(WireError::new(format!("unknown message type {other:?}"))),
        }
    }

    /// Parses one frame (without or with its trailing newline).
    pub fn parse_frame(line: &str) -> Result<Message, ProtoError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let doc = JsonValue::parse(line).map_err(|e| ProtoError::Malformed(e.to_string()))?;
        Message::from_json_value(&doc).map_err(ProtoError::Wire)
    }
}

/// Writes a shard spec's `index` and `count` into an open frame object.
fn write_spec(w: &mut JsonWriter, spec: ShardSpec) {
    w.key("index");
    w.number_u64(spec.index as u64);
    w.key("count");
    w.number_u64(spec.count as u64);
}

/// Reads and validates the `index` and `count` a frame names its shard by.
fn read_spec(doc: &JsonValue) -> Result<ShardSpec, WireError> {
    let spec = ShardSpec {
        index: doc.req_u64("index")? as usize,
        count: doc.req_u64("count")? as usize,
    };
    spec.validate().map_err(|e| WireError::new(e.to_string()))?;
    Ok(spec)
}

/// The length of the `assign` frame for `job`, `work` and `spec` before
/// any `done` entry: the bare frame plus the `,"done":[` that opens the
/// array. Each entry then adds exactly [`done_entry_len`].
pub(crate) fn assign_frame_len(job: &str, work: &JobSpec, spec: ShardSpec) -> usize {
    let bare = Message::Assign {
        job: job.to_string(),
        work: work.clone(),
        spec,
        done: Vec::new(),
    };
    bare.to_frame().len() + r#","done":["#.len()
}

/// What one cell adds to an `assign` frame's `done` array: its encoding
/// plus the comma or closing bracket after it.
pub(crate) fn done_entry_len(index: usize, cell: &CampaignCell) -> usize {
    let mut w = JsonWriter::new();
    write_cell_json(&mut w, Some(index), cell);
    w.finish().len() + 1
}

/// Renders a diagnostic list as one JSON array (deterministic order and
/// key layout, like every other wire document here).
fn outcomes_json(outcomes: &[AssertionOutcome]) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    for o in outcomes {
        o.write_into(&mut w);
    }
    w.end_array();
    w.finish()
}

/// Parses a diagnostic list from an already-parsed array value.
fn outcomes_from_value(doc: &JsonValue) -> Result<Vec<AssertionOutcome>, WireError> {
    doc.as_array()
        .ok_or_else(|| WireError::new("outcomes must be an array"))?
        .iter()
        .map(AssertionOutcome::from_json_value)
        .collect()
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The connection ended mid-frame: bytes arrived after the last
    /// newline, then EOF. A clean EOF (no partial line) is *not* an
    /// error — [`read_message`] reports it as `Ok(None)`.
    Truncated {
        /// How many bytes of the unterminated frame arrived.
        bytes: usize,
    },
    /// The line is not valid JSON (or not UTF-8), or ran past
    /// [`MAX_FRAME`] without a newline.
    Malformed(String),
    /// The document is valid JSON but not a valid message (missing or
    /// mistyped field, unknown `"type"`).
    Wire(WireError),
    /// A frame started arriving but did not complete within the reader's
    /// per-frame deadline — the typed form of "a peer is dribbling one
    /// byte per heartbeat to pin this reader thread forever". Only
    /// surfaced by readers built with [`FrameReader::with_deadline`].
    Stalled {
        /// The deadline that elapsed, in milliseconds.
        ms: u64,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Truncated { bytes } => {
                write!(
                    f,
                    "connection closed mid-frame ({bytes} bytes unterminated)"
                )
            }
            ProtoError::Malformed(e) => write!(f, "malformed frame: {e}"),
            ProtoError::Wire(e) => write!(f, "invalid message: {e}"),
            ProtoError::Stalled { ms } => {
                write!(
                    f,
                    "frame stalled: incomplete after the {ms} ms read deadline"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Incremental frame reader over one connection: owns the transport's
/// buffered reader plus a single frame buffer that is cleared and reused
/// across calls, so a long-lived peer (worker loop, coordinator reader
/// thread, submitter) decodes every frame without a fresh allocation per
/// message.
pub struct FrameReader<R> {
    reader: R,
    buf: Vec<u8>,
    deadline: Option<FrameDeadline>,
}

struct FrameDeadline {
    clock: Arc<dyn Clock>,
    ms: u64,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a buffered transport.
    pub fn new(reader: R) -> FrameReader<R> {
        FrameReader {
            reader,
            buf: Vec::new(),
            deadline: None,
        }
    }

    /// Wraps a buffered transport with a per-frame read deadline: once a
    /// frame's *first byte* arrives, the whole frame must complete within
    /// `deadline_ms` or [`next_message`](FrameReader::next_message)
    /// returns [`ProtoError::Stalled`] — the defense against a peer that
    /// dribbles one byte per heartbeat interval to pin a reader thread
    /// forever. Waiting *between* frames is unbounded (an idle submitter
    /// connection is legal).
    ///
    /// The clock is only consulted when a read returns — the transport
    /// must wake periodically for the deadline to fire while blocked, so
    /// pair this with a socket read timeout (the coordinator's reader
    /// threads do; `WouldBlock`/`TimedOut` wakes are absorbed here, not
    /// surfaced). `deadline_ms == 0` disables the deadline.
    pub fn with_deadline(reader: R, deadline_ms: u64, clock: Arc<dyn Clock>) -> FrameReader<R> {
        FrameReader {
            reader,
            buf: Vec::new(),
            deadline: (deadline_ms > 0).then_some(FrameDeadline {
                clock,
                ms: deadline_ms,
            }),
        }
    }

    /// Reads one frame. `Ok(None)` is a clean end of stream (the peer
    /// closed between frames); a partial frame is
    /// [`ProtoError::Truncated`]; a frame still incomplete when the
    /// configured per-frame deadline elapses is [`ProtoError::Stalled`].
    pub fn next_message(&mut self) -> Result<Option<Message>, ProtoError> {
        match &self.deadline {
            None => read_message_buffered(&mut self.reader, &mut self.buf),
            Some(deadline) => {
                let mut guarded = DeadlineReader {
                    inner: &mut self.reader,
                    clock: &*deadline.clock,
                    deadline_ms: deadline.ms,
                    frame_started_ms: None,
                };
                match read_message_buffered(&mut guarded, &mut self.buf) {
                    Err(ProtoError::Io(e)) if is_stall(&e) => {
                        Err(ProtoError::Stalled { ms: deadline.ms })
                    }
                    other => other,
                }
            }
        }
    }
}

/// The marker error [`DeadlineReader`] raises when a frame overruns its
/// deadline, so [`FrameReader::next_message`] can distinguish a stall
/// from a genuine transport failure.
#[derive(Debug)]
struct StallElapsed {
    ms: u64,
}

impl fmt::Display for StallElapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame incomplete after {} ms", self.ms)
    }
}

impl std::error::Error for StallElapsed {}

fn is_stall(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<StallElapsed>())
}

/// `true` for the error kinds a timed-out socket read reports; the
/// deadline reader absorbs these and re-checks the clock, and the chaos
/// proxy retries on them, instead of surfacing them.
pub(crate) fn is_read_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// A [`BufRead`] shim enforcing one frame's read deadline: the timer
/// starts when the frame's first byte arrives and is checked every time
/// the inner read returns — after data (the dribble defense) and after a
/// socket-timeout wake (the silence defense).
struct DeadlineReader<'a, R: BufRead> {
    inner: &'a mut R,
    clock: &'a dyn Clock,
    deadline_ms: u64,
    frame_started_ms: Option<u64>,
}

impl<R: BufRead> DeadlineReader<'_, R> {
    /// Errors with the stall marker once the frame has overrun.
    fn check(&self) -> io::Result<()> {
        if let Some(started) = self.frame_started_ms {
            if self.clock.now_ms().saturating_sub(started) >= self.deadline_ms {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    StallElapsed {
                        ms: self.deadline_ms,
                    },
                ));
            }
        }
        Ok(())
    }

    /// Starts the frame timer at the first byte.
    fn mark_progress(&mut self) {
        if self.frame_started_ms.is_none() {
            self.frame_started_ms = Some(self.clock.now_ms());
        }
    }
}

impl<R: BufRead> Read for DeadlineReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            self.check()?;
            match self.inner.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.mark_progress();
                    return Ok(n);
                }
                Err(e) if is_read_timeout(&e) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl<R: BufRead> BufRead for DeadlineReader<'_, R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        // Probe without letting the borrow escape the loop; the buffered
        // re-call below is free once data (or EOF) arrived.
        let got_data;
        loop {
            self.check()?;
            match self.inner.fill_buf() {
                Ok(b) => {
                    got_data = !b.is_empty();
                    break;
                }
                Err(e) if is_read_timeout(&e) => continue,
                Err(e) => return Err(e),
            }
        }
        if got_data {
            self.mark_progress();
        }
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

/// Appends one line — through its `\n` — from `reader` to `buf`,
/// refusing to grow `buf` past `cap` bytes: past the cap the read stops
/// with [`ProtoError::Malformed`], having buffered at most `cap` plus
/// one read's worth of bytes. This is the framing rule, in one place:
/// the protocol reader and the chaos proxy both split streams with it.
///
/// `Ok(true)` means `buf` now ends with a newline; `Ok(false)` means the
/// stream ended first. A transport error — a socket read timeout
/// included — leaves the bytes read so far in `buf`, so a caller may
/// call again to continue the line.
pub(crate) fn read_line_bounded(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> Result<bool, ProtoError> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        };
        if chunk.is_empty() {
            return Ok(false);
        }
        let (used, ended) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        buf.extend_from_slice(&chunk[..used]);
        reader.consume(used);
        if buf.len() > cap {
            return Err(ProtoError::Malformed(format!(
                "frame runs past the {cap}-byte cap"
            )));
        }
        if ended {
            return Ok(true);
        }
    }
}

/// Reads one frame into `buf` (cleared first, capacity reused).
/// `Ok(None)` is a clean end of stream; a partial frame is
/// [`ProtoError::Truncated`]. [`FrameReader`] wraps this with a
/// persistent buffer; the free [`read_message`] is the one-shot
/// convenience form.
pub fn read_message_buffered(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> Result<Option<Message>, ProtoError> {
    buf.clear();
    if !read_line_bounded(reader, buf, MAX_FRAME)? {
        return match buf.len() {
            0 => Ok(None),
            bytes => Err(ProtoError::Truncated { bytes }),
        };
    }
    let line = std::str::from_utf8(buf)
        .map_err(|e| ProtoError::Malformed(format!("frame is not UTF-8: {e}")))?;
    Message::parse_frame(line).map(Some)
}

/// One-shot [`read_message_buffered`] with a throwaway buffer. Loops
/// should hold a [`FrameReader`] instead so the buffer is reused.
pub fn read_message(reader: &mut impl BufRead) -> Result<Option<Message>, ProtoError> {
    let mut buf = Vec::new();
    read_message_buffered(reader, &mut buf)
}

/// Writes one frame to `writer` and flushes it, so a message is either
/// fully on the wire or not sent at all from the peer's perspective.
pub fn write_message(writer: &mut impl Write, msg: &Message) -> io::Result<()> {
    writer.write_all(msg.to_frame().as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn tiny_scenario() -> Arc<Scenario> {
        Arc::new(
            Scenario::from_json(
                r#"{
                    "name": "tiny",
                    "matrix": {
                        "workloads": ["TPC-C-1"],
                        "pool": 8,
                        "seed": 7,
                        "small": true,
                        "schedulers": ["baseline"],
                        "cores": [2]
                    },
                    "assertions": [
                        {
                            "kind": "throughput_at_least",
                            "cell": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 2},
                            "min": 0.0
                        }
                    ]
                }"#,
            )
            .expect("valid scenario"),
        )
    }

    #[test]
    fn control_frames_round_trip() {
        let originals = [
            Message::Submit {
                work: JobSpec::Catalog("quick".into()),
                shards: 4,
            },
            Message::Submit {
                work: JobSpec::Scenario(tiny_scenario()),
                shards: 2,
            },
            Message::Register {
                name: "host:42".into(),
                cores: 8,
            },
            Message::Heartbeat,
            Message::Assign {
                job: "ab12".into(),
                work: JobSpec::Catalog("quick".into()),
                spec: ShardSpec { index: 1, count: 4 },
                done: Vec::new(),
            },
            Message::Assign {
                job: "cd34".into(),
                work: JobSpec::Scenario(tiny_scenario()),
                spec: ShardSpec { index: 0, count: 2 },
                done: Vec::new(),
            },
            Message::Reject {
                reason: RejectReason::UnknownCampaign,
                message: "unknown campaign \"nope\"".into(),
            },
            Message::StatusRequest,
        ];
        for msg in originals {
            let frame = msg.to_frame();
            assert!(frame.ends_with('\n'));
            assert!(!frame[..frame.len() - 1].contains('\n'), "one line only");
            let parsed = Message::parse_frame(&frame).expect("round trip");
            assert_eq!(parsed.to_frame(), frame, "byte-identical re-emission");
        }
    }

    #[test]
    fn v1_frames_are_refused() {
        // A catalog submit names a campaign with no scenario key; that
        // shape is current and still parses.
        let msg =
            Message::parse_frame("{\"type\":\"submit\",\"campaign\":\"quick\",\"shards\":4}\n")
                .expect("catalog submit");
        match msg {
            Message::Submit {
                work: JobSpec::Catalog(name),
                shards: 4,
            } => assert_eq!(name, "quick"),
            other => panic!("unexpected {other:?}"),
        }
        // A register without cores, a reject without a reason tag
        // and a result without diagnostics only ever came from v1 peers.
        let result = match tiny_result() {
            Message::Result { result, .. } => result.to_json(),
            other => panic!("unexpected {other:?}"),
        };
        for (frame, missing) in [
            (
                "{\"type\":\"register\",\"name\":\"w\"}\n".to_string(),
                "cores",
            ),
            (
                "{\"type\":\"reject\",\"message\":\"nope\"}\n".to_string(),
                "reason",
            ),
            (
                format!("{{\"type\":\"result\",\"job\":\"j\",\"result\":{result}}}\n"),
                "outcomes",
            ),
        ] {
            match Message::parse_frame(&frame) {
                Err(ProtoError::Wire(e)) => assert!(e.to_string().contains(missing), "{e}"),
                other => panic!("{frame}: expected a wire error, got {other:?}"),
            }
        }
    }

    #[test]
    fn partial_capability_declarations_are_refused() {
        // `cores` is the one declaration: a register carrying only the
        // retired `scenarios` tag, or zero cores, is refused.
        for frame in [
            "{\"type\":\"register\",\"name\":\"w\",\"scenarios\":true}\n",
            "{\"type\":\"register\",\"name\":\"w\",\"cores\":0}\n",
        ] {
            let err = Message::parse_frame(frame).unwrap_err();
            assert!(err.to_string().contains("cores"), "{err}");
        }
    }

    #[test]
    fn reject_reasons_round_trip_their_tags() {
        for reason in RejectReason::ALL {
            assert_eq!(RejectReason::parse(reason.as_str()).unwrap(), reason);
        }
        assert!(RejectReason::parse("because").is_err());
    }

    #[test]
    fn stream_reading_separates_frames_and_reports_clean_eof() {
        let bytes = format!(
            "{}{}",
            Message::Heartbeat.to_frame(),
            Message::Register {
                name: "w".into(),
                cores: 1,
            }
            .to_frame()
        );
        let mut r = BufReader::new(bytes.as_bytes());
        assert!(matches!(
            read_message(&mut r).unwrap(),
            Some(Message::Heartbeat)
        ));
        assert!(matches!(
            read_message(&mut r).unwrap(),
            Some(Message::Register { .. })
        ));
        assert!(read_message(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_malformed_frames_are_typed_errors() {
        let mut r = BufReader::new(&b"{\"type\":\"heartbeat\""[..]);
        assert!(matches!(
            read_message(&mut r),
            Err(ProtoError::Truncated { bytes: 19 })
        ));

        let mut r = BufReader::new(&b"not json\n"[..]);
        assert!(matches!(
            read_message(&mut r),
            Err(ProtoError::Malformed(_))
        ));

        let mut r = BufReader::new(&b"{\"type\":\"warp\"}\n"[..]);
        match read_message(&mut r) {
            Err(ProtoError::Wire(e)) => assert!(e.to_string().contains("warp"), "{e}"),
            other => panic!("expected a wire error, got {other:?}"),
        }
    }

    fn tiny_shard_done() -> Message {
        use crate::campaign::{CampaignPerf, CampaignShard};
        let shard = CampaignShard::from_parts(
            ShardSpec { index: 1, count: 3 },
            vec![],
            CampaignPerf {
                workers: 2,
                wall_seconds: 0.25,
                total_events: 7,
            },
        )
        .expect("valid spec");
        Message::ShardDone {
            job: "ab12".into(),
            shard,
        }
    }

    fn tiny_result() -> Message {
        use crate::campaign::{merge, CampaignPerf};
        let one = CampaignShard::from_parts(
            ShardSpec { index: 0, count: 1 },
            vec![],
            CampaignPerf {
                workers: 2,
                wall_seconds: 0.25,
                total_events: 7,
            },
        )
        .expect("valid spec");
        Message::Result {
            job: "ab12".into(),
            result: merge([one]).expect("merges"),
            outcomes: vec![
                AssertionOutcome {
                    kind: "throughput_at_least".into(),
                    passed: true,
                    cell: "TPC-C-1/baseline/c2/t8".into(),
                    expected: "steady throughput >= 0.001 txn/cycle".into(),
                    observed: "0.0123 txn/cycle".into(),
                },
                AssertionOutcome {
                    kind: "metric_within".into(),
                    passed: false,
                    cell: "TPC-E/strex/c4/t8".into(),
                    expected: "i_mpki in [1, 2]".into(),
                    observed: "3.5".into(),
                },
            ],
        }
    }

    #[test]
    fn payload_frames_round_trip_through_the_reader() {
        for msg in [tiny_shard_done(), tiny_result()] {
            let frame = msg.to_frame();
            let mut r = FrameReader::new(BufReader::new(frame.as_bytes()));
            let parsed = r.next_message().expect("parse").expect("one frame");
            assert_eq!(parsed.to_frame(), frame, "byte-identical re-emission");
            assert!(r.next_message().expect("eof").is_none(), "clean EOF");
        }
    }

    #[test]
    fn result_diagnostics_survive_the_frame() {
        let frame = tiny_result().to_frame();
        let mut r = FrameReader::new(BufReader::new(frame.as_bytes()));
        let Some(Message::Result { outcomes, .. }) = r.next_message().expect("parse") else {
            panic!("expected a result frame");
        };
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].passed && !outcomes[1].passed);
        assert_eq!(outcomes[1].cell, "TPC-E/strex/c4/t8");
    }

    /// The start of an older build's binary `shard_done` payload: magic,
    /// kind byte and the job string (no byte of it, or of its length, is
    /// a newline).
    const OLD_SHARD_DONE: [u8; 9] = [0xB1, b'D', 3, 0, 0, 0, b'j', b'o', b'b'];

    /// The layout an older build wrote `shard_done`, `checkpoint` and
    /// `result` frames in: a 0xB1 magic byte, a little-endian `u32`
    /// payload length, the payload and a newline.
    fn old_binary_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![0xB1];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.push(b'\n');
        frame
    }

    #[test]
    fn truncated_binary_frames_are_typed_errors() {
        let frame = old_binary_frame(&OLD_SHARD_DONE);
        // Cut after the magic, mid-length-prefix, mid-payload and right
        // before the trailing newline: the stream ends mid-line.
        for cut in [1, 3, frame.len() - 4, frame.len() - 1] {
            let mut r = FrameReader::new(BufReader::new(&frame[..cut]));
            match r.next_message() {
                Err(ProtoError::Truncated { bytes }) => assert_eq!(bytes, cut, "cut at {cut}"),
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_binary_frames_are_typed_errors_never_panics() {
        // Frames from an older build that spoke a binary framing: 0xB1 is
        // a UTF-8 continuation byte, so no JSON line starts with it, and
        // whatever length prefix and payload follow, the frame is refused
        // as malformed — a huge declared length allocates nothing.
        for frame in [
            old_binary_frame(&OLD_SHARD_DONE),
            old_binary_frame(&[0xB1, b'?']),
            vec![0xB1, 0xFF, 0xFF, 0xFF, 0xFF, b'\n'],
        ] {
            let mut r = FrameReader::new(BufReader::new(&frame[..]));
            match r.next_message() {
                Err(ProtoError::Malformed(e)) => assert!(e.contains("UTF-8"), "{e}"),
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_line_reader_stops_one_read_past_its_cap() {
        assert_eq!(MAX_FRAME, 256 * 1024 * 1024);
        const CAP: usize = 64;
        const READ: usize = 16;
        // A peer that never sends a newline: a typed error once the line
        // passes the cap, with no more than one read buffered beyond it.
        let mut endless = BufReader::with_capacity(READ, io::repeat(b'x'));
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_bounded(&mut endless, &mut buf, CAP),
            Err(ProtoError::Malformed(_))
        ));
        assert!(buf.len() > CAP && buf.len() <= CAP + READ, "{}", buf.len());

        // A line of exactly the cap, newline included, is accepted whole.
        let line = [vec![b'x'; CAP - 1], vec![b'\n']].concat();
        let mut r = BufReader::with_capacity(READ, &line[..]);
        buf.clear();
        assert!(read_line_bounded(&mut r, &mut buf, CAP).expect("fits"));
        assert_eq!(buf, line);
        buf.clear();
        assert!(!read_line_bounded(&mut r, &mut buf, CAP).expect("clean EOF"));
        assert!(buf.is_empty());
    }

    #[test]
    fn assign_rejects_invalid_shard_specs() {
        let err = Message::parse_frame(
            "{\"type\":\"assign\",\"job\":\"j\",\"campaign\":\"quick\",\"index\":4,\"count\":4}\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
    }

    #[test]
    fn submit_with_an_invalid_scenario_is_a_wire_error() {
        let err = Message::parse_frame(
            "{\"type\":\"submit\",\"scenario\":{\"name\":\"x\"},\"shards\":2}\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("scenario"), "{err}");
    }
}
