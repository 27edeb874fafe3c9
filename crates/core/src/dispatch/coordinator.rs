//! The coordinator: a pure job-lifecycle state machine plus its TCP shell.
//!
//! # The state machine
//!
//! [`Coordinator`] holds every piece of dispatcher state — jobs, the
//! worker fleet, the idempotent result cache, the per-submitter rate
//! limiter — and mutates it only through [`handle`](Coordinator::handle):
//! one event in (a decoded frame, a connect, a disconnect, a clock
//! tick), a list of [`Action`]s out. It performs **no I/O and reads no
//! clock**: the caller supplies the timestamp with every event, which is
//! what makes the failure paths (heartbeat timeout → re-queue, straggler
//! deadline → duplicate assignment, empty token bucket → typed reject)
//! testable on a [`FakeClock`](super::clock::FakeClock) without a socket
//! or a sleep in sight.
//!
//! # The job lifecycle
//!
//! A submission carries a [`JobSpec`] — a catalog name or a full
//! scenario document — and is keyed by [`job_key`] over the spec's
//! canonical text, so retrying a submission (same work, same shard
//! count) attaches to the in-flight job or returns the cached result
//! instead of running the matrix twice. A new job's shards enter a FIFO
//! queue; idle registered workers are assigned one shard each;
//! completions fill per-index slots. Delivery is
//! **at-least-once**: a dead worker's shard is re-queued, a straggler's
//! shard is re-assigned while the original may still finish — so the
//! same shard index can legitimately complete twice. The slot either-or
//! makes duplicates harmless (first completion wins, the rest are
//! dropped), and [`merge`](crate::campaign::merge())'s typed
//! `DuplicateShard`/`DuplicateCell` errors remain the backstop if that
//! invariant is ever broken. When every slot is full, the shards merge
//! into a [`CampaignResult`](crate::campaign::CampaignResult)
//! bit-identical to a sequential run; a scenario job's assertions are
//! then evaluated against the merged result, and every waiting submitter
//! receives the result plus the per-assertion diagnostics.
//!
//! While a shard runs, its worker reports each finished cell once in a
//! `checkpoint` frame. The coordinator holds those cells per shard index,
//! keyed by matrix index, until the slot fills, and no more of them than
//! one `assign` frame can carry; a re-queued shard goes out again with
//! them as `done`, so the next worker runs only the cells no report
//! reached. Holding a set makes duplicated or reordered
//! checkpoints harmless, and `shard_done` stays the authority on results.
//!
//! # Admission control
//!
//! Two policies guard the coordinator, both pure state over the injected
//! timestamps. A **token bucket per submitter identity** (peer IP in
//! production, `conn:<id>` for shells that never report one): a
//! submission takes one token, the bucket refills one token per
//! [`DispatchConfig::submit_refill_ms`] up to
//! [`DispatchConfig::submit_burst`], and an empty bucket is a typed
//! [`RejectReason::RateLimited`]. Buckets survive disconnects on
//! purpose — reconnecting must not refill them. A **bounded pending-job
//! queue**: at most [`DispatchConfig::max_pending_jobs`] distinct jobs
//! in flight; beyond it, *new* jobs are [`RejectReason::QueueFull`]
//! (attaching to an existing job or replaying a cached result is always
//! admitted — neither grows state).
//!
//! # The TCP shell
//!
//! [`Server`] is the thin I/O layer: one thread blocked in `accept`, one
//! reader thread per connection feeding a channel, one loop draining it
//! into the state machine and writing the resulting frames back out,
//! every socket with `TCP_NODELAY` set. All policy lives in the state
//! machine; the shell only moves bytes (and reports each connection's
//! peer IP so the rate limiter has an identity to key on).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::campaign::{fnv64, merge, CampaignCell, CampaignShard, ShardSpec};
use crate::scenario::EvaluatorRegistry;

use super::clock::Clock;
use super::journal::{replay_journal_file, Journal, JournalEntry};
use super::net::Acceptor;
use super::proto::{
    assign_frame_len, done_entry_len, write_message, FrameReader, JobSpec, Message, ProtoError,
    RejectReason, MAX_FRAME,
};
use super::status::{
    AssignmentStatus, JobStatus, RateStatus, StatusCounters, StatusReport, WorkerStatus,
};
use super::DispatchError;

/// Identifies one connection for the state machine's lifetime. The shell
/// allocates these; the state machine never looks inside.
pub type ConnId = u64;

/// Liveness, re-queue and admission policy.
#[derive(Copy, Clone, Debug)]
pub struct DispatchConfig {
    /// A worker silent (no frame of any kind) for longer than this is
    /// dead: it is dropped and its in-flight shard re-queued.
    pub worker_timeout_ms: u64,
    /// Cadence workers send [`Message::Heartbeat`] at. The coordinator
    /// does not enforce it directly — it only feeds `worker_timeout_ms`
    /// — but the serve CLI hands it to workers so the two stay
    /// consistent (timeout is a multiple of the cadence).
    pub heartbeat_interval_ms: u64,
    /// A shard assigned for longer than this is re-queued even if its
    /// worker is still heartbeating (straggler hedge). The original
    /// worker keeps running — whichever completion arrives first wins,
    /// the other is deduplicated. Generous by default: a straggler
    /// re-queue costs a duplicate shard execution.
    pub shard_deadline_ms: u64,
    /// Token-bucket capacity per submitter identity: how many
    /// submissions one submitter may burst before the refill cadence
    /// gates it.
    pub submit_burst: u64,
    /// One token returns to a submitter's bucket per this many
    /// milliseconds (0 disables rate limiting: the bucket snaps back to
    /// `submit_burst` on every submission).
    pub submit_refill_ms: u64,
    /// At most this many distinct jobs in flight; submissions that
    /// would create one more are rejected `queue_full`.
    pub max_pending_jobs: usize,
    /// Once a frame's first byte arrives, the rest must follow within
    /// this deadline or the connection is dropped ([`ProtoError::Stalled`]).
    /// Guards the reader threads against byte-dribbling peers; `0`
    /// disables the deadline.
    pub frame_deadline_ms: u64,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            worker_timeout_ms: 10_000,
            heartbeat_interval_ms: 1_000,
            shard_deadline_ms: 600_000,
            submit_burst: 10,
            submit_refill_ms: 1_000,
            max_pending_jobs: 64,
            frame_deadline_ms: 30_000,
        }
    }
}

/// What happened, as the shell observed it.
#[derive(Debug)]
pub enum Event {
    /// A connection was accepted; `identity` is the submitter identity
    /// the rate limiter keys on (the peer IP, in the TCP shell). A
    /// connection that never reports one falls back to `conn:<id>`.
    Connected(ConnId, String),
    /// A decoded frame arrived from `ConnId`.
    Message(ConnId, Message),
    /// The connection closed or failed (EOF, transport error, malformed
    /// frame). The shell reports them all the same way: the peer is gone.
    Disconnected(ConnId),
    /// Time passed; re-check deadlines. The shell emits one per poll
    /// interval; tests emit them by hand around fake-clock advances.
    Tick,
}

/// What the shell must do, in order.
#[derive(Debug)]
pub enum Action {
    /// Write one frame to a connection.
    Send(ConnId, Message),
    /// Close a connection (after any preceding sends to it).
    Close(ConnId),
    /// A job finished and its result was delivered. The shell uses this
    /// to honor `--jobs N` run bounds; no I/O is implied.
    JobCompleted {
        /// The finished job's idempotency key.
        job: String,
    },
    /// A worker died (disconnect or heartbeat timeout). Informational —
    /// the shard re-queue already happened; the shell logs it.
    WorkerLost {
        /// The label the worker registered with.
        name: String,
        /// How the loss was detected.
        reason: WorkerLossReason,
        /// The shard that was in flight on the worker, if any (already
        /// back in the queue unless it had completed elsewhere).
        requeued: Option<ShardSpec>,
    },
}

/// How a worker's death was detected.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum WorkerLossReason {
    /// The connection closed or failed.
    Disconnected,
    /// No frame within `worker_timeout_ms`.
    HeartbeatTimeout,
}

impl fmt::Display for WorkerLossReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerLossReason::Disconnected => write!(f, "connection lost"),
            WorkerLossReason::HeartbeatTimeout => write!(f, "heartbeat timeout"),
        }
    }
}

/// The idempotency key of a submission: FNV-1a over
/// `"<canonical work>/<shards>"` — the catalog name, or the scenario's
/// deterministic JSON — rendered as 16 hex digits. Same spec, same key —
/// across submitters, processes and machines — so duplicate submissions
/// coalesce onto one job.
pub fn job_key(work: &str, shards: usize) -> String {
    format!("{:016x}", fnv64(&format!("{work}/{shards}")))
}

/// One submitter's token bucket: all-integer arithmetic over the
/// injected timestamps, so FakeClock tests are exact.
#[derive(Debug)]
struct TokenBucket {
    tokens: u64,
    last_refill_ms: u64,
}

impl TokenBucket {
    fn new(now_ms: u64, burst: u64) -> TokenBucket {
        TokenBucket {
            tokens: burst,
            last_refill_ms: now_ms,
        }
    }

    /// Credits whole elapsed refill intervals, keeping the remainder
    /// (the bucket's epoch advances by the credited intervals only, so
    /// fractional progress toward the next token is never lost).
    fn refill(&mut self, now_ms: u64, burst: u64, refill_ms: u64) {
        if refill_ms == 0 {
            self.tokens = burst;
            self.last_refill_ms = now_ms;
            return;
        }
        let earned = now_ms.saturating_sub(self.last_refill_ms) / refill_ms;
        if earned > 0 {
            self.tokens = self.tokens.saturating_add(earned).min(burst);
            self.last_refill_ms += earned * refill_ms;
        }
    }

    /// What [`refill`](TokenBucket::refill) would leave available,
    /// without mutating — the status report's read-only view.
    fn projected(&self, now_ms: u64, burst: u64, refill_ms: u64) -> u64 {
        if refill_ms == 0 {
            return burst;
        }
        let earned = now_ms.saturating_sub(self.last_refill_ms) / refill_ms;
        self.tokens.saturating_add(earned).min(burst)
    }

    fn try_take(&mut self) -> bool {
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// A shard assigned to a worker.
#[derive(Debug)]
struct Assignment {
    job: String,
    spec: ShardSpec,
    since_ms: u64,
    /// Already re-queued by the straggler deadline — don't re-queue again.
    hedged: bool,
}

/// One registered worker.
#[derive(Debug)]
struct WorkerState {
    name: String,
    cores: usize,
    last_seen_ms: u64,
    assignment: Option<Assignment>,
}

/// One in-flight job.
#[derive(Debug)]
struct Job {
    work: JobSpec,
    count: usize,
    /// Shard indices waiting for a worker.
    queue: VecDeque<usize>,
    /// Completion slots: first finished shard per index wins.
    done: Vec<Option<CampaignShard>>,
    /// Submitter connections awaiting the result.
    waiters: Vec<ConnId>,
    /// Finished cells per shard index, from advisory `checkpoint` frames.
    /// A re-queued shard is re-assigned with them as `done`, so the next
    /// worker skips the cells already simulated. A shard's cells are
    /// dropped the moment its slot fills.
    progress: BTreeMap<usize, Held>,
}

impl Job {
    fn complete(&self) -> bool {
        self.done.iter().all(Option::is_some)
    }
}

/// The cells workers reported finished for one shard, keyed by matrix
/// index, and the exact length of the `assign` frame that re-sends them.
#[derive(Debug)]
struct Held {
    cells: BTreeMap<usize, CampaignCell>,
    frame_len: usize,
}

impl Held {
    fn new(job: &str, work: &JobSpec, spec: ShardSpec) -> Held {
        Held {
            cells: BTreeMap::new(),
            frame_len: assign_frame_len(job, work, spec),
        }
    }

    /// Holds `cell` at `index` unless the index is held already or the
    /// re-sent `assign` would outgrow `limit` bytes. Nothing bounds the
    /// indices a peer reports, so the frame length is what keeps the held
    /// cells, and the frame every heir must read, finite.
    fn admit(&mut self, index: usize, cell: CampaignCell, limit: usize) {
        if self.cells.contains_key(&index) {
            return;
        }
        let frame_len = self.frame_len + done_entry_len(index, &cell);
        if frame_len <= limit {
            self.frame_len = frame_len;
            self.cells.insert(index, cell);
        }
    }
}

/// The dispatcher's entire state; see the module docs for the lifecycle.
pub struct Coordinator {
    cfg: DispatchConfig,
    /// Campaign names this coordinator accepts.
    catalog: Vec<String>,
    jobs: BTreeMap<String, Job>,
    workers: BTreeMap<ConnId, WorkerState>,
    /// Serialized results of finished jobs, by job key — the idempotency
    /// cache. A re-submission of a finished spec is answered from here
    /// without touching a worker.
    finished: BTreeMap<String, Message>,
    /// Submitter identity per connection, reported by the shell at
    /// accept; removed on disconnect.
    peers: BTreeMap<ConnId, String>,
    /// Token buckets by submitter identity. Never pruned on disconnect:
    /// a reconnect must find the bucket it drained.
    buckets: BTreeMap<String, TokenBucket>,
    /// Judges scenario assertions against merged results.
    registry: EvaluatorRegistry,
    counters: StatusCounters,
}

/// Upper bound on the shard count of one submission; far beyond any real
/// fleet, it only keeps a hostile submitter from making the coordinator
/// allocate unbounded queues.
pub const MAX_SHARDS: usize = 4096;

impl Coordinator {
    /// A coordinator accepting the campaign names in `catalog` (scenario
    /// submissions are always accepted — they carry their own matrix).
    pub fn new(cfg: DispatchConfig, catalog: impl IntoIterator<Item = String>) -> Self {
        Coordinator {
            cfg,
            catalog: catalog.into_iter().collect(),
            jobs: BTreeMap::new(),
            workers: BTreeMap::new(),
            finished: BTreeMap::new(),
            peers: BTreeMap::new(),
            buckets: BTreeMap::new(),
            registry: EvaluatorRegistry::with_defaults(),
            counters: StatusCounters::default(),
        }
    }

    /// Registered workers currently alive.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs with unmerged shards.
    pub fn open_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Advances the state machine by one event observed at `now_ms`.
    pub fn handle(&mut self, now_ms: u64, event: Event) -> Vec<Action> {
        let mut actions = Vec::new();
        match event {
            Event::Connected(conn, identity) => {
                self.peers.insert(conn, identity);
            }
            Event::Message(conn, msg) => self.on_message(now_ms, conn, msg, &mut actions),
            Event::Disconnected(conn) => self.on_disconnect(conn, &mut actions),
            Event::Tick => {}
        }
        self.reap_dead_workers(now_ms, &mut actions);
        self.hedge_stragglers(now_ms);
        self.assign_pending(now_ms, &mut actions);
        actions
    }

    /// The identity a connection's submissions are rate-limited under.
    fn identity(&self, conn: ConnId) -> String {
        self.peers
            .get(&conn)
            .cloned()
            .unwrap_or_else(|| format!("conn:{conn}"))
    }

    /// One refusal: typed reject frame, close, counted.
    fn reject(
        &mut self,
        conn: ConnId,
        reason: RejectReason,
        message: String,
        actions: &mut Vec<Action>,
    ) {
        self.counters.rejections += 1;
        actions.push(Action::Send(conn, Message::Reject { reason, message }));
        actions.push(Action::Close(conn));
    }

    fn on_message(&mut self, now_ms: u64, conn: ConnId, msg: Message, actions: &mut Vec<Action>) {
        if let Some(w) = self.workers.get_mut(&conn) {
            w.last_seen_ms = now_ms;
        }
        match msg {
            Message::Submit { work, shards } => self.on_submit(now_ms, conn, work, shards, actions),
            Message::Register { name, cores } => {
                // Registration refreshes name/cores but must carry any
                // in-flight assignment over: a duplicated register frame
                // that reset the slot to idle would leak the assigned
                // shard out of queued/running/done for good.
                let assignment = self.workers.remove(&conn).and_then(|w| w.assignment);
                self.workers.insert(
                    conn,
                    WorkerState {
                        name,
                        cores,
                        last_seen_ms: now_ms,
                        assignment,
                    },
                );
            }
            Message::Heartbeat => {}
            Message::ShardDone { job, shard } => self.on_shard_done(conn, job, shard, actions),
            Message::Checkpoint { job, spec, cell } => self.on_checkpoint(job, spec, *cell),
            Message::StatusRequest => {
                // Answered in place; the connection stays open so a
                // watcher can poll on one socket.
                actions.push(Action::Send(
                    conn,
                    Message::Status {
                        report: self.status(now_ms),
                    },
                ));
            }
            // Coordinator-bound connections have no business sending
            // coordinator-to-peer messages; drop them.
            Message::Assign { .. }
            | Message::Result { .. }
            | Message::Reject { .. }
            | Message::Status { .. } => {
                self.reject(
                    conn,
                    RejectReason::Protocol,
                    "unexpected message direction".to_string(),
                    actions,
                );
            }
        }
    }

    fn on_submit(
        &mut self,
        now_ms: u64,
        conn: ConnId,
        work: JobSpec,
        shards: usize,
        actions: &mut Vec<Action>,
    ) {
        // Admission first: the rate limiter sees every submission,
        // including invalid and replayed ones — a hot submitter must not
        // dodge the limiter by hammering the cache.
        let identity = self.identity(conn);
        let (burst, refill_ms) = (self.cfg.submit_burst, self.cfg.submit_refill_ms);
        let bucket = self
            .buckets
            .entry(identity)
            .or_insert_with(|| TokenBucket::new(now_ms, burst));
        bucket.refill(now_ms, burst, refill_ms);
        if !bucket.try_take() {
            self.reject(
                conn,
                RejectReason::RateLimited,
                format!(
                    "rate limited: burst {burst} exhausted, one token returns every {refill_ms} ms"
                ),
                actions,
            );
            return;
        }
        if let JobSpec::Catalog(name) = &work {
            if !self.catalog.contains(name) {
                self.reject(
                    conn,
                    RejectReason::UnknownCampaign,
                    format!("unknown campaign {name:?}"),
                    actions,
                );
                return;
            }
        }
        if shards == 0 || shards > MAX_SHARDS {
            self.reject(
                conn,
                RejectReason::InvalidShards,
                format!("shard count {shards} outside 1..={MAX_SHARDS}"),
                actions,
            );
            return;
        }
        let key = job_key(&work.canonical(), shards);
        if let Some(result) = self.finished.get(&key) {
            // Idempotent replay: answered from the cache, no worker touched.
            self.counters.submissions += 1;
            actions.push(Action::Send(conn, result.clone()));
            actions.push(Action::Close(conn));
            return;
        }
        if !self.jobs.contains_key(&key) && self.jobs.len() >= self.cfg.max_pending_jobs {
            self.reject(
                conn,
                RejectReason::QueueFull,
                format!(
                    "pending-job queue full ({} jobs in flight, cap {})",
                    self.jobs.len(),
                    self.cfg.max_pending_jobs
                ),
                actions,
            );
            return;
        }
        self.counters.submissions += 1;
        self.jobs
            .entry(key)
            .or_insert_with(|| Job {
                work,
                count: shards,
                queue: (0..shards).collect(),
                done: (0..shards).map(|_| None).collect(),
                waiters: Vec::new(),
                progress: BTreeMap::new(),
            })
            .waiters
            .push(conn);
    }

    fn on_shard_done(
        &mut self,
        conn: ConnId,
        job_id: String,
        shard: CampaignShard,
        actions: &mut Vec<Action>,
    ) {
        // The worker is idle again — but only if this delivery answers
        // its *current* assignment. A duplicated `shard_done` (network
        // dup, or a straggler answering after a hedge) arriving after the
        // worker was handed its next shard must not wipe that in-flight
        // assignment: the slot is the only record of the new shard, and
        // clearing it here would leak the shard out of queued/running/done
        // entirely if the connection then died before delivering it.
        if let Some(w) = self.workers.get_mut(&conn) {
            if w.assignment
                .as_ref()
                .is_some_and(|a| a.job == job_id && a.spec == shard.spec())
            {
                w.assignment = None;
            }
        }
        let Some(job) = self.jobs.get_mut(&job_id) else {
            // Unknown or already-finished job — a straggler's duplicate
            // after the merge. At-least-once delivery makes this normal.
            return;
        };
        let spec = shard.spec();
        if spec.count != job.count || spec.index >= job.count {
            // A shard of some other partitioning cannot tile this job.
            return;
        }
        let slot = &mut job.done[spec.index];
        if slot.is_none() {
            *slot = Some(shard);
            self.counters.shards_completed += 1;
            // The shard is finished: its reported cells are obsolete, and
            // a still-queued copy (hedge, or journal replay with no
            // workers to drain the queue) would only re-run completed work.
            job.progress.remove(&spec.index);
            job.queue.retain(|&queued| queued != spec.index);
        }
        // else: duplicate completion from a hedged straggler — first one
        // won, this one is dropped (merge's DuplicateShard is the backstop).
        if job.complete() {
            let job = self.jobs.remove(&job_id).expect("checked present");
            let outcome = match merge(job.done.into_iter().flatten()) {
                // The merged result is bit-identical to a sequential run;
                // a scenario job's assertions are judged against it here,
                // so every waiter receives the same diagnostics an
                // in-process `repro check` would print.
                Ok(result) => match &job.work {
                    JobSpec::Catalog(_) => Message::Result {
                        job: job_id.clone(),
                        result,
                        outcomes: Vec::new(),
                    },
                    JobSpec::Scenario(s) => match s.evaluate(&result, &self.registry) {
                        Ok(outcomes) => Message::Result {
                            job: job_id.clone(),
                            result,
                            outcomes,
                        },
                        Err(e) => Message::Reject {
                            reason: RejectReason::MergeFailed,
                            message: format!("assertion evaluation failed: {e}"),
                        },
                    },
                },
                // Unreachable while the slot invariant holds; reported as
                // a typed rejection rather than a panic if it ever breaks.
                Err(e) => Message::Reject {
                    reason: RejectReason::MergeFailed,
                    message: format!("merge failed: {e}"),
                },
            };
            self.counters.jobs_completed += 1;
            for waiter in job.waiters {
                actions.push(Action::Send(waiter, outcome.clone()));
                actions.push(Action::Close(waiter));
            }
            self.finished.insert(job_id.clone(), outcome);
            actions.push(Action::JobCompleted { job: job_id });
        }
    }

    /// Holds one finished cell a worker reported for an in-flight shard.
    /// Best-effort by design: anything that does not line up (finished
    /// job, foreign partitioning, a completed slot, a cell the shard does
    /// not own, a cell that would push the re-sent `assign` past
    /// [`MAX_FRAME`]) is silently dropped — losing a checkpoint only costs
    /// re-simulation, never correctness. The first report of a matrix
    /// index wins; a repeat (hedged duplicate, network dup) changes
    /// nothing.
    fn on_checkpoint(
        &mut self,
        job_id: String,
        spec: ShardSpec,
        (index, cell): (usize, CampaignCell),
    ) {
        let Some(job) = self.jobs.get_mut(&job_id) else {
            return;
        };
        if spec.count != job.count
            || spec.index >= job.count
            || job.done[spec.index].is_some()
            || !spec.owns(&cell.key)
        {
            return;
        }
        let Job { work, progress, .. } = job;
        progress
            .entry(spec.index)
            .or_insert_with(|| Held::new(&job_id, work, spec))
            .admit(index, cell, MAX_FRAME);
    }

    fn on_disconnect(&mut self, conn: ConnId, actions: &mut Vec<Action>) {
        self.peers.remove(&conn);
        if let Some(worker) = self.workers.remove(&conn) {
            let requeued = worker.assignment.as_ref().map(|a| a.spec);
            if let Some(assignment) = worker.assignment {
                self.requeue(assignment);
            }
            actions.push(Action::WorkerLost {
                name: worker.name,
                reason: WorkerLossReason::Disconnected,
                requeued,
            });
        }
        for job in self.jobs.values_mut() {
            job.waiters.retain(|w| *w != conn);
        }
    }

    /// Returns an un-completed, un-hedged assignment's shard to its job's
    /// queue.
    fn requeue(&mut self, assignment: Assignment) {
        if assignment.hedged {
            // The straggler deadline already re-queued this shard.
            return;
        }
        if let Some(job) = self.jobs.get_mut(&assignment.job) {
            let index = assignment.spec.index;
            if job.done[index].is_none() && !job.queue.contains(&index) {
                job.queue.push_back(index);
            }
        }
    }

    /// Drops workers whose last frame is older than the liveness timeout
    /// and re-queues their shards.
    fn reap_dead_workers(&mut self, now_ms: u64, actions: &mut Vec<Action>) {
        let dead: Vec<ConnId> = self
            .workers
            .iter()
            .filter(|(_, w)| now_ms.saturating_sub(w.last_seen_ms) > self.cfg.worker_timeout_ms)
            .map(|(&conn, _)| conn)
            .collect();
        for conn in dead {
            let worker = self.workers.remove(&conn).expect("collected above");
            let requeued = worker.assignment.as_ref().map(|a| a.spec);
            if let Some(assignment) = worker.assignment {
                self.requeue(assignment);
            }
            actions.push(Action::WorkerLost {
                name: worker.name,
                reason: WorkerLossReason::HeartbeatTimeout,
                requeued,
            });
            actions.push(Action::Close(conn));
        }
    }

    /// Re-queues shards that have been assigned for longer than the
    /// straggler deadline, leaving the original worker running (first
    /// completion wins).
    fn hedge_stragglers(&mut self, now_ms: u64) {
        let mut hedged: Vec<Assignment> = Vec::new();
        for worker in self.workers.values_mut() {
            if let Some(a) = worker.assignment.as_mut() {
                if !a.hedged && now_ms.saturating_sub(a.since_ms) > self.cfg.shard_deadline_ms {
                    hedged.push(Assignment {
                        job: a.job.clone(),
                        spec: a.spec,
                        since_ms: a.since_ms,
                        hedged: false,
                    });
                    a.hedged = true;
                }
            }
        }
        for assignment in hedged {
            self.requeue(assignment);
        }
    }

    /// Hands queued shards to idle workers, FIFO over jobs in key order
    /// and over workers in connection order.
    fn assign_pending(&mut self, now_ms: u64, actions: &mut Vec<Action>) {
        let Coordinator { jobs, workers, .. } = self;
        let mut idle = workers.iter_mut().filter(|(_, w)| w.assignment.is_none());
        for (job_id, job) in jobs.iter_mut() {
            while !job.queue.is_empty() {
                let Some((&conn, worker)) = idle.next() else {
                    return;
                };
                let index = job.queue.pop_front().expect("checked non-empty");
                let spec = ShardSpec {
                    index,
                    count: job.count,
                };
                worker.assignment = Some(Assignment {
                    job: job_id.clone(),
                    spec,
                    since_ms: now_ms,
                    hedged: false,
                });
                let done = job.progress.get(&index).map_or_else(Vec::new, |held| {
                    held.cells
                        .iter()
                        .map(|(&i, cell)| (i, cell.clone()))
                        .collect()
                });
                actions.push(Action::Send(
                    conn,
                    Message::Assign {
                        job: job_id.clone(),
                        work: job.work.clone(),
                        spec,
                        done,
                    },
                ));
            }
        }
    }

    /// Snapshots the fleet as of `now_ms`: what a `status` frame answers
    /// with. Read-only — polling status must not perturb the state
    /// machine (bucket refills are projected, not applied).
    pub fn status(&self, now_ms: u64) -> StatusReport {
        let jobs = self
            .jobs
            .iter()
            .map(|(key, job)| JobStatus {
                key: key.clone(),
                label: job.work.label().to_string(),
                shards: job.count,
                done: job.done.iter().filter(|s| s.is_some()).count(),
                queued: job.queue.len(),
                running: self
                    .workers
                    .values()
                    .filter(|w| w.assignment.as_ref().is_some_and(|a| &a.job == key))
                    .count(),
                waiters: job.waiters.len(),
            })
            .collect();
        let workers = self
            .workers
            .values()
            .map(|w| WorkerStatus {
                name: w.name.clone(),
                cores: w.cores,
                last_seen_ms_ago: now_ms.saturating_sub(w.last_seen_ms),
                assignment: w.assignment.as_ref().map(|a| AssignmentStatus {
                    job: a.job.clone(),
                    index: a.spec.index,
                    count: a.spec.count,
                    running_ms: now_ms.saturating_sub(a.since_ms),
                    hedged: a.hedged,
                }),
            })
            .collect();
        let rate = self
            .buckets
            .iter()
            .map(|(peer, bucket)| RateStatus {
                peer: peer.clone(),
                tokens: bucket.projected(now_ms, self.cfg.submit_burst, self.cfg.submit_refill_ms),
            })
            .collect();
        StatusReport {
            now_ms,
            queue_depth: self.jobs.values().map(|j| j.queue.len()).sum(),
            counters: self.counters.clone(),
            jobs,
            workers,
            rate,
        }
    }

    /// Rebuilds durable state from a journal: each recorded frame is
    /// replayed through [`handle`](Coordinator::handle) at its recorded
    /// timestamp (so rate-limit accounting is exact), then every journal
    /// connection is synthetically disconnected — the peers behind them
    /// are gone, and their waiter slots must not leak onto whatever
    /// connections the restarted shell hands out next.
    ///
    /// Only submitter/worker *data* frames are journaled (never
    /// `register`/`heartbeat`), so replay re-creates jobs, completion
    /// slots, reported cells, the finished-result cache and the token
    /// buckets — but no phantom workers, and `assign_pending` stays a
    /// no-op throughout.
    pub fn replay_journal(&mut self, entries: Vec<JournalEntry>) {
        let mut conns: BTreeSet<ConnId> = BTreeSet::new();
        let mut last_now_ms = 0;
        for entry in entries {
            conns.insert(entry.conn);
            last_now_ms = last_now_ms.max(entry.now_ms);
            self.peers.insert(entry.conn, entry.peer);
            let _ = self.handle(entry.now_ms, Event::Message(entry.conn, entry.msg));
        }
        for conn in conns {
            let _ = self.handle(last_now_ms, Event::Disconnected(conn));
        }
    }

    /// Re-bases every token bucket's refill epoch to `now_ms`, keeping
    /// the replayed token counts. After a restart the journal's
    /// timestamps come from the dead process's clock (the system clock
    /// counts from process start), so elapsed-time credit across the
    /// outage cannot be computed — this conservatively grants none:
    /// peers resume with the tokens they had and earn from now.
    pub fn rebase_buckets(&mut self, now_ms: u64) {
        for bucket in self.buckets.values_mut() {
            bucket.last_refill_ms = now_ms;
        }
    }
}

/// How long a [`Server`] run may keep going, and where it journals.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Stop (cleanly: listener closed, connections dropped) after this
    /// many jobs complete. `None` serves forever.
    pub max_jobs: Option<usize>,
    /// Append-only job journal. When set, every durable frame
    /// (`submit`, `shard_done`, `checkpoint`) is fsync'd here *before*
    /// the state machine sees it, and an existing file is replayed
    /// before the listener accepts — so a crashed coordinator restarted
    /// on the same journal resumes its jobs instead of losing them.
    pub journal: Option<PathBuf>,
    /// External stop flag, polled every drain interval. Lets a harness
    /// (the chaos suite, a signal handler) end an unbounded serve
    /// cleanly — or kill one mid-job to exercise the journal.
    pub stop: Option<Arc<AtomicBool>>,
}

/// What a bounded [`Server::run`] did.
#[derive(Copy, Clone, Debug)]
pub struct ServeSummary {
    /// Jobs completed and delivered.
    pub jobs_completed: usize,
}

/// Internal: what a reader or accept thread reports upward.
enum ConnEvent {
    Opened(ConnId, String),
    Frame(ConnId, Message),
    Gone(ConnId, Option<ProtoError>),
}

/// The coordinator's TCP shell. Bind first (so the caller learns the
/// ephemeral port before anything races), then [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    coordinator: Coordinator,
    clock: Arc<dyn Clock>,
}

impl Server {
    /// Binds `addr` and prepares a coordinator for `catalog`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: DispatchConfig,
        catalog: impl IntoIterator<Item = String>,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            coordinator: Coordinator::new(cfg, catalog),
            clock,
        })
    }

    /// The address actually bound (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `opts.max_jobs` jobs complete (forever when `None`).
    ///
    /// Reader threads decode frames off each connection into a channel;
    /// this loop drains it into the state machine and performs the
    /// actions. A connection whose peer speaks garbage is treated exactly
    /// like one that died: disconnected, shard re-queued.
    pub fn run(mut self, opts: ServeOptions) -> Result<ServeSummary, DispatchError> {
        // Durability first: replay an existing journal into the state
        // machine before the listener accepts anything, then open it for
        // write-ahead appends. Replayed timestamps belong to the dead
        // process's clock, so bucket epochs are re-based to ours.
        let mut journal = match &opts.journal {
            Some(path) => {
                let entries = replay_journal_file(path).map_err(DispatchError::Io)?;
                if !entries.is_empty() {
                    eprintln!(
                        "dispatch: replayed {} journal record(s) from {}",
                        entries.len(),
                        path.display()
                    );
                    self.coordinator.replay_journal(entries);
                    self.coordinator.rebase_buckets(self.clock.now_ms());
                }
                Some(Journal::open_append(path).map_err(DispatchError::Io)?)
            }
            None => None,
        };

        let (tx, rx) = mpsc::channel::<ConnEvent>();
        let writers: Arc<Mutex<BTreeMap<ConnId, TcpStream>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let frame_deadline_ms = self.coordinator.cfg.frame_deadline_ms;
        let mut acceptor = {
            let writers = Arc::clone(&writers);
            let clock = Arc::clone(&self.clock);
            let mut next_id: ConnId = 1;
            Acceptor::spawn(self.listener.try_clone()?, Arc::default(), move |stream| {
                let conn = next_id;
                next_id += 1;
                // The submitter identity the rate limiter keys on: the
                // peer IP, not the port, so one host's reconnects share a
                // bucket.
                let identity = stream
                    .peer_addr()
                    .map(|a| a.ip().to_string())
                    .unwrap_or_else(|_| "unknown".to_string());
                if let Ok(write_half) = stream.try_clone() {
                    writers.lock().expect("writer map").insert(conn, write_half);
                    let _ = tx.send(ConnEvent::Opened(conn, identity));
                    spawn_reader(
                        conn,
                        stream,
                        tx.clone(),
                        frame_deadline_ms,
                        Arc::clone(&clock),
                    );
                }
            })?
        };

        let served = self.serve(&opts, &rx, &writers, journal.as_mut());
        // One shutdown for every exit: the run bound, the stop flag and a
        // failed journal append. The acceptor is joined before the sweep,
        // so no connection it accepts while stopping escapes it. Shutting
        // every connection down gives workers EOF, and they exit.
        acceptor.shutdown();
        for (_, stream) in std::mem::take(&mut *writers.lock().expect("writer map")) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        served.map(|jobs_completed| ServeSummary { jobs_completed })
    }

    /// Drains connection events into the state machine and performs its
    /// actions until the run bound is reached or the stop flag is raised
    /// (`Ok` with the jobs completed), or a journal append fails.
    fn serve(
        &mut self,
        opts: &ServeOptions,
        rx: &mpsc::Receiver<ConnEvent>,
        writers: &Mutex<BTreeMap<ConnId, TcpStream>>,
        mut journal: Option<&mut Journal>,
    ) -> Result<usize, DispatchError> {
        // Submitter identity per live connection, mirrored from Opened
        // events so journal records carry the identity the rate limiter
        // will key on at replay.
        let mut identities: BTreeMap<ConnId, String> = BTreeMap::new();
        let mut completed = 0usize;
        loop {
            if opts
                .stop
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::SeqCst))
            {
                return Ok(completed);
            }
            let event = match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(ConnEvent::Opened(conn, identity)) => {
                    identities.insert(conn, identity.clone());
                    Event::Connected(conn, identity)
                }
                Ok(ConnEvent::Frame(conn, msg)) => {
                    // Write-ahead: the journal holds the frame before the
                    // state machine acts on it, so a crash at any point
                    // leaves the ledger a superset of the applied state —
                    // replay is idempotent, loss is not.
                    if let Some(journal) = journal.as_deref_mut() {
                        if Journal::records(&msg) {
                            let peer = identities
                                .get(&conn)
                                .cloned()
                                .unwrap_or_else(|| format!("conn:{conn}"));
                            if let Err(e) = journal.append(self.clock.now_ms(), conn, &peer, &msg) {
                                // The durability promise is broken; better
                                // to die visibly than serve amnesiac.
                                eprintln!("dispatch: journal append failed: {e}");
                                return Err(DispatchError::Io(e));
                            }
                        }
                    }
                    Event::Message(conn, msg)
                }
                Ok(ConnEvent::Gone(conn, reason)) => {
                    if let Some(err) = reason {
                        eprintln!("dispatch: connection {conn} lost: {err}");
                    }
                    identities.remove(&conn);
                    writers.lock().expect("writer map").remove(&conn);
                    Event::Disconnected(conn)
                }
                Err(mpsc::RecvTimeoutError::Timeout) => Event::Tick,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(completed),
            };
            let actions = self.coordinator.handle(self.clock.now_ms(), event);
            for action in actions {
                match action {
                    Action::Send(conn, msg) => {
                        let mut writers = writers.lock().expect("writer map");
                        if let Some(stream) = writers.get_mut(&conn) {
                            if let Err(e) = write_message(stream, &msg) {
                                eprintln!("dispatch: write to connection {conn} failed: {e}");
                                writers.remove(&conn);
                                // The reader thread will report Gone; the
                                // state machine hears about it next drain.
                            }
                        }
                    }
                    Action::Close(conn) => {
                        if let Some(stream) = writers.lock().expect("writer map").remove(&conn) {
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                        }
                    }
                    Action::JobCompleted { .. } => {
                        completed += 1;
                        if opts.max_jobs.is_some_and(|max| completed >= max) {
                            return Ok(completed);
                        }
                    }
                    Action::WorkerLost {
                        name,
                        reason,
                        requeued,
                    } => match requeued {
                        Some(spec) => eprintln!(
                            "dispatch: worker {name:?} lost ({reason}); shard {spec} re-queued"
                        ),
                        None => eprintln!("dispatch: worker {name:?} lost ({reason}); was idle"),
                    },
                }
            }
        }
    }
}

/// One reader thread: frames (or the reason the connection died) into the
/// shared channel. A protocol violation ends the connection — same as a
/// death, so the state machine has exactly one failure path. A non-zero
/// `frame_deadline_ms` arms the per-frame stall deadline: the socket gets
/// a short read timeout so the deadline is polled, and a peer that opens
/// a frame but dribbles it out is dropped with [`ProtoError::Stalled`].
fn spawn_reader(
    conn: ConnId,
    stream: TcpStream,
    tx: mpsc::Sender<ConnEvent>,
    frame_deadline_ms: u64,
    clock: Arc<dyn Clock>,
) {
    std::thread::spawn(move || {
        if frame_deadline_ms > 0 {
            let poll = (frame_deadline_ms / 4).clamp(10, 1_000);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(poll)));
        }
        let mut reader =
            FrameReader::with_deadline(BufReader::new(stream), frame_deadline_ms, clock);
        loop {
            match reader.next_message() {
                Ok(Some(msg)) => {
                    if tx.send(ConnEvent::Frame(conn, msg)).is_err() {
                        return;
                    }
                }
                Ok(None) => {
                    let _ = tx.send(ConnEvent::Gone(conn, None));
                    return;
                }
                Err(e) => {
                    let _ = tx.send(ConnEvent::Gone(conn, Some(e)));
                    return;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(campaign: &str, shards: usize) -> Message {
        Message::Submit {
            work: JobSpec::Catalog(campaign.to_string()),
            shards,
        }
    }

    #[test]
    fn job_keys_are_idempotent_and_spec_sensitive() {
        assert_eq!(job_key("quick", 4), job_key("quick", 4));
        assert_ne!(job_key("quick", 4), job_key("quick", 5));
        assert_ne!(job_key("quick", 4), job_key("slow", 4));
        assert_eq!(job_key("quick", 4).len(), 16, "16 hex digits");
    }

    #[test]
    fn unknown_campaigns_and_bad_shard_counts_are_rejected() {
        let mut c = Coordinator::new(DispatchConfig::default(), ["quick".to_string()]);
        for (campaign, shards, reason) in [
            ("nope", 2, RejectReason::UnknownCampaign),
            ("quick", 0, RejectReason::InvalidShards),
            ("quick", MAX_SHARDS + 1, RejectReason::InvalidShards),
        ] {
            let actions = c.handle(0, Event::Message(7, submit(campaign, shards)));
            match &actions[0] {
                Action::Send(7, Message::Reject { reason: got, .. }) => {
                    assert_eq!(*got, reason, "{campaign}/{shards}")
                }
                other => panic!("{campaign}/{shards}: {other:?}"),
            }
            assert!(matches!(&actions[1], Action::Close(7)));
            assert_eq!(c.open_jobs(), 0);
        }
        assert_eq!(c.status(0).counters.rejections, 3);
    }

    #[test]
    fn wrong_direction_messages_close_the_connection() {
        let mut c = Coordinator::new(DispatchConfig::default(), ["quick".to_string()]);
        let actions = c.handle(
            3,
            Event::Message(
                9,
                Message::Reject {
                    reason: RejectReason::Protocol,
                    message: "confused peer".into(),
                },
            ),
        );
        assert!(matches!(
            &actions[0],
            Action::Send(
                9,
                Message::Reject {
                    reason: RejectReason::Protocol,
                    ..
                }
            )
        ));
        assert!(matches!(&actions[1], Action::Close(9)));
    }

    /// Shard 0 of a two-way split of a small simulated matrix.
    fn first_shard() -> CampaignShard {
        use crate::campaign::Campaign;
        use crate::config::{SchedulerKind, SimConfig};
        use strex_oltp::workload::{Workload, WorkloadKind};

        let w = Workload::preset_small(WorkloadKind::TpccW1, 8, 7);
        Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .over_schedulers(SchedulerKind::ALL)
            .over_workloads([&w])
            .run_shard(ShardSpec { index: 0, count: 2 })
            .expect("valid shard")
    }

    #[test]
    fn held_cells_stop_where_the_resent_assign_would_outgrow_the_limit() {
        let shard = first_shard();
        let (spec, cell) = (shard.spec(), &shard.cells()[0].1);
        let work = JobSpec::Catalog("quick".to_string());
        let resent = |held: &Held| {
            let done = held.cells.iter().map(|(&i, c)| (i, c.clone())).collect();
            let job = "j".to_string();
            let frame = Message::Assign {
                job,
                work: work.clone(),
                spec,
                done,
            }
            .to_frame();
            assert!(Message::parse_frame(&frame).is_ok(), "the heir can read it");
            frame.len()
        };
        // The tracked length is the frame's, byte for byte, whatever the
        // number of digits in the index.
        let mut held = Held::new("j", &work, spec);
        for index in [0, 9, 10, 123_456, 9] {
            held.admit(index, cell.clone(), MAX_FRAME);
            assert_eq!(held.frame_len, resent(&held));
        }
        assert_eq!(held.cells.len(), 4, "a repeated index is held once");
        // The next cell is held only if the frame stays within the limit.
        let next = held.frame_len + done_entry_len(7, cell);
        held.admit(7, cell.clone(), next - 1);
        assert!(!held.cells.contains_key(&7));
        held.admit(7, cell.clone(), next);
        assert_eq!(resent(&held), next);
    }

    #[test]
    fn checkpoint_cells_for_a_filled_slot_are_dropped() {
        // The first cell shard 0 of 2 finishes, reported while the job is
        // open: held until the slot fills, dropped after.
        let shard = first_shard();
        let (spec, cell) = (shard.spec(), shard.cells()[0].clone());
        let mut c = Coordinator::new(DispatchConfig::default(), ["quick".to_string()]);
        c.handle(0, Event::Message(1, submit("quick", 2)));
        let job = job_key("quick", 2);
        let mut deliver = |msg| {
            c.handle(0, Event::Message(2, msg));
            c.jobs[&job]
                .progress
                .get(&0)
                .map_or(0, |held| held.cells.len())
        };
        let report = |cell| Message::Checkpoint {
            job: job.clone(),
            spec,
            cell: Box::new(cell),
        };
        assert_eq!(deliver(report(cell.clone())), 1);
        let done = Message::ShardDone {
            job: job.clone(),
            shard,
        };
        assert_eq!(deliver(done), 0);
        assert_eq!(deliver(report(cell)), 0);
    }

    #[test]
    fn token_buckets_credit_whole_intervals_and_keep_the_remainder() {
        let mut b = TokenBucket::new(1_000, 2);
        assert!(b.try_take() && b.try_take() && !b.try_take(), "burst of 2");
        // 1.5 intervals later: one token earned, the half interval kept.
        b.refill(2_500, 2, 1_000);
        assert_eq!(b.tokens, 1);
        assert_eq!(b.projected(2_999, 2, 1_000), 1, "remainder not yet a token");
        assert_eq!(b.projected(3_000, 2, 1_000), 2, "half + half = one more");
        b.refill(3_000, 2, 1_000);
        assert_eq!(b.tokens, 2);
        // Idle forever: capped at burst.
        b.refill(1_000_000, 2, 1_000);
        assert_eq!(b.tokens, 2);
        // refill_ms = 0 disables limiting entirely.
        let mut open = TokenBucket::new(0, 3);
        for _ in 0..10 {
            open.refill(0, 3, 0);
            assert!(open.try_take());
        }
    }
}
