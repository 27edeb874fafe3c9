//! The worker half of the dispatcher: connect, register with declared
//! capabilities, execute assigned shards, heartbeat throughout.
//!
//! A worker is deliberately dumb: it holds no job state, just a
//! [`ShardRunner`] mapping `(campaign name, shard spec)` to an executed
//! [`CampaignShard`] for catalog jobs — scenario jobs carry their whole
//! matrix in the `assign` frame and are executed directly from the
//! document ([`Scenario::campaign`](crate::scenario::Scenario::campaign)
//! then [`run_shard`](crate::campaign::Campaign::run_shard)), no
//! runner involved. Everything hard — liveness, re-queue, dedup — lives in the
//! coordinator; a worker that dies mid-shard simply stops heartbeating
//! and the coordinator hands its shard to someone else. Because delivery
//! is at-least-once, a worker may legitimately be asked to run a shard
//! another worker already completed; it runs it anyway and the
//! coordinator drops the duplicate.
//!
//! Registration declares [`WorkerCaps`] — cores and scenario support —
//! which the coordinator's assignment respects: a worker registered with
//! `scenarios: false` is never handed a scenario shard.
//!
//! Heartbeats are sent from a separate thread on a fixed cadence so they
//! keep flowing *while a shard executes* — the whole point: a worker
//! crunching a 10-minute shard is alive, not dead. Frame writes go
//! through one mutex so a heartbeat can never interleave bytes into the
//! middle of a `shard_done` frame.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::campaign::{CampaignShard, ShardCheckpoint, ShardSpec};
use crate::error::ConfigError;

use super::net;
use super::proto::{write_message, FrameReader, JobSpec, Message, WorkerCaps};
use super::DispatchError;

/// Executes one shard of a named catalog campaign. The `Err` string
/// travels into worker logs (the worker disconnects on it, which is what
/// re-queues the shard).
pub trait ShardRunner {
    /// Runs shard `spec` of the campaign named `campaign`.
    fn run(&mut self, campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String>;

    /// Runs shard `spec`, optionally resuming from `checkpoint` and
    /// reporting progress through `on_cell` after each completed cell.
    ///
    /// The default ignores both and calls [`run`](ShardRunner::run) —
    /// a runner without resume support stays correct, it just re-runs
    /// from the first cell and never checkpoints. Runners backed by
    /// [`Campaign::run_shard_resumable`](crate::campaign::Campaign::run_shard_resumable)
    /// should forward to it; a checkpoint that does not match the shard
    /// should fall back to a fresh run, never fail the worker.
    fn run_resumable(
        &mut self,
        campaign: &str,
        spec: ShardSpec,
        checkpoint: Option<ShardCheckpoint>,
        on_cell: &mut dyn FnMut(&ShardCheckpoint),
    ) -> Result<CampaignShard, String> {
        let _ = (checkpoint, on_cell);
        self.run(campaign, spec)
    }
}

impl<F> ShardRunner for F
where
    F: FnMut(&str, ShardSpec) -> Result<CampaignShard, String>,
{
    fn run(&mut self, campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String> {
        self(campaign, spec)
    }
}

/// Worker identity, capabilities and cadence.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Label sent in [`Message::Register`]; shows up in coordinator logs.
    pub name: String,
    /// Capabilities declared at registration; drives the coordinator's
    /// capability-aware assignment. Defaults to probing the host
    /// ([`WorkerCaps::detect`]).
    pub caps: WorkerCaps,
    /// Heartbeat cadence. Keep well below the coordinator's
    /// `worker_timeout_ms` (the serve CLI uses timeout / 4).
    pub heartbeat_interval_ms: u64,
    /// Send an advisory `checkpoint` frame after every this many
    /// completed cells, so the coordinator can resume this shard
    /// elsewhere if the worker dies. `0` disables checkpointing.
    pub checkpoint_every_cells: usize,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: format!("worker:{}", std::process::id()),
            caps: WorkerCaps::detect(),
            heartbeat_interval_ms: 1_000,
            checkpoint_every_cells: 1,
        }
    }
}

/// What a completed worker run did.
#[derive(Copy, Clone, Debug)]
pub struct WorkerSummary {
    /// Shards executed and delivered.
    pub shards_run: usize,
}

/// Connects to a coordinator and serves shards until the coordinator
/// closes the connection (clean EOF → `Ok`), the transport fails, or the
/// runner errors on a shard.
pub fn run_worker(
    addr: impl ToSocketAddrs,
    opts: &WorkerOptions,
    runner: &mut dyn ShardRunner,
) -> Result<WorkerSummary, DispatchError> {
    let stream = net::connect(addr)?;
    let reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));
    {
        let mut w = writer.lock().expect("frame writer");
        write_message(
            &mut *w,
            &Message::Register {
                name: opts.name.clone(),
                caps: opts.caps.clone(),
            },
        )?;
    }

    // Heartbeat thread: one frame per cadence tick, through the shared
    // writer lock, until the main loop ends or a write fails (coordinator
    // gone — the main read loop will see it too). Dropping `end_beats`
    // ends the wait between ticks at once, so the worker returns as soon
    // as its connection does.
    let (end_beats, beats_ended) = mpsc::channel::<()>();
    let beat = {
        let writer = Arc::clone(&writer);
        let interval = Duration::from_millis(opts.heartbeat_interval_ms.max(1));
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = beats_ended.recv_timeout(interval) {
                let mut w = writer.lock().expect("frame writer");
                if write_message(&mut *w, &Message::Heartbeat).is_err() {
                    return;
                }
            }
        })
    };

    let result = worker_loop(reader, &writer, runner, opts);
    drop(end_beats);
    // Unblock the coordinator side promptly.
    let _ = writer
        .lock()
        .expect("frame writer")
        .shutdown(std::net::Shutdown::Both);
    let _ = beat.join();
    result
}

/// Executes one assigned shard: catalog work through the runner,
/// scenario work directly from the document (the matrix it declares is
/// the matrix that runs — no catalog lookup, no re-encoding). A resume
/// checkpoint is an optimization, never a hazard: one that does not
/// match the matrix (scenario drift across coordinator restarts, say)
/// falls back to a fresh run instead of failing the worker.
fn execute(
    runner: &mut dyn ShardRunner,
    work: &JobSpec,
    spec: ShardSpec,
    checkpoint: Option<ShardCheckpoint>,
    on_cell: &mut dyn FnMut(&ShardCheckpoint),
) -> Result<CampaignShard, DispatchError> {
    match work {
        JobSpec::Catalog(campaign) => runner
            .run_resumable(campaign, spec, checkpoint, on_cell)
            .map_err(|e| DispatchError::Runner {
                campaign: campaign.clone(),
                spec,
                message: e,
            }),
        JobSpec::Scenario(s) => {
            let workloads = s.workloads();
            let campaign = s.campaign(&workloads);
            let run = match campaign.run_shard_resumable(spec, checkpoint, on_cell) {
                Err(ConfigError::CheckpointMismatch { .. }) => {
                    campaign.run_shard_resumable(spec, None, on_cell)
                }
                other => other,
            };
            run.map_err(|e| DispatchError::Runner {
                campaign: s.name.clone(),
                spec,
                message: e.to_string(),
            })
        }
    }
}

fn worker_loop(
    reader: TcpStream,
    writer: &Mutex<TcpStream>,
    runner: &mut dyn ShardRunner,
    opts: &WorkerOptions,
) -> Result<WorkerSummary, DispatchError> {
    let mut reader = FrameReader::new(BufReader::new(reader));
    let mut shards_run = 0usize;
    loop {
        match reader.next_message().map_err(DispatchError::Proto)? {
            None => {
                // Coordinator closed the connection: done serving.
                return Ok(WorkerSummary { shards_run });
            }
            Some(Message::Assign {
                job,
                work,
                spec,
                checkpoint,
            }) => {
                // Advisory progress frames, through the same writer lock
                // as heartbeats. A failed send is ignored here: losing a
                // checkpoint costs re-simulation only, and if the
                // coordinator is truly gone the `shard_done` write (or
                // the read loop) surfaces it.
                let every = opts.checkpoint_every_cells;
                let mut cells_done = 0usize;
                let mut on_cell = |ckpt: &ShardCheckpoint| {
                    cells_done += 1;
                    if every == 0 || !cells_done.is_multiple_of(every) {
                        return;
                    }
                    let frame = Message::Checkpoint {
                        job: job.clone(),
                        checkpoint: ckpt.clone(),
                    };
                    let mut w = writer.lock().expect("frame writer");
                    let _ = write_message(&mut *w, &frame);
                };
                let shard = execute(runner, &work, spec, checkpoint, &mut on_cell)?;
                let mut w = writer.lock().expect("frame writer");
                write_message(&mut *w, &Message::ShardDone { job, shard })?;
                shards_run += 1;
            }
            Some(Message::Reject { reason, message }) => {
                return Err(DispatchError::Rejected { reason, message });
            }
            Some(other) => {
                return Err(DispatchError::Protocol(format!(
                    "coordinator sent an unexpected {:?} frame to a worker",
                    other.type_name()
                )));
            }
        }
    }
}
