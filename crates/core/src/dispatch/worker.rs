//! The worker half of the dispatcher: connect, register, execute
//! assigned shards, heartbeat throughout.
//!
//! A worker is deliberately dumb: it holds no job state, just a
//! [`ShardRunner`] mapping `(campaign name, shard spec)` to an executed
//! [`CampaignShard`] for catalog jobs — scenario jobs carry their whole
//! matrix in the `assign` frame and are executed directly from the
//! document ([`Scenario::campaign`](crate::scenario::Scenario::campaign)
//! then
//! [`run_shard_resumable`](crate::campaign::Campaign::run_shard_resumable)),
//! no runner involved, so every worker can run every scenario shard.
//! Everything hard — liveness, re-queue, dedup — lives in the
//! coordinator; a worker that dies mid-shard simply stops heartbeating
//! and the coordinator hands its shard to someone else. Because delivery
//! is at-least-once, a worker may legitimately be asked to run a shard
//! another worker already completed; it runs it anyway and the
//! coordinator drops the duplicate.
//!
//! While a shard runs, each finished cell goes out once, in its own
//! `checkpoint` frame. An `assign` frame's `done` cells — what earlier
//! workers reported before they died — are adopted instead of re-run.
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

use crate::campaign::{CampaignCell, CampaignShard, ShardSpec};

use super::net;
use super::proto::{write_message, FrameReader, JobSpec, Message};
use super::DispatchError;

/// Executes one shard of a named catalog campaign. The `Err` string
/// travels into worker logs (the worker disconnects on it, which is what
/// re-queues the shard).
pub trait ShardRunner {
    /// Runs shard `spec` of the campaign named `campaign`.
    fn run(&mut self, campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String>;

    /// Runs shard `spec`, adopting the finished cells in `done` and
    /// reporting each newly finished cell and its matrix index through
    /// `on_cell`.
    ///
    /// The default ignores both and calls [`run`](ShardRunner::run) —
    /// a runner without resume support stays correct, it just re-runs
    /// every cell and never checkpoints. Runners backed by
    /// [`Campaign::run_shard_resumable`](crate::campaign::Campaign::run_shard_resumable)
    /// should forward to it. A run that fails with `done` cells is run
    /// once more without them, so a runner need not handle cells that do
    /// not match its matrix.
    fn run_resumable(
        &mut self,
        campaign: &str,
        spec: ShardSpec,
        done: Vec<(usize, CampaignCell)>,
        on_cell: &mut dyn FnMut(usize, &CampaignCell),
    ) -> Result<CampaignShard, String> {
        let _ = (done, on_cell);
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

/// Worker identity and cadence.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Label sent in [`Message::Register`]; shows up in coordinator logs.
    pub name: String,
    /// Host cores declared at registration, as `repro status` shows them.
    /// Defaults to the host's available parallelism.
    pub cores: usize,
    /// Heartbeat cadence. Keep well below the coordinator's
    /// `worker_timeout_ms`; `repro work` beats at the default, once a
    /// second.
    pub heartbeat_interval_ms: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: format!("worker:{}", std::process::id()),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            heartbeat_interval_ms: 1_000,
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
                cores: opts.cores,
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

    let result = worker_loop(reader, &writer, runner);
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
/// the matrix that runs — no catalog lookup, no re-encoding). Adopting
/// `done` cells is an optimization, never a hazard: a run that fails
/// with them — cells that do not match the matrix, from a catalog that
/// differs across the fleet, say — runs once more without them before
/// the failure counts.
fn execute(
    runner: &mut dyn ShardRunner,
    work: &JobSpec,
    spec: ShardSpec,
    done: Vec<(usize, CampaignCell)>,
    on_cell: &mut dyn FnMut(usize, &CampaignCell),
) -> Result<CampaignShard, DispatchError> {
    let mut attempt = |done| match work {
        JobSpec::Catalog(campaign) => runner.run_resumable(campaign, spec, done, on_cell),
        JobSpec::Scenario(s) => {
            let workloads = s.workloads();
            let campaign = s.campaign(&workloads);
            let run = campaign.run_shard_resumable(spec, done, on_cell);
            run.map_err(|e| e.to_string())
        }
    };
    let resumed = !done.is_empty();
    let run = match attempt(done) {
        Err(_) if resumed => attempt(Vec::new()),
        other => other,
    };
    run.map_err(|message| DispatchError::Runner {
        campaign: work.label().to_string(),
        spec,
        message,
    })
}

fn worker_loop(
    reader: TcpStream,
    writer: &Mutex<TcpStream>,
    runner: &mut dyn ShardRunner,
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
                done,
            }) => {
                // One advisory frame per finished cell, through the same
                // writer lock as heartbeats. A failed send is ignored
                // here: losing a checkpoint costs re-simulation only, and
                // if the coordinator is truly gone the `shard_done` write
                // (or the read loop) surfaces it.
                let mut on_cell = |index: usize, cell: &CampaignCell| {
                    let frame = Message::Checkpoint {
                        job: job.clone(),
                        spec,
                        cell: Box::new((index, cell.clone())),
                    };
                    let mut w = writer.lock().expect("frame writer");
                    let _ = write_message(&mut *w, &frame);
                };
                let shard = execute(runner, &work, spec, done, &mut on_cell)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::merge;
    use crate::scenario::Scenario;

    #[test]
    fn a_resume_that_fails_with_done_cells_runs_again_without_them() {
        let scenario = Scenario::from_json(
            r#"{"name": "worker-retry",
                "matrix": {"workloads": ["TPC-C-1"], "pool": 8, "seed": 7, "small": true,
                           "schedulers": ["baseline", "strex"], "cores": [2]},
                "assertions": [{"kind": "throughput_at_least", "min": 0.0,
                    "cell": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 2}}]}"#,
        )
        .expect("valid scenario");
        let work = JobSpec::Scenario(std::sync::Arc::new(scenario));
        let spec = ShardSpec { index: 0, count: 1 };
        let mut no_catalog = |_: &str, _: ShardSpec| Err("no catalog".to_string());
        let fresh =
            execute(&mut no_catalog, &work, spec, Vec::new(), &mut |_, _| {}).expect("a fresh run");
        // Cell 0 reported under index 1 cannot be adopted: the worker runs
        // both cells afresh instead of failing the shard.
        let misplaced = vec![(1, fresh.cells()[0].1.clone())];
        let mut ran = 0;
        let resumed = execute(&mut no_catalog, &work, spec, misplaced, &mut |_, _| {
            ran += 1
        })
        .expect("a fresh run after the failed resume");
        assert_eq!(ran, 2);
        let json = |shard| merge([shard]).expect("complete").to_json();
        assert_eq!(json(resumed), json(fresh));
    }
}
