//! The fleet snapshot behind the `status` / `status_report` frames.
//!
//! [`StatusReport`] is a plain value the pure
//! [`Coordinator`](super::Coordinator) assembles from its own state —
//! jobs in flight, per-worker liveness and assignment, lifetime
//! counters, rate-limiter state — with no I/O and no clock reads of its
//! own (the caller passes `now_ms`, so FakeClock tests can pin every
//! age in the report). It crosses the wire as the JSON fields of a
//! `status_report` frame and renders for humans via [`fmt::Display`]
//! (what `repro status` prints).
//!
//! Ages are materialized at snapshot time (`last_seen_ms_ago`,
//! `running_ms`) rather than as absolute timestamps, so the report is
//! meaningful on a machine whose clock has nothing to do with the
//! coordinator's.

use std::fmt;

use crate::json::JsonWriter;
use crate::jsonval::{JsonValue, WireError};

/// Lifetime counters since the coordinator started.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusCounters {
    /// Submissions accepted (new jobs plus coalesced/replayed ones).
    pub submissions: u64,
    /// Requests refused with a `reject` frame.
    pub rejections: u64,
    /// Jobs fully merged and answered.
    pub jobs_completed: u64,
    /// Shard completions accepted into a slot (duplicates excluded).
    pub shards_completed: u64,
}

/// One job in flight.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobStatus {
    /// The job's idempotency key.
    pub key: String,
    /// Human-readable label: catalog name or scenario name.
    pub label: String,
    /// Total shards the job was split into.
    pub shards: usize,
    /// Shards whose results are in their completion slots.
    pub done: usize,
    /// Shards waiting in the queue for an idle worker.
    pub queued: usize,
    /// Shards currently assigned to workers.
    pub running: usize,
    /// Submitter connections waiting on the merged result.
    pub waiters: usize,
}

/// The shard a worker is currently executing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AssignmentStatus {
    /// The job's idempotency key.
    pub job: String,
    /// Shard index.
    pub index: usize,
    /// Shard count.
    pub count: usize,
    /// How long the shard has been running, at snapshot time.
    pub running_ms: u64,
    /// Whether the shard was hedged to another worker for straggling.
    pub hedged: bool,
}

/// One registered worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStatus {
    /// The worker's self-declared label.
    pub name: String,
    /// Declared host cores.
    pub cores: usize,
    /// Milliseconds since the worker's last frame, at snapshot time.
    pub last_seen_ms_ago: u64,
    /// What the worker is executing, if anything.
    pub assignment: Option<AssignmentStatus>,
}

/// One submitter's rate-limiter state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RateStatus {
    /// The submitter identity the bucket is keyed by (peer IP).
    pub peer: String,
    /// Tokens currently available (refill applied as of snapshot time).
    pub tokens: u64,
}

/// A full fleet snapshot — the payload of a `status_report` frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Coordinator clock at snapshot time (milliseconds; FakeClock in
    /// tests, monotonic-since-start in production).
    pub now_ms: u64,
    /// Shards queued across all jobs, waiting for an idle worker.
    pub queue_depth: usize,
    /// Lifetime counters.
    pub counters: StatusCounters,
    /// Jobs in flight, in key order.
    pub jobs: Vec<JobStatus>,
    /// Registered workers, in registration order.
    pub workers: Vec<WorkerStatus>,
    /// Known submitter buckets, in identity order.
    pub rate: Vec<RateStatus>,
}

impl StatusReport {
    /// Writes the report's fields into an already-open frame object
    /// (the `"type"` key is the caller's).
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.key("now_ms");
        w.number_u64(self.now_ms);
        w.key("queue_depth");
        w.number_u64(self.queue_depth as u64);
        w.key("counters");
        w.begin_object();
        w.key("submissions");
        w.number_u64(self.counters.submissions);
        w.key("rejections");
        w.number_u64(self.counters.rejections);
        w.key("jobs_completed");
        w.number_u64(self.counters.jobs_completed);
        w.key("shards_completed");
        w.number_u64(self.counters.shards_completed);
        w.end_object();
        w.key("jobs");
        w.begin_array();
        for j in &self.jobs {
            w.begin_object();
            w.key("key");
            w.string(&j.key);
            w.key("label");
            w.string(&j.label);
            w.key("shards");
            w.number_u64(j.shards as u64);
            w.key("done");
            w.number_u64(j.done as u64);
            w.key("queued");
            w.number_u64(j.queued as u64);
            w.key("running");
            w.number_u64(j.running as u64);
            w.key("waiters");
            w.number_u64(j.waiters as u64);
            w.end_object();
        }
        w.end_array();
        w.key("workers");
        w.begin_array();
        for worker in &self.workers {
            w.begin_object();
            w.key("name");
            w.string(&worker.name);
            w.key("cores");
            w.number_u64(worker.cores as u64);
            w.key("last_seen_ms_ago");
            w.number_u64(worker.last_seen_ms_ago);
            if let Some(a) = &worker.assignment {
                w.key("assignment");
                w.begin_object();
                w.key("job");
                w.string(&a.job);
                w.key("index");
                w.number_u64(a.index as u64);
                w.key("count");
                w.number_u64(a.count as u64);
                w.key("running_ms");
                w.number_u64(a.running_ms);
                w.key("hedged");
                w.boolean(a.hedged);
                w.end_object();
            }
            w.end_object();
        }
        w.end_array();
        w.key("rate");
        w.begin_array();
        for r in &self.rate {
            w.begin_object();
            w.key("peer");
            w.string(&r.peer);
            w.key("tokens");
            w.number_u64(r.tokens);
            w.end_object();
        }
        w.end_array();
    }

    /// Reads a report back from a parsed `status_report` frame document.
    pub fn from_json_value(doc: &JsonValue) -> Result<StatusReport, WireError> {
        let counters = doc.req("counters")?;
        let jobs = doc
            .req_array("jobs")?
            .iter()
            .map(|j| {
                Ok(JobStatus {
                    key: j.req_str("key")?.to_string(),
                    label: j.req_str("label")?.to_string(),
                    shards: j.req_u64("shards")? as usize,
                    done: j.req_u64("done")? as usize,
                    queued: j.req_u64("queued")? as usize,
                    running: j.req_u64("running")? as usize,
                    waiters: j.req_u64("waiters")? as usize,
                })
            })
            .collect::<Result<Vec<JobStatus>, WireError>>()?;
        let workers = doc
            .req_array("workers")?
            .iter()
            .map(|v| {
                let assignment = match v.get("assignment") {
                    Some(a) => Some(AssignmentStatus {
                        job: a.req_str("job")?.to_string(),
                        index: a.req_u64("index")? as usize,
                        count: a.req_u64("count")? as usize,
                        running_ms: a.req_u64("running_ms")?,
                        hedged: a.req_bool("hedged")?,
                    }),
                    None => None,
                };
                Ok(WorkerStatus {
                    name: v.req_str("name")?.to_string(),
                    cores: v.req_u64("cores")? as usize,
                    last_seen_ms_ago: v.req_u64("last_seen_ms_ago")?,
                    assignment,
                })
            })
            .collect::<Result<Vec<WorkerStatus>, WireError>>()?;
        let rate = doc
            .req_array("rate")?
            .iter()
            .map(|v| {
                Ok(RateStatus {
                    peer: v.req_str("peer")?.to_string(),
                    tokens: v.req_u64("tokens")?,
                })
            })
            .collect::<Result<Vec<RateStatus>, WireError>>()?;
        Ok(StatusReport {
            now_ms: doc.req_u64("now_ms")?,
            queue_depth: doc.req_u64("queue_depth")? as usize,
            counters: StatusCounters {
                submissions: counters.req_u64("submissions")?,
                rejections: counters.req_u64("rejections")?,
                jobs_completed: counters.req_u64("jobs_completed")?,
                shards_completed: counters.req_u64("shards_completed")?,
            },
            jobs,
            workers,
            rate,
        })
    }
}

impl fmt::Display for StatusReport {
    /// The human rendering `repro status` prints: one header line, then
    /// one line per job, worker and rate bucket.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dispatcher: {} job(s) in flight, {} shard(s) queued, {} worker(s)",
            self.jobs.len(),
            self.queue_depth,
            self.workers.len()
        )?;
        writeln!(
            f,
            "lifetime: {} submission(s) accepted, {} rejected; {} job(s) and {} shard(s) completed",
            self.counters.submissions,
            self.counters.rejections,
            self.counters.jobs_completed,
            self.counters.shards_completed
        )?;
        for j in &self.jobs {
            writeln!(
                f,
                "job {} ({}): {}/{} shard(s) done, {} queued, {} running, {} waiter(s)",
                j.key, j.label, j.done, j.shards, j.queued, j.running, j.waiters
            )?;
        }
        for worker in &self.workers {
            write!(f, "worker {} ({} core(s)): ", worker.name, worker.cores)?;
            match &worker.assignment {
                Some(a) => write!(
                    f,
                    "running shard {}/{} of job {} for {} ms{}",
                    a.index,
                    a.count,
                    a.job,
                    a.running_ms,
                    if a.hedged { " (hedged)" } else { "" }
                )?,
                None => write!(f, "idle")?,
            }
            writeln!(f, ", seen {} ms ago", worker.last_seen_ms_ago)?;
        }
        for r in &self.rate {
            writeln!(f, "rate {}: {} token(s) available", r.peer, r.tokens)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusReport {
        StatusReport {
            now_ms: 12_500,
            queue_depth: 3,
            counters: StatusCounters {
                submissions: 5,
                rejections: 2,
                jobs_completed: 4,
                shards_completed: 16,
            },
            jobs: vec![JobStatus {
                key: "ab12cd34ef56ab78".into(),
                label: "strex-l1i-reduction".into(),
                shards: 8,
                done: 4,
                queued: 3,
                running: 1,
                waiters: 1,
            }],
            workers: vec![
                WorkerStatus {
                    name: "alpha".into(),
                    cores: 8,
                    last_seen_ms_ago: 120,
                    assignment: Some(AssignmentStatus {
                        job: "ab12cd34ef56ab78".into(),
                        index: 5,
                        count: 8,
                        running_ms: 900,
                        hedged: false,
                    }),
                },
                WorkerStatus {
                    name: "beta".into(),
                    cores: 1,
                    last_seen_ms_ago: 40,
                    assignment: None,
                },
            ],
            rate: vec![RateStatus {
                peer: "127.0.0.1".into(),
                tokens: 7,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_its_json_fields() {
        let report = sample();
        let mut w = JsonWriter::new();
        w.begin_object();
        report.write_fields(&mut w);
        w.end_object();
        let text = w.finish();
        let doc = JsonValue::parse(&text).expect("valid json");
        let parsed = StatusReport::from_json_value(&doc).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = StatusReport::default();
        let mut w = JsonWriter::new();
        w.begin_object();
        report.write_fields(&mut w);
        w.end_object();
        let doc = JsonValue::parse(&w.finish()).expect("valid json");
        assert_eq!(StatusReport::from_json_value(&doc).expect("parses"), report);
    }

    #[test]
    fn display_covers_jobs_workers_and_rate_state() {
        let text = sample().to_string();
        assert!(text.contains("1 job(s) in flight"), "{text}");
        assert!(text.contains("3 shard(s) queued"), "{text}");
        assert!(text.contains("strex-l1i-reduction"), "{text}");
        assert!(text.contains("4/8 shard(s) done"), "{text}");
        assert!(text.contains("running shard 5/8"), "{text}");
        assert!(text.contains("worker beta (1 core(s)): idle"), "{text}");
        assert!(text.contains("rate 127.0.0.1: 7 token(s)"), "{text}");
    }
}
