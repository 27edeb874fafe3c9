//! The submitter half of the dispatcher: one blocking call per request.
//!
//! A submission is a single round trip — send one `submit` frame, block
//! until the coordinator streams the merged result (or a rejection) back.
//! Idempotency lives coordinator-side ([`super::job_key`]): re-submitting
//! the same spec attaches to the in-flight job or returns the cached
//! result, so a submitter that times out and retries never causes the
//! matrix to run twice. [`submit_scenario`] is the remote half of
//! `repro check`: the fleet runs the scenario's declared matrix, and the
//! submitter judges the scenario's assertions against the merged result
//! the coordinator returns. [`status`] asks a coordinator for one fleet
//! snapshot.
//!
//! That same idempotency is what makes the retry wrappers safe:
//! [`submit_with_retry`] / [`submit_scenario_with_retry`] reconnect and
//! resubmit across coordinator restarts under a jittered exponential
//! [`Backoff`], and because the job key is a pure function of the spec,
//! a resubmission lands on the in-flight job or the finished-result
//! cache (journal-restored, if the coordinator runs with `--journal`) —
//! never on a duplicate execution. Typed rejections are *not* retried:
//! the coordinator said no, and asking again louder is how a fleet gets
//! a retry storm.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::campaign::CampaignResult;
use crate::scenario::{AssertionOutcome, Scenario};

use super::chaos::ChaosRng;
use super::net;
use super::proto::{write_message, FrameReader, JobSpec, Message};
use super::status::StatusReport;
use super::DispatchError;

/// Capped exponential backoff with deterministic, seeded jitter.
///
/// Delay `n` is drawn uniformly from `[exp/2, exp]` where
/// `exp = min(cap_ms, base_ms << n)` — "equal jitter", so a fleet of
/// clients that all observed the same coordinator crash does not
/// reconnect in lockstep, but no delay ever collapses to zero. The
/// jitter source is the dispatcher's seeded [`ChaosRng`]: two clients
/// seed differently (the default seeds from the process id and a
/// monotonic counter), while a test that pins the seed gets the exact
/// delay sequence back.
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    rng: ChaosRng,
    attempt: u32,
}

impl Backoff {
    /// A backoff starting at `base_ms` and doubling up to `cap_ms`,
    /// jittered from `seed`.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            rng: ChaosRng::new(seed),
            attempt: 0,
        }
    }

    /// The next delay in the sequence, advancing the attempt counter.
    pub fn next_delay_ms(&mut self) -> u64 {
        let shift = self.attempt.min(32);
        let exp = self
            .base_ms
            .saturating_mul(1u64 << shift)
            .min(self.cap_ms)
            .max(1);
        self.attempt = self.attempt.saturating_add(1);
        let half = exp / 2;
        half + self.rng.next_u64() % (exp - half + 1)
    }

    /// Resets the exponent (not the jitter stream) — call after a
    /// *successful* round trip so the next failure starts cheap again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// A process-unique backoff seed: the pid combined with a monotonic
/// counter, so concurrent clients in one process jitter independently
/// ([`ChaosRng::new`] scrambles it).
fn process_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 32) ^ n
}

/// One submit round trip: send the spec, block for `result` or `reject`.
fn submit_spec(
    addr: impl ToSocketAddrs,
    work: JobSpec,
    shards: usize,
) -> Result<CampaignResult, DispatchError> {
    let mut stream = net::connect(addr)?;
    write_message(&mut stream, &Message::Submit { work, shards })?;
    let mut reader = FrameReader::new(io::BufReader::new(stream));
    match reader.next_message().map_err(DispatchError::Proto)? {
        Some(Message::Result { result, .. }) => Ok(result),
        Some(Message::Reject { reason, message }) => {
            Err(DispatchError::Rejected { reason, message })
        }
        Some(other) => Err(DispatchError::Protocol(format!(
            "coordinator answered a submission with a {:?} frame",
            other.type_name()
        ))),
        None => Err(closed_before_answering()),
    }
}

/// A coordinator that closed the connection before answering — the
/// submitter-visible shape of a coordinator crash, which took our waiter
/// slot with it — as the transport failure it is.
fn closed_before_answering() -> DispatchError {
    DispatchError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "coordinator closed the connection before answering",
    ))
}

/// Whether a submission failure is worth resubmitting: transport-class
/// failures (connect refused, a coordinator that closed before
/// answering, a frame cut mid-stream) are; typed rejections and in-band
/// protocol violations are answers, not outages.
fn retryable(e: &DispatchError) -> bool {
    match e {
        DispatchError::Io(_) | DispatchError::Proto(_) => true,
        DispatchError::Protocol(_)
        | DispatchError::Rejected { .. }
        | DispatchError::Runner { .. } => false,
    }
}

fn submit_spec_with_retry(
    addr: impl ToSocketAddrs + Copy,
    work: JobSpec,
    shards: usize,
    attempts: usize,
) -> Result<CampaignResult, DispatchError> {
    let mut backoff = Backoff::new(100, 5_000, process_seed());
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match submit_spec(addr, work.clone(), shards) {
            Ok(answer) => return Ok(answer),
            Err(e) if retryable(&e) => {
                if attempt + 1 < attempts {
                    let delay = backoff.next_delay_ms();
                    eprintln!(
                        "dispatch: submission attempt {} failed ({e}); retrying in {delay} ms",
                        attempt + 1
                    );
                    std::thread::sleep(Duration::from_millis(delay));
                }
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(DispatchError::Protocol(
        "no submission attempts made".to_string(),
    )))
}

/// Submits the catalog campaign `campaign` split `shards` ways and blocks
/// until the merged [`CampaignResult`] arrives.
pub fn submit(
    addr: impl ToSocketAddrs,
    campaign: &str,
    shards: usize,
) -> Result<CampaignResult, DispatchError> {
    submit_spec(addr, JobSpec::Catalog(campaign.to_string()), shards)
}

/// [`submit`] surviving coordinator outages: transport-class failures
/// reconnect and resubmit under a jittered exponential backoff, up to
/// `attempts` tries. Safe because submission is idempotent — the FNV job
/// key re-attaches to the in-flight or journal-restored job.
pub fn submit_with_retry(
    addr: impl ToSocketAddrs + Copy,
    campaign: &str,
    shards: usize,
    attempts: usize,
) -> Result<CampaignResult, DispatchError> {
    submit_spec_with_retry(
        addr,
        JobSpec::Catalog(campaign.to_string()),
        shards,
        attempts,
    )
}

/// Submits a full scenario document split `shards` ways, blocks until the
/// merged result arrives, and judges the scenario's assertions against
/// it: one outcome per assertion, in declaration order. The result is
/// bit-identical to an in-process run, so these are the outcomes an
/// in-process `repro check` prints.
pub fn submit_scenario(
    addr: impl ToSocketAddrs,
    scenario: &Scenario,
    shards: usize,
) -> Result<(CampaignResult, Vec<AssertionOutcome>), DispatchError> {
    submit_spec(addr, JobSpec::Scenario(Arc::new(scenario.clone())), shards)
        .map(|result| judged(scenario, result))
}

/// [`submit_scenario`] with the same reconnect-and-resubmit behavior as
/// [`submit_with_retry`].
pub fn submit_scenario_with_retry(
    addr: impl ToSocketAddrs + Copy,
    scenario: &Scenario,
    shards: usize,
    attempts: usize,
) -> Result<(CampaignResult, Vec<AssertionOutcome>), DispatchError> {
    submit_spec_with_retry(
        addr,
        JobSpec::Scenario(Arc::new(scenario.clone())),
        shards,
        attempts,
    )
    .map(|result| judged(scenario, result))
}

/// `result` with `scenario`'s assertions evaluated against it.
fn judged(scenario: &Scenario, result: CampaignResult) -> (CampaignResult, Vec<AssertionOutcome>) {
    let outcomes = scenario
        .assertions
        .iter()
        .map(|a| a.evaluate(&result))
        .collect();
    (result, outcomes)
}

/// Asks a coordinator for one fleet snapshot. The coordinator leaves the
/// connection open after answering, but this convenience call makes a
/// fresh connection per poll; a watcher that wants one socket can speak
/// [`Message::StatusRequest`] itself.
pub fn status(addr: impl ToSocketAddrs) -> Result<StatusReport, DispatchError> {
    let mut stream = net::connect(addr)?;
    write_message(&mut stream, &Message::StatusRequest)?;
    let mut reader = FrameReader::new(io::BufReader::new(stream));
    match reader.next_message().map_err(DispatchError::Proto)? {
        Some(Message::Status { report }) => Ok(report),
        Some(Message::Reject { reason, message }) => {
            Err(DispatchError::Rejected { reason, message })
        }
        Some(other) => Err(DispatchError::Protocol(format!(
            "coordinator answered a status request with a {:?} frame",
            other.type_name()
        ))),
        None => Err(closed_before_answering()),
    }
}

/// [`TcpStream::connect`] with retries under a jittered exponential
/// backoff: `delay` is the base (doubling per attempt, capped at 100×),
/// jittered so concurrently starting processes don't stampede the bind.
/// For CLI and CI use, where the coordinator and its workers start
/// concurrently and the first connect can race the bind. The stream has
/// `TCP_NODELAY` set, like every dispatcher socket.
pub fn connect_with_retry(
    addr: impl ToSocketAddrs + Copy,
    attempts: usize,
    delay: Duration,
) -> std::io::Result<TcpStream> {
    let base = u64::try_from(delay.as_millis()).unwrap_or(u64::MAX).max(1);
    connect_with_retry_seeded(addr, attempts, base, process_seed(), &mut |d| {
        std::thread::sleep(d)
    })
}

/// The deterministic core of [`connect_with_retry`]: explicit jitter
/// seed, injected sleep. Tests pin the seed and capture the delays a
/// fake clock would serve; production passes `thread::sleep`.
pub fn connect_with_retry_seeded(
    addr: impl ToSocketAddrs + Copy,
    attempts: usize,
    base_ms: u64,
    seed: u64,
    sleep: &mut dyn FnMut(Duration),
) -> std::io::Result<TcpStream> {
    let mut backoff = Backoff::new(base_ms, base_ms.saturating_mul(100), seed);
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match net::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < attempts {
            sleep(Duration::from_millis(backoff.next_delay_ms()));
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no connection attempts made")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_stays_in_the_jitter_window() {
        let mut b = Backoff::new(100, 1_000, 42);
        let mut exp = 100u64;
        for _ in 0..12 {
            let d = b.next_delay_ms();
            assert!(
                d >= exp / 2 && d <= exp,
                "delay {d} outside [{}, {exp}]",
                exp / 2
            );
            exp = (exp * 2).min(1_000);
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_varies_across_seeds() {
        let seq = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::new(50, 10_000, seed);
            (0..8).map(|_| b.next_delay_ms()).collect()
        };
        assert_eq!(seq(7), seq(7), "same seed, same delays");
        assert_ne!(seq(7), seq(8), "different seeds jitter differently");
        // Degenerate seed 0 still produces in-window jitter.
        let zeros = seq(0);
        assert!(zeros.iter().all(|&d| d >= 25));
    }

    #[test]
    fn backoff_reset_restarts_the_exponent() {
        let mut b = Backoff::new(100, 100_000, 3);
        for _ in 0..5 {
            b.next_delay_ms();
        }
        b.reset();
        let d = b.next_delay_ms();
        assert!(d <= 100, "post-reset delay {d} should be back at the base");
    }

    #[test]
    fn connect_with_retry_seeded_sleeps_the_exact_backoff_sequence() {
        use super::super::clock::{Clock, FakeClock};
        // An address that refuses: bind an ephemeral port, then drop the
        // listener before connecting to it.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let clock = FakeClock::new();
        let mut slept = Vec::new();
        let err = connect_with_retry_seeded(addr, 4, 10, 99, &mut |d| {
            let ms = u64::try_from(d.as_millis()).expect("small delay");
            clock.advance(ms);
            slept.push(ms);
        })
        .expect_err("nothing listens there");
        assert_eq!(slept.len(), 3, "4 attempts sleep between them thrice");
        // The injected sleep saw exactly the pinned seed's delay sequence.
        let mut reference = Backoff::new(10, 1_000, 99);
        let expected: Vec<u64> = (0..3).map(|_| reference.next_delay_ms()).collect();
        assert_eq!(slept, expected);
        assert_eq!(clock.now_ms(), expected.iter().sum::<u64>());
        let _ = err;
    }

    #[test]
    fn rejections_are_final_but_transport_failures_retry() {
        use super::super::proto::RejectReason;
        assert!(retryable(&DispatchError::Io(std::io::Error::other("gone"))));
        let closed = closed_before_answering();
        assert!(
            matches!(&closed, DispatchError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{closed:?}"
        );
        assert!(retryable(&closed));
        assert!(!retryable(&DispatchError::Rejected {
            reason: RejectReason::RateLimited,
            message: "slow down".into(),
        }));
        // Whatever its text: a protocol violation is an answer.
        assert!(!retryable(&DispatchError::Protocol(
            "coordinator closed the connection before answering".into()
        )));
        assert!(!retryable(&DispatchError::Protocol(
            "coordinator answered a submission with a \"status\" frame".into()
        )));
    }
}
