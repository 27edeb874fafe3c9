//! The fault-injection suite: the full dispatcher stack — coordinator,
//! workers, submitter — run over loopback TCP through a seeded
//! [`ChaosProxy`] that drops, duplicates, truncates and delays frames
//! and kills connections mid-stream. The contract under *any* seed:
//! the submitter gets either a merged result bit-identical to the
//! sequential in-process run or a typed error — never a hang (every
//! test runs under a watchdog), never a panic, never a corrupted merge.
//! Plus the crash-restart drill: a coordinator killed mid-job and
//! restarted on its journal finishes the job for a retrying submitter,
//! and the teardown drills: an idle coordinator or proxy stops promptly
//! and frees its port.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use strex::campaign::{Campaign, CampaignCell, CampaignResult, CampaignShard, ShardSpec};
use strex::config::{SchedulerKind, SimConfig};
use strex::dispatch::{
    submit_with_retry, ChaosProxy, DispatchConfig, FaultPlan, ServeOptions, Server, ShardRunner,
    SystemClock, WorkerOptions,
};
use strex_oltp::workload::{Workload, WorkloadKind};

const CAMPAIGN: &str = "tiny";

fn tiny_workloads() -> Vec<Workload> {
    vec![
        Workload::preset_small(WorkloadKind::TpccW1, 8, 7),
        Workload::preset_small(WorkloadKind::MapReduce, 8, 7),
    ]
}

fn tiny_campaign(workloads: &[Workload]) -> Campaign<'_> {
    Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
        .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
        .over_workloads(workloads)
}

fn tiny_sequential() -> CampaignResult {
    let workloads = tiny_workloads();
    tiny_campaign(&workloads).run().expect("valid")
}

/// A resume-capable runner for the tiny campaign — real checkpoints flow
/// through the chaos proxy, and the worker re-runs a failed resume
/// without its `done` cells.
struct TinyRunner;

impl ShardRunner for TinyRunner {
    fn run(&mut self, campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String> {
        self.run_resumable(campaign, spec, Vec::new(), &mut |_, _| {})
    }

    fn run_resumable(
        &mut self,
        campaign: &str,
        spec: ShardSpec,
        done: Vec<(usize, CampaignCell)>,
        on_cell: &mut dyn FnMut(usize, &CampaignCell),
    ) -> Result<CampaignShard, String> {
        if campaign != CAMPAIGN {
            return Err(format!("unknown campaign {campaign:?}"));
        }
        let workloads = tiny_workloads();
        tiny_campaign(&workloads)
            .run_shard_resumable(spec, done, on_cell)
            .map_err(|e| e.to_string())
    }
}

/// Fault-tolerant timings: dead connections are noticed fast, and a
/// shard whose completion frame the chaos layer ate is re-dispatched by
/// the deadline instead of waiting on a submitter timeout.
fn chaos_cfg() -> DispatchConfig {
    DispatchConfig {
        worker_timeout_ms: 2_000,
        shard_deadline_ms: 4_000,
        submit_refill_ms: 0, // rate limiting off: retries are the point
        ..DispatchConfig::default()
    }
}

/// A coordinator bound to an ephemeral loopback port, serving until the
/// returned stop flag is raised (the finished cache keeps answering a
/// submitter whose result frame the chaos layer destroyed).
fn spawn_server(
    addr: &str,
    journal: Option<std::path::PathBuf>,
) -> (
    SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<Result<usize, String>>,
) {
    let server = Server::bind(
        addr,
        chaos_cfg(),
        [CAMPAIGN.to_string()],
        Arc::new(SystemClock::new()),
    )
    .expect("bind loopback");
    let bound = server.local_addr().expect("bound");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        server
            .run(ServeOptions {
                max_jobs: None,
                journal,
                stop: Some(flag),
            })
            .map(|s| s.jobs_completed)
            .map_err(|e| e.to_string())
    });
    (bound, stop, handle)
}

/// A worker that reconnects through the chaos proxy until told to stop —
/// connection deaths are the proxy's favourite fault, so one `run_worker`
/// call is never enough.
fn spawn_chaos_worker(
    proxy: SocketAddr,
    name: &str,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<usize> {
    let opts = WorkerOptions {
        name: name.to_string(),
        heartbeat_interval_ms: 200,
        ..WorkerOptions::default()
    };
    std::thread::spawn(move || {
        let mut runner = TinyRunner;
        let mut shards = 0;
        while !stop.load(Ordering::SeqCst) {
            if let Ok(summary) = strex::dispatch::run_worker(proxy, &opts, &mut runner) {
                shards += summary.shards_run;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        shards
    })
}

/// Runs one full chaos scenario under `plan` and returns the submitter's
/// outcome. Everything is torn down before returning; a scenario that
/// cannot tear down is a hang, caught by the caller's watchdog.
fn chaos_round(plan: FaultPlan, shards: usize) -> Result<String, String> {
    let (coord, stop_server, server) = spawn_server("127.0.0.1:0", None);
    let mut proxy = ChaosProxy::start("127.0.0.1:0", coord, plan).expect("proxy up");
    let via = proxy.local_addr();

    let stop_workers = Arc::new(AtomicBool::new(false));
    let w1 = spawn_chaos_worker(via, "chaos-w1", Arc::clone(&stop_workers));
    let w2 = spawn_chaos_worker(via, "chaos-w2", Arc::clone(&stop_workers));

    // Diagnostic heartbeat: a hung scenario is only debuggable if the
    // watchdog's panic is preceded by the coordinator's view of the
    // world. Quiet on the happy path (rounds finish well under 5 s).
    let monitor_stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&monitor_stop);
        let frames = proxy.frames();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_secs(5));
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!(
                    "[chaos monitor] frames_seen={} status={:?}",
                    frames.load(Ordering::SeqCst),
                    strex::dispatch::status(coord)
                );
            }
        });
    }

    let outcome = submit_with_retry(via, CAMPAIGN, shards, 20)
        .map(|r| r.to_json())
        .map_err(|e| e.to_string());
    monitor_stop.store(true, Ordering::SeqCst);

    stop_workers.store(true, Ordering::SeqCst);
    stop_server.store(true, Ordering::SeqCst);
    proxy.shutdown();
    server.join().expect("server thread").expect("serve ok");
    w1.join().expect("w1");
    w2.join().expect("w2");
    outcome
}

/// Runs `f` under a wall-clock watchdog: if the scenario does not finish
/// in `secs`, the test fails loudly instead of hanging the suite.
fn under_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            worker.join().expect("scenario thread");
            v
        }
        Err(_) => panic!("chaos scenario hung past the {secs}s watchdog"),
    }
}

#[test]
fn a_benign_proxy_is_invisible_to_the_merge() {
    let outcome = under_watchdog(120, || chaos_round(FaultPlan::benign(7), 3));
    assert_eq!(
        outcome.expect("no faults, no failure"),
        tiny_sequential().to_json()
    );
}

#[test]
fn every_seed_yields_the_identical_merge_or_a_typed_error() {
    // The bounded sweep: derived plans across the fault space. Each seed
    // must converge — bit-identical result or a typed error string —
    // with no panic and no hang. The golden JSON is computed once.
    let golden = tiny_sequential().to_json();
    for seed in 1..=6u64 {
        let plan = FaultPlan::from_seed(seed);
        eprintln!("chaos sweep: seed {seed}, plan {plan:?}");
        let outcome = under_watchdog(120, move || chaos_round(plan, 3));
        match outcome {
            Ok(json) => assert_eq!(json, golden, "seed {seed} corrupted the merge"),
            Err(e) => assert!(!e.is_empty(), "seed {seed}: untyped failure"),
        }
    }
}

#[test]
fn coordinator_killed_mid_job_resumes_from_its_journal() {
    // The crash-restart drill, deterministic faults only (the benign
    // proxy): kill the coordinator while the job is in flight, restart
    // it on the same port and journal, and the retrying submitter must
    // still receive the bit-identical merge — shards completed before
    // the kill are adopted from the ledger, not re-run.
    let journal =
        std::env::temp_dir().join(format!("strex-chaos-journal-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let outcome = under_watchdog(180, {
        let journal = journal.clone();
        move || {
            let (coord, stop_first, first) = spawn_server("127.0.0.1:0", Some(journal.clone()));
            let mut proxy =
                ChaosProxy::start("127.0.0.1:0", coord, FaultPlan::benign(3)).expect("proxy up");
            let via = proxy.local_addr();

            let stop_workers = Arc::new(AtomicBool::new(false));
            let w1 = spawn_chaos_worker(via, "crash-w1", Arc::clone(&stop_workers));
            let w2 = spawn_chaos_worker(via, "crash-w2", Arc::clone(&stop_workers));

            let submitter = std::thread::spawn(move || {
                submit_with_retry(via, CAMPAIGN, 3, 12)
                    .map(|r| r.to_json())
                    .map_err(|e| e.to_string())
            });

            // Let the job get in flight (shards take ~hundreds of ms;
            // some complete, some do not), then kill the coordinator.
            std::thread::sleep(Duration::from_millis(400));
            stop_first.store(true, Ordering::SeqCst);
            first.join().expect("first server").expect("clean stop");

            // Restart on the same port with the same ledger. The journal
            // has the submission and any finished shards; the workers and
            // submitter reconnect on their own.
            let (_, stop_second, second) = spawn_server(&coord.to_string(), Some(journal));
            let outcome = submitter.join().expect("submitter");

            stop_workers.store(true, Ordering::SeqCst);
            stop_second.store(true, Ordering::SeqCst);
            proxy.shutdown();
            second.join().expect("second server").expect("serve ok");
            w1.join().expect("w1");
            w2.join().expect("w2");
            outcome
        }
    });

    assert_eq!(
        outcome.expect("the job survives the crash"),
        tiny_sequential().to_json()
    );
    let _ = std::fs::remove_file(&journal);
}

/// The accept loops block in `accept` and are woken by a connect from
/// their own shutdown; a listener on an unspecified address must be woken
/// through loopback. Both drills bind `0.0.0.0` for that reason.
const PROMPT_STOP: Duration = Duration::from_millis(500);

#[test]
fn an_idle_server_stops_promptly_and_frees_its_port() {
    let took = under_watchdog(30, || {
        let (bound, stop, server) = spawn_server("0.0.0.0:0", None);
        // Let the acceptor settle into its blocking wait.
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        stop.store(true, Ordering::SeqCst);
        server.join().expect("server thread").expect("clean stop");
        let took = t.elapsed();
        TcpListener::bind(("0.0.0.0", bound.port())).expect("the port is free at once");
        took
    });
    assert!(took < PROMPT_STOP, "the server took {took:?} to stop");
}

#[test]
fn an_idle_proxy_stops_promptly_and_frees_its_port() {
    let took = under_watchdog(30, || {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let mut proxy = ChaosProxy::start(
            "0.0.0.0:0",
            upstream.local_addr().expect("upstream address"),
            FaultPlan::benign(5),
        )
        .expect("proxy up");
        let port = proxy.local_addr().port();
        std::thread::sleep(Duration::from_millis(100));
        let t = Instant::now();
        proxy.shutdown();
        let took = t.elapsed();
        TcpListener::bind(("0.0.0.0", port)).expect("the port is free at once");
        took
    });
    assert!(took < PROMPT_STOP, "the proxy took {took:?} to stop");
}
