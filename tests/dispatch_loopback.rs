//! The dispatcher end to end over real loopback TCP: a [`Server`], a
//! fleet of in-process workers, and blocking submitters — asserting the
//! tentpole guarantee (the dispatched merge is bit-identical to a
//! sequential in-process run) including the run where a worker dies
//! mid-shard and its shard is re-queued, that a scenario file dispatched
//! to the fleet yields the same diagnostics as an in-process check, and
//! that a garbage-speaking peer cannot take the coordinator down, and
//! that a journaled job checkpoints each finished cell once. Two latency
//! checks close it: a tiny job costs its simulation plus a few
//! milliseconds, and a worker returns as soon as its coordinator stops.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strex::campaign::{Campaign, CampaignResult, CampaignShard, ShardSpec};
use strex::config::{SchedulerKind, SimConfig};
use strex::dispatch::{
    read_message, replay_journal_file, run_worker, submit, submit_scenario, write_message,
    DispatchConfig, Message, ServeOptions, Server, SystemClock, WorkerOptions,
};
use strex::scenario::{EvaluatorRegistry, Scenario};
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

fn tiny_runner(campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String> {
    if campaign != CAMPAIGN {
        return Err(format!("unknown campaign {campaign:?}"));
    }
    let workloads = tiny_workloads();
    Ok(tiny_campaign(&workloads).run_shard(spec).expect("valid"))
}

/// Binds an ephemeral-port server for the tiny campaign and runs it to
/// `max_jobs` on a background thread, journaling to `journal` if given.
/// Returns the address and the join handle (the run result surfaces on
/// join).
fn spawn_server(
    cfg: DispatchConfig,
    max_jobs: usize,
    journal: Option<PathBuf>,
) -> (SocketAddr, std::thread::JoinHandle<usize>) {
    let server = Server::bind(
        "127.0.0.1:0",
        cfg,
        [CAMPAIGN.to_string()],
        Arc::new(SystemClock::new()),
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound");
    let handle = std::thread::spawn(move || {
        server
            .run(ServeOptions {
                max_jobs: Some(max_jobs),
                journal,
                stop: None,
            })
            .expect("serve")
            .jobs_completed
    });
    (addr, handle)
}

fn spawn_worker(addr: SocketAddr, name: &str) -> std::thread::JoinHandle<usize> {
    let opts = WorkerOptions {
        name: name.to_string(),
        heartbeat_interval_ms: 50,
        ..WorkerOptions::default()
    };
    std::thread::spawn(move || {
        run_worker(addr, &opts, &mut tiny_runner)
            .expect("worker run")
            .shards_run
    })
}

#[test]
fn coordinator_and_two_workers_match_sequential_bit_for_bit() {
    let (addr, server) = spawn_server(DispatchConfig::default(), 1, None);
    let w1 = spawn_worker(addr, "w1");
    let w2 = spawn_worker(addr, "w2");

    let result = submit(addr, CAMPAIGN, 3).expect("dispatched campaign");
    assert_eq!(
        result.to_json(),
        tiny_sequential().to_json(),
        "dispatched merge must be bit-identical to the sequential run"
    );

    assert_eq!(server.join().expect("server thread"), 1);
    // The server closing the connections is a clean exit for workers, and
    // between them they ran all three shards.
    let ran = w1.join().expect("w1") + w2.join().expect("w2");
    assert_eq!(ran, 3);
}

#[test]
fn worker_killed_mid_shard_requeues_and_the_job_still_merges_identically() {
    // Deterministic death: the faulty "worker" is a raw socket that
    // registers, waits for its assignment, and hangs up without
    // completing it — while it is the only worker, so the shard it holds
    // is provably in flight when it dies. The real worker starts only
    // after the death; the job must still finish, bit-identical.
    let (addr, server) = spawn_server(DispatchConfig::default(), 1, None);

    let submitter = std::thread::spawn(move || submit(addr, CAMPAIGN, 2).expect("dispatched"));

    let mut faulty = TcpStream::connect(addr).expect("connect");
    write_message(
        &mut faulty,
        &Message::Register {
            name: "faulty".into(),
            cores: 1,
        },
    )
    .expect("register");
    let mut reader = BufReader::new(faulty.try_clone().expect("clone"));
    let assigned = read_message(&mut reader)
        .expect("read assign")
        .expect("an assignment arrives");
    assert!(matches!(assigned, Message::Assign { .. }), "{assigned:?}");
    drop(reader);
    faulty
        .shutdown(std::net::Shutdown::Both)
        .expect("die mid-shard");
    drop(faulty);

    let worker = spawn_worker(addr, "survivor");
    let result = submitter.join().expect("submitter thread");
    assert_eq!(
        result.to_json(),
        tiny_sequential().to_json(),
        "re-queued shard must not perturb the merged result"
    );
    assert_eq!(server.join().expect("server thread"), 1);
    assert_eq!(
        worker.join().expect("survivor"),
        2,
        "the survivor ran both shards, including the re-queued one"
    );
}

#[test]
fn garbage_speaking_peer_does_not_take_the_coordinator_down() {
    let (addr, server) = spawn_server(DispatchConfig::default(), 1, None);

    // A peer that speaks garbage is disconnected; the coordinator keeps
    // serving.
    let mut vandal = TcpStream::connect(addr).expect("connect");
    vandal
        .write_all(b"{\"type\":\"warp\"}\nnot json at all\n\x00\x01\x02")
        .expect("garbage sent");
    vandal.flush().expect("flush");
    let mut reader = BufReader::new(vandal.try_clone().expect("clone"));
    // Whatever comes back (a reject or a plain close), the stream ends.
    let mut last = read_message(&mut reader);
    while let Ok(Some(_)) = last {
        last = read_message(&mut reader);
    }
    drop(vandal);

    // An unknown campaign is rejected with a typed message, not a hang.
    let err = submit(addr, "no-such-campaign", 2).expect_err("rejected");
    assert!(err.to_string().contains("no-such-campaign"), "{err}");

    // And a real submission afterwards still works end to end.
    let worker = spawn_worker(addr, "w");
    let result = submit(addr, CAMPAIGN, 2).expect("dispatched");
    assert_eq!(result.to_json(), tiny_sequential().to_json());
    assert_eq!(server.join().expect("server"), 1);
    assert_eq!(worker.join().expect("worker"), 2);
}

#[test]
fn scenario_file_dispatched_to_the_fleet_matches_the_in_process_check() {
    // The remote half of `repro check`: a scenario document read from a
    // file, submitted over TCP, run by a two-worker fleet, assertions
    // evaluated coordinator-side — and everything it reports (merged
    // result, per-assertion diagnostics, their printed lines) must be
    // bit-identical to an in-process check of the same file.
    const SCENARIO_JSON: &str = r#"{
        "name": "loopback-tiny",
        "description": "Tiny two-cell matrix for the loopback dispatch test",
        "matrix": {
            "workloads": ["TPC-C-1"],
            "pool": 8,
            "seed": 7,
            "small": true,
            "schedulers": ["baseline", "strex"],
            "cores": [2]
        },
        "assertions": [
            {
                "kind": "throughput_at_least",
                "cell": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 2},
                "min": 0.0
            },
            {
                "kind": "throughput_at_least",
                "cell": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 2},
                "min": 0.0
            }
        ]
    }"#;
    let path = std::env::temp_dir().join(format!(
        "strex-loopback-scenario-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, SCENARIO_JSON).expect("write scenario file");
    let text = std::fs::read_to_string(&path).expect("read scenario file");
    let _ = std::fs::remove_file(&path);
    let scenario = Scenario::from_json(&text).expect("valid scenario");

    let (addr, server) = spawn_server(DispatchConfig::default(), 1, None);
    let w1 = spawn_worker(addr, "w1");
    let w2 = spawn_worker(addr, "w2");

    let (result, outcomes) = submit_scenario(addr, &scenario, 2).expect("dispatched scenario");

    let workloads = scenario.workloads();
    let sequential = scenario.campaign(&workloads).run().expect("valid matrix");
    let local = scenario
        .evaluate(&sequential, &EvaluatorRegistry::with_defaults())
        .expect("evaluable");
    assert_eq!(
        result.to_json(),
        sequential.to_json(),
        "dispatched scenario merge must be bit-identical to the in-process run"
    );
    assert_eq!(outcomes, local);
    assert_eq!(
        outcomes.iter().map(|o| o.to_string()).collect::<Vec<_>>(),
        local.iter().map(|o| o.to_string()).collect::<Vec<_>>(),
        "the diagnostic lines a remote check prints are the in-process lines"
    );
    assert!(outcomes.iter().all(|o| o.passed), "{outcomes:?}");

    assert_eq!(server.join().expect("server"), 1);
    let ran = w1.join().expect("w1") + w2.join().expect("w2");
    assert_eq!(ran, 2, "the fleet ran both scenario shards");
}

#[test]
fn submitting_twice_concurrently_coalesces_onto_one_job() {
    let (addr, server) = spawn_server(DispatchConfig::default(), 1, None);

    // Both submissions go out while no worker exists, so the job cannot
    // complete before the second one attaches — both land as waiters on
    // the same in-flight job. Only then does a worker appear.
    let a = std::thread::spawn(move || submit(addr, CAMPAIGN, 2).expect("first submit"));
    let b = std::thread::spawn(move || submit(addr, CAMPAIGN, 2).expect("second submit"));
    std::thread::sleep(Duration::from_millis(50));
    let worker = spawn_worker(addr, "w");

    let ra = a.join().expect("a");
    let rb = b.join().expect("b");
    let golden = tiny_sequential().to_json();
    assert_eq!(ra.to_json(), golden);
    assert_eq!(rb.to_json(), golden);
    // One job completed, not two: both submissions keyed onto it.
    assert_eq!(server.join().expect("server"), 1);
    assert_eq!(worker.join().expect("worker"), 2, "the matrix ran once");
}

#[test]
fn a_journaled_job_checkpoints_each_finished_cell_once() {
    // A shard's progress is the cells it finished, each reported once: a
    // journal-backed job over the four-cell document below writes one
    // checkpoint record per matrix cell, each carrying that cell alone.
    let journal =
        std::env::temp_dir().join(format!("strex-loopback-journal-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let (addr, server) = spawn_server(DispatchConfig::default(), 1, Some(journal.clone()));
    let worker = spawn_worker(addr, "w");
    submit_scenario(addr, &tiny_tpce_job("journaled"), 2).expect("dispatched scenario");
    assert_eq!(server.join().expect("server"), 1);
    assert_eq!(worker.join().expect("worker"), 2);

    let ledger = replay_journal_file(&journal).expect("readable journal");
    let _ = std::fs::remove_file(&journal);
    let mut reported: Vec<usize> = ledger
        .into_iter()
        .filter_map(|entry| match entry.msg {
            Message::Checkpoint { cell, .. } => Some(cell.0),
            _ => None,
        })
        .collect();
    reported.sort_unstable();
    assert_eq!(reported, [0, 1, 2, 3], "one record per matrix cell");
}

/// A four-cell TPC-E document over a one-transaction pool: a few
/// milliseconds of simulation, so dispatch costs dominate its round trip.
/// Each `name` makes a distinct job (a repeated job key would be answered
/// from the coordinator's finished-result cache).
fn tiny_tpce_job(name: &str) -> Scenario {
    Scenario::from_json(&format!(
        r#"{{
        "name": "{name}",
        "matrix": {{
            "workloads": ["TPC-E"],
            "pool": 1,
            "seed": 7,
            "small": true,
            "schedulers": ["baseline", "strex"],
            "cores": [2, 4]
        }},
        "assertions": [
            {{
                "kind": "throughput_at_least",
                "cell": {{"workload": "TPC-E", "scheduler": "strex", "cores": 4}},
                "min": 0.0
            }}
        ]
    }}"#
    ))
    .expect("valid scenario")
}

#[test]
fn a_tiny_job_costs_its_simulation_plus_a_few_milliseconds() {
    // Nagle's algorithm holding back a worker's small frames until the
    // coordinator's delayed ACK, or an accept loop that polls, each add
    // tens of milliseconds to every job; this bounds what dispatch adds.
    const JOBS: usize = 20;
    let cfg = DispatchConfig {
        submit_refill_ms: 0, // twenty back-to-back jobs would empty the bucket
        ..DispatchConfig::default()
    };
    let (addr, server) = spawn_server(cfg, JOBS, None);
    // Default options, so checkpoint frames flow between the shards'
    // cells as they do in a deployed fleet.
    let worker = std::thread::spawn(move || {
        run_worker(addr, &WorkerOptions::default(), &mut tiny_runner)
            .expect("worker run")
            .shards_run
    });

    let registry = EvaluatorRegistry::with_defaults();
    let mut overheads_ms = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let scenario = tiny_tpce_job(&format!("latency {i}"));
        // One worker runs the two shards one after the other, so the
        // in-process reference runs the same cells on one thread.
        let t = Instant::now();
        let workloads = scenario.workloads();
        let local = scenario
            .campaign(&workloads)
            .parallelism(1)
            .run()
            .expect("valid matrix");
        let local_outcomes = scenario.evaluate(&local, &registry).expect("evaluable");
        let local_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (result, outcomes) = submit_scenario(addr, &scenario, 2).expect("dispatched job");
        let fleet_ms = t.elapsed().as_secs_f64() * 1e3;

        assert_eq!(result.to_json(), local.to_json(), "job {i}");
        assert_eq!(outcomes, local_outcomes, "job {i}");
        overheads_ms.push(fleet_ms - local_ms);
    }
    overheads_ms.sort_by(f64::total_cmp);
    let median = overheads_ms[JOBS / 2];
    assert!(
        median < 20.0,
        "median dispatch overhead {median:.1} ms per job; all, sorted: {overheads_ms:.1?}"
    );
    assert_eq!(server.join().expect("server"), JOBS);
    assert_eq!(worker.join().expect("worker"), 2 * JOBS);
}

#[test]
fn a_worker_returns_promptly_once_its_coordinator_stops() {
    let server = Server::bind(
        "127.0.0.1:0",
        DispatchConfig::default(),
        [CAMPAIGN.to_string()],
        Arc::new(SystemClock::new()),
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("bound");
    let server = std::thread::spawn(move || {
        let summary = server
            .run(ServeOptions {
                max_jobs: Some(1),
                ..ServeOptions::default()
            })
            .expect("serve");
        (summary.jobs_completed, Instant::now())
    });
    // Default options: a heartbeat a second, which the worker must not
    // sit out once its connection is gone.
    let worker = std::thread::spawn(move || {
        let summary =
            run_worker(addr, &WorkerOptions::default(), &mut tiny_runner).expect("worker run");
        (summary.shards_run, Instant::now())
    });

    submit(addr, CAMPAIGN, 2).expect("dispatched campaign");
    let (jobs, server_returned) = server.join().expect("server thread");
    let (shards, worker_returned) = worker.join().expect("worker thread");
    assert_eq!((jobs, shards), (1, 2));
    let lag = worker_returned.saturating_duration_since(server_returned);
    assert!(
        lag < Duration::from_millis(100),
        "run_worker returned {lag:?} after Server::run"
    );
}
