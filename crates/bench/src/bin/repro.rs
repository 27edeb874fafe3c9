//! Regenerates every table and figure of the STREX paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [fig1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|table3|table4|config|all] [--quick] [--json]
//! repro check PATH [--connect ADDR [--shards N]]
//! repro serve --listen ADDR [--jobs N] [--journal PATH] [--timeout-ms MS]
//!            [--burst N] [--refill-ms MS] [--max-pending N]
//! repro work --connect ADDR [--name LABEL] [--reconnect N]
//! repro submit --connect ADDR [--shards N] [--retry N] [--verify] [--scenario PATH]
//! repro status --connect ADDR [--watch]
//! repro chaos-proxy --listen ADDR --connect ADDR [--seed N] [--benign]
//! ```
//!
//! `fig5`/`fig6` share one run matrix, as do `fig7`/`fig8`. With `--quick`
//! the pools and databases shrink so the whole suite finishes in well under
//! a minute (used by CI); shapes are preserved, magnitudes are noisier.
//! With `--json` the figure 5/6 scheduler campaign is additionally emitted
//! as one JSON document (`CampaignResult::to_json`: every cell's key and
//! full report).
//!
//! `check` evaluates declarative scenarios (`strex::scenario`; format
//! reference in `docs/SCENARIOS.md`): `PATH` is one scenario JSON file
//! or a directory of them (`*.json`, sorted, non-recursive — the
//! committed `scenarios/` directory encodes the paper's headline
//! claims). Each scenario's scheduler × workload × cores × team-size
//! matrix runs through the campaign executor — in-process by default, or
//! dispatched to a running fleet with `--connect ADDR [--shards N]`,
//! where the coordinator evaluates the assertions on the merged result
//! and returns the same diagnostics — and every assertion prints one
//! PASS/FAIL line with the expected bound, the observed value and the
//! cell key. The output format is identical in both execution modes, so
//! CI diffs a remote check against an in-process one byte for byte. Exit
//! code 0 means every assertion of every scenario passed; 1 means at
//! least one assertion failed; 2 means the check could not run (usage,
//! I/O, or a scenario file that does not validate).
//!
//! `serve` / `work` / `submit` / `status` are the `strex::dispatch` TCP
//! campaign dispatcher (wire format in `docs/PROTOCOL.md`, operations in
//! `docs/DISPATCHER.md`). `serve` binds a coordinator that accepts
//! campaign and scenario submissions and hands shards to idle workers,
//! tracking their liveness by heartbeat and
//! re-queueing shards from dead or straggling workers (`--jobs N` exits
//! cleanly after N jobs — the CI smoke's run bound; `--journal PATH`
//! makes it crash-tolerant; `--burst`/`--refill-ms` tune per-submitter
//! token-bucket rate limiting, `--max-pending` bounds the job queue). `work` connects a worker that registers its core count
//! and executes shards until the coordinator closes the
//! connection (`taskset -c C repro work …` pins it to core C). `submit` submits the
//! quick matrix — or, with `--scenario PATH`, that scenario document —
//! split `--shards` ways and prints the merged campaign's summary plus
//! any coordinator-evaluated assertion diagnostics; `--verify`
//! additionally runs the same work in-process sequentially and fails
//! unless the dispatched result (and diagnostics) are bit-identical —
//! the end-to-end determinism check CI runs on loopback. `status` polls
//! a coordinator for one fleet snapshot (`--watch` re-polls every 2 s).
//! `chaos-proxy` sits between fleet processes and injects a seeded fault
//! storm (docs/DISPATCHER.md).

use std::env;
use std::process::ExitCode;

use strex_bench::experiments::{
    self, ablation, config_dump, fig1, fig2, fig4, fig5_fig6, fig7_fig8, fig9, future_work, table3,
    table4, Effort,
};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    // The subcommands carry their own value-taking flags, so they
    // dispatch before the generic flag check below would reject those.
    // Each requires the subcommand word first.
    match args.first().map(String::as_str) {
        Some("check") => return check_mode(&args[1..]),
        Some("serve") => return serve_mode(&args[1..]),
        Some("work") => return work_mode(&args[1..]),
        Some("submit") => return submit_mode(&args[1..]),
        Some("status") => return status_mode(&args[1..]),
        Some("chaos-proxy") => return chaos_proxy_mode(&args[1..]),
        _ => {}
    }
    for flag in args.iter().filter(|a| a.starts_with("--")) {
        if flag != "--quick" && flag != "--json" {
            eprintln!("unknown flag `{flag}`; known flags: --quick --json");
            return ExitCode::FAILURE;
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let effort = if quick { Effort::Quick } else { Effort::Full };
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |name: &str| -> bool {
        targets.is_empty()
            || targets.contains(&"all")
            || targets.contains(&name)
            || (name == "fig5" && targets.contains(&"fig6"))
            || (name == "fig7" && targets.contains(&"fig8"))
    };
    let known = [
        "all", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3", "table4",
        "config", "ablation", "future",
    ];
    for t in &targets {
        if !known.contains(t) {
            eprintln!("unknown target `{t}`; known: {known:?} [--quick]");
            return ExitCode::FAILURE;
        }
    }

    if json && !(want("fig5") || want("fig6")) {
        eprintln!("note: --json only applies to the fig5/fig6 campaign, which is not selected");
    }
    println!(
        "STREX reproduction — seed {} — {:?} effort\n",
        experiments::SEED,
        effort
    );
    if want("config") {
        println!("{}", config_dump());
    }
    if want("fig1") {
        println!("{}", fig1());
    }
    if want("fig2") {
        println!("{}", fig2(effort).0);
    }
    if want("fig4") {
        println!("{}", fig4(effort).0);
    }
    if want("fig5") || want("fig6") {
        if json {
            let ((text, _), campaign) = experiments::fig5_fig6_campaign(effort);
            println!("{text}");
            println!("{}", campaign.to_json());
        } else {
            println!("{}", fig5_fig6(effort).0);
        }
    }
    if want("fig7") || want("fig8") {
        println!("{}", fig7_fig8(effort).0);
    }
    if want("fig9") {
        println!("{}", fig9(effort).0);
    }
    if want("table3") {
        println!("{}", table3(effort).0);
    }
    if want("table4") {
        println!("{}", table4());
    }
    if want("ablation") {
        println!("{}", ablation(effort).0);
    }
    if want("future") {
        println!("{}", future_work(effort).0);
    }
    ExitCode::SUCCESS
}

/// Evaluates declarative scenarios: runs each file's declared matrix
/// through the campaign executor (in-process, or — with `--connect
/// ADDR` — a running dispatcher fleet, which evaluates the assertions
/// coordinator-side and returns the same diagnostics), judges every
/// assertion, and prints one PASS/FAIL diagnostic per assertion. The
/// output format is identical in both execution modes, so CI can diff a
/// remote check against an in-process one byte for byte.
/// Exit 0 = all passed, 1 = an assertion failed, 2 = the check could
/// not run (usage, I/O, or an invalid scenario file).
fn check_mode(rest: &[String]) -> ExitCode {
    use strex::scenario::{EvaluatorRegistry, Scenario};

    let mut path: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut shards: usize = 4;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--connect" {
            connect = match it.next() {
                Some(addr) => Some(addr.clone()),
                None => {
                    eprintln!("--connect needs an ADDR");
                    return ExitCode::from(2);
                }
            };
        } else if arg == "--shards" {
            shards = match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => n,
                _ => {
                    eprintln!("--shards needs a positive shard count");
                    return ExitCode::from(2);
                }
            };
        } else if path.is_none() && !arg.starts_with("--") {
            path = Some(arg.clone());
        } else {
            eprintln!(
                "check takes one scenario file or directory and optionally \
                 --connect ADDR [--shards N]; unexpected `{arg}`"
            );
            return ExitCode::from(2);
        }
    }
    let Some(path) = path else {
        eprintln!("usage: repro check PATH [--connect ADDR [--shards N]]");
        return ExitCode::from(2);
    };

    // A directory means every `*.json` directly inside it, sorted by
    // name so the report order (and any first-failure exit) is stable.
    let root = std::path::Path::new(&path);
    let files: Vec<std::path::PathBuf> = if root.is_dir() {
        let entries = match std::fs::read_dir(root) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("cannot read scenario directory {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut files: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            eprintln!("no `*.json` scenario files in {path}");
            return ExitCode::from(2);
        }
        files
    } else {
        vec![root.to_path_buf()]
    };

    let registry = EvaluatorRegistry::with_defaults();
    let mut broken = 0usize;
    let mut assertions = 0usize;
    let mut failed = 0usize;
    for file in &files {
        let display = file.display();
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read scenario {display}: {e}");
                broken += 1;
                continue;
            }
        };
        let scenario = match Scenario::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{display}: {e}");
                broken += 1;
                continue;
            }
        };
        println!("scenario {} ({display})", scenario.name);
        if let Some(d) = &scenario.description {
            println!("  {d}");
        }
        // Remote mode: the fleet runs the matrix and the coordinator
        // returns the evaluated diagnostics — nothing to judge locally.
        if let Some(addr) = &connect {
            match strex::dispatch::submit_scenario(addr.as_str(), &scenario, shards) {
                Ok((_, outcomes)) => {
                    for o in &outcomes {
                        println!("  {o}");
                    }
                    assertions += outcomes.len();
                    failed += outcomes.iter().filter(|o| !o.passed).count();
                }
                Err(e) => {
                    eprintln!("{display}: dispatch failed: {e}");
                    broken += 1;
                }
            }
            continue;
        }
        let workloads = scenario.workloads();
        let result = match scenario.campaign(&workloads).run() {
            Ok(result) => result,
            Err(e) => {
                eprintln!("{display}: invalid matrix: {e}");
                broken += 1;
                continue;
            }
        };
        match scenario.evaluate(&result, &registry) {
            Ok(outcomes) => {
                for o in &outcomes {
                    println!("  {o}");
                }
                assertions += outcomes.len();
                failed += outcomes.iter().filter(|o| !o.passed).count();
            }
            Err(e) => {
                eprintln!("{display}: {e}");
                broken += 1;
            }
        }
    }
    println!(
        "checked {} scenario file(s): {assertions} assertion(s), {failed} failed{}",
        files.len(),
        if broken > 0 {
            format!(", {broken} file(s) could not be evaluated")
        } else {
            String::new()
        },
    );
    if broken > 0 {
        ExitCode::from(2)
    } else if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The coordinator half of the dispatcher: binds `--listen ADDR`, accepts
/// campaign submissions and worker registrations, and serves until
/// `--jobs N` jobs complete (forever without it). Workers silent for
/// `--timeout-ms` (default 10s) are dropped and their shards re-queued;
/// a timeout under three `repro work` heartbeats is refused, since it
/// would drop idle workers between beats.
fn serve_mode(rest: &[String]) -> ExitCode {
    use std::sync::Arc;
    use strex::dispatch::{DispatchConfig, ServeOptions, Server, SystemClock, WorkerOptions};

    let heartbeat_ms = WorkerOptions::default().heartbeat_interval_ms;
    let mut listen: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut cfg = DispatchConfig::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => {
                    eprintln!("--listen needs an ADDR (e.g. 127.0.0.1:7700)");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs needs a positive job count");
                    return ExitCode::FAILURE;
                }
            },
            "--timeout-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) if ms >= 3 * heartbeat_ms => cfg.worker_timeout_ms = ms,
                _ => {
                    eprintln!(
                        "--timeout-ms needs at least {} ms: `repro work` heartbeats every \
                         {heartbeat_ms} ms, so a shorter timeout drops idle workers",
                        3 * heartbeat_ms
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--burst" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.submit_burst = n,
                _ => {
                    eprintln!("--burst needs a positive token count");
                    return ExitCode::FAILURE;
                }
            },
            "--refill-ms" => match it.next().and_then(|v| v.parse().ok()) {
                // 0 is meaningful: it disables rate limiting entirely.
                Some(ms) => cfg.submit_refill_ms = ms,
                None => {
                    eprintln!("--refill-ms needs a millisecond count (0 disables rate limiting)");
                    return ExitCode::FAILURE;
                }
            },
            "--max-pending" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.max_pending_jobs = n,
                _ => {
                    eprintln!("--max-pending needs a positive job count");
                    return ExitCode::FAILURE;
                }
            },
            "--journal" => match it.next() {
                Some(path) => journal = Some(std::path::PathBuf::from(path)),
                None => {
                    eprintln!("--journal needs a ledger file path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "serve takes --listen ADDR [--jobs N] [--journal PATH] [--timeout-ms MS] \
                     [--burst N] [--refill-ms MS] [--max-pending N]; unexpected `{other}`"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(listen) = listen else {
        eprintln!(
            "usage: repro serve --listen ADDR [--jobs N] [--journal PATH] [--timeout-ms MS] \
             [--burst N] [--refill-ms MS] [--max-pending N]"
        );
        return ExitCode::FAILURE;
    };
    let server = match Server::bind(
        listen.as_str(),
        cfg,
        strex_bench::perf::dispatch_catalog(),
        Arc::new(SystemClock::new()),
    ) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("serving campaign dispatch on {addr}"),
        Err(_) => println!("serving campaign dispatch on {listen}"),
    }
    match server.run(ServeOptions {
        max_jobs: jobs,
        journal,
        stop: None,
    }) {
        Ok(summary) => {
            println!("served {} job(s); exiting", summary.jobs_completed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The worker half of the dispatcher: connects to `--connect ADDR`,
/// registers, and executes assigned quick-matrix shards until the
/// coordinator closes the connection. `--name` labels it in coordinator
/// logs.
/// `--reconnect N` survives N coordinator outages: a transport failure
/// re-dials under jittered exponential backoff and re-registers, so a
/// fleet rides out a coordinator restart (`serve --journal`) without
/// being relaunched.
fn work_mode(rest: &[String]) -> ExitCode {
    use strex::dispatch::{connect_with_retry, run_worker, Backoff, DispatchError, WorkerOptions};

    let mut connect: Option<String> = None;
    let mut reconnect: usize = 0;
    let mut opts = WorkerOptions::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("--connect needs an ADDR");
                    return ExitCode::FAILURE;
                }
            },
            "--name" => match it.next() {
                Some(name) => opts.name = name.clone(),
                None => {
                    eprintln!("--name needs a label");
                    return ExitCode::FAILURE;
                }
            },
            "--reconnect" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => reconnect = n,
                None => {
                    eprintln!("--reconnect needs a retry count (0 disables)");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "work takes --connect ADDR [--name LABEL] [--reconnect N]; \
                     unexpected `{other}`"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("usage: repro work --connect ADDR [--name LABEL] [--reconnect N]");
        return ExitCode::FAILURE;
    };
    // Workers and the coordinator start concurrently in CI; absorb the
    // bind race instead of failing the fleet.
    let stream =
        match connect_with_retry(connect.as_str(), 50, std::time::Duration::from_millis(100)) {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("cannot reach coordinator {connect}: {e}");
                return ExitCode::FAILURE;
            }
        };
    drop(stream);
    let mut runner = strex_bench::perf::QuickRunner;
    // Transport failures are survivable up to --reconnect times: the
    // coordinator crashed or the network hiccuped, and a journal-backed
    // coordinator will come back with the same jobs. Typed rejections
    // and runner errors are final — retrying those is a retry storm.
    let mut backoff = Backoff::new(200, 10_000, u64::from(std::process::id()));
    let mut reconnects_left = reconnect;
    let mut total_shards = 0usize;
    loop {
        match run_worker(connect.as_str(), &opts, &mut runner) {
            Ok(summary) if reconnects_left > 0 => {
                // EOF with reconnects left: a restarting (or
                // chaos-killed) coordinator closes connections exactly
                // like a finished one — come back and see.
                total_shards += summary.shards_run;
                reconnects_left -= 1;
                let delay = backoff.next_delay_ms();
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
            Ok(summary) => {
                total_shards += summary.shards_run;
                println!(
                    "worker {} done: {} shard(s) executed",
                    opts.name, total_shards
                );
                return ExitCode::SUCCESS;
            }
            Err(e @ (DispatchError::Io(_) | DispatchError::Proto(_))) if reconnects_left > 0 => {
                reconnects_left -= 1;
                let delay = backoff.next_delay_ms();
                eprintln!(
                    "worker {}: coordinator unreachable ({e}); reconnecting in {delay} ms \
                     ({reconnects_left} reconnect(s) left)",
                    opts.name
                );
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
            Err(e) => {
                eprintln!("worker {} failed: {e}", opts.name);
                return ExitCode::FAILURE;
            }
        }
    }
}

/// The submitter: sends the quick matrix — or, with `--scenario PATH`,
/// that scenario's declared matrix — split `--shards` ways to
/// `--connect ADDR`, blocks for the merged campaign, and prints its
/// summary line. A scenario submission also prints the coordinator's
/// per-assertion diagnostics (same format as `repro check`) and exits
/// nonzero if any assertion failed. `--verify` re-runs the matrix
/// in-process sequentially and fails unless the dispatched result (and,
/// for scenarios, every diagnostic) is bit-identical.
fn submit_mode(rest: &[String]) -> ExitCode {
    use strex_bench::perf;

    let mut connect: Option<String> = None;
    let mut scenario_path: Option<String> = None;
    let mut shards: usize = 4;
    let mut verify = false;
    let mut retry: usize = 1;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("--connect needs an ADDR");
                    return ExitCode::FAILURE;
                }
            },
            "--scenario" => match it.next() {
                Some(path) => scenario_path = Some(path.clone()),
                None => {
                    eprintln!("--scenario needs a scenario JSON file path");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => {
                    eprintln!("--shards needs a positive shard count");
                    return ExitCode::FAILURE;
                }
            },
            "--verify" => verify = true,
            "--retry" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => retry = n,
                _ => {
                    eprintln!("--retry needs a positive attempt count");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "submit takes --connect ADDR [--scenario PATH] [--shards N] [--retry N] \
                     [--verify]; unexpected `{other}`"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!(
            "usage: repro submit --connect ADDR [--scenario PATH] [--shards N] [--retry N] \
             [--verify]"
        );
        return ExitCode::FAILURE;
    };
    // The scenario must validate locally before anything crosses the
    // wire — a typo'd file should fail here, not as a coordinator reject.
    let scenario = match &scenario_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match strex::Scenario::from_json(&text) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("cannot read scenario {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Same bind-race absorption as `work`: the coordinator may still be
    // starting when the fleet launches together (as the CI smoke does).
    if let Err(e) = strex::dispatch::connect_with_retry(
        connect.as_str(),
        50,
        std::time::Duration::from_millis(100),
    ) {
        eprintln!("cannot reach coordinator {connect}: {e}");
        return ExitCode::FAILURE;
    }
    // `--retry N` rides the coordinator's idempotency: a resubmission
    // after a crash attaches to the journal-restored job (or its cached
    // result), so N attempts never run the matrix more than once.
    let (result, outcomes) = match &scenario {
        Some(s) => {
            match strex::dispatch::submit_scenario_with_retry(connect.as_str(), s, shards, retry) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => match strex::dispatch::submit_with_retry(
            connect.as_str(),
            perf::QUICK_CAMPAIGN,
            shards,
            retry,
        ) {
            Ok(result) => (result, Vec::new()),
            Err(e) => {
                eprintln!("submit failed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if let Some(s) = &scenario {
        println!("scenario {} (dispatched to {connect})", s.name);
        for o in &outcomes {
            println!("  {o}");
        }
    }
    println!(
        "dispatched campaign merged: {} cells, {} events simulated",
        result.cells().len(),
        result.perf().total_events,
    );
    if verify {
        let (sequential, local_outcomes) = match &scenario {
            Some(s) => {
                let workloads = s.workloads();
                let sequential = match s.campaign(&workloads).parallelism(1).run() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("verify: scenario matrix failed to run in-process: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let registry = strex::EvaluatorRegistry::with_defaults();
                let local = match s.evaluate(&sequential, &registry) {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("verify: local evaluation failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                (sequential, Some(local))
            }
            None => {
                let workloads = perf::quick_matrix_workloads();
                let sequential = perf::quick_campaign(&workloads)
                    .parallelism(1)
                    .run()
                    .expect("quick matrix is valid");
                (sequential, None)
            }
        };
        if sequential.to_json() != result.to_json() {
            eprintln!("verify: FAILED — dispatched result diverged from the sequential run");
            return ExitCode::FAILURE;
        }
        if let Some(local) = local_outcomes {
            if local != outcomes {
                eprintln!(
                    "verify: FAILED — coordinator diagnostics diverged from local evaluation"
                );
                return ExitCode::FAILURE;
            }
        }
        println!("verify: ok — dispatched result bit-identical to the sequential run");
    }
    if outcomes.iter().any(|o| !o.passed) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// A deterministic fault-injecting TCP proxy between dispatcher peers:
/// listens on `--listen`, forwards frames to `--connect`, mangling them
/// per the [`strex::dispatch::FaultPlan`] derived from `--seed N`
/// (`--benign` forwards untouched). Point `work`/`submit` at the proxy
/// instead of the coordinator; same seed, same fault schedule. Runs
/// until killed — the chaos CI smoke owns its lifetime.
fn chaos_proxy_mode(rest: &[String]) -> ExitCode {
    use strex::dispatch::{ChaosProxy, FaultPlan};

    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut seed: u64 = 0;
    let mut benign = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => {
                    eprintln!("--listen needs an ADDR");
                    return ExitCode::FAILURE;
                }
            },
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("--connect needs the upstream coordinator ADDR");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => {
                    eprintln!("--seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--benign" => benign = true,
            other => {
                eprintln!(
                    "chaos-proxy takes --listen ADDR --connect ADDR [--seed N] [--benign]; \
                     unexpected `{other}`"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(listen), Some(connect)) = (listen, connect) else {
        eprintln!("usage: repro chaos-proxy --listen ADDR --connect ADDR [--seed N] [--benign]");
        return ExitCode::FAILURE;
    };
    let upstream = match std::net::ToSocketAddrs::to_socket_addrs(&connect.as_str())
        .ok()
        .and_then(|mut addrs| addrs.next())
    {
        Some(addr) => addr,
        None => {
            eprintln!("cannot resolve upstream {connect}");
            return ExitCode::FAILURE;
        }
    };
    let plan = if benign {
        FaultPlan::benign(seed)
    } else {
        FaultPlan::from_seed(seed)
    };
    let proxy = match ChaosProxy::start(listen.as_str(), upstream, plan) {
        Ok(proxy) => proxy,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "chaos proxy on {} -> {upstream}, plan {plan:?}",
        proxy.local_addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Asks a running coordinator for a fleet snapshot and prints it
/// (`--watch` polls every 2 seconds until interrupted).
fn status_mode(rest: &[String]) -> ExitCode {
    let mut connect: Option<String> = None;
    let mut watch = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => match it.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("--connect needs an ADDR");
                    return ExitCode::FAILURE;
                }
            },
            "--watch" => watch = true,
            other => {
                eprintln!("status takes --connect ADDR [--watch]; unexpected `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("usage: repro status --connect ADDR [--watch]");
        return ExitCode::FAILURE;
    };
    loop {
        match strex::dispatch::status(connect.as_str()) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("status failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if !watch {
            return ExitCode::SUCCESS;
        }
        println!();
        std::thread::sleep(std::time::Duration::from_secs(2));
    }
}
