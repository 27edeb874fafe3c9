//! `fleet-check`: a loopback fleet in one process — a coordinator
//! (`Server`), one worker (`run_worker` with default options) and one
//! closed-loop submitter sending distinct scenario documents through
//! `submit_scenario`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strex::dispatch::{
    self, run_worker, submit_scenario, DispatchConfig, DispatchError, ServeOptions, ServeSummary,
    Server, StatusCounters, SystemClock, WorkerOptions, WorkerSummary,
};
use strex::scenario::{EvaluatorRegistry, Scenario};
use strex::{CampaignResult, CampaignShard, ShardSpec};
use strex_oltp::cache::{CacheStats, WorkloadCache};
use strex_oltp::workload::Workload;

use crate::check::{self, conservation, driver_metrics, not_reached, oltp_metrics, Checked, Setup};
use crate::docs;
use crate::metrics::{end_to_end, metric, trace_overhead, Better, Outcome, Timed};
use crate::stats::{median, peak_rss_mb, SplitMix};
use crate::trace::{report_events, timed_registry, CellTimer, Tracer};
use crate::{layers, Options};

/// Shards per job: the coordinator splits, assigns and merges.
const SHARDS: usize = 2;
/// Jobs per timed round, one per pool variant; `wall_s` is the median
/// round.
const JOBS_PER_ROUND: usize = docs::FLEET_VARIANTS;
/// Seeded think time before each job, uniform in 0..=40 ms. Without it the
/// closed loop phase-locks with the coordinator's 20 ms accept poll and
/// the latency median flips between modes from run to run.
const THINK_US_MAX: u64 = 40_000;
/// Each set-up pass starts a fleet and runs one warm-up job, whose
/// latency is timer-bound; the median of several passes is steady.
const SETUP_PASSES: usize = 9;

/// A running loopback fleet.
struct Fleet {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    server: JoinHandle<Result<ServeSummary, DispatchError>>,
    worker: JoinHandle<Result<WorkerSummary, DispatchError>>,
}

impl Fleet {
    fn start() -> Result<Fleet, String> {
        // The rate limiter is a deployment setting: the default (a burst
        // of 10, one token a second per peer IP) refuses a closed loop's
        // 12th job. A token every millisecond admits the offered load.
        let cfg = DispatchConfig {
            submit_burst: 64,
            submit_refill_ms: 1,
            ..DispatchConfig::default()
        };
        let server = Server::bind(
            "127.0.0.1:0",
            cfg,
            Vec::<String>::new(),
            Arc::new(SystemClock::new()),
        )
        .map_err(|e| format!("cannot bind the coordinator: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("no coordinator address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            stop: Some(Arc::clone(&stop)),
            ..ServeOptions::default()
        };
        let server = std::thread::spawn(move || server.run(opts));
        let worker = std::thread::spawn(move || {
            let mut scenario_jobs_only = |_: &str, _: ShardSpec| -> Result<CampaignShard, String> {
                Err("this fleet runs scenario jobs only".to_string())
            };
            run_worker(addr, &WorkerOptions::default(), &mut scenario_jobs_only)
        });
        Ok(Fleet {
            addr,
            stop,
            server,
            worker,
        })
    }

    /// Asks the coordinator to stop; [`join`](Fleet::join) waits for it.
    fn signal_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn join(self) -> Vec<String> {
        self.signal_stop();
        let mut problems = Vec::new();
        match self.server.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => problems.push(format!("coordinator failed: {e}")),
            Err(_) => problems.push("coordinator thread panicked".to_string()),
        }
        match self.worker.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => problems.push(format!("worker failed: {e}")),
            Err(_) => problems.push("worker thread panicked".to_string()),
        }
        problems
    }
}

/// One submission of the timed phase.
struct Job {
    id: u64,
    variant: usize,
    scenario: Scenario,
    think_ms: f64,
    ms: f64,
    traced: bool,
    answer: Result<Checked, String>,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let seed = opts.seed;
    let variants = docs::fleet_variants(seed);
    let tracer = Arc::new(Tracer::new());

    // Set-up: parse, generate the pools, start a fleet and run one warm-up
    // job, several times; the last fleet serves the timed phase.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut retired: Vec<Fleet> = Vec::new();
    let mut fleet: Option<Fleet> = None;
    let mut templates = Vec::new();
    let mut workloads: Vec<Vec<Arc<Workload>>> = Vec::new();
    for pass in 0..SETUP_PASSES {
        let t0 = Instant::now();
        templates = variants
            .iter()
            .enumerate()
            .map(|(v, &variant)| {
                Scenario::from_json(&docs::fleet_job(
                    &format!("fleet-check {seed} warm-up {pass}.{v}"),
                    variant,
                ))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let g0 = Instant::now();
        if pass == 0 {
            workloads = templates.iter().map(Scenario::workloads).collect();
        } else {
            std::hint::black_box(templates.iter().map(check::generate).collect::<Vec<_>>());
        }
        gen_ms.push(g0.elapsed().as_secs_f64() * 1e3);
        let f = Fleet::start()?;
        submit_scenario(f.addr, &templates[0], SHARDS)
            .map_err(|e| format!("warm-up job failed: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(old) = fleet.replace(f) {
            old.signal_stop();
            retired.push(old);
        }
    }
    let fleet = fleet.expect("at least one set-up pass");
    let mut problems: Vec<String> = retired.into_iter().flat_map(Fleet::join).collect();

    // Timed phase: a closed loop, one job at a time, in rounds of one job
    // per variant.
    let mut rng = SplitMix::new(seed);
    let mut jobs: Vec<Job> = Vec::new();
    let mut untraced_rounds = Vec::new();
    let mut round_events = Vec::new();
    let mut traced_rounds = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let min_rounds = if opts.trace { 2 } else { 1 };
    let mut round = 0usize;
    while round < min_rounds || Instant::now() < deadline {
        let traced = opts.trace && round % 2 == 1;
        let r0 = Instant::now();
        let mut events = 0;
        for (variant, &spec) in variants.iter().enumerate() {
            let think_us = rng.below(THINK_US_MAX + 1);
            std::thread::sleep(Duration::from_micros(think_us));
            let id = jobs.len() as u64 + 1;
            let text = docs::fleet_job(&format!("fleet-check {seed} job {id}"), spec);
            let scenario = if traced {
                tracer.within("scenario.parse", None, id, |_| Scenario::from_json(&text))
            } else {
                Scenario::from_json(&text)
            }
            .map_err(|e| e.to_string())?;
            let j0 = Instant::now();
            let answer = if traced {
                tracer.within("job", None, id, |root| {
                    tracer.within("fleet.submit", Some(root), id, |_| {
                        submit_scenario(fleet.addr, &scenario, SHARDS)
                    })
                })
            } else {
                submit_scenario(fleet.addr, &scenario, SHARDS)
            };
            let ms = j0.elapsed().as_secs_f64() * 1e3;
            if let Ok((result, _)) = &answer {
                events += result
                    .cells()
                    .iter()
                    .map(|c| report_events(&c.report))
                    .sum::<u64>();
            }
            jobs.push(Job {
                id,
                variant,
                scenario,
                think_ms: think_us as f64 / 1e3,
                ms,
                traced,
                answer: answer.map_err(|e| e.to_string()),
            });
        }
        let secs = r0.elapsed().as_secs_f64();
        if traced {
            traced_rounds.push(secs);
        } else {
            untraced_rounds.push(secs);
            round_events.push(events);
        }
        round += 1;
    }
    let rss = peak_rss_mb()?;
    let cache = WorkloadCache::stats();
    let counters = dispatch::status(fleet.addr).map(|s| s.counters);
    problems.extend(fleet.join());

    // Output checks: each result byte-identical to an in-process run of the
    // same document, its outcomes equal to a local evaluation, and every
    // cell conserving its pool.
    let mut out = Outcome::default();
    if !problems.is_empty() {
        out.check(problems);
    }
    let local = templates
        .iter()
        .zip(&workloads)
        .map(|(t, w)| t.campaign(w).run().map_err(|e| e.to_string()))
        .collect::<Result<Vec<CampaignResult>, String>>()?;
    let local_json: Vec<String> = local.iter().map(CampaignResult::to_json).collect();
    let reg = EvaluatorRegistry::with_defaults();
    for job in &jobs {
        let mut problems = Vec::new();
        match &job.answer {
            Err(e) => problems.push(format!("job {}: {e}", job.id)),
            Ok((result, outcomes)) => {
                if result.to_json() != local_json[job.variant] {
                    problems.push(format!(
                        "job {}: fleet result differs from the in-process run",
                        job.id
                    ));
                }
                match job.scenario.evaluate(&local[job.variant], &reg) {
                    Ok(expected) if expected == *outcomes => {}
                    Ok(_) => problems.push(format!(
                        "job {}: outcomes differ from a local evaluation",
                        job.id
                    )),
                    Err(e) => problems.push(format!("job {}: {e}", job.id)),
                }
                problems.extend(conservation(result, &workloads[job.variant]));
            }
        }
        out.check(problems);
    }
    let reference = check::reference_check(docs::fleet_docs, &mut out)?;

    if opts.trace {
        let counters = counters.map_err(|e| format!("status request failed: {e}"))?;
        let setup = Setup {
            scenarios: templates,
            workloads,
            setup_s,
            gen_ms,
        };
        per_layer(
            &mut out,
            &setup,
            &jobs,
            &tracer,
            counters,
            &untraced_rounds,
            &traced_rounds,
            cache,
        );
        tracer
            .write_jsonl(&opts.spans_path())
            .map_err(|e| format!("cannot write spans: {e}"))?;
        return Ok(out);
    }

    let job_ms: Vec<f64> = jobs.iter().filter(|j| !j.traced).map(|j| j.ms).collect();
    let timed = Timed {
        setup_s,
        setup_note: format!(
            "median of {SETUP_PASSES} passes of generate, bind, register and one warm-up job"
        ),
        round_note: format!(
            "median of {} rounds of {JOBS_PER_ROUND} jobs with think time",
            untraced_rounds.len()
        ),
        rounds: untraced_rounds,
        round_events,
        jobs_per_round: JOBS_PER_ROUND,
        job_note: format!("{} jobs, submit to result", job_ms.len()),
        job_ms,
        rss_mb: rss,
        claims: check::strex_claims(&reference)?,
    };
    out.metrics = end_to_end(&timed, &out);
    Ok(out)
}

/// The per-layer metrics of a traced fleet run. For each traced job, the
/// parts of its round trip are measured locally: the same shards re-run,
/// the codecs on the returned result, and the assertion evaluation; what is
/// left is dispatch waiting.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    setup: &Setup,
    jobs: &[Job],
    tracer: &Arc<Tracer>,
    counters: StatusCounters,
    untraced_rounds: &[f64],
    traced_rounds: &[f64],
    cache: CacheStats,
) {
    use Better::{Higher, Lower};
    let mut m = oltp_metrics(setup, cache);
    m.extend(not_reached(&["campaign."]));

    let timer = CellTimer::new(Arc::clone(tracer));
    let treg = timed_registry(&timer);
    let campaigns: Vec<_> = setup
        .scenarios
        .iter()
        .zip(&setup.workloads)
        .map(|(s, w)| s.campaign(w))
        .collect();
    let reg = EvaluatorRegistry::with_defaults();
    let mut compute_ms = Vec::new();
    let mut wait_ms = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut evaluate_us = Vec::new();
    let mut bytes = Vec::new();
    let mut assertions = 0usize;
    let mut failed_assertions = 0usize;
    let mut codec_problems = Vec::new();
    let analysed: Vec<&Job> = jobs.iter().filter(|j| j.traced).collect();
    for job in &analysed {
        let Ok((result, outcomes)) = &job.answer else {
            continue;
        };
        assertions += outcomes.len();
        failed_assertions += outcomes.iter().filter(|o| !o.passed).count();
        tracer.within("job.analysis", None, job.id, |root| {
            let t = Instant::now();
            tracer.within("dispatch.compute", Some(root), job.id, |span| {
                timer.enter(span, job.id);
                for index in 0..SHARDS {
                    let spec = ShardSpec::new(index, SHARDS).expect("a valid shard");
                    campaigns[job.variant]
                        .run_shard_on(spec, &treg)
                        .expect("the job's shards run");
                }
            });
            let compute = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let json = tracer.within("wire.encode", Some(root), job.id, |_| result.to_json());
            let encode = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let decoded = tracer.within("wire.decode", Some(root), job.id, |_| {
                CampaignResult::from_json(&json)
            });
            let decode = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let evaluated = tracer.within("scenario.evaluate", Some(root), job.id, |_| {
                job.scenario.evaluate(result, &reg)
            });
            let evaluate = t.elapsed().as_secs_f64() * 1e3;
            if decoded.map(|d| d.to_json() != json).unwrap_or(true) {
                codec_problems.push(format!("job {}: the result does not round-trip", job.id));
            }
            if evaluated.as_ref() != Ok(outcomes) {
                codec_problems.push(format!("job {}: evaluation differs", job.id));
            }
            compute_ms.push(compute);
            encode_us.push(encode * 1e3);
            decode_us.push(decode * 1e3);
            evaluate_us.push(evaluate * 1e3);
            bytes.push(json.len() as f64);
            wait_ms.push(job.ms - compute - encode - decode - evaluate);
        });
    }
    if !codec_problems.is_empty() {
        out.check(codec_problems);
    }
    let per_round = JOBS_PER_ROUND as f64 / analysed.len().max(1) as f64;
    m.extend(driver_metrics(&timer.take(), 1.0 / per_round));
    m.push(metric(
        "scenario.parse_us",
        "us",
        Lower,
        1e3 * median(&tracer.durations_ms("scenario.parse")),
    ));
    m.push(metric(
        "scenario.evaluate_us",
        "us",
        Lower,
        median(&evaluate_us),
    ));
    m.push(
        metric(
            "scenario.assertions",
            "count",
            Higher,
            assertions as f64 * per_round,
        )
        .with_note("per round"),
    );
    m.push(
        metric(
            "scenario.failed",
            "count",
            Lower,
            failed_assertions as f64 * per_round,
        )
        .with_note("per round, at the run's seed; only the reference check's FAILs are failures"),
    );
    m.push(metric("wire.result_bytes", "bytes", Lower, median(&bytes)));
    m.push(metric("wire.encode_us", "us", Lower, median(&encode_us)));
    m.push(metric("wire.decode_us", "us", Lower, median(&decode_us)));
    m.push(
        metric("dispatch.compute_ms_p50", "ms", Lower, median(&compute_ms)).with_note(format!(
            "{} traced jobs, shards re-run locally",
            analysed.len()
        )),
    );
    m.push(metric(
        "dispatch.wait_ms_p50",
        "ms",
        Lower,
        median(&wait_ms),
    ));
    m.push(metric(
        "dispatch.submissions",
        "count",
        Higher,
        counters.submissions as f64,
    ));
    m.push(metric(
        "dispatch.rejections",
        "count",
        Lower,
        counters.rejections as f64,
    ));
    m.push(metric(
        "dispatch.shards_completed",
        "count",
        Higher,
        counters.shards_completed as f64,
    ));

    let sim = layers::attribute(&setup.workloads[0][0], tracer, check::REPLAY_REPS);
    m.extend(sim.metrics());
    out.check(sim.problems);
    m.push(trace_overhead(traced_rounds, untraced_rounds));
    out.notes.extend(histogram(jobs));
    out.notes.extend(think_schedule(jobs));
    out.metrics = m;
}

/// Job latencies in 5 ms buckets, so that mode flips (the accept poll, a
/// stall after a checkpoint frame) are visible.
fn histogram(jobs: &[Job]) -> Vec<String> {
    let mut counts = std::collections::BTreeMap::new();
    for j in jobs {
        *counts.entry((j.ms / 5.0) as u64).or_insert(0usize) += 1;
    }
    let mut lines = vec![format!(
        "job latency histogram, 5 ms buckets, {} jobs:",
        jobs.len()
    )];
    for (bucket, n) in counts {
        lines.push(format!(
            "  {:>4}-{:<4} ms {:>4} {}",
            bucket * 5,
            bucket * 5 + 5,
            n,
            "#".repeat(n.min(80))
        ));
    }
    lines
}

/// The seeded think time before each job, ten jobs a line.
fn think_schedule(jobs: &[Job]) -> Vec<String> {
    let mut lines = vec!["think time before each job, ms:".to_string()];
    for chunk in jobs.chunks(JOBS_PER_ROUND) {
        let row: Vec<String> = chunk
            .iter()
            .map(|j| format!("{:5.1}", j.think_ms))
            .collect();
        lines.push(format!("  {}", row.join(" ")));
    }
    lines
}
