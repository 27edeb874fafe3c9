//! The in-process workloads, `oltp-imiss` and `mapreduce-data`: the
//! workload's scenario documents checked the way `repro check` does it —
//! `Scenario::from_json`, `Scenario::workloads`, `Scenario::campaign(..).run()`
//! and `Scenario::evaluate` — over and over for the run's duration.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use strex::scenario::{AssertionOutcome, EvaluatorRegistry, Scenario};
use strex::{CampaignResult, SchedulerRegistry};
use strex_oltp::cache::{CacheStats, WorkloadCache};
use strex_oltp::trace::PackedRef;
use strex_oltp::workload::{Workload, WorkloadKind};

use crate::docs::REFERENCE_SEED;
use crate::metrics::{end_to_end, metric, trace_overhead, Better, Metric, Outcome, Timed};
use crate::stats::{median, peak_rss_mb};
use crate::trace::{timed_registry, CellRecord, CellTimer, Tracer};
use crate::{layers, Options};

/// Set-up is short (tens of milliseconds), so it is timed as the median of
/// several identical passes.
const SETUP_PASSES: usize = 15;

/// Best-of repetitions for each replay of the per-layer attribution.
pub const REPLAY_REPS: usize = 5;

pub type Checked = (CampaignResult, Vec<AssertionOutcome>);

/// One document checked end to end, as `repro check` does it.
fn check(text: &str) -> Result<Checked, String> {
    let scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    let workloads = scenario.workloads();
    let result = scenario
        .campaign(&workloads)
        .run()
        .map_err(|e| e.to_string())?;
    let outcomes = scenario
        .evaluate(&result, &EvaluatorRegistry::with_defaults())
        .map_err(|e| e.to_string())?;
    Ok((result, outcomes))
}

/// The same check with a span around each call into a layer.
fn check_traced(
    text: &str,
    tracer: &Tracer,
    timer: &CellTimer,
    reg: &SchedulerRegistry,
    job: u64,
) -> Result<Checked, String> {
    tracer.within("job", None, job, |root| {
        let scenario = tracer
            .within("scenario.parse", Some(root), job, |_| {
                Scenario::from_json(text)
            })
            .map_err(|e| e.to_string())?;
        let workloads = tracer.within("oltp.workloads", Some(root), job, |_| scenario.workloads());
        let result = tracer
            .within("campaign.run", Some(root), job, |span| {
                timer.enter(span, job);
                scenario.campaign(&workloads).run_on(reg)
            })
            .map_err(|e| e.to_string())?;
        let outcomes = tracer
            .within("scenario.evaluate", Some(root), job, |_| {
                scenario.evaluate(&result, &EvaluatorRegistry::with_defaults())
            })
            .map_err(|e| e.to_string())?;
        Ok((result, outcomes))
    })
}

/// Generates a scenario's pools the way `Scenario::workloads` does, but
/// without the process-wide cache, so that set-up can be repeated.
pub fn generate(scenario: &Scenario) -> Vec<Workload> {
    scenario
        .matrix
        .workloads
        .iter()
        .map(|name| {
            let kind = WorkloadKind::ALL
                .into_iter()
                .find(|k| k.name() == name)
                .expect("the document names a known workload");
            Workload::preset_small(kind, scenario.matrix.pool, scenario.matrix.seed)
        })
        .collect()
}

/// What set-up measured, and the scenarios and pools the timed phase uses.
pub struct Setup {
    pub scenarios: Vec<Scenario>,
    pub workloads: Vec<Vec<Arc<Workload>>>,
    pub setup_s: Vec<f64>,
    pub gen_ms: Vec<f64>,
}

/// Parses the documents and generates their pools, `passes` times. The
/// first pass fills `WorkloadCache`; the others generate uncached copies
/// and drop them, so memory holds at most one spare copy.
pub fn setup(texts: &[String], passes: usize, tracer: Option<&Tracer>) -> Result<Setup, String> {
    let mut out = Setup {
        scenarios: Vec::new(),
        workloads: Vec::new(),
        setup_s: Vec::new(),
        gen_ms: Vec::new(),
    };
    for pass in 0..passes {
        let root = tracer.map(|t| t.open("setup", None, 0));
        let t0 = Instant::now();
        let scenarios = texts
            .iter()
            .map(|t| Scenario::from_json(t))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let gen = tracer.map(|t| t.open("oltp.generate", root, 0));
        let g0 = Instant::now();
        if pass == 0 {
            out.workloads = scenarios.iter().map(Scenario::workloads).collect();
        } else {
            let fresh: Vec<Vec<Workload>> = scenarios.iter().map(generate).collect();
            std::hint::black_box(&fresh);
        }
        out.gen_ms.push(g0.elapsed().as_secs_f64() * 1e3);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if let (Some(t), Some(g), Some(r)) = (tracer, gen, root) {
            t.close(g);
            t.close(r);
        }
        out.scenarios = scenarios;
    }
    Ok(out)
}

/// Checks every cell of `result`: each instruction retired exactly once
/// and each transaction completed, against the pools the cells ran on.
pub fn conservation(result: &CampaignResult, workloads: &[Arc<Workload>]) -> Vec<String> {
    let mut problems = Vec::new();
    for cell in result.cells() {
        let Some(w) = workloads.get(cell.key.workload_idx) else {
            problems.push(format!(
                "{}: no workload {}",
                cell.key, cell.key.workload_idx
            ));
            continue;
        };
        let retired = cell.report.stats.instructions();
        if retired != w.total_instructions() {
            problems.push(format!(
                "{}: {retired} instructions retired, the pool has {}",
                cell.key,
                w.total_instructions()
            ));
        }
        if cell.report.transactions != w.len() {
            problems.push(format!(
                "{}: {} transactions, the pool has {}",
                cell.key,
                cell.report.transactions,
                w.len()
            ));
        }
    }
    problems
}

/// The paper's two headline ratios over the 4-core baseline and STREX
/// cells of `results`, as geometric means across workloads: 1 − I-MPKI
/// (strex) / I-MPKI (baseline), and steady throughput strex / baseline.
pub fn strex_claims(results: &[CampaignResult]) -> Result<(f64, f64), String> {
    let mut impki = Vec::new();
    let mut throughput = Vec::new();
    for result in results {
        let mut names: Vec<&str> = result
            .cells()
            .iter()
            .map(|c| c.key.workload.as_str())
            .collect();
        names.dedup();
        for name in names {
            if let (Some(b), Some(s)) = (
                result.report(name, "baseline", 4),
                result.report(name, "strex", 4),
            ) {
                impki.push(s.i_mpki() / b.i_mpki());
                throughput.push(s.steady_throughput() / b.steady_throughput());
            }
        }
    }
    if impki.is_empty() {
        return Err("no 4-core baseline and strex cells to compare".to_string());
    }
    let geomean = |v: &[f64]| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    Ok((1.0 - geomean(&impki), geomean(&throughput)))
}

/// The output check that the committed assertions hold: the workload's
/// documents at [`REFERENCE_SEED`], where every one must PASS. Returns the
/// results, for the claim metrics.
pub fn reference_check(
    docs_for: fn(u64) -> Vec<String>,
    out: &mut Outcome,
) -> Result<Vec<CampaignResult>, String> {
    let mut results = Vec::new();
    for text in docs_for(REFERENCE_SEED) {
        let scenario = Scenario::from_json(&text).map_err(|e| e.to_string())?;
        let (result, outcomes) = check(&text)?;
        let cells = conservation(&result, &scenario.workloads());
        if !cells.is_empty() {
            out.check(cells);
        }
        for o in outcomes {
            out.check(if o.passed {
                Vec::new()
            } else {
                vec![format!("reference seed {REFERENCE_SEED}: {o}")]
            });
        }
        results.push(result);
    }
    Ok(results)
}

/// Runs one in-process workload: set-up, the timed phase, the output
/// checks and, when traced, the per-layer analysis.
pub fn run(docs_for: fn(u64) -> Vec<String>, opts: &Options) -> Result<Outcome, String> {
    let texts = docs_for(opts.seed);
    let tracer = Arc::new(Tracer::new());
    let traced = opts.trace.then_some(&*tracer);
    let setup = setup(&texts, SETUP_PASSES, traced)?;

    // Timed phase: rounds of one check per document. A traced run
    // alternates untraced and traced rounds so that the overhead of the
    // spans is a same-run ratio.
    let timer = CellTimer::new(Arc::clone(&tracer));
    let reg = timed_registry(&timer);
    let mut untraced_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut round_events = Vec::new();
    let mut checked: Vec<Vec<Result<Checked, String>>> = texts.iter().map(|_| Vec::new()).collect();
    let mut job = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let min_rounds = if opts.trace { 2 } else { 1 };
    let mut round = 0usize;
    while round < min_rounds || Instant::now() < deadline {
        let traced_round = opts.trace && round % 2 == 1;
        let r0 = Instant::now();
        let mut events = 0;
        for (d, text) in texts.iter().enumerate() {
            job += 1;
            let out = if traced_round {
                check_traced(text, &tracer, &timer, &reg, job)
            } else {
                check(text)
            };
            if let Ok((result, _)) = &out {
                events += result.perf().total_events;
            }
            checked[d].push(out);
        }
        let secs = r0.elapsed().as_secs_f64();
        if traced_round {
            traced_rounds.push(secs);
        } else {
            untraced_rounds.push(secs);
            round_events.push(events);
        }
        round += 1;
    }
    let rss = peak_rss_mb()?;
    let cache = WorkloadCache::stats();

    // Output checks, outside the timed phase: every cell conserves its
    // pool's instructions and transactions, and every repeat of a document
    // returns byte-identical results and outcomes.
    let mut out = Outcome::default();
    for (d, runs) in checked.iter().enumerate() {
        let mut first: Option<(String, &Vec<AssertionOutcome>)> = None;
        for run in runs {
            let mut problems = Vec::new();
            match run {
                Err(e) => problems.push(format!("{}: {e}", setup.scenarios[d].name)),
                Ok((result, outcomes)) => {
                    problems.extend(conservation(result, &setup.workloads[d]));
                    let json = result.to_json();
                    match &first {
                        None => first = Some((json, outcomes)),
                        Some((j, o)) => {
                            if *j != json || *o != outcomes {
                                problems.push(format!(
                                    "{}: a repeated check returned a different result",
                                    setup.scenarios[d].name
                                ));
                            }
                        }
                    }
                }
            }
            out.check(problems);
        }
    }
    let reference = reference_check(docs_for, &mut out)?;

    if opts.trace {
        per_layer(
            &mut out,
            &setup,
            &checked,
            &tracer,
            &timer,
            &untraced_rounds,
            &traced_rounds,
            cache,
        );
        tracer
            .write_jsonl(&opts.spans_path())
            .map_err(|e| format!("cannot write spans: {e}"))?;
        return Ok(out);
    }

    // A job here is one check of every document, as one `repro check`
    // invocation over the workload's documents does it: the same interval
    // as a round.
    let timed = Timed {
        setup_s: setup.setup_s,
        setup_note: format!("median of {SETUP_PASSES} set-up passes"),
        round_note: format!(
            "median of {} rounds, {} documents each",
            untraced_rounds.len(),
            texts.len()
        ),
        job_ms: untraced_rounds.iter().map(|s| s * 1e3).collect(),
        job_note: "a job is one check of every document".to_string(),
        rounds: untraced_rounds,
        round_events,
        jobs_per_round: 1,
        rss_mb: rss,
        claims: strex_claims(&reference)?,
    };
    out.metrics = end_to_end(&timed, &out);
    Ok(out)
}

/// The per-layer metrics of a traced in-process run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    setup: &Setup,
    checked: &[Vec<Result<Checked, String>>],
    tracer: &Arc<Tracer>,
    timer: &CellTimer,
    untraced_rounds: &[f64],
    traced_rounds: &[f64],
    cache: CacheStats,
) {
    use Better::{Higher, Lower};
    let cells = timer.take();
    let spans = tracer.spans();
    let rounds = traced_rounds.len().max(1) as f64;

    let mut m: Vec<Metric> = oltp_metrics(setup, cache);

    // Campaign executor: the cells of each traced `campaign.run` span.
    let mut busy = 0.0;
    let mut capacity = 0.0;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (id, span) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "campaign.run")
    {
        let under: Vec<&CellRecord> = cells
            .iter()
            .filter(|c| spans[c.span].parent == Some(id))
            .collect();
        busy += under.iter().map(|c| c.ns as f64).sum::<f64>();
        capacity += (workers.min(under.len().max(1))) as f64 * span.ns() as f64;
    }
    let cell_ms_max = cells.iter().map(|c| c.ns).max().unwrap_or(0) as f64 / 1e6;
    m.push(
        metric(
            "campaign.cells",
            "count",
            Lower,
            cells.len() as f64 / rounds,
        )
        .with_note("per round"),
    );
    m.push(
        metric(
            "campaign.busy_share",
            "ratio",
            Higher,
            busy / capacity.max(1.0),
        )
        .with_note(format!(
            "sum of cell time over workers x wall, {workers} workers"
        )),
    );
    m.push(metric("campaign.cell_ms_max", "ms", Lower, cell_ms_max));
    m.extend(driver_metrics(&cells, rounds));

    // Scenario layer.
    let per_round_assertions: usize = checked
        .iter()
        .filter_map(|runs| runs.first().and_then(|r| r.as_ref().ok()))
        .map(|(_, o)| o.len())
        .sum();
    let per_round_failed: usize = checked
        .iter()
        .filter_map(|runs| runs.first().and_then(|r| r.as_ref().ok()))
        .map(|(_, o)| o.iter().filter(|o| !o.passed).count())
        .sum();
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
        1e3 * median(&tracer.durations_ms("scenario.evaluate")),
    ));
    m.push(
        metric(
            "scenario.assertions",
            "count",
            Higher,
            per_round_assertions as f64,
        )
        .with_note("per round"),
    );
    m.push(
        metric("scenario.failed", "count", Lower, per_round_failed as f64).with_note(
            "per round, at the run's seed; only the reference check's FAILs are failures",
        ),
    );
    m.extend(not_reached(&["wire.", "dispatch."]));

    // Memory layers, on the first document's first workload.
    let sim = layers::attribute(&setup.workloads[0][0], tracer, REPLAY_REPS);
    m.extend(sim.metrics());
    out.check(sim.problems);

    m.push(trace_overhead(traced_rounds, untraced_rounds));
    out.metrics = m;
}

/// Trace generation and the workload cache.
pub fn oltp_metrics(setup: &Setup, cache: CacheStats) -> Vec<Metric> {
    use Better::Lower;
    let refs: usize = setup
        .workloads
        .iter()
        .flatten()
        .flat_map(|w| w.txns())
        .map(|t| t.refs().len())
        .sum();
    let gen_ms = median(&setup.gen_ms);
    vec![
        metric("oltp.gen_ms", "ms", Lower, gen_ms)
            .with_note(format!("median of {} passes", setup.gen_ms.len())),
        metric(
            "oltp.trace_mb",
            "MB",
            Lower,
            (refs * std::mem::size_of::<PackedRef>()) as f64 / 1e6,
        ),
        metric(
            "oltp.gen_ns_per_event",
            "ns",
            Lower,
            gen_ms * 1e6 / refs.max(1) as f64,
        ),
        metric(
            "oltp.cache_hits",
            "count",
            Better::Higher,
            cache.hits as f64,
        ),
        metric("oltp.cache_misses", "count", Lower, cache.misses as f64),
    ]
}

/// Per-scheduler cost per simulated event, and the scheduler decision
/// counts per round, from the timed cells.
pub fn driver_metrics(cells: &[CellRecord], rounds: f64) -> Vec<Metric> {
    use Better::Lower;
    let mut by_sched: BTreeMap<&str, (f64, u64, u64, u64)> = BTreeMap::new();
    for c in cells {
        let e = by_sched.entry(c.scheduler).or_default();
        e.0 += c.ns as f64;
        e.1 += c.events;
        e.2 += c.context_switches;
        e.3 += c.migrations;
    }
    let ns_per_event = |s: &str| by_sched.get(s).map_or(0.0, |e| e.0 / e.1.max(1) as f64);
    let count = |s: &str, f: fn(&(f64, u64, u64, u64)) -> u64| {
        by_sched.get(s).map_or(0.0, |e| f(e) as f64 / rounds)
    };
    vec![
        metric(
            "driver.ns_per_event.baseline",
            "ns",
            Lower,
            ns_per_event("baseline"),
        ),
        metric(
            "driver.ns_per_event.strex",
            "ns",
            Lower,
            ns_per_event("strex"),
        ),
        metric(
            "driver.ns_per_event.slicc",
            "ns",
            Lower,
            ns_per_event("slicc"),
        ),
        metric(
            "driver.ns_per_event.hybrid",
            "ns",
            Lower,
            ns_per_event("hybrid"),
        ),
        metric(
            "sched.context_switches.strex",
            "count",
            Lower,
            count("strex", |e| e.2),
        )
        .with_note("per round"),
        metric(
            "sched.context_switches.hybrid",
            "count",
            Lower,
            count("hybrid", |e| e.2),
        )
        .with_note("per round"),
        metric(
            "sched.migrations.slicc",
            "count",
            Lower,
            count("slicc", |e| e.3),
        )
        .with_note("per round"),
    ]
}

/// Layers a workload never reaches, reported as 0 so that every workload
/// prints the same names.
pub fn not_reached(prefixes: &[&str]) -> Vec<Metric> {
    use Better::{Higher, Lower};
    let all = [
        metric("wire.result_bytes", "bytes", Lower, 0.0),
        metric("wire.encode_us", "us", Lower, 0.0),
        metric("wire.decode_us", "us", Lower, 0.0),
        metric("dispatch.compute_ms_p50", "ms", Lower, 0.0),
        metric("dispatch.wait_ms_p50", "ms", Lower, 0.0),
        metric("dispatch.submissions", "count", Higher, 0.0),
        metric("dispatch.rejections", "count", Lower, 0.0),
        metric("dispatch.shards_completed", "count", Higher, 0.0),
        metric("campaign.cells", "count", Lower, 0.0),
        metric("campaign.busy_share", "ratio", Higher, 0.0),
        metric("campaign.cell_ms_max", "ms", Lower, 0.0),
    ];
    all.into_iter()
        .filter(|m| prefixes.iter().any(|p| m.name.starts_with(p)))
        .map(|m| m.with_note("not reached by this workload"))
        .collect()
}
