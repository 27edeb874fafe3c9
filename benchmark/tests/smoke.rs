//! Smoke test of the benchmark at its smallest size: every workload, once
//! untraced and once traced, with a timed phase of a single round.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["oltp-imiss", "mapreduce-data", "fleet-check"];

const END_TO_END: [&str; 10] = [
    "setup_s",
    "wall_s",
    "sim_events_per_s",
    "peak_rss_mb",
    "fail_ratio",
    "job_ms_p50",
    "job_ms_tail",
    "jobs_per_s",
    "strex_impki_reduction",
    "strex_throughput_ratio",
];

const PER_LAYER: [&str; 41] = [
    "oltp.gen_ms",
    "oltp.trace_mb",
    "oltp.gen_ns_per_event",
    "oltp.cache_hits",
    "oltp.cache_misses",
    "campaign.cells",
    "campaign.busy_share",
    "campaign.cell_ms_max",
    "driver.ns_per_event.baseline",
    "driver.ns_per_event.strex",
    "driver.ns_per_event.slicc",
    "driver.ns_per_event.hybrid",
    "driver.self_ms",
    "sched.context_switches.strex",
    "sched.context_switches.hybrid",
    "sched.migrations.slicc",
    "sim.l1i.ops",
    "sim.l1i.miss_ratio",
    "sim.l1i.ns_per_op",
    "sim.l2.ops",
    "sim.l2.miss_ratio",
    "sim.l2.ns_per_op",
    "sim.l1d.ops",
    "sim.l1d.miss_ratio",
    "sim.l1d.ns_per_op",
    "sim.dram.ops",
    "sim.dram.ns_per_op",
    "sim.attributed_share",
    "scenario.parse_us",
    "scenario.evaluate_us",
    "scenario.assertions",
    "scenario.failed",
    "wire.result_bytes",
    "wire.encode_us",
    "wire.decode_us",
    "dispatch.compute_ms_p50",
    "dispatch.wait_ms_p50",
    "dispatch.submissions",
    "dispatch.rejections",
    "dispatch.shards_completed",
    "trace.overhead",
];

struct Run {
    stdout: String,
    dir: PathBuf,
}

fn run(workload: &str, trace: bool) -> Run {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let trace = if trace { "1" } else { "0" };
    let out = Command::new(env!("CARGO_BIN_EXE_strex-benchmark"))
        .args(["--workload", workload, "--seconds", "0", "--trace", trace])
        .current_dir(&dir)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Run { stdout, dir }
}

/// `metric <workload> <name> = <value> <unit> [<direction> is better]`,
/// keyed by name, with every occurrence kept.
fn metric_lines<'a>(
    stdout: &'a str,
    workload: &str,
) -> BTreeMap<&'a str, Vec<(f64, &'a str, &'a str)>> {
    let mut lines: BTreeMap<&str, Vec<(f64, &str, &str)>> = BTreeMap::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("metric ") else {
            continue;
        };
        let words: Vec<&str> = rest.split_whitespace().collect();
        assert_eq!(words[0], workload, "{line}");
        assert_eq!(words[2], "=", "{line}");
        let value: f64 = words[3].parse().expect("a numeric value");
        let direction = words[5].trim_start_matches('[');
        assert_eq!(words[6..8], ["is", "better]"], "{line}");
        lines
            .entry(words[1])
            .or_default()
            .push((value, words[4], direction));
    }
    lines
}

fn check_metrics(stdout: &str, workload: &str, expected: &[&str]) -> BTreeMap<String, f64> {
    let lines = metric_lines(stdout, workload);
    for name in expected {
        let seen = lines.get(name).map_or(0, Vec::len);
        assert_eq!(seen, 1, "{workload}: {name} printed {seen} times");
        let (_, unit, direction) = lines[name][0];
        assert!(!unit.is_empty(), "{workload}: {name} has no unit");
        assert!(
            direction == "lower" || direction == "higher",
            "{workload}: {name} direction {direction:?}"
        );
    }
    assert_eq!(
        lines.len(),
        expected.len(),
        "{workload}: unexpected metrics {:?}",
        lines.keys()
    );
    lines
        .into_iter()
        .map(|(k, v)| (k.to_string(), v[0].0))
        .collect()
}

/// The record on the last line: correct, nothing failed, and exactly the
/// metrics `BENCHMARK.json` declares.
fn check_record(stdout: &str, workload: &str, expected: &[&str]) {
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true,"),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    for name in expected.iter().filter(|n| **n != "fail_ratio") {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload}: {name} missing from {last}"
        );
    }
    assert!(!last.contains("\"fail_ratio\""), "{workload}: {last}");
}

/// Every span lies within its parent, and a child belongs to its parent's
/// job.
fn check_spans(run: &Run, workload: &str) {
    let rel = run
        .stdout
        .lines()
        .find_map(|l| l.strip_prefix("spans written to "))
        .expect("the traced run names its span file");
    let text = std::fs::read_to_string(run.dir.join(rel)).expect("span file");
    let field = |line: &str, key: &str| -> String {
        let start = line.find(&format!("\"{key}\":")).expect("field") + key.len() + 3;
        line[start..]
            .split([',', '}'])
            .next()
            .expect("value")
            .trim_matches('"')
            .to_string()
    };
    let spans: Vec<(Option<usize>, u64, u64, u64)> = text
        .lines()
        .map(|l| {
            let parent = field(l, "parent");
            (
                (parent != "null").then(|| parent.parse().expect("parent id")),
                field(l, "job").parse().expect("job"),
                field(l, "start_ns").parse().expect("start"),
                field(l, "end_ns").parse().expect("end"),
            )
        })
        .collect();
    assert!(spans.len() > 10, "{workload}: only {} spans", spans.len());
    for (i, &(parent, job, start, end)) in spans.iter().enumerate() {
        assert!(start <= end, "{workload}: span {i} ends before it starts");
        if let Some(p) = parent {
            let (_, pjob, pstart, pend) = spans[p];
            assert!(
                pstart <= start && end <= pend,
                "{workload}: span {i} outside parent {p}"
            );
            assert_eq!(job, pjob, "{workload}: span {i} changed job");
        }
    }
}

#[test]
fn every_metric_is_printed_once_and_nothing_fails() {
    for workload in WORKLOADS {
        let plain = run(workload, false);
        let values = check_metrics(&plain.stdout, workload, &END_TO_END);
        assert_eq!(values["fail_ratio"], 0.0, "{workload}");
        check_record(&plain.stdout, workload, &END_TO_END);

        let traced = run(workload, true);
        check_metrics(&traced.stdout, workload, &PER_LAYER);
        check_record(&traced.stdout, workload, &PER_LAYER);
        check_spans(&traced, workload);
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let declared =
        std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    for name in END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .filter(|n| **n != "fail_ratio")
    {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "{name} not declared"
        );
    }
    for workload in WORKLOADS {
        assert!(
            declared.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} not declared"
        );
    }
}

/// The benchmark must outlive the deletions the roadmap plans, so its
/// sources call none of the entry points marked for removal.
#[test]
fn sources_name_nothing_planned_for_deletion() {
    let planned: Vec<String> = [
        ["WireFormat::", "Bin"],
        ["JobSpec::", "Catalog"],
        ["Shard", "Runner"],
        ["Quick", "Runner"],
        ["dispatch_", "catalog"],
        ["repro ", "dist"],
        ["repro ", "shard"],
        ["--", "procs"],
        ["--", "bench-json"],
        ["baseline_", "seed"],
    ]
    .iter()
    .map(|parts| parts.concat())
    .collect();
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![manifest.join("Cargo.toml"), manifest.join("README.md")];
    for dir in ["src", "tests"] {
        for entry in std::fs::read_dir(manifest.join(dir)).expect("source directory") {
            files.push(entry.expect("directory entry").path());
        }
    }
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source file");
        for name in &planned {
            assert!(
                !text.contains(name.as_str()),
                "{} names {name}",
                file.display()
            );
        }
    }
}
