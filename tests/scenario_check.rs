//! The scenario pipeline end to end: the committed `scenarios/`
//! directory parses and addresses real matrix cells, and a deliberately
//! failing scenario produces the per-assertion diagnostic `repro check`
//! prints — naming the assertion kind, the expected bound, the observed
//! value, and the offending cell key.

use strex::scenario::{EvaluatorRegistry, Scenario};

fn committed_scenarios() -> Vec<(String, Scenario)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("committed scenarios/ directory exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 3,
        "the paper-claim suite commits at least three scenarios"
    );
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("scenario file readable");
            let scenario =
                Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p.display().to_string(), scenario)
        })
        .collect()
}

#[test]
fn committed_scenarios_parse_and_address_their_matrices() {
    let registry = strex::sched::registry::global();
    let mut kinds_covered = std::collections::BTreeSet::new();
    for (path, scenario) in committed_scenarios() {
        // The declared matrix must itself be valid (cells() runs the
        // config validation for every cell)...
        let workloads = scenario.workloads();
        let cells = scenario
            .campaign(&workloads)
            .cells(registry)
            .unwrap_or_else(|e| panic!("{path}: invalid matrix: {e}"));
        assert!(!cells.is_empty(), "{path}: matrix yields no cells");
        // ...and every assertion must address coordinates the matrix
        // actually produces — a selector typo in a committed scenario
        // should fail here, not as a confusing FAIL in CI.
        let addressed = |w: &str, s: &str, c: usize, t: Option<usize>| {
            cells.iter().any(|(key, _)| {
                key.workload == w
                    && key.scheduler == s
                    && key.cores == c
                    && t.is_none_or(|t| key.team_size == t)
            })
        };
        for a in &scenario.assertions {
            kinds_covered.insert(a.kind());
            let selectors = match a {
                strex::scenario::Assertion::ThroughputAtLeast { cell, .. } => vec![cell],
                strex::scenario::Assertion::MetricWithin { cell, .. } => vec![cell],
                strex::scenario::Assertion::ReductionAtLeast { from, to, .. } => vec![from, to],
                strex::scenario::Assertion::RatioAtLeast {
                    numerator,
                    denominator,
                    ..
                } => vec![numerator, denominator],
                _ => vec![],
            };
            for sel in selectors {
                assert!(
                    addressed(&sel.workload, &sel.scheduler, sel.cores, sel.team_size),
                    "{path}: selector {sel} addresses no declared cell"
                );
            }
        }
    }
    // The committed suite exercises every built-in claim kind: a
    // throughput bound, a miss-rate window, and both cross-scheduler
    // ordering forms.
    for kind in strex::scenario::ASSERTION_KINDS {
        assert!(
            kinds_covered.contains(kind),
            "no committed scenario uses assertion kind {kind:?}"
        );
    }
}

/// A tiny scenario (8-transaction pool, one workload, 2 cores) that runs
/// in well under a second — enough simulation to judge real assertions.
fn tiny_scenario(assertions_json: &str) -> Scenario {
    let doc = format!(
        r#"{{
            "name": "tiny",
            "matrix": {{
                "workloads": ["TPC-C-1"],
                "pool": 8,
                "seed": 7,
                "schedulers": ["baseline", "strex"],
                "cores": [2]
            }},
            "assertions": [{assertions_json}]
        }}"#
    );
    Scenario::from_json(&doc).expect("tiny scenario is valid")
}

#[test]
fn a_failing_assertion_names_kind_expected_observed_and_cell() {
    let scenario = tiny_scenario(
        r#"{"kind": "throughput_at_least",
            "cell": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 2},
            "min": 1000000.0}"#,
    );
    let workloads = scenario.workloads();
    let result = scenario
        .campaign(&workloads)
        .run()
        .expect("tiny matrix runs");
    let outcomes = scenario
        .evaluate(&result, &EvaluatorRegistry::with_defaults())
        .expect("all kinds have evaluators");
    assert_eq!(outcomes.len(), 1);
    let o = &outcomes[0];
    assert!(!o.passed, "no simulated cell reaches 1e6 txn/cycle");
    // The diagnostic carries everything the acceptance criteria demand:
    // the assertion kind, expected vs. observed, and the cell key.
    let line = o.to_string();
    assert!(line.starts_with("FAIL throughput_at_least @ "), "{line}");
    assert!(line.contains("TPC-C-1/strex/c2/t10"), "{line}");
    assert!(
        line.contains("expected steady throughput >= 1000000"),
        "{line}"
    );
    assert!(line.contains("observed"), "{line}");
    let observed: f64 = line
        .rsplit("observed ")
        .next()
        .and_then(|tail| tail.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("observed value is numeric");
    assert!(observed > 0.0 && observed < 1_000_000.0, "{line}");
}

#[test]
fn mixed_outcomes_keep_declaration_order_and_pass_state() {
    let scenario = tiny_scenario(
        r#"{"kind": "throughput_at_least",
            "cell": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 2},
            "min": 0.0},
           {"kind": "metric_within",
            "cell": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 2},
            "metric": "i_mpki", "min": 0.0, "max": 0.0},
           {"kind": "ratio_at_least", "metric": "i_mpki",
            "numerator": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 2},
            "denominator": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 2},
            "min": 0.0}"#,
    );
    let workloads = scenario.workloads();
    let result = scenario
        .campaign(&workloads)
        .run()
        .expect("tiny matrix runs");
    let outcomes = scenario
        .evaluate(&result, &EvaluatorRegistry::with_defaults())
        .expect("all kinds have evaluators");
    let kinds: Vec<&str> = outcomes.iter().map(|o| o.kind.as_str()).collect();
    assert_eq!(
        kinds,
        ["throughput_at_least", "metric_within", "ratio_at_least"],
        "outcomes follow declaration order"
    );
    assert!(outcomes[0].passed, "throughput >= 0 always holds");
    assert!(!outcomes[1].passed, "no cell has exactly zero I-MPKI");
    assert!(outcomes[2].passed, "ratio >= 0 always holds");
}

#[test]
fn fan_out_shards_merge_to_the_in_process_result() {
    use strex::campaign::{merge, ShardSpec};

    // The property `repro check --connect` rests on, without a fleet:
    // sharding a scenario's matrix and merging reproduces the in-process
    // run bit for bit.
    let scenario = tiny_scenario(
        r#"{"kind": "throughput_at_least",
            "cell": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 2},
            "min": 0.0}"#,
    );
    let workloads = scenario.workloads();
    let whole = scenario
        .campaign(&workloads)
        .run()
        .expect("tiny matrix runs");
    let shards: Vec<_> = (0..3)
        .map(|i| {
            scenario
                .campaign(&workloads)
                .run_shard(ShardSpec::new(i, 3).expect("valid spec"))
                .expect("tiny matrix shards")
        })
        .collect();
    let merged = merge(shards).expect("shards merge");
    assert_eq!(whole.to_json(), merged.to_json());
}
