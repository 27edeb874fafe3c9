//! Integration tests of the redesigned simulation surface: the validating
//! config builder, the scheduler registry, and the parallel campaign
//! executor — including the determinism guarantee the executor must keep.

use strex::campaign::Campaign;
use strex::config::{SchedulerKind, SimConfig, MAX_CORES};
use strex::driver::{run, run_with, SimScratch};
use strex::error::ConfigError;
use strex::sched::registry::{self, SchedulerFactory, SchedulerRegistry};
use strex::sched::{BaselineSched, Scheduler};
use strex_oltp::workload::{Workload, WorkloadKind};

fn pools() -> Vec<Workload> {
    vec![
        Workload::preset_small(WorkloadKind::TpccW1, 16, 5),
        Workload::preset_small(WorkloadKind::MapReduce, 16, 5),
        Workload::preset_small(WorkloadKind::Tpce, 12, 5),
    ]
}

/// The acceptance matrix: schedulers x workloads on a worker pool must be
/// bit-identical to sequential single-`run` calls. The comparison is on
/// the serialized reports, which cover every latency and every hierarchy
/// counter — determinism must survive the executor.
#[test]
fn parallel_campaign_matches_sequential_runs_bit_for_bit() {
    let workloads = pools();
    let base = SimConfig::builder()
        .cores(2)
        .build()
        .expect("valid base configuration");
    let result = Campaign::new(base.clone())
        .over_schedulers(SchedulerKind::ALL)
        .over_workloads(&workloads)
        .parallelism(4)
        .run()
        .expect("valid campaign");
    assert_eq!(result.len(), 12, "scheduler x workload matrix");

    for cell in result.cells() {
        let workload = workloads
            .iter()
            .find(|w| w.name() == cell.key.workload)
            .expect("cell names a campaign workload");
        let mut cfg = base.clone();
        cfg.scheduler = SchedulerKind::from_key(&cell.key.scheduler).expect("built-in");
        cfg.system.n_cores = cell.key.cores;
        cfg.strex.team_size = cell.key.team_size;
        let sequential = run(workload, &cfg);
        assert_eq!(
            cell.report.to_json(),
            sequential.to_json(),
            "cell {} diverged from a sequential run",
            cell.key
        );
    }
}

/// The sharded executor's determinism guarantee, property-tested: *any*
/// worker count — 1 (sequential), 2, 7 (coprime with the cell count, so
/// shards straddle every axis), `num_cpus`, or anything else the strategy
/// draws — produces a `CampaignResult` bit-identical to the sequential
/// one, per-worker scratch reuse and all.
mod sharded_worker_counts {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn reference() -> &'static (Vec<Workload>, String) {
        static REF: OnceLock<(Vec<Workload>, String)> = OnceLock::new();
        REF.get_or_init(|| {
            let workloads = vec![
                Workload::preset_small(WorkloadKind::TpccW1, 8, 11),
                Workload::preset_small(WorkloadKind::MapReduce, 8, 11),
            ];
            let sequential = build(&workloads, 1);
            (workloads, sequential)
        })
    }

    fn build(workloads: &[Workload], parallelism: usize) -> String {
        Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .over_schedulers([SchedulerKind::Strex, SchedulerKind::Slicc])
            .over_workloads(workloads)
            .over_cores([2, 4])
            .parallelism(parallelism)
            .run()
            .expect("valid campaign")
            .to_json()
    }

    fn worker_counts() -> impl Strategy<Value = usize> {
        let num_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        prop_oneof![
            Just(1usize),
            Just(2usize),
            Just(7usize),
            Just(num_cpus),
            // And arbitrary oversubscription beyond the cell count.
            1usize..=16,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn any_worker_count_is_bit_identical_to_sequential(workers in worker_counts()) {
            let (workloads, sequential) = reference();
            prop_assert_eq!(&build(workloads, workers), sequential);
        }
    }
}

/// The deterministic sharding layer: shard ownership must partition the
/// matrix (every cell in exactly one shard), and reassembling shards —
/// through the JSON wire format, in any merge order — must reproduce the
/// sequential `CampaignResult` byte for byte.
mod deterministic_sharding {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use strex::campaign::{merge, shard_of, CampaignShard, MergeError, ShardSpec};

    fn workloads() -> Vec<Workload> {
        vec![
            Workload::preset_small(WorkloadKind::TpccW1, 8, 11),
            Workload::preset_small(WorkloadKind::MapReduce, 8, 11),
        ]
    }

    fn campaign(workloads: &[Workload]) -> Campaign<'_> {
        Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .over_schedulers([SchedulerKind::Strex, SchedulerKind::Slicc])
            .over_workloads(workloads)
            .over_cores([2, 4])
    }

    /// The sequential result every shard/merge combination must equal.
    fn sequential_json() -> &'static str {
        static REF: OnceLock<String> = OnceLock::new();
        REF.get_or_init(|| {
            let w = workloads();
            campaign(&w)
                .parallelism(1)
                .run()
                .expect("valid campaign")
                .to_json()
        })
    }

    #[test]
    fn shard_partitions_are_disjoint_and_complete() {
        let w = workloads();
        let cells = campaign(&w)
            .cells(registry::global())
            .expect("valid campaign");
        assert_eq!(cells.len(), 8);
        for count in [1usize, 2, 3, 5, 8, 13] {
            let specs: Vec<ShardSpec> = (0..count)
                .map(|i| ShardSpec::new(i, count).expect("valid"))
                .collect();
            for (key, _) in &cells {
                // Exactly one owner per cell = disjoint AND complete.
                let owners = specs.iter().filter(|s| s.owns(key)).count();
                assert_eq!(owners, 1, "cell {key} owned by {owners} shards of {count}");
            }
        }
    }

    #[test]
    fn shard_assignment_ignores_matrix_position() {
        // The same key hashes to the same shard no matter which campaign
        // enumerated it — the property that lets processes shard without
        // coordination.
        let w = workloads();
        let small = campaign(&w[..1]).cells(registry::global()).expect("valid");
        let full = campaign(&w).cells(registry::global()).expect("valid");
        for (key, _) in &small {
            let twin = full
                .iter()
                .find(|(k, _)| k.to_string() == key.to_string())
                .expect("subset");
            assert_eq!(shard_of(key, 4), shard_of(&twin.0, 4));
        }
    }

    #[test]
    fn invalid_shard_specs_are_rejected() {
        assert_eq!(
            ShardSpec::new(0, 0).unwrap_err(),
            ConfigError::InvalidShard { index: 0, count: 0 }
        );
        assert_eq!(
            ShardSpec::new(2, 2).unwrap_err(),
            ConfigError::InvalidShard { index: 2, count: 2 }
        );
        let w = workloads();
        let err = campaign(&w)
            .run_shard(ShardSpec { index: 5, count: 3 })
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidShard { index: 5, count: 3 });
    }

    fn run_shards(count: usize) -> Vec<CampaignShard> {
        let w = workloads();
        (0..count)
            .map(|i| {
                campaign(&w)
                    .run_shard(ShardSpec::new(i, count).expect("valid"))
                    .expect("valid campaign")
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn any_shard_count_and_merge_order_reproduces_sequential(
            count in 1usize..=6,
            rotation in 0usize..6,
            reversed in any::<bool>(),
        ) {
            // Every shard crosses a simulated process boundary: serialize,
            // parse back, then merge in a permuted order.
            let mut shards: Vec<CampaignShard> = run_shards(count)
                .iter()
                .map(|s| {
                    CampaignShard::from_json(&s.to_json())
                        .map_err(|e| TestCaseError::fail(e.to_string()))
                })
                .collect::<Result<_, _>>()?;
            shards.rotate_left(rotation % count.max(1));
            if reversed {
                shards.reverse();
            }
            let merged = merge(shards).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(merged.to_json(), sequential_json());
        }
    }

    #[test]
    fn merge_rejects_incomplete_or_conflicting_shard_sets() {
        let shards = run_shards(3);
        assert!(matches!(merge(Vec::new()).unwrap_err(), MergeError::Empty));
        // A missing shard.
        assert!(matches!(
            merge(shards[..2].to_vec()).unwrap_err(),
            MergeError::MissingShard { index: 2, count: 3 }
        ));
        // A duplicated shard.
        let mut dup = shards.clone();
        dup.push(shards[1].clone());
        assert!(matches!(
            merge(dup).unwrap_err(),
            MergeError::DuplicateShard { index: 1 }
        ));
        // Disagreeing counts.
        let mut mixed = run_shards(2);
        mixed.push(shards[2].clone());
        assert!(matches!(
            merge(mixed).unwrap_err(),
            MergeError::MismatchedCounts {
                expected: 2,
                found: 3
            }
        ));
        // And the happy path still holds after all that cloning.
        assert_eq!(
            merge(shards).expect("complete").to_json(),
            sequential_json()
        );
    }

    #[test]
    fn shard_wire_format_round_trips_with_indices_and_perf() {
        let w = workloads();
        let shard = campaign(&w)
            .run_shard(ShardSpec::new(0, 2).expect("valid"))
            .expect("valid campaign");
        let json = shard.to_json();
        let parsed = CampaignShard::from_json(&json).expect("own output parses");
        assert_eq!(parsed.spec(), shard.spec());
        assert_eq!(parsed.to_json(), json, "byte-identical round trip");
        assert_eq!(parsed.cells().len(), shard.cells().len());
        for ((ia, ca), (ib, cb)) in shard.cells().iter().zip(parsed.cells()) {
            assert_eq!(ia, ib);
            assert_eq!(ca.key, cb.key, "workload_idx crosses the wire");
            assert_eq!(ca.report.to_json(), cb.report.to_json());
        }
        // Older workers also sent their own timing as a `perf` object; a
        // journal holding such a `shard_done` frame still replays, to the
        // same shard.
        let head = r#"{"shard":{"index":0,"count":2},"#;
        let old = json.replacen(
            head,
            &format!(r#"{head}"perf":{{"workers":1,"wall_seconds":0.5,"total_events":7}},"#),
            1,
        );
        assert_ne!(old, json);
        let parsed = CampaignShard::from_json(&old).expect("an old frame parses");
        assert_eq!(parsed.to_json(), json);
    }
}

#[test]
fn campaign_result_order_is_independent_of_worker_count() {
    let workloads = pools();
    let build = |parallelism| {
        Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
            .over_workloads(&workloads)
            .over_cores([2, 4])
            .parallelism(parallelism)
            .run()
            .expect("valid campaign")
    };
    let serial = build(1);
    let parallel = build(8);
    assert_eq!(serial.len(), 12);
    assert_eq!(serial.to_json(), parallel.to_json());
}

#[test]
fn campaign_json_is_well_formed() {
    let workloads = pools();
    let result = Campaign::new(SimConfig::new(2, SchedulerKind::Strex))
        .over_workloads([&workloads[0]])
        .over_team_sizes([2, 10])
        .run()
        .expect("valid campaign");
    let json = result.to_json();
    assert_json_value(&json);
    assert!(json.contains(r#""id":"TPC-C-1/strex/c2/t2""#));
    assert!(json.contains(r#""team_size":10"#));
}

#[test]
fn builder_surfaces_every_error_variant() {
    // Constructibility of each ConfigError through the public surface.
    let errs = [
        SimConfig::builder().cores(0).build().unwrap_err(),
        SimConfig::builder()
            .cores(MAX_CORES + 1)
            .build()
            .unwrap_err(),
        SimConfig::builder().team_size(0).build().unwrap_err(),
        SimConfig::builder()
            .team_size(8)
            .formation_window(2)
            .build()
            .unwrap_err(),
        {
            let mut sys = strex_sim::config::SystemConfig::with_cores(2);
            sys.l2_assoc = 0;
            SimConfig::builder().system(sys).build().unwrap_err()
        },
    ];
    assert!(matches!(errs[0], ConfigError::ZeroCores));
    assert!(matches!(errs[1], ConfigError::TooManyCores { .. }));
    assert!(matches!(errs[2], ConfigError::ZeroTeamSize));
    assert!(matches!(
        errs[3],
        ConfigError::FormationWindowTooSmall { .. }
    ));
    assert!(matches!(
        errs[4],
        ConfigError::ZeroCacheGeometry { cache: "L2" }
    ));
    // And the campaign surfaces the sixth (registry) variant.
    let w = Workload::preset_small(WorkloadKind::TpccW1, 4, 1);
    let err = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
        .over_workloads([&w])
        .over_scheduler_names(["missing"])
        .run()
        .unwrap_err();
    assert!(matches!(err, ConfigError::UnknownScheduler { .. }));
    // Every error Displays something human-readable.
    for e in errs {
        assert!(!e.to_string().is_empty());
    }
}

#[test]
fn builder_defaults_equal_default_field_for_field() {
    assert_eq!(
        SimConfig::builder().build().expect("valid"),
        SimConfig::default()
    );
}

/// Custom policies plug in through the registry without touching the
/// driver: register a factory, then drive both a single run and a whole
/// campaign through it by name.
#[test]
fn custom_factory_plugs_into_driver_and_campaign() {
    struct RenamedBaseline;
    impl SchedulerFactory for RenamedBaseline {
        fn name(&self) -> &'static str {
            "renamed-baseline"
        }
        fn create(&self, _config: &SimConfig) -> Box<dyn Scheduler> {
            Box::new(BaselineSched::new())
        }
    }

    let mut reg = SchedulerRegistry::with_defaults();
    reg.register(Box::new(RenamedBaseline));

    let w = Workload::preset_small(WorkloadKind::TpccW1, 8, 3);
    let cfg = SimConfig::new(2, SchedulerKind::Baseline);

    // Through the campaign, by name.
    let result = Campaign::new(cfg.clone())
        .over_scheduler_names(["renamed-baseline"])
        .over_workloads([&w])
        .run_on(&reg)
        .expect("valid campaign");
    assert_eq!(result.len(), 1);

    // A single run, by name: the factory's scheduler through `run_with`.
    let mut sched = reg
        .create("renamed-baseline", &cfg)
        .expect("registered above");
    let single = run_with(&w, &cfg, sched.as_mut(), &mut SimScratch::new());
    assert_eq!(result.cells()[0].report.to_json(), single.to_json());
    // Identical to the built-in baseline through the global registry (the
    // policy is the same machine under a new name), which does not see
    // the custom entry.
    assert_eq!(run(&w, &cfg).to_json(), single.to_json());
    assert!(registry::global().get("renamed-baseline").is_none());
}

/// A minimal JSON well-formedness check (the build environment has no
/// serde to parse with): validates one JSON value and panics on trailing
/// garbage or structural errors.
fn assert_json_value(s: &str) {
    let bytes = s.as_bytes();
    let end = parse_value(bytes, skip_ws(bytes, 0));
    assert_eq!(skip_ws(bytes, end), bytes.len(), "trailing garbage");
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\n' | b'\r') {
        i += 1;
    }
    i
}

fn parse_value(b: &[u8], i: usize) -> usize {
    match b.get(i) {
        Some(b'{') => parse_container(b, i, b'}', true),
        Some(b'[') => parse_container(b, i, b']', false),
        Some(b'"') => parse_string(b, i),
        Some(b't') => expect_lit(b, i, b"true"),
        Some(b'f') => expect_lit(b, i, b"false"),
        Some(b'n') => expect_lit(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let mut j = i + 1;
            while j < b.len() && matches!(b[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                j += 1;
            }
            j
        }
        other => panic!("unexpected token {other:?} at {i}"),
    }
}

fn parse_container(b: &[u8], mut i: usize, close: u8, keyed: bool) -> usize {
    i = skip_ws(b, i + 1);
    if b.get(i) == Some(&close) {
        return i + 1;
    }
    loop {
        if keyed {
            i = parse_string(b, i);
            i = skip_ws(b, i);
            assert_eq!(b.get(i), Some(&b':'), "missing colon at {i}");
            i = skip_ws(b, i + 1);
        }
        i = skip_ws(b, parse_value(b, i));
        match b.get(i) {
            Some(b',') => i = skip_ws(b, i + 1),
            Some(c) if *c == close => return i + 1,
            other => panic!("expected ',' or close, got {other:?} at {i}"),
        }
    }
}

fn expect_lit(b: &[u8], i: usize, lit: &[u8]) -> usize {
    assert_eq!(
        b.get(i..i + lit.len()),
        Some(lit),
        "expected literal at {i}"
    );
    i + lit.len()
}

fn parse_string(b: &[u8], i: usize) -> usize {
    assert_eq!(b.get(i), Some(&b'"'), "expected string at {i}");
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    panic!("unterminated string at {i}");
}
