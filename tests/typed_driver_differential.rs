//! Differential tests for the driver's two instantiations: the loop
//! compiled for each built-in scheduler type (reached through the
//! registry's `SchedulerFactory::run_typed` hook, which `run` and campaign
//! cells use) must be bit-identical to the `dyn Scheduler` loop that
//! custom policies get (`run_with` on a boxed scheduler from the
//! registry's `create`), on identical inputs.
//!
//! The comparison is on serialized reports, which cover the makespan,
//! every latency, every per-core hierarchy counter and the shared-L2
//! stats, so any divergence in scheduling decisions, cache outcomes or
//! timing shows up.

use strex::config::{SchedulerKind, SimConfig};
use strex::driver::{run, run_with, SimScratch};
use strex::report::Report;
use strex::sched::registry;
use strex_oltp::workload::{Workload, WorkloadKind};

fn workloads() -> Vec<Workload> {
    vec![
        Workload::preset_small(WorkloadKind::TpccW1, 16, 7),
        Workload::preset_small(WorkloadKind::Tpce, 12, 7),
        Workload::preset_small(WorkloadKind::MapReduce, 12, 7),
    ]
}

fn cfg(cores: usize, kind: SchedulerKind) -> SimConfig {
    SimConfig::builder()
        .cores(cores)
        .scheduler(kind)
        .build()
        .expect("valid test configuration")
}

/// The `dyn Scheduler` fallback: the built-in policy boxed by the global
/// registry and driven through `run_with`.
fn run_dyn(w: &Workload, cfg: &SimConfig, scratch: &mut SimScratch) -> Report {
    let mut sched = registry::global()
        .create(cfg.scheduler.key(), cfg)
        .expect("built-in scheduler");
    run_with(w, cfg, sched.as_mut(), scratch)
}

/// `run` (the typed loop via the registry hook) vs the dyn loop, for every
/// built-in scheduler on every workload family at two core counts.
#[test]
fn typed_hook_matches_dyn_scheduler_for_every_scheduler() {
    let mut scratch = SimScratch::new();
    for w in &workloads() {
        for kind in SchedulerKind::ALL {
            for cores in [2usize, 4] {
                let cfg = cfg(cores, kind);
                let typed = run(w, &cfg);
                let dynamic = run_dyn(w, &cfg, &mut scratch);
                assert_eq!(
                    typed.to_json(),
                    dynamic.to_json(),
                    "{kind} on {} with {cores} cores diverged",
                    w.name()
                );
            }
        }
    }
}

/// Every built-in factory provides a typed run, and calling it directly
/// agrees with both the dyn loop and the registry path (`run`).
#[test]
fn explicit_run_typed_agrees_with_dyn_and_registry_paths() {
    let w = Workload::preset_small(WorkloadKind::TpccW1, 12, 3);
    let mut scratch = SimScratch::new();
    for kind in SchedulerKind::ALL {
        let cfg = cfg(4, kind);
        let typed = registry::global()
            .get(kind.key())
            .expect("built-in scheduler")
            .run_typed(&w, &cfg, &mut scratch)
            .expect("every built-in provides a typed run");
        assert_eq!(typed.to_json(), run_dyn(&w, &cfg, &mut scratch).to_json());
        assert_eq!(typed.to_json(), run(&w, &cfg).to_json(), "{kind}");
    }
}

/// The comparison must exercise STREX's victim monitor for real: on a
/// same-type pool the monitor context-switches, and both loops must count
/// exactly the same switches.
#[test]
fn victim_monitor_switches_identically_in_both_loops() {
    use strex_oltp::tpcc::TpccTxnKind;
    let w = Workload::tpcc_same_type(TpccTxnKind::Payment, 1, 10, 5);
    let cfg = cfg(2, SchedulerKind::Strex);
    let typed = run(&w, &cfg);
    let dynamic = run_dyn(&w, &cfg, &mut SimScratch::new());
    assert!(
        typed.context_switches > 0,
        "the monitor must fire on a same-type pool for this test to bite"
    );
    assert_eq!(typed.context_switches, dynamic.context_switches);
    assert_eq!(typed.to_json(), dynamic.to_json());
}
