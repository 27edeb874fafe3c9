//! Differential test of Section 5.5's hybrid: a hybrid run is exactly its
//! delegate's run. `HybridSched` profiles the FPTable, picks STREX or
//! SLICC for the core count, and forwards every scheduler hook to it, so
//! `driver::run` of the hybrid must serialize to the same bytes as
//! `driver::run` of the scheduler it picked, once the two labels that
//! name the hybrid (`Report::scheduler` and `hybrid_choice`) are set
//! aside. Campaigns rely on this when they take a hybrid cell's report
//! from its delegate's cell instead of simulating it.
//!
//! The serialized report covers the makespan, every latency, every
//! per-core hierarchy counter, the shared-L2 stats, context switches and
//! migrations, so a hook the hybrid fails to forward — STREX's victim
//! monitor, say — shows up as a divergence.

use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex::report::Report;
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::config::SystemConfig;
use strex_sim::prefetch::PrefetcherKind;
use strex_sim::replacement::ReplacementKind;

const SEED: u64 = 20130624;
const POOL: usize = 12;

/// The report's bytes with the hybrid's two labels blanked.
fn normalized(mut report: Report) -> String {
    report.scheduler.clear();
    report.hybrid_choice = None;
    report.to_json()
}

/// Runs the hybrid and the scheduler it delegated to on `system`, asserts
/// that the two are one run, and returns the delegate.
fn assert_hybrid_is_its_delegate(w: &Workload, system: SystemConfig) -> SchedulerKind {
    let cfg = |kind| {
        SimConfig::builder()
            .system(system)
            .scheduler(kind)
            .build()
            .expect("valid test configuration")
    };
    let hybrid = run(w, &cfg(SchedulerKind::Hybrid));
    assert_eq!(hybrid.scheduler, "STREX+SLICC");
    let delegate = match hybrid.hybrid_choice.as_deref() {
        Some("STREX") => SchedulerKind::Strex,
        Some("SLICC") => SchedulerKind::Slicc,
        other => panic!("the hybrid reported no delegate: {other:?}"),
    };
    let own = run(w, &cfg(delegate));
    let what = format!(
        "hybrid ({delegate}) on {} at {} cores, {:?}/{:?}",
        w.name(),
        system.n_cores,
        system.l1i_replacement,
        system.prefetcher
    );
    assert_eq!(own.hybrid_choice, None, "{what}: only the hybrid chooses");
    assert_eq!(normalized(hybrid), normalized(own), "{what} diverged");
    delegate
}

/// Every replacement policy at 2, 4, 8 and 16 cores, then the next-line
/// and PIF prefetchers at 4 cores; returns the delegate of each cell.
fn assert_every_hybrid_cell_is_its_delegate(kind: WorkloadKind) -> Vec<SchedulerKind> {
    let w = Workload::preset_small(kind, POOL, SEED);
    let mut delegates = Vec::new();
    for cores in [2usize, 4, 8, 16] {
        for repl in ReplacementKind::ALL {
            let mut system = SystemConfig::with_cores(cores);
            system.l1i_replacement = repl;
            system.l1d_replacement = repl;
            delegates.push(assert_hybrid_is_its_delegate(&w, system));
        }
    }
    for prefetcher in [PrefetcherKind::NextLine, PrefetcherKind::PifIdeal] {
        let system = SystemConfig::with_cores(4).with_prefetcher(prefetcher);
        delegates.push(assert_hybrid_is_its_delegate(&w, system));
    }
    delegates
}

/// The OLTP workloads' footprints put the hybrid on STREX at few cores
/// and on SLICC at 16, so both forwarding paths are compared.
fn assert_both_delegates(delegates: &[SchedulerKind]) {
    for kind in [SchedulerKind::Strex, SchedulerKind::Slicc] {
        assert!(delegates.contains(&kind), "no cell delegated to {kind}");
    }
}

#[test]
fn tpcc_w1_hybrid_cells_are_their_delegates() {
    assert_both_delegates(&assert_every_hybrid_cell_is_its_delegate(
        WorkloadKind::TpccW1,
    ));
}

#[test]
fn tpcc_w10_hybrid_cells_are_their_delegates() {
    assert_both_delegates(&assert_every_hybrid_cell_is_its_delegate(
        WorkloadKind::TpccW10,
    ));
}

#[test]
fn tpce_hybrid_cells_are_their_delegates() {
    assert_both_delegates(&assert_every_hybrid_cell_is_its_delegate(
        WorkloadKind::Tpce,
    ));
}

#[test]
fn mapreduce_hybrid_cells_are_their_delegates() {
    // MapReduce's footprint fits one L1-I, so SLICC at every core count.
    let delegates = assert_every_hybrid_cell_is_its_delegate(WorkloadKind::MapReduce);
    assert!(delegates.iter().all(|&k| k == SchedulerKind::Slicc));
}
