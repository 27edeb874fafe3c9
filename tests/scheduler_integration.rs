//! Cross-crate integration tests: workloads generated by `strex-oltp`
//! scheduled by `strex` over the `strex-sim` hierarchy, checking the
//! paper's headline behaviours end to end.

use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex_oltp::tpcc::TpccTxnKind;
use strex_oltp::workload::{Workload, WorkloadKind};

fn pool() -> Workload {
    Workload::preset_small(WorkloadKind::TpccW1, 24, 5)
}

fn cfg(cores: usize, kind: SchedulerKind) -> SimConfig {
    SimConfig::builder()
        .cores(cores)
        .scheduler(kind)
        .build()
        .expect("valid test configuration")
}

#[test]
fn every_scheduler_retires_every_instruction() {
    let w = pool();
    for kind in SchedulerKind::ALL {
        let r = run(&w, &cfg(4, kind));
        assert_eq!(r.transactions, w.len(), "{kind}");
        assert_eq!(
            r.stats.instructions(),
            w.total_instructions(),
            "{kind}: instructions lost or duplicated"
        );
        assert_eq!(r.latencies.len(), w.len(), "{kind}");
        assert!(r.makespan > 0, "{kind}");
    }
}

#[test]
fn strex_reduces_instruction_misses_on_oltp() {
    let w = pool();
    let base = run(&w, &cfg(2, SchedulerKind::Baseline));
    let strex = run(&w, &cfg(2, SchedulerKind::Strex));
    let reduction = 1.0 - strex.i_mpki() / base.i_mpki();
    assert!(
        reduction > 0.2,
        "expected >20% I-MPKI reduction, got {:.0}% ({} -> {})",
        reduction * 100.0,
        base.i_mpki(),
        strex.i_mpki()
    );
}

#[test]
fn strex_i_mpki_is_insensitive_to_core_count() {
    // Section 5.2: STREX's I-MPKI stays practically constant with cores.
    let w = pool();
    let two = run(&w, &cfg(2, SchedulerKind::Strex));
    let eight = run(&w, &cfg(8, SchedulerKind::Strex));
    let variation = (two.i_mpki() - eight.i_mpki()).abs() / two.i_mpki();
    assert!(variation < 0.05, "variation {variation:.2} exceeds 5%");
}

#[test]
fn baseline_i_mpki_is_insensitive_to_core_count() {
    let w = pool();
    let two = run(&w, &cfg(2, SchedulerKind::Baseline));
    let eight = run(&w, &cfg(8, SchedulerKind::Baseline));
    let variation = (two.i_mpki() - eight.i_mpki()).abs() / two.i_mpki();
    assert!(variation < 0.05, "variation {variation:.2} exceeds 5%");
}

#[test]
fn baseline_data_misses_grow_with_cores() {
    // Section 5.2: more concurrency -> more coherence misses for the base.
    let w = Workload::preset_small(WorkloadKind::TpccW1, 32, 9);
    let two = run(&w, &cfg(2, SchedulerKind::Baseline));
    let sixteen = run(&w, &cfg(16, SchedulerKind::Baseline));
    assert!(
        sixteen.d_mpki() > two.d_mpki(),
        "D-MPKI must grow with cores: {} vs {}",
        two.d_mpki(),
        sixteen.d_mpki()
    );
    let coh2 = two.stats.aggregate().d_coherence_misses;
    let coh16 = sixteen.stats.aggregate().d_coherence_misses;
    assert!(
        coh16 > coh2,
        "coherence misses must grow: {coh2} vs {coh16}"
    );
}

#[test]
fn slicc_data_misses_exceed_baseline() {
    // Section 5.2: "data misses always increase with SLICC".
    let w = pool();
    let base = run(&w, &cfg(4, SchedulerKind::Baseline));
    let slicc = run(&w, &cfg(4, SchedulerKind::Slicc));
    assert!(slicc.d_mpki() > base.d_mpki());
    assert!(slicc.migrations > 0, "SLICC must actually migrate");
}

#[test]
fn identical_transactions_approach_lead_only_misses() {
    // Figure 4 / Section 4.1: with identical transactions the followers
    // hit on everything the lead fetched.
    let mut b = strex_oltp::tpcc::TpccWorkloadBuilder::new(strex_oltp::tpcc::TpccScale::mini(), 3);
    let one = b.one(TpccTxnKind::Payment);
    let w = Workload::new("identical", vec![one; 8]);
    let base = run(&w, &cfg(1, SchedulerKind::Baseline));
    let strex = run(&w, &cfg(1, SchedulerKind::Strex));
    let ratio = strex.i_mpki() / base.i_mpki();
    assert!(
        ratio < 0.25,
        "identical-transaction misses should collapse: ratio {ratio:.2}"
    );
}

#[test]
fn mapreduce_is_unaffected_by_strex() {
    // Sections 5.2/5.3: small-footprint workloads must not regress.
    let w = Workload::preset_small(WorkloadKind::MapReduce, 64, 3);
    let base = run(&w, &cfg(4, SchedulerKind::Baseline));
    let strex = run(&w, &cfg(4, SchedulerKind::Strex));
    // Both MPKIs are tiny (the kernel fits in the L1-I); what must hold is
    // that STREX neither adds misses nor costs throughput.
    assert!(
        strex.i_mpki() <= base.i_mpki() + 0.5,
        "STREX must not add instruction misses: {} vs {}",
        base.i_mpki(),
        strex.i_mpki()
    );
    let tput = strex.relative_throughput(&base);
    assert!(tput > 0.9, "throughput must not regress: {tput:.2}");
}

#[test]
fn hybrid_selects_strex_on_few_cores_and_slicc_on_many() {
    let w = Workload::preset_small(WorkloadKind::Tpce, 16, 4);
    let few = run(&w, &cfg(2, SchedulerKind::Hybrid));
    assert_eq!(few.hybrid_choice.as_deref(), Some("STREX"));
    let many = run(&w, &cfg(16, SchedulerKind::Hybrid));
    assert_eq!(many.hybrid_choice.as_deref(), Some("SLICC"));
}

#[test]
fn team_size_trades_latency_for_throughput() {
    // Figures 7/8: larger teams stretch per-transaction latency.
    let w = Workload::preset_small(WorkloadKind::TpccW1, 40, 6);
    let sized = |team_size| {
        SimConfig::builder()
            .cores(2)
            .scheduler(SchedulerKind::Strex)
            .team_size(team_size)
            .build()
            .expect("valid test configuration")
    };
    let small = run(&w, &sized(2));
    let large = run(&w, &sized(20));
    // With a finite pool arriving at cycle 0, the mean is dominated by
    // queue position; the batching effect shows in the earliest
    // completions: the first small team finishes long before the first
    // large team releases any transaction.
    assert!(
        large.completion_time(0.1) > small.completion_time(0.1),
        "first team-20 completions ({}) should lag team-2 ({})",
        large.completion_time(0.1),
        small.completion_time(0.1)
    );
}

#[test]
fn runs_are_deterministic() {
    let w = pool();
    for kind in SchedulerKind::ALL {
        let a = run(&w, &cfg(4, kind));
        let b = run(&w, &cfg(4, kind));
        assert_eq!(a.makespan, b.makespan, "{kind}");
        assert_eq!(a.latencies, b.latencies, "{kind}");
        assert_eq!(
            a.stats.aggregate().i_misses,
            b.stats.aggregate().i_misses,
            "{kind}"
        );
    }
}
