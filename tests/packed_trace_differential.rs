//! The packed trace-event representation must be a lossless re-encoding:
//! a property-level round-trip proof plus a differential simulation run.
//!
//! Three layers of evidence, from cheapest to strongest:
//!
//! 1. **Proptest round-trip** — for arbitrary events across the whole
//!    encodable address range, `encode -> decode` is the identity.
//! 2. **Workload round-trip** — for every real generated trace, decoding
//!    all packed events to the legacy [`MemRef`] form and re-packing them
//!    reproduces the exact packed words.
//! 3. **Differential run** — a workload whose traces went through the
//!    legacy representation (decode, rebuild) produces a bit-identical
//!    [`Report`](strex::report::Report) to the original under every
//!    scheduler. (The committed golden snapshot separately pins today's
//!    reports to the pre-packing engine's.)

use proptest::prelude::*;
use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex_oltp::trace::{MemRef, PackedRef, TxnTrace};
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::addr::{Addr, BlockAddr};

/// Largest payload (block index or byte address) a packed event carries.
const PAYLOAD_MAX: u64 = (1 << 54) - 1;

fn any_memref() -> impl Strategy<Value = MemRef> {
    prop_oneof![
        (0..=PAYLOAD_MAX, any::<u8>()).prop_map(|(idx, instrs)| MemRef::IFetch {
            block: BlockAddr::new(idx),
            instrs,
        }),
        (0..=PAYLOAD_MAX).prop_map(|a| MemRef::Load { addr: Addr::new(a) }),
        (0..=PAYLOAD_MAX).prop_map(|a| MemRef::Store { addr: Addr::new(a) }),
    ]
}

proptest! {
    /// Legacy event -> packed u64 -> decoded event is the identity, and
    /// the cheap field accessors agree with the decoded view.
    #[test]
    fn packed_round_trip_is_identity(r in any_memref()) {
        let p = PackedRef::encode(r);
        prop_assert_eq!(p.decode(), r);
        prop_assert_eq!(p.instrs(), r.instrs());
        prop_assert_eq!(p.fetch_block(), r.fetch_block());
        prop_assert_eq!(p.is_fetch(), matches!(r, MemRef::IFetch { .. }));
        // Re-encoding the decoded event reproduces the same word.
        prop_assert_eq!(PackedRef::encode(p.decode()), p);
    }

    /// Whole traces survive the round trip: building a trace from the
    /// decoded events of another reproduces its packed words and its
    /// derived quantities.
    #[test]
    fn trace_round_trip_preserves_packed_words(
        refs in prop::collection::vec(any_memref(), 0..200)
    ) {
        let a = TxnTrace::new(strex_sim::ids::TxnTypeId::new(1), "t", refs);
        let b = TxnTrace::new(strex_sim::ids::TxnTypeId::new(1), "t", a.decode_refs());
        prop_assert_eq!(a.refs(), b.refs());
        prop_assert_eq!(a.instr_total(), b.instr_total());
        prop_assert_eq!(a.unique_code_blocks(), b.unique_code_blocks());
    }
}

/// Rebuilds a workload by pushing every trace through the legacy
/// representation: packed -> `Vec<MemRef>` -> packed.
fn through_legacy(w: &Workload) -> Workload {
    let txns: Vec<TxnTrace> = w
        .txns()
        .iter()
        .map(|t| TxnTrace::new(t.txn_type(), t.type_name(), t.decode_refs()))
        .collect();
    Workload::new(w.name(), txns)
}

#[test]
fn real_workload_traces_round_trip_exactly() {
    for kind in WorkloadKind::ALL {
        let w = Workload::preset_small(kind, 8, 7);
        let rebuilt = through_legacy(&w);
        for (a, b) in w.txns().iter().zip(rebuilt.txns()) {
            assert_eq!(a.refs(), b.refs(), "{kind:?}: packed words must survive");
        }
    }
}

/// The differential run: packed-native traces vs traces that went through
/// the legacy enum stream produce bit-identical reports under every
/// scheduler.
#[test]
fn packed_and_legacy_streams_simulate_identically() {
    let w = Workload::preset_small(WorkloadKind::TpccW1, 8, 20130624);
    let via_legacy = through_legacy(&w);
    for sched in SchedulerKind::ALL {
        let cfg = SimConfig::builder()
            .cores(4)
            .scheduler(sched)
            .build()
            .expect("valid configuration");
        let a = run(&w, &cfg);
        let b = run(&via_legacy, &cfg);
        assert_eq!(a.makespan, b.makespan, "{sched}");
        assert_eq!(a.latencies, b.latencies, "{sched}");
        assert_eq!(a.stats.aggregate(), b.stats.aggregate(), "{sched}");
        assert_eq!(a.stats.shared, b.stats.shared, "{sched}");
        assert_eq!(a.context_switches, b.context_switches, "{sched}");
        assert_eq!(a.migrations, b.migrations, "{sched}");
    }
}
