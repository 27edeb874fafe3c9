//! The hybrid STREX+SLICC mechanism (Section 5.5).
//!
//! Data centers reconfigure the cores assigned to an application at
//! runtime. SLICC wins when the aggregate L1-I capacity fits the workload's
//! per-transaction footprints; STREX wins otherwise. The hybrid profiles
//! each transaction type's instruction footprint into an **FPTable**
//! (in L1-I-size units) and, whenever a transaction group is scheduled,
//! picks SLICC if the available core count covers the table's demand and
//! STREX if not ([`FpTable::delegate`]).
//!
//! Profiling counts the unique cache blocks a sampled transaction touches —
//! in hardware this reuses STREX's phase-ID tables while running under
//! SLICC (Section 5.5); here the same quantity is computed from the sampled
//! thread's trace, and the profiling period (0.2 % of execution) is charged
//! as free, as the paper treats it.
//!
//! After the choice the hybrid hands every scheduler hook to its delegate,
//! STREX's victim monitor (`pre_fetch`) included. A hybrid run is
//! therefore its delegate's run: the two reports differ only in
//! [`Report::scheduler`] and [`Report::hybrid_choice`]
//! (`tests/hybrid_delegate_differential.rs` checks this on every workload
//! family, core count, replacement policy and prefetcher).
//! [`Campaign::run_on`](crate::campaign::Campaign::run_on) relies on that
//! when its matrix holds a hybrid cell beside its delegate's cell: it
//! simulates the delegate once and gives the hybrid cell the same report,
//! relabelled.

use std::collections::BTreeMap;

use strex_oltp::trace::TxnTrace;
use strex_sim::addr::BlockAddr;
use strex_sim::hierarchy::{InstFetch, MemorySystem};
use strex_sim::ids::{CoreId, Cycle, ThreadId, TxnTypeId};

use super::{BaselineSched, Decision, Scheduler, SliccSched, StrexSched};
use crate::config::{SchedulerKind, SliccParams, StrexParams};
use crate::report::Report;
use crate::thread::TxnThread;

/// The hybrid's display name, [`Report::scheduler`] of its runs.
const NAME: &str = "STREX+SLICC";

/// The transaction-footprint-size table (FPTable) of Section 5.5.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FpTable {
    /// Footprint in L1-I units per transaction type.
    entries: BTreeMap<TxnTypeId, u64>,
}

impl FpTable {
    /// Builds the table by sampling one transaction per type from `traces`
    /// and rounding its unique-block footprint to L1-I units.
    pub fn profile(traces: &[TxnTrace], l1i_bytes: u64) -> Self {
        let mut entries = BTreeMap::new();
        for t in traces {
            // First instance of each type is the random sample (instances
            // are already randomly drawn by the generator).
            entries.entry(t.txn_type()).or_insert_with(|| {
                let bytes = t.unique_code_blocks() as u64 * strex_sim::addr::BLOCK_SIZE;
                ((bytes as f64 / l1i_bytes as f64).round() as u64).max(1)
            });
        }
        FpTable { entries }
    }

    /// Footprint units recorded for `txn_type`.
    pub fn units(&self, txn_type: TxnTypeId) -> Option<u64> {
        self.entries.get(&txn_type).copied()
    }

    /// Number of profiled types.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mean footprint over the types present — the workload's demand used
    /// by the scheduling decision. (TPC-C's mean of {12, 14, 11, 14, 11}
    /// is ≈ 12.4, matching the paper's ">12 cores → SLICC"; TPC-E's mean of
    /// {7, 9, 9, 5, 9, 8, 8} is ≈ 7.9, matching ">8 cores → SLICC".)
    pub fn mean_units(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.values().sum::<u64>() as f64 / self.entries.len() as f64
    }

    /// The Section 5.5 rule, the one place the hybrid's choice is made:
    /// SLICC if the aggregate L1-I (`n_cores` units) fits the workload's
    /// footprint demand, STREX otherwise. [`HybridSched`] delegates to
    /// the policy it names, and a campaign finds the cell whose report a
    /// hybrid cell can take through it.
    pub fn delegate(&self, n_cores: usize) -> SchedulerKind {
        if !self.is_empty() && (n_cores as f64) >= self.mean_units() {
            SchedulerKind::Slicc
        } else {
            SchedulerKind::Strex
        }
    }
}

/// The report a hybrid run gives, made from its delegate's report of the
/// same run: the delegate's name moves to [`Report::hybrid_choice`] and
/// [`Report::scheduler`] names the hybrid. Every other field is the
/// delegate's, as the hybrid forwards every hook.
pub(crate) fn relabel(mut delegate: Report) -> Report {
    let choice = std::mem::replace(&mut delegate.scheduler, NAME.to_string());
    delegate.hybrid_choice = Some(choice);
    delegate
}

/// The hybrid scheduler: profiles, then delegates wholesale.
///
/// # Examples
///
/// ```
/// use strex::config::{SliccParams, StrexParams};
/// use strex::sched::{HybridSched, Scheduler};
///
/// let sched = HybridSched::new(StrexParams::default(), SliccParams::default(), 32 * 1024);
/// assert_eq!(sched.name(), "STREX+SLICC");
/// ```
#[derive(Debug)]
pub struct HybridSched {
    strex_params: StrexParams,
    slicc_params: SliccParams,
    l1i_bytes: u64,
    fptable: FpTable,
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    /// Placeholder until `init` runs.
    Unset(BaselineSched),
    Strex(StrexSched),
    Slicc(SliccSched),
}

/// Forwards one call to the selected delegate with *static* dispatch: each
/// `Inner` arm names the concrete scheduler type, so when the driver's loop
/// is instantiated for `HybridSched`, the per-event forwarding is one enum
/// discriminant branch plus an inlinable call — no vtable on the path.
///
/// Every hook is forwarded, `pre_fetch` (STREX's victim monitor) included,
/// so a hybrid run makes exactly its delegate's decisions.
macro_rules! delegate {
    ($self:ident, $s:ident => $call:expr) => {
        match &mut $self.inner {
            Inner::Unset($s) => $call,
            Inner::Strex($s) => $call,
            Inner::Slicc($s) => $call,
        }
    };
}

/// Immutable twin of [`delegate!`].
macro_rules! delegate_ref {
    ($self:ident, $s:ident => $call:expr) => {
        match &$self.inner {
            Inner::Unset($s) => $call,
            Inner::Strex($s) => $call,
            Inner::Slicc($s) => $call,
        }
    };
}

impl HybridSched {
    /// Creates the hybrid with both schedulers' parameters and the L1-I
    /// size used as the FPTable unit.
    pub fn new(strex_params: StrexParams, slicc_params: SliccParams, l1i_bytes: u64) -> Self {
        HybridSched {
            strex_params,
            slicc_params,
            l1i_bytes,
            fptable: FpTable::default(),
            inner: Inner::Unset(BaselineSched::new()),
        }
    }

    /// The FPTable produced at init (empty before `init`).
    pub fn fptable(&self) -> &FpTable {
        &self.fptable
    }

    /// Which scheduler the decision selected ("STREX" or "SLICC").
    pub fn selected(&self) -> &'static str {
        self.hybrid_choice().unwrap_or("unset")
    }
}

impl Scheduler for HybridSched {
    fn name(&self) -> &'static str {
        NAME
    }

    fn init(&mut self, threads: &[TxnThread], traces: &[TxnTrace], n_cores: usize) {
        self.fptable = FpTable::profile(traces, self.l1i_bytes);
        self.inner = match self.fptable.delegate(n_cores) {
            SchedulerKind::Strex => Inner::Strex(StrexSched::new(self.strex_params)),
            SchedulerKind::Slicc => Inner::Slicc(SliccSched::new(self.slicc_params)),
            kind => unreachable!("the FPTable rule never picks {kind}"),
        };
        delegate!(self, s => s.init(threads, traces, n_cores));
    }

    fn next_thread(&mut self, core: CoreId, now: Cycle) -> Option<ThreadId> {
        delegate!(self, s => s.next_thread(core, now))
    }

    fn on_sched_in(&mut self, core: CoreId, thread: ThreadId) {
        delegate!(self, s => s.on_sched_in(core, thread));
    }

    fn phase_tag(&self, core: CoreId) -> u8 {
        delegate_ref!(self, s => s.phase_tag(core))
    }

    fn pre_fetch(
        &mut self,
        core: CoreId,
        thread: ThreadId,
        block: BlockAddr,
        mem: &MemorySystem,
    ) -> Decision {
        delegate!(self, s => s.pre_fetch(core, thread, block, mem))
    }

    fn on_fetch(
        &mut self,
        core: CoreId,
        thread: ThreadId,
        block: BlockAddr,
        fetch: &InstFetch,
        mem: &MemorySystem,
    ) -> Decision {
        delegate!(self, s => s.on_fetch(core, thread, block, fetch, mem))
    }

    fn on_switch(&mut self, core: CoreId, thread: ThreadId) {
        delegate!(self, s => s.on_switch(core, thread));
    }

    fn on_migrate(&mut self, thread: ThreadId, dst: CoreId) {
        delegate!(self, s => s.on_migrate(thread, dst));
    }

    fn on_done(&mut self, core: CoreId, thread: ThreadId, now: Cycle) {
        delegate!(self, s => s.on_done(core, thread, now));
    }

    fn context_switches(&self) -> u64 {
        delegate_ref!(self, s => s.context_switches())
    }

    fn migrations(&self) -> u64 {
        delegate_ref!(self, s => s.migrations())
    }

    fn hybrid_choice(&self) -> Option<&'static str> {
        // The delegate's own name, so that `relabel` turns the delegate's
        // report into exactly this run's.
        match &self.inner {
            Inner::Unset(_) => None,
            Inner::Strex(s) => Some(s.name()),
            Inner::Slicc(s) => Some(s.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strex_oltp::trace::MemRef;

    /// A synthetic trace touching `blocks` distinct code blocks.
    fn trace_with_footprint(ty: u16, blocks: u64) -> TxnTrace {
        let refs: Vec<MemRef> = (0..blocks)
            .map(|i| MemRef::IFetch {
                block: BlockAddr::new(1000 * ty as u64 + i),
                instrs: 10,
            })
            .collect();
        TxnTrace::new(TxnTypeId::new(ty), "synthetic", refs)
    }

    #[test]
    fn fptable_rounds_to_units() {
        // 1024 blocks = 64 KB = 2 x 32 KB units.
        let traces = vec![trace_with_footprint(0, 1024)];
        let fp = FpTable::profile(&traces, 32 * 1024);
        assert_eq!(fp.units(TxnTypeId::new(0)), Some(2));
        assert_eq!(fp.len(), 1);
    }

    #[test]
    fn fptable_samples_first_instance_per_type() {
        let traces = vec![
            trace_with_footprint(0, 512),
            trace_with_footprint(0, 9999), // ignored: already sampled
            trace_with_footprint(1, 1536),
        ];
        let fp = FpTable::profile(&traces, 32 * 1024);
        assert_eq!(fp.units(TxnTypeId::new(0)), Some(1));
        assert_eq!(fp.units(TxnTypeId::new(1)), Some(3));
        assert!((fp.mean_units() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn decision_follows_mean_rule() {
        let traces = vec![
            trace_with_footprint(0, 6 * 512),  // 6 units
            trace_with_footprint(1, 10 * 512), // 10 units
        ];
        let fp = FpTable::profile(&traces, 32 * 1024);
        assert!((fp.mean_units() - 8.0).abs() < 1e-9);
        assert_eq!(fp.delegate(7), SchedulerKind::Strex);
        assert_eq!(fp.delegate(8), SchedulerKind::Slicc);
        assert_eq!(fp.delegate(16), SchedulerKind::Slicc);
    }

    #[test]
    fn hybrid_selects_strex_on_few_cores() {
        let traces = vec![trace_with_footprint(0, 10 * 512)]; // 10 units
        let threads = vec![TxnThread::new(ThreadId::new(0), 0, TxnTypeId::new(0), 0)];
        let mut h = HybridSched::new(StrexParams::default(), SliccParams::default(), 32 * 1024);
        h.init(&threads, &traces, 4);
        assert_eq!(h.selected(), "STREX");
    }

    #[test]
    fn hybrid_selects_slicc_on_many_cores() {
        let traces = vec![trace_with_footprint(0, 10 * 512)]; // 10 units
        let threads = vec![TxnThread::new(ThreadId::new(0), 0, TxnTypeId::new(0), 0)];
        let mut h = HybridSched::new(StrexParams::default(), SliccParams::default(), 32 * 1024);
        h.init(&threads, &traces, 16);
        assert_eq!(h.selected(), "SLICC");
    }

    #[test]
    fn empty_table_never_chooses_slicc() {
        let fp = FpTable::default();
        assert!(fp.is_empty());
        assert_eq!(fp.delegate(64), SchedulerKind::Strex);
        assert_eq!(fp.mean_units(), 0.0);
    }
}
