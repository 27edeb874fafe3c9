//! The simulation driver: replays transaction traces through the memory
//! hierarchy under a scheduling policy.
//!
//! Timing model (documented substitution, DESIGN.md §2): in-order cores
//! retiring one instruction per cycle, plus the memory stall cycles charged
//! by the hierarchy. Cores advance independently and are processed in
//! global cycle order through a priority queue, with shared-resource timing
//! (L2 slices, DRAM banks) keyed by each request's arrival cycle. The same
//! 1-IPC model underlies the paper's own motivation analysis (Section 2.2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use strex_oltp::trace::{MemRef, PackedRef};
use strex_oltp::workload::Workload;
use strex_sim::hierarchy::MemorySystem;
use strex_sim::ids::{CoreId, Cycle, ThreadId};

use crate::report::Report;
use crate::sched::registry::{self, SchedulerFactory};
use crate::sched::{Decision, Scheduler};
use crate::thread::TxnThread;

pub use crate::config::SimConfig;

/// Events executed per core before re-entering the global cycle queue.
/// Coarse interleaving keeps heap traffic low; 64 events ≈ a few hundred
/// cycles, far finer than any scheduling time constant.
const BATCH_EVENTS: usize = 64;

/// Cycles an idle core waits before polling for newly runnable work.
const IDLE_POLL: Cycle = 200;

/// One core's execution state.
#[derive(Clone, Debug, Default)]
struct Core {
    current: Option<ThreadId>,
    cycle: Cycle,
}

/// Reusable per-run buffers: the thread table, per-core state and the
/// cycle-ordered heap. A campaign worker keeps one `SimScratch` and runs
/// every cell of its shard through it, so those allocations happen once
/// per worker instead of once per cell; [`run`] creates a fresh one.
/// Contents are fully reset at the start of each run — reuse is invisible
/// to results (the sharded-vs-sequential campaign tests pin this).
#[derive(Debug, Default)]
pub struct SimScratch {
    threads: Vec<TxnThread>,
    cores: Vec<Core>,
    heap: BinaryHeap<Reverse<(Cycle, usize)>>,
}

impl SimScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// Runs `workload` under `config` and returns the measured [`Report`].
///
/// The scheduler is resolved from the [global scheduler
/// registry](crate::sched::registry::global) by the configuration's
/// [`SchedulerKind::key`](crate::config::SchedulerKind::key). For matrices
/// of runs, or a registry with custom policies, see
/// [`Campaign`](crate::campaign::Campaign).
///
/// # Examples
///
/// ```no_run
/// use strex::config::SchedulerKind;
/// use strex::driver::{run, SimConfig};
/// use strex_oltp::workload::{Workload, WorkloadKind};
///
/// let w = Workload::preset_small(WorkloadKind::TpccW1, 8, 1);
/// let cfg = SimConfig::builder()
///     .cores(4)
///     .scheduler(SchedulerKind::Strex)
///     .build()
///     .expect("valid configuration");
/// let report = run(&w, &cfg);
/// println!("I-MPKI: {:.1}", report.i_mpki());
/// ```
pub fn run(workload: &Workload, config: &SimConfig) -> Report {
    let factory = registry::global()
        .get(config.scheduler.key())
        .expect("every SchedulerKind is a built-in registry entry");
    run_factory(factory, workload, config, &mut SimScratch::new())
}

/// Runs one simulation through `factory`: its typed run
/// ([`SchedulerFactory::run_typed`]) if it has one, else the scheduler
/// its [`create`](SchedulerFactory::create) returns. `scratch` is reused
/// across calls — this is the campaign executor's per-cell entry point.
pub(crate) fn run_factory(
    factory: &dyn SchedulerFactory,
    workload: &Workload,
    config: &SimConfig,
    scratch: &mut SimScratch,
) -> Report {
    match factory.run_typed(workload, config, scratch) {
        Some(report) => report,
        None => run_with(workload, config, factory.create(config).as_mut(), scratch),
    }
}

/// Runs with a caller-provided scheduler (ablations, custom policies),
/// reusing `scratch`'s buffers.
///
/// The loop is compiled once per scheduler type: a concrete `S` gets
/// static, inlinable per-event calls, and `&mut dyn Scheduler` works too,
/// through the vtable. Both give bit-identical results.
///
/// # Panics
///
/// Panics if `config` violates a [`SimConfig::validate`] invariant —
/// configurations assembled field-by-field (bypassing the builder) are
/// re-checked here, the chokepoint every run funnels through, so e.g. a
/// core count beyond the `u16` `CoreId` space fails loudly instead of
/// silently aliasing cores.
pub fn run_with<S: Scheduler + ?Sized>(
    workload: &Workload,
    config: &SimConfig,
    scheduler: &mut S,
    scratch: &mut SimScratch,
) -> Report {
    if let Err(e) = config.validate() {
        panic!("invalid SimConfig: {e}");
    }
    let traces = workload.txns();
    let n_cores = config.system.n_cores;
    scratch.threads.clear();
    scratch.threads.extend(
        traces
            .iter()
            .enumerate()
            .map(|(i, t)| TxnThread::new(ThreadId::new(i as u32), i, t.txn_type(), 0)),
    );
    scheduler.init(&scratch.threads, traces, n_cores);
    sim_loop(workload, config, scheduler, scratch)
}

/// The simulation loop: every instruction fetch consults the scheduler's
/// victim monitor ([`Scheduler::pre_fetch`]), runs the demand fetch, then
/// reports it ([`Scheduler::on_fetch`]).
fn sim_loop<S: Scheduler + ?Sized>(
    workload: &Workload,
    config: &SimConfig,
    scheduler: &mut S,
    scratch: &mut SimScratch,
) -> Report {
    let traces = workload.txns();
    let n_cores = config.system.n_cores;
    let mut mem = MemorySystem::new(config.system);

    let SimScratch {
        threads,
        cores,
        heap,
    } = scratch;
    cores.clear();
    cores.resize(n_cores, Core::default());
    let n_threads = threads.len();
    let mut completed = 0usize;
    // Min-heap of (next cycle, core index).
    heap.clear();
    heap.extend((0..n_cores).map(|c| Reverse((0, c))));

    while completed < n_threads {
        let Reverse((now, c)) = heap.pop().expect("cores outlive pending work");
        let core_id = CoreId::new(c as u16);
        cores[c].cycle = cores[c].cycle.max(now);

        if cores[c].current.is_none() {
            match scheduler.next_thread(core_id, cores[c].cycle) {
                Some(tid) => {
                    cores[c].current = Some(tid);
                    // Restore the incoming context from the L2.
                    cores[c].cycle += mem.context_transfer(core_id, config.strex.ctx_state_blocks);
                    scheduler.on_sched_in(core_id, tid);
                }
                None => {
                    // No runnable work yet: poll again later.
                    heap.push(Reverse((cores[c].cycle + IDLE_POLL, c)));
                    continue;
                }
            }
        }

        let tid = cores[c].current.expect("assigned above");
        // Hoist the thread and trace borrows out of the event batch: the
        // scheduler and memory system never touch `threads`, so the inner
        // loop indexes neither `threads` nor `traces` per event. The packed
        // event stream is walked with a local index (written back to the
        // thread's cursor after the batch), so per-event bookkeeping is one
        // bounds-checked 8-byte load.
        let thread = &mut threads[tid.as_usize()];
        let refs: &[PackedRef] = traces[thread.trace_idx()].refs();
        let mut pos = thread.cursor().position();
        // Local cycle accumulator; written back to `cores[c]` after the
        // batch (and kept in sync at every scheduler callback).
        let mut cycle = cores[c].cycle;
        let mut budget = BATCH_EVENTS;
        let mut reinsert_at: Option<Cycle> = None;

        while budget > 0 {
            budget -= 1;
            match refs.get(pos).map(|r| r.decode()) {
                None => {
                    thread.mark_completed(cycle);
                    completed += 1;
                    scheduler.on_done(core_id, tid, cycle);
                    cores[c].current = None;
                    reinsert_at = Some(cycle);
                    break;
                }
                Some(MemRef::IFetch { block, instrs }) => {
                    // Victim monitor: a thread stops *before* a fill that
                    // would destroy the team's current-phase segment; the
                    // abandoned fetch re-executes when it is next scheduled.
                    if scheduler.pre_fetch(core_id, tid, block, &mem) == Decision::Switch {
                        cycle += mem.context_transfer(core_id, config.strex.ctx_state_blocks);
                        scheduler.on_switch(core_id, tid);
                        cores[c].current = None;
                        reinsert_at = Some(cycle);
                        break;
                    }
                    let tag = scheduler.phase_tag(core_id);
                    let fetch = mem.fetch_inst(core_id, block, tag, cycle);
                    mem.add_instructions(core_id, instrs as u64);
                    cycle += instrs as u64 + fetch.stall;
                    pos += 1;
                    match scheduler.on_fetch(core_id, tid, block, &fetch, &mem) {
                        Decision::Continue => {}
                        Decision::Switch => {
                            // Save the outgoing context to the L2.
                            cycle += mem.context_transfer(core_id, config.strex.ctx_state_blocks);
                            scheduler.on_switch(core_id, tid);
                            cores[c].current = None;
                            reinsert_at = Some(cycle);
                            break;
                        }
                        Decision::Migrate(dst) => {
                            cycle += mem.context_transfer(core_id, config.strex.ctx_state_blocks);
                            scheduler.on_migrate(tid, dst);
                            cores[c].current = None;
                            reinsert_at = Some(cycle);
                            // Wake the destination core. The push is
                            // unconditional, so a destination that was not
                            // idle keeps a second heap entry; the golden
                            // snapshot pins the resulting SLICC schedules.
                            heap.push(Reverse((cycle, dst.as_usize())));
                            break;
                        }
                    }
                }
                Some(MemRef::Load { addr }) => {
                    let access = mem.access_data(core_id, addr, false, cycle);
                    cycle += access.stall;
                    pos += 1;
                }
                Some(MemRef::Store { addr }) => {
                    // Stores retire through the store buffer; the miss is
                    // tracked (and occupies the hierarchy) but does not
                    // stall the core.
                    let _ = mem.access_data(core_id, addr, true, cycle);
                    pos += 1;
                }
            }
        }
        thread.cursor_mut().set_position(pos);
        cores[c].cycle = cycle;
        if completed < n_threads {
            heap.push(Reverse((reinsert_at.unwrap_or(cycle), c)));
        }
    }

    let makespan = threads
        .iter()
        .filter_map(TxnThread::completed)
        .max()
        .unwrap_or(0);
    let latencies: Vec<Cycle> = threads.iter().filter_map(TxnThread::latency).collect();
    let mut stats = mem.stats().clone();
    stats.shared = mem.shared_stats();

    Report {
        scheduler: scheduler.name().to_string(),
        workload: workload.name().to_string(),
        n_cores,
        makespan,
        transactions: threads.len(),
        latencies,
        stats,
        context_switches: scheduler.context_switches(),
        migrations: scheduler.migrations(),
        hybrid_choice: scheduler.hybrid_choice().map(str::to_string),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use strex_oltp::workload::WorkloadKind;

    fn small_workload() -> Workload {
        Workload::preset_small(WorkloadKind::TpccW1, 6, 11)
    }

    fn cfg(cores: usize, kind: SchedulerKind) -> SimConfig {
        SimConfig::builder()
            .cores(cores)
            .scheduler(kind)
            .build()
            .expect("valid test configuration")
    }

    #[test]
    fn baseline_completes_all_transactions() {
        let w = small_workload();
        let r = run(&w, &cfg(2, SchedulerKind::Baseline));
        assert_eq!(r.transactions, 6);
        assert_eq!(r.latencies.len(), 6);
        assert!(r.makespan > 0);
        assert!(r.stats.instructions() > 0);
    }

    #[test]
    fn all_schedulers_complete() {
        let w = small_workload();
        for kind in SchedulerKind::ALL {
            let r = run(&w, &cfg(2, kind));
            assert_eq!(r.transactions, 6, "{kind}");
            assert_eq!(
                r.stats.instructions(),
                w.total_instructions(),
                "{kind}: every instruction must retire exactly once"
            );
        }
    }

    #[test]
    fn more_cores_do_not_slow_the_baseline() {
        let w = Workload::preset_small(WorkloadKind::TpccW1, 8, 3);
        let two = run(&w, &cfg(2, SchedulerKind::Baseline));
        let eight = run(&w, &cfg(8, SchedulerKind::Baseline));
        assert!(
            eight.makespan < two.makespan,
            "8-core {} vs 2-core {}",
            eight.makespan,
            two.makespan
        );
    }

    #[test]
    fn strex_reduces_instruction_misses_on_same_type_pool() {
        use strex_oltp::tpcc::TpccTxnKind;
        let w = Workload::tpcc_same_type(TpccTxnKind::Payment, 1, 8, 5);
        let base = run(&w, &cfg(2, SchedulerKind::Baseline));
        let strex = run(&w, &cfg(2, SchedulerKind::Strex));
        assert!(
            strex.i_mpki() < base.i_mpki(),
            "STREX {} vs base {}",
            strex.i_mpki(),
            base.i_mpki()
        );
    }

    #[test]
    fn deterministic_runs() {
        let w = small_workload();
        let cfg = cfg(2, SchedulerKind::Strex);
        let a = run(&w, &cfg);
        let b = run(&w, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.latencies, b.latencies);
    }
}
