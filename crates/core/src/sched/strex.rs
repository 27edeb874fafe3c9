//! The STREX scheduler (Section 4).
//!
//! STREX time-multiplexes a *team* of same-type transactions on one core so
//! that the instruction blocks a *lead* transaction fetches are reused by
//! the whole team before being evicted. The synchronization algorithm
//! (Section 4.2):
//!
//! 1. Teams of same-type transactions are placed in per-core thread queues;
//!    the first transaction is the lead.
//! 2. A per-core 8-bit phase counter tags every touched L1-I block (hit or
//!    miss) with the current phase. Whenever the lead resumes execution, it
//!    increments the counter.
//! 3. The victim monitor watches evictions: evicting a block tagged with
//!    the *current* phase means the thread has outrun the team's shared
//!    segment, so it is context-switched to the back of the queue.
//! 4. If the lead terminates, the next thread in the queue becomes lead.
//! 5. Threads run round-robin until all complete; then the core takes the
//!    next waiting team.

use std::collections::VecDeque;

use strex_oltp::trace::TxnTrace;
use strex_sim::addr::BlockAddr;
use strex_sim::hierarchy::{InstFetch, MemorySystem};
use strex_sim::ids::{CoreId, Cycle, PhaseId, ThreadId};

use super::{Decision, Scheduler};
use crate::config::StrexParams;
use crate::team::{form_teams, Team};
use crate::thread::TxnThread;

/// Per-core STREX state: the thread queue, lead and phase counter.
#[derive(Clone, Debug, Default)]
struct CoreState {
    queue: VecDeque<ThreadId>,
    lead: Option<ThreadId>,
    phase: PhaseId,
    /// The thread currently executing (not in `queue`).
    running: Option<ThreadId>,
    /// Instruction-block fetches the running thread has executed this
    /// quantum (minimum-progress guard).
    quantum_fetches: u32,
}

/// The STREX scheduler.
///
/// # Examples
///
/// ```
/// use strex::config::StrexParams;
/// use strex::sched::{Scheduler, StrexSched};
///
/// let sched = StrexSched::new(StrexParams::default());
/// assert_eq!(sched.name(), "STREX");
/// ```
#[derive(Clone, Debug)]
pub struct StrexSched {
    params: StrexParams,
    cores: Vec<CoreState>,
    /// Teams not yet assigned to a core, in arrival order.
    waiting_teams: VecDeque<Team>,
    /// Context switches performed (reporting).
    switches: u64,
}

impl StrexSched {
    /// Creates the scheduler with the given parameters.
    pub fn new(params: StrexParams) -> Self {
        StrexSched {
            params,
            cores: Vec::new(),
            waiting_teams: VecDeque::new(),
            switches: 0,
        }
    }

    /// Context switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The parameters in use.
    pub fn params(&self) -> StrexParams {
        self.params
    }

    fn take_next_team(&mut self, core: usize) {
        if let Some(team) = self.waiting_teams.pop_front() {
            let state = &mut self.cores[core];
            state.queue = team.members.into();
            state.lead = state.queue.front().copied();
        }
    }
}

impl Scheduler for StrexSched {
    fn name(&self) -> &'static str {
        "STREX"
    }

    fn init(&mut self, threads: &[TxnThread], _traces: &[TxnTrace], n_cores: usize) {
        let arrivals: Vec<_> = threads.iter().map(|t| (t.id(), t.txn_type())).collect();
        self.waiting_teams = form_teams(
            &arrivals,
            self.params.team_size,
            self.params.formation_window,
        )
        .into();
        self.cores = vec![CoreState::default(); n_cores];
        for core in 0..n_cores {
            self.take_next_team(core);
        }
    }

    fn next_thread(&mut self, core: CoreId, _now: Cycle) -> Option<ThreadId> {
        let c = core.as_usize();
        if self.cores[c].queue.is_empty() && self.cores[c].running.is_none() {
            self.take_next_team(c);
        }
        let state = &mut self.cores[c];
        let next = state.queue.pop_front();
        state.running = next;
        next
    }

    fn on_sched_in(&mut self, core: CoreId, thread: ThreadId) {
        let state = &mut self.cores[core.as_usize()];
        state.quantum_fetches = 0;
        // Rule 2: whenever the lead resumes execution, increment the phase.
        if state.lead == Some(thread) {
            state.phase = state.phase.wrapping_next();
        }
    }

    fn phase_tag(&self, core: CoreId) -> u8 {
        self.cores[core.as_usize()].phase.value()
    }

    fn pre_fetch(
        &mut self,
        core: CoreId,
        _thread: ThreadId,
        block: BlockAddr,
        mem: &MemorySystem,
    ) -> Decision {
        // Rule 3: the victim monitor stops a thread at the point where the
        // pending fill would evict a block tagged with the current phase —
        // *before* the eviction happens, so the team's shared segment stays
        // intact for the threads still replaying it (Section 4.1). It is
        // live only while there is a thread to yield to and the
        // minimum-progress guard (Section 4.4.2) has been satisfied this
        // quantum; only then is the victim peeked.
        let state = &self.cores[core.as_usize()];
        if state.queue.is_empty() || state.quantum_fetches < self.params.min_quantum_fetches {
            return Decision::Continue;
        }
        match mem.l1i_peek_victim(core, block) {
            Some(v) if v.aux == state.phase.value() => Decision::Switch,
            _ => Decision::Continue,
        }
    }

    fn on_fetch(
        &mut self,
        core: CoreId,
        _thread: ThreadId,
        _block: BlockAddr,
        _fetch: &InstFetch,
        _mem: &MemorySystem,
    ) -> Decision {
        self.cores[core.as_usize()].quantum_fetches += 1;
        Decision::Continue
    }

    fn on_switch(&mut self, core: CoreId, thread: ThreadId) {
        let state = &mut self.cores[core.as_usize()];
        debug_assert_eq!(state.running, Some(thread));
        state.running = None;
        state.queue.push_back(thread);
        self.switches += 1;
    }

    fn on_migrate(&mut self, _thread: ThreadId, _dst: CoreId) {
        unreachable!("STREX never migrates threads");
    }

    fn on_done(&mut self, core: CoreId, thread: ThreadId, _now: Cycle) {
        let state = &mut self.cores[core.as_usize()];
        state.running = None;
        // Rule 4: if the lead terminated, the next queued thread leads.
        if state.lead == Some(thread) {
            state.lead = state.queue.front().copied();
        }
    }

    fn context_switches(&self) -> u64 {
        self.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strex_sim::ids::TxnTypeId;
    use strex_sim::{BlockAddr, SystemConfig};

    fn threads(types: &[u16]) -> Vec<TxnThread> {
        types
            .iter()
            .enumerate()
            .map(|(i, &t)| TxnThread::new(ThreadId::new(i as u32), i, TxnTypeId::new(t), 0))
            .collect()
    }

    #[test]
    fn teams_assigned_to_cores() {
        let mut s = StrexSched::new(StrexParams::default());
        s.init(&threads(&[0, 0, 1, 1]), &[], 2);
        // Core 0 gets the type-0 team, core 1 the type-1 team.
        let t0 = s.next_thread(CoreId::new(0), 0).unwrap();
        assert_eq!(t0, ThreadId::new(0));
        let t1 = s.next_thread(CoreId::new(1), 0).unwrap();
        assert_eq!(t1, ThreadId::new(2));
    }

    #[test]
    fn lead_resumption_increments_phase() {
        let mut s = StrexSched::new(StrexParams::default());
        s.init(&threads(&[0, 0]), &[], 1);
        let lead = s.next_thread(CoreId::new(0), 0).unwrap();
        let p0 = s.phase_tag(CoreId::new(0));
        s.on_sched_in(CoreId::new(0), lead);
        assert_eq!(s.phase_tag(CoreId::new(0)), p0.wrapping_add(1));
        // Non-lead does not bump the phase.
        s.on_switch(CoreId::new(0), lead);
        let follower = s.next_thread(CoreId::new(0), 0).unwrap();
        assert_ne!(follower, lead);
        let p1 = s.phase_tag(CoreId::new(0));
        s.on_sched_in(CoreId::new(0), follower);
        assert_eq!(s.phase_tag(CoreId::new(0)), p1);
    }

    /// Fills one L1-I set of `mem` with blocks carrying the scheduler's
    /// current phase tag, returning a block whose fill would conflict.
    fn fill_conflicting_set(s: &StrexSched, mem: &mut MemorySystem) -> BlockAddr {
        let geom = mem.config().l1i_geometry;
        let sets = geom.sets() as u64;
        let phase = s.phase_tag(CoreId::new(0));
        for way in 0..geom.assoc() as u64 {
            mem.fetch_inst(CoreId::new(0), BlockAddr::new(way * sets), phase, 0);
        }
        BlockAddr::new(geom.assoc() as u64 * sets)
    }

    #[test]
    fn current_phase_victim_triggers_switch() {
        let params = StrexParams {
            min_quantum_fetches: 0,
            ..StrexParams::default()
        };
        let mut s = StrexSched::new(params);
        s.init(&threads(&[0, 0]), &[], 1);
        let lead = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_sched_in(CoreId::new(0), lead);
        let mut mem = MemorySystem::new(SystemConfig::with_cores(1));
        let conflicting = fill_conflicting_set(&s, &mut mem);
        assert_eq!(
            s.pre_fetch(CoreId::new(0), lead, conflicting, &mem),
            Decision::Switch,
            "pending fill would evict a current-phase block"
        );
        // Neither a resident block nor a fill into a free way triggers the
        // monitor.
        let geom = mem.config().l1i_geometry;
        for block in [BlockAddr::new(geom.sets() as u64), BlockAddr::new(1)] {
            assert_eq!(
                s.pre_fetch(CoreId::new(0), lead, block, &mem),
                Decision::Continue,
                "block {block:?}"
            );
        }
    }

    #[test]
    fn min_progress_guard_delays_switch() {
        let params = StrexParams {
            min_quantum_fetches: 5,
            ..StrexParams::default()
        };
        let mut s = StrexSched::new(params);
        s.init(&threads(&[0, 0]), &[], 1);
        let lead = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_sched_in(CoreId::new(0), lead);
        let mut mem = MemorySystem::new(SystemConfig::with_cores(1));
        let conflicting = fill_conflicting_set(&s, &mut mem);
        assert_eq!(
            s.pre_fetch(CoreId::new(0), lead, conflicting, &mem),
            Decision::Continue,
            "guard suppresses the monitor before min progress"
        );
        let dummy = InstFetch {
            stall: 0,
            hit: true,
            evicted: None,
        };
        for _ in 0..5 {
            s.on_fetch(CoreId::new(0), lead, BlockAddr::new(0), &dummy, &mem);
        }
        assert_eq!(
            s.pre_fetch(CoreId::new(0), lead, conflicting, &mem),
            Decision::Switch
        );
    }

    #[test]
    fn solo_thread_never_switches() {
        // With an empty queue there is nobody to yield to.
        let params = StrexParams {
            min_quantum_fetches: 0,
            ..StrexParams::default()
        };
        let mut s = StrexSched::new(params);
        s.init(&threads(&[0]), &[], 1);
        let t = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_sched_in(CoreId::new(0), t);
        let mut mem = MemorySystem::new(SystemConfig::with_cores(1));
        let conflicting = fill_conflicting_set(&s, &mut mem);
        assert_eq!(
            s.pre_fetch(CoreId::new(0), t, conflicting, &mem),
            Decision::Continue
        );
    }

    #[test]
    fn lead_succession_on_completion() {
        let mut s = StrexSched::new(StrexParams::default());
        s.init(&threads(&[0, 0, 0]), &[], 1);
        let lead = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_done(CoreId::new(0), lead, 100);
        let new_lead = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_sched_in(CoreId::new(0), new_lead);
        // The successor now bumps the phase on resume, proving leadership.
        let p = s.phase_tag(CoreId::new(0));
        s.on_switch(CoreId::new(0), new_lead);
        let other = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_sched_in(CoreId::new(0), other);
        assert_eq!(s.phase_tag(CoreId::new(0)), p, "non-lead resume: no bump");
    }

    #[test]
    fn core_takes_next_team_when_done() {
        let mut s = StrexSched::new(StrexParams::default());
        // Two type-teams, one core.
        s.init(&threads(&[0, 0, 1, 1]), &[], 1);
        let a = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_done(CoreId::new(0), a, 1);
        let b = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_done(CoreId::new(0), b, 2);
        // First team exhausted; second team starts.
        let c = s.next_thread(CoreId::new(0), 0).unwrap();
        assert_eq!(c, ThreadId::new(2));
    }

    #[test]
    fn switch_counter_accumulates() {
        let mut s = StrexSched::new(StrexParams::default());
        s.init(&threads(&[0, 0]), &[], 1);
        let t = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_switch(CoreId::new(0), t);
        assert_eq!(s.switches(), 1);
    }
}
