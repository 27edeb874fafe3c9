//! The conventional baseline scheduler (Section 2).
//!
//! Transactions are assigned to cores in arrival order to balance load, and
//! each runs to completion — no context switches, no migration, no explicit
//! effort to improve instruction reuse. This is the system every figure of
//! the paper normalizes against.

use std::collections::VecDeque;

use strex_oltp::trace::TxnTrace;
use strex_sim::addr::BlockAddr;
use strex_sim::hierarchy::{InstFetch, MemorySystem};
use strex_sim::ids::{CoreId, Cycle, ThreadId};

use super::{Decision, Scheduler};
use crate::thread::TxnThread;

/// Run-to-completion scheduler with a single global arrival queue.
///
/// # Examples
///
/// ```
/// use strex::sched::{BaselineSched, Scheduler};
///
/// let sched = BaselineSched::new();
/// assert_eq!(sched.name(), "Base");
/// ```
#[derive(Clone, Debug, Default)]
pub struct BaselineSched {
    queue: VecDeque<ThreadId>,
}

impl BaselineSched {
    /// Creates the scheduler.
    pub fn new() -> Self {
        BaselineSched::default()
    }
}

impl Scheduler for BaselineSched {
    fn name(&self) -> &'static str {
        "Base"
    }

    fn init(&mut self, threads: &[TxnThread], _traces: &[TxnTrace], _n_cores: usize) {
        self.queue = threads.iter().map(TxnThread::id).collect();
    }

    fn next_thread(&mut self, _core: CoreId, _now: Cycle) -> Option<ThreadId> {
        self.queue.pop_front()
    }

    fn on_sched_in(&mut self, _core: CoreId, _thread: ThreadId) {}

    fn phase_tag(&self, _core: CoreId) -> u8 {
        0
    }

    fn on_fetch(
        &mut self,
        _core: CoreId,
        _thread: ThreadId,
        _block: BlockAddr,
        _fetch: &InstFetch,
        _mem: &MemorySystem,
    ) -> Decision {
        Decision::Continue
    }

    fn on_switch(&mut self, _core: CoreId, thread: ThreadId) {
        // The baseline never requests switches; tolerate one defensively.
        self.queue.push_back(thread);
    }

    fn on_migrate(&mut self, thread: ThreadId, _dst: CoreId) {
        self.queue.push_back(thread);
    }

    fn on_done(&mut self, _core: CoreId, _thread: ThreadId, _now: Cycle) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use strex_sim::ids::TxnTypeId;

    fn threads(n: u32) -> Vec<TxnThread> {
        (0..n)
            .map(|i| TxnThread::new(ThreadId::new(i), i as usize, TxnTypeId::new(0), 0))
            .collect()
    }

    #[test]
    fn fifo_dispatch() {
        let mut s = BaselineSched::new();
        s.init(&threads(3), &[], 2);
        assert_eq!(s.next_thread(CoreId::new(0), 0), Some(ThreadId::new(0)));
        assert_eq!(s.next_thread(CoreId::new(1), 0), Some(ThreadId::new(1)));
        assert_eq!(s.next_thread(CoreId::new(0), 0), Some(ThreadId::new(2)));
        assert_eq!(s.next_thread(CoreId::new(0), 0), None);
    }

    #[test]
    fn never_switches() {
        let mut s = BaselineSched::new();
        s.init(&threads(1), &[], 1);
        let fetch = InstFetch {
            stall: 100,
            hit: false,
            evicted: None,
        };
        let mem = MemorySystem::new(strex_sim::SystemConfig::with_cores(1));
        assert_eq!(
            s.on_fetch(
                CoreId::new(0),
                ThreadId::new(0),
                BlockAddr::new(1),
                &fetch,
                &mem
            ),
            Decision::Continue
        );
    }
}
