//! The scheduler abstraction the simulation driver drives.
//!
//! A [`Scheduler`] decides which thread each core runs and reacts to fetch
//! outcomes: STREX context-switches on same-phase victims, SLICC migrates
//! on miss bursts, the baseline does nothing. The driver owns the memory
//! system and threads and feeds the scheduler the observations hardware
//! would have.

pub mod baseline;
pub mod hybrid;
pub mod registry;
pub mod slicc;
pub mod strex;

pub use baseline::BaselineSched;
pub use hybrid::{FpTable, HybridSched};
pub use registry::{SchedulerFactory, SchedulerRegistry};
pub use slicc::SliccSched;
pub use strex::StrexSched;

use strex_oltp::trace::TxnTrace;
use strex_sim::addr::BlockAddr;
use strex_sim::hierarchy::{InstFetch, MemorySystem};
use strex_sim::ids::{CoreId, Cycle, ThreadId};

use crate::thread::TxnThread;

/// What the core should do after the current fetch.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Decision {
    /// Keep running the current thread.
    Continue,
    /// Context-switch: requeue the thread locally, run the next one.
    Switch,
    /// Migrate the thread to another core and pick up local work.
    Migrate(CoreId),
}

/// The scheduling policy interface.
pub trait Scheduler {
    /// Display name (figure labels).
    fn name(&self) -> &'static str;

    /// Distributes the thread pool before the simulation starts.
    fn init(&mut self, threads: &[TxnThread], traces: &[TxnTrace], n_cores: usize);

    /// Picks the next thread for an idle `core`, removing it from whatever
    /// queue the scheduler keeps. Returns `None` if the core has no work.
    fn next_thread(&mut self, core: CoreId, now: Cycle) -> Option<ThreadId>;

    /// Called when `thread` starts (or resumes) running on `core` —
    /// STREX bumps the phase counter here when the lead resumes.
    fn on_sched_in(&mut self, core: CoreId, thread: ThreadId);

    /// The phase tag fetches on `core` should carry right now.
    fn phase_tag(&self, core: CoreId) -> u8;

    /// Consulted *before* an instruction fetch executes. Returning
    /// [`Decision::Switch`] abandons the fetch (the thread retries it when
    /// next scheduled) — this is STREX's victim monitor, which stops a
    /// thread at the point where it *would be forced* to evict a block
    /// tagged with the current phase (Section 4.1), keeping the team's
    /// shared segment intact in the cache.
    fn pre_fetch(
        &mut self,
        _core: CoreId,
        _thread: ThreadId,
        _block: BlockAddr,
        _mem: &MemorySystem,
    ) -> Decision {
        Decision::Continue
    }

    /// Reacts to one instruction fetch of `block` by `thread` on `core`.
    fn on_fetch(
        &mut self,
        core: CoreId,
        thread: ThreadId,
        block: BlockAddr,
        fetch: &InstFetch,
        mem: &MemorySystem,
    ) -> Decision;

    /// Called when the driver executes [`Decision::Switch`]: the scheduler
    /// must requeue `thread` on `core`.
    fn on_switch(&mut self, core: CoreId, thread: ThreadId);

    /// Called when the driver executes [`Decision::Migrate`]: the scheduler
    /// must enqueue `thread` at `dst`.
    fn on_migrate(&mut self, thread: ThreadId, dst: CoreId);

    /// Called when `thread` finishes on `core`.
    fn on_done(&mut self, core: CoreId, thread: ThreadId, now: Cycle);

    /// Context switches performed (STREX; 0 for others).
    fn context_switches(&self) -> u64 {
        0
    }

    /// Migrations performed (SLICC; 0 for others).
    fn migrations(&self) -> u64 {
        0
    }

    /// Which policy a hybrid selected, if this is a hybrid.
    fn hybrid_choice(&self) -> Option<&'static str> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_equality() {
        assert_eq!(Decision::Continue, Decision::Continue);
        assert_ne!(Decision::Switch, Decision::Continue);
        assert_eq!(
            Decision::Migrate(CoreId::new(3)),
            Decision::Migrate(CoreId::new(3))
        );
        assert_ne!(
            Decision::Migrate(CoreId::new(1)),
            Decision::Migrate(CoreId::new(2))
        );
    }
}
