//! SLICC reimplementation (comparison baseline; MICRO 2012, Section 3 of
//! the STREX paper).
//!
//! SLICC spreads a transaction's instruction footprint over *many* L1-Is by
//! migrating the thread to whichever core already caches the code segment
//! it is entering. The hardware (Table 4 budget) is a per-thread missed-tag
//! queue, a miss shift-vector tracking recent fetch hit/miss history, and
//! per-core cache signatures. The policy:
//!
//! * a burst of misses in the recent window signals a *segment change*;
//! * the missed tags are checked against every other core's signature; if a
//!   remote core covers enough of them, the thread migrates there;
//! * otherwise the thread migrates to the least-recently-fed core to build
//!   the new segment in a fresh cache (pipelining segments across cores);
//! * threads queue per core; a minimum residency prevents ping-ponging.
//!
//! With enough cores the aggregate L1-I holds every segment and threads
//! flow through them pipeline-style; with too few cores the segments do not
//! fit, the signatures never match, and migrations just add overhead — the
//! cliff that motivates STREX (Figures 5 and 6).

use std::collections::VecDeque;

use strex_oltp::trace::TxnTrace;
use strex_sim::addr::BlockAddr;
use strex_sim::hierarchy::{InstFetch, MemorySystem};
use strex_sim::ids::{CoreId, Cycle, ThreadId};

use super::{Decision, Scheduler};
use crate::config::SliccParams;
use crate::team::form_teams;
use crate::thread::TxnThread;

/// Per-thread migration-detection state.
#[derive(Clone, Debug, Default)]
struct ThreadState {
    /// Recently missed blocks (missed-tag queue).
    mtq: VecDeque<BlockAddr>,
    /// Hit/miss history of recent fetches (miss shift-vector), newest
    /// outcome in bit 0 — a literal shift register, as in the SLICC
    /// hardware. Only the low `window` bits are ever consulted, so the
    /// register simply shifts on every fetch; this runs on the per-event
    /// path, where the former `VecDeque<bool>` paid a push *and* a pop per
    /// fetch and a 100-element walk per count.
    shift: u128,
    /// Fetches executed since the thread landed on its current core.
    residency: usize,
    /// L1-I fills performed since landing (segment-built detector).
    fills: usize,
    /// L1-I hits scored since landing (segment-consumption detector).
    hits: usize,
}

/// Per-core run state.
#[derive(Clone, Debug, Default)]
struct CoreState {
    queue: VecDeque<ThreadId>,
    running: Option<ThreadId>,
    /// Monotone counter of when this core last received a migrating thread
    /// (used to rotate "fresh cache" targets).
    last_fed: u64,
}

/// The SLICC scheduler.
///
/// # Examples
///
/// ```
/// use strex::config::SliccParams;
/// use strex::sched::{Scheduler, SliccSched};
///
/// let sched = SliccSched::new(SliccParams::default());
/// assert_eq!(sched.name(), "SLICC");
/// ```
#[derive(Clone, Debug)]
pub struct SliccSched {
    params: SliccParams,
    threads: Vec<ThreadState>,
    cores: Vec<CoreState>,
    /// Threads beyond the active cap (`2 * n_cores`), in arrival order.
    backlog: VecDeque<ThreadId>,
    feed_clock: u64,
    migrations: u64,
}

impl SliccSched {
    /// Creates the scheduler with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.window > 128` — the miss history is a 128-bit
    /// shift register. Configurations built through `SimConfig::builder`
    /// reject such windows with a `ConfigError` before reaching this
    /// point; the assert guards direct construction.
    pub fn new(params: SliccParams) -> Self {
        assert!(
            params.window <= 128,
            "SLICC miss window {} exceeds the 128-bit shift register",
            params.window
        );
        SliccSched {
            params,
            threads: Vec::new(),
            cores: Vec::new(),
            backlog: VecDeque::new(),
            feed_clock: 0,
            migrations: 0,
        }
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Misses among the last `window` fetches: a masked popcount of the
    /// shift register (bits older than the window are simply not counted,
    /// exactly as the former bounded deque forgot them).
    fn miss_count(&self, thread: ThreadId) -> usize {
        let window = self.params.window;
        let mask = if window >= 128 {
            u128::MAX
        } else {
            (1u128 << window) - 1
        };
        (self.threads[thread.as_usize()].shift & mask).count_ones() as usize
    }

    /// The remote core whose signature covers the most missed tags, if any
    /// reaches the coverage threshold.
    fn best_covering_core(
        &self,
        current: CoreId,
        thread: ThreadId,
        mem: &MemorySystem,
    ) -> Option<CoreId> {
        let ts = &self.threads[thread.as_usize()];
        let mut best: Option<(usize, CoreId)> = None;
        for c in 0..self.cores.len() {
            let core = CoreId::new(c as u16);
            if core == current {
                continue;
            }
            let cov = mem.l1i_signature(core).coverage(ts.mtq.iter());
            if cov >= self.params.coverage_threshold && best.map(|(b, _)| cov > b).unwrap_or(true) {
                best = Some((cov, core));
            }
        }
        best.map(|(_, core)| core)
    }

    /// The best remote core to build a new segment on: the least-loaded,
    /// breaking ties toward the least-recently-fed (stalest cache).
    fn freshest_core(&self, current: CoreId) -> Option<CoreId> {
        let mut target = None;
        let mut best = (usize::MAX, u64::MAX);
        for (c, state) in self.cores.iter().enumerate() {
            let core = CoreId::new(c as u16);
            if core == current {
                continue;
            }
            let load = state.queue.len() + usize::from(state.running.is_some());
            if (load, state.last_fed) < best {
                best = (load, state.last_fed);
                target = Some(core);
            }
        }
        target
    }

    fn refill_from_backlog(&mut self) {
        // Keep up to `team_factor * n_cores` threads active.
        let cap = self.params.team_factor * self.cores.len();
        let active: usize = self
            .cores
            .iter()
            .map(|c| c.queue.len() + usize::from(c.running.is_some()))
            .sum();
        let mut free = cap.saturating_sub(active);
        while free > 0 {
            match self.backlog.pop_front() {
                Some(tid) => {
                    // Feed the emptiest core; coverage migrations pull the
                    // thread onto the segment pipeline from wherever it
                    // starts, and workloads that never migrate (footprint
                    // fits the L1-I) keep full core-level parallelism.
                    let (idx, _) = self
                        .cores
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| c.queue.len() + usize::from(c.running.is_some()))
                        .expect("at least one core");
                    self.cores[idx].queue.push_back(tid);
                    free -= 1;
                }
                None => break,
            }
        }
    }
}

impl Scheduler for SliccSched {
    fn name(&self) -> &'static str {
        "SLICC"
    }

    fn init(&mut self, threads: &[TxnThread], _traces: &[TxnTrace], n_cores: usize) {
        self.threads = vec![ThreadState::default(); threads.len()];
        self.cores = vec![CoreState::default(); n_cores];
        // SLICC groups similar transactions like STREX does (the paper's
        // SLICC-Pp header-address grouping), with teams of up to 2N threads
        // active at once so same-type threads pipeline through the same
        // segment caches.
        let arrivals: Vec<_> = threads.iter().map(|t| (t.id(), t.txn_type())).collect();
        let team_cap = (self.params.team_factor * n_cores).max(1);
        self.backlog = form_teams(&arrivals, team_cap, 30)
            .into_iter()
            .flat_map(|team| team.members)
            .collect();
        self.refill_from_backlog();
    }

    fn next_thread(&mut self, core: CoreId, _now: Cycle) -> Option<ThreadId> {
        self.refill_from_backlog();
        let state = &mut self.cores[core.as_usize()];
        let next = state.queue.pop_front();
        state.running = next;
        if let Some(tid) = next {
            let ts = &mut self.threads[tid.as_usize()];
            ts.residency = 0;
            ts.fills = 0;
            ts.hits = 0;
        }
        next
    }

    fn on_sched_in(&mut self, _core: CoreId, _thread: ThreadId) {}

    fn phase_tag(&self, _core: CoreId) -> u8 {
        0
    }

    fn on_fetch(
        &mut self,
        core: CoreId,
        thread: ThreadId,
        block: BlockAddr,
        fetch: &InstFetch,
        mem: &MemorySystem,
    ) -> Decision {
        {
            let ts = &mut self.threads[thread.as_usize()];
            ts.residency += 1;
            ts.shift = (ts.shift << 1) | u128::from(!fetch.hit);
            if !fetch.hit {
                ts.mtq.push_back(block);
                if ts.mtq.len() > self.params.mtq_len {
                    ts.mtq.pop_front();
                }
            }
        }
        if fetch.hit {
            self.threads[thread.as_usize()].hits += 1;
            return Decision::Continue;
        }
        self.threads[thread.as_usize()].fills += 1;
        let ts = &self.threads[thread.as_usize()];
        if ts.residency < self.params.min_residency || ts.mtq.len() < self.params.mtq_len {
            return Decision::Continue;
        }
        // Segment-transition detection: a burst of misses *after* the
        // thread was consuming a resident segment (a hit streak). A thread
        // missing since it landed is building, not transitioning.
        let ts_ref = &self.threads[thread.as_usize()];
        let bursting = self.miss_count(thread) >= self.params.miss_burst
            && ts_ref.hits >= self.params.min_hits_before_follow;
        if bursting {
            if let Some(dst) = self.best_covering_core(core, thread, mem) {
                return Decision::Migrate(dst);
            }
        }
        // Second — the thread has filled this cache with its current
        // segment: spill to a fresh core and build the next segment there,
        // pipelining segments across the aggregate L1-I.
        if self.threads[thread.as_usize()].fills >= self.params.fill_cap {
            if let Some(dst) = self.freshest_core(core) {
                return Decision::Migrate(dst);
            }
        }
        Decision::Continue
    }

    fn on_switch(&mut self, core: CoreId, thread: ThreadId) {
        let state = &mut self.cores[core.as_usize()];
        state.running = None;
        state.queue.push_back(thread);
    }

    fn on_migrate(&mut self, thread: ThreadId, dst: CoreId) {
        self.migrations += 1;
        self.feed_clock += 1;
        // Clear detection state: history belongs to the old cache.
        let ts = &mut self.threads[thread.as_usize()];
        ts.shift = 0;
        ts.mtq.clear();
        ts.residency = 0;
        ts.fills = 0;
        ts.hits = 0;
        // The thread left its source core; the driver clears `running`.
        for c in &mut self.cores {
            if c.running == Some(thread) {
                c.running = None;
            }
        }
        let dst_state = &mut self.cores[dst.as_usize()];
        dst_state.last_fed = self.feed_clock;
        dst_state.queue.push_back(thread);
    }

    fn on_done(&mut self, core: CoreId, _thread: ThreadId, _now: Cycle) {
        self.cores[core.as_usize()].running = None;
        self.refill_from_backlog();
    }

    fn migrations(&self) -> u64 {
        self.migrations
    }
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
    fn active_set_capped_at_two_per_core() {
        let mut s = SliccSched::new(SliccParams::default());
        s.init(&threads(20), &[], 4);
        let active: usize = s.cores.iter().map(|c| c.queue.len()).sum();
        assert_eq!(active, 8, "2 x 4 cores active");
        assert_eq!(s.backlog.len(), 12);
    }

    #[test]
    fn next_thread_drains_backlog_over_time() {
        let mut s = SliccSched::new(SliccParams::default());
        s.init(&threads(6), &[], 2);
        let t = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_done(CoreId::new(0), t, 10);
        // Completing work lets the backlog refill the active set.
        assert!(s.cores.iter().map(|c| c.queue.len()).sum::<usize>() >= 3);
    }

    #[test]
    fn migration_moves_thread_and_counts() {
        let mut s = SliccSched::new(SliccParams::default());
        s.init(&threads(4), &[], 2);
        let t = s.next_thread(CoreId::new(0), 0).unwrap();
        s.on_migrate(t, CoreId::new(1));
        assert_eq!(s.migrations(), 1);
        assert!(s.cores[1].queue.contains(&t));
        assert_eq!(s.cores[0].running, None);
    }

    #[test]
    fn migration_clears_detection_state() {
        let mut s = SliccSched::new(SliccParams::default());
        s.init(&threads(2), &[], 2);
        let t = s.next_thread(CoreId::new(0), 0).unwrap();
        s.threads[t.as_usize()].shift = 0b101;
        s.threads[t.as_usize()].mtq.push_back(BlockAddr::new(9));
        assert_eq!(s.miss_count(t), 2);
        s.on_migrate(t, CoreId::new(1));
        assert_eq!(s.threads[t.as_usize()].shift, 0);
        assert_eq!(s.miss_count(t), 0);
        assert!(s.threads[t.as_usize()].mtq.is_empty());
    }

    #[test]
    fn no_migration_before_min_residency() {
        let mut s = SliccSched::new(SliccParams::default());
        s.init(&threads(2), &[], 2);
        let t = s.next_thread(CoreId::new(0), 0).unwrap();
        let mem = MemorySystem::new(strex_sim::SystemConfig::with_cores(2));
        // A miss right after landing must not trigger migration.
        let fetch = InstFetch {
            stall: 50,
            hit: false,
            evicted: None,
        };
        assert_eq!(
            s.on_fetch(CoreId::new(0), t, BlockAddr::new(5), &fetch, &mem),
            Decision::Continue
        );
    }
}
