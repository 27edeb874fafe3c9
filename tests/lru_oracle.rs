//! An independent oracle for the headline counts.
//!
//! A textbook LRU model — one recency list per set, most recent first, no
//! use of `strex_sim::replacement` or the SoA cache — replays a 1-core
//! baseline cell with prefetch off and must reproduce the simulator's
//! `i_misses`, `d_misses`, `l2_accesses`, `l2_misses` and `writebacks`
//! exactly. It is fed in the hierarchy's order: the L1-D fill first, then
//! the dirty victim's write-back to the L2 (installed if absent; a hit
//! leaves the L2's recency alone), then the demand access to the L2.
//!
//! With one core the MESI directory never invalidates or downgrades, so
//! the L1-D model needs only a dirty bit per block.

use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex_oltp::trace::MemRef;
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::addr::BlockAddr;
use strex_sim::config::SystemConfig;
use strex_sim::prefetch::PrefetcherKind;

/// One LRU cache: per set, the resident blocks and their dirty bits, most
/// recently used first.
struct LruCache {
    sets: Vec<Vec<(BlockAddr, bool)>>,
    ways: usize,
    evictions: u64,
}

impl LruCache {
    fn new(bytes: u64, ways: usize) -> Self {
        let sets = (bytes / 64) as usize / ways;
        LruCache {
            sets: vec![Vec::with_capacity(ways); sets],
            ways,
            evictions: 0,
        }
    }

    fn set(&mut self, block: BlockAddr) -> &mut Vec<(BlockAddr, bool)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(block.index() % n) as usize]
    }

    /// A demand access: a hit moves the block to the front, a miss inserts
    /// it there and drops the least recent block of a full set. Returns
    /// whether it hit, and the displaced block with its dirty bit.
    fn access(&mut self, block: BlockAddr, write: bool) -> (bool, Option<(BlockAddr, bool)>) {
        let ways = self.ways;
        let set = self.set(block);
        if let Some(pos) = set.iter().position(|&(b, _)| b == block) {
            let (_, dirty) = set.remove(pos);
            set.insert(0, (block, dirty || write));
            return (true, None);
        }
        let victim = (set.len() == ways).then(|| set.pop().expect("full set"));
        set.insert(0, (block, write));
        self.evictions += victim.is_some() as u64;
        (false, victim)
    }

    /// A write-back: installs an absent block as most recent; a resident
    /// block stays exactly where it is.
    fn write_back(&mut self, block: BlockAddr) {
        if !self.set(block).iter().any(|&(b, _)| b == block) {
            self.access(block, false);
        }
    }
}

/// The counts the oracle reproduces.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    i_misses: u64,
    d_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    writebacks: u64,
}

/// A 1-core hierarchy of textbook caches in the shapes of `system`.
struct Oracle {
    l1i: LruCache,
    l1d: LruCache,
    l2: LruCache,
    counts: Counts,
}

impl Oracle {
    fn new(system: &SystemConfig) -> Self {
        let (i, d) = (system.l1i_geometry, system.l1d_geometry);
        Oracle {
            l1i: LruCache::new(i.size_bytes(), i.assoc()),
            l1d: LruCache::new(d.size_bytes(), d.assoc()),
            l2: LruCache::new(system.l2_bytes_per_core, system.l2_assoc),
            counts: Counts::default(),
        }
    }

    fn fetch(&mut self, block: BlockAddr) {
        if !self.l1i.access(block, false).0 {
            self.counts.i_misses += 1;
            self.l2_demand(block);
        }
    }

    fn data(&mut self, block: BlockAddr, write: bool) {
        let (hit, victim) = self.l1d.access(block, write);
        if hit {
            return;
        }
        self.counts.d_misses += 1;
        if let Some((dirty_victim, true)) = victim {
            self.counts.writebacks += 1;
            self.l2.write_back(dirty_victim);
        }
        self.l2_demand(block);
    }

    fn l2_demand(&mut self, block: BlockAddr) {
        self.counts.l2_accesses += 1;
        self.counts.l2_misses += !self.l2.access(block, false).0 as u64;
    }
}

/// Runs `workload` as a 1-core baseline cell on `system` and replays it
/// through the oracle — transaction after transaction, the baseline's
/// FIFO order on one core. Asserts the counts agree and returns the
/// oracle's L2 eviction count.
fn check(workload: &Workload, system: SystemConfig) -> u64 {
    let cfg = SimConfig::builder()
        .system(system)
        .scheduler(SchedulerKind::Baseline)
        .build()
        .expect("1-core baseline is valid");
    let report = run(workload, &cfg);
    let core = &report.stats.cores[0];
    let shared = report.stats.shared;
    let simulated = Counts {
        i_misses: core.i_misses,
        d_misses: core.d_misses,
        l2_accesses: shared.l2_accesses,
        l2_misses: shared.l2_misses,
        writebacks: shared.writebacks,
    };

    let mut oracle = Oracle::new(&system);
    for txn in workload.txns() {
        for r in txn.refs() {
            match r.decode() {
                MemRef::IFetch { block, .. } => oracle.fetch(block),
                MemRef::Load { addr } => oracle.data(addr.block(), false),
                MemRef::Store { addr } => oracle.data(addr.block(), true),
            }
        }
    }
    assert_eq!(simulated, oracle.counts, "{}", workload.name());
    // Not vacuous: both L1s thrash and dirty blocks leave the L1-D.
    assert!(oracle.l1i.evictions > 0 && oracle.l1d.evictions > 0);
    assert!(oracle.counts.writebacks > 0);
    oracle.l2.evictions
}

fn table2_one_core() -> SystemConfig {
    SystemConfig::with_cores(1).with_prefetcher(PrefetcherKind::None)
}

#[test]
fn lru_oracle_matches_tpcc1_baseline() {
    let workload = Workload::preset_small(WorkloadKind::TpccW1, 6, 20130624);
    let l2_evictions = check(&workload, table2_one_core());
    // This pool overflows the 1 MB L2 too, so its recency order is
    // checked, not only its cold misses.
    assert!(l2_evictions > 0);
}

#[test]
fn lru_oracle_matches_tpce_baseline() {
    let workload = Workload::preset_small(WorkloadKind::Tpce, 6, 20130624);
    check(&workload, table2_one_core());
}

#[test]
fn lru_oracle_matches_mapreduce_baseline() {
    let workload = Workload::preset_small(WorkloadKind::MapReduce, 8, 20130624);
    check(&workload, table2_one_core());
}
