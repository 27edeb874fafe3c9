//! The L1-Ds keep the MESI invariants.
//!
//! The L1-Ds are the coherence directory: `MemorySystem::access_data`
//! probes the requester's L1-D once and, unless that is a read hit or a
//! write hit on a dirty frame, snoops every other L1-D once, invalidating
//! or cleaning the copies it finds. The property below checks, after every
//! access of a random multi-core stream, what MESI promises of the caches:
//!
//! * a block held dirty is held by no other core;
//! * after a write, the writer is the sole holder, dirty;
//! * after a read, the reader holds the block and no other core holds it
//!   dirty.
//!
//! The scheduler matrix runs whole cells; in debug builds `access_data`
//! asserts the first invariant whenever a snoop finds a dirty copy: no
//! other core, the requester included, holds the block.

use proptest::prelude::*;
use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::{
    Addr, BlockAddr, CacheGeometry, CoreId, MemorySystem, ReplacementKind, SystemConfig,
};

/// Distinct data blocks the property draws from: eight per set of its
/// 4-set, 2-way L1-D, so every core keeps evicting.
const BLOCKS: u64 = 32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random reads and writes from 2-16 cores over a small block universe
    /// force evictions, upgrades (a write to a block others share),
    /// downgrades (a read of a block another core holds dirty) and
    /// ownership steals. The L1-Ds must keep the MESI invariants after
    /// every access, under every L1-D replacement policy.
    #[test]
    fn l1ds_keep_the_mesi_invariants_after_every_access(
        cores in 2usize..17,
        kind in 0..ReplacementKind::ALL.len(),
        ops in prop::collection::vec((0usize..16, 0..BLOCKS, any::<bool>()), 300..500),
    ) {
        let mut cfg = SystemConfig::with_cores(cores);
        cfg.l1d_geometry = CacheGeometry::new(512, 2);
        cfg.l1d_replacement = ReplacementKind::ALL[kind];
        let mut mem = MemorySystem::new(cfg);
        for (i, (core, block, write)) in ops.into_iter().enumerate() {
            let core = CoreId::new((core % cores) as u16);
            mem.access_data(core, Addr::new(block * 64), write, i as u64 * 10);
            let me = 1u64 << core.as_usize();
            let (holders, dirty_owner) = mem.l1d_holders(BlockAddr::new(block));
            if write {
                prop_assert_eq!(
                    (holders, dirty_owner), (me, Some(core)),
                    "after access {}: the writer is not the sole, dirty holder", i
                );
            } else {
                prop_assert!(holders & me != 0, "after access {}: the reader lacks the block", i);
                prop_assert!(
                    dirty_owner.is_none_or(|owner| owner == core),
                    "after access {}: another core holds the block dirty", i
                );
            }
            for b in 0..BLOCKS {
                let (holders, dirty_owner) = mem.l1d_holders(BlockAddr::new(b));
                if let Some(owner) = dirty_owner {
                    prop_assert_eq!(
                        holders, 1 << owner.as_usize(),
                        "after access {}: block {} is dirty on {} and held by {:#b}",
                        i, b, owner, holders
                    );
                }
            }
        }
        let stats = mem.stats();
        let total = |f: fn(&strex_sim::CoreStats) -> u64| stats.cores.iter().map(f).sum::<u64>();
        prop_assert!(total(|c| c.upgrade_invalidations) > 0, "no upgrade");
        prop_assert!(total(|c| c.d_coherence_misses) > 0, "no downgrade or steal");
        prop_assert!(mem.shared_stats().writebacks > 0, "no dirty eviction or downgrade");
    }
}

/// Every scheduler at 2, 4 and 16 cores over small TPC-C-1, TPC-E and
/// MapReduce pools keeps the directory, which is the L1-Ds, in agreement
/// with MESI: in debug builds every data access whose snoop finds a dirty
/// copy asserts that no other core, the requester included, holds one.
#[test]
fn every_scheduler_keeps_the_directory_in_agreement() {
    for kind in [
        WorkloadKind::TpccW1,
        WorkloadKind::Tpce,
        WorkloadKind::MapReduce,
    ] {
        let workload = Workload::preset_small(kind, 12, 17);
        for cores in [2, 4, 16] {
            for scheduler in SchedulerKind::ALL {
                let config = SimConfig::builder()
                    .cores(cores)
                    .scheduler(scheduler)
                    .build()
                    .expect("valid test configuration");
                let report = run(&workload, &config);
                assert_eq!(
                    report.stats.instructions(),
                    workload.total_instructions(),
                    "{} {scheduler} {cores} cores",
                    workload.name()
                );
            }
        }
    }
}
