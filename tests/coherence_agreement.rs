//! The MESI directory agrees with what the L1-Ds hold.
//!
//! `MemorySystem::access_data` serves an L1-D read hit, or a write hit on
//! a dirty frame, without consulting the directory. That is exact only
//! while the directory lists a core for a block if and only if the core's
//! L1-D holds it, and marks it `Modified` by the core if and only if the
//! copy is dirty. The property below checks that after every access of a
//! random multi-core stream; the scheduler matrix runs whole cells, whose
//! end-of-loop check in debug builds walks the full hierarchy.

use proptest::prelude::*;
use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::{Addr, CacheGeometry, CoreId, MemorySystem, ReplacementKind, SystemConfig};

/// Distinct data blocks the property draws from: eight per set of its
/// 4-set, 2-way L1-D, so every core keeps evicting.
const BLOCKS: u64 = 32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random reads and writes from 2-16 cores over a small block universe
    /// force evictions, upgrades (a write to a block others share),
    /// downgrades (a read of a block another core holds dirty) and
    /// ownership steals. The directory must agree with the L1-Ds after
    /// every access, under every L1-D replacement policy.
    #[test]
    fn directory_agrees_with_l1ds_after_every_access(
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
            let violations = mem.coherence_violations();
            prop_assert!(violations.is_empty(), "after access {}: {:?}", i, violations);
        }
        let stats = mem.stats();
        let total = |f: fn(&strex_sim::CoreStats) -> u64| stats.cores.iter().map(f).sum::<u64>();
        prop_assert!(total(|c| c.upgrade_invalidations) > 0, "no upgrade");
        prop_assert!(total(|c| c.d_coherence_misses) > 0, "no downgrade or steal");
        prop_assert!(mem.shared_stats().writebacks > 0, "no dirty eviction or downgrade");
    }
}

/// Every scheduler at 2, 4 and 16 cores over small TPC-C-1, TPC-E and
/// MapReduce pools. In debug builds `sim_loop` ends every cell by
/// asserting that the directory agrees with the L1-Ds, and every data
/// access asserts it for the accessed block.
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
