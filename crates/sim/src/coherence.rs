//! MESI coherence for the private L1-D caches (Table 2).
//!
//! Coherence produces the paper's D-MPKI behaviour: with conventional
//! scheduling, more cores ⇒ more concurrent sharers of the same index
//! roots, lock words and catalog metadata ⇒ more invalidations ⇒ more data
//! misses (Section 5.2). STREX serializes same-type transactions on one
//! core, collapsing that sharing back into a single L1-D.
//!
//! The L1-Ds are the directory: a block is Modified in the L1-D that holds
//! it dirty, Shared or Exclusive in those that hold it clean, and Invalid
//! everywhere else. [`MemorySystem::access_data`] probes the requester's
//! L1-D once. A read hit, or a write hit on a dirty frame, needs nothing
//! more. Any other access snoops every other L1-D once
//! ([`SetAssocCache::snoop`]): a write invalidates each copy, a dirty copy
//! is written back to the L2 and left clean, and a miss that found a copy
//! is a cache-to-cache transfer. There is no second record of the sharers,
//! so there is nothing that has to agree with the caches. A dirty block
//! has one holder because a write invalidates every other copy first and
//! a read of a dirty block cleans it; in debug builds `access_data`
//! asserts this whenever a snoop finds a dirty copy.
//! [`MemorySystem::l1d_holders`] reads the state back for tests.
//!
//! [`MemorySystem::access_data`]: crate::hierarchy::MemorySystem::access_data
//! [`MemorySystem::l1d_holders`]: crate::hierarchy::MemorySystem::l1d_holders
//! [`SetAssocCache::snoop`]: crate::cache::SetAssocCache::snoop

/// Sharer bitmask, one bit per core; supports up to 64 cores (the paper
/// uses at most 16).
pub type SharerMask = u64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, BlockAddr};
    use crate::cache::CacheGeometry;
    use crate::config::SystemConfig;
    use crate::hierarchy::MemorySystem;
    use crate::ids::CoreId;
    use crate::interconnect::Torus;

    fn c(i: usize) -> CoreId {
        CoreId::new(i as u16)
    }

    fn mask(cores: &[usize]) -> SharerMask {
        cores.iter().fold(0, |m, &i| m | 1 << i)
    }

    /// A 4-core system whose L1-Ds are one set of two ways, so a third
    /// block on a core evicts.
    fn tiny() -> MemorySystem {
        let mut cfg = SystemConfig::with_cores(4);
        cfg.l1d_geometry = CacheGeometry::new(128, 2);
        MemorySystem::new(cfg)
    }

    /// The block every case accesses. It lives in core 2's L2 slice, so an
    /// L2 hit from core 0 costs `RT[2] + L2`.
    const B: u64 = 2;
    /// The 4-core Table 2 latencies: an L1 hit's extra cycles, an L2
    /// slice hit, and the torus round trips from core 0 to cores 0-3.
    const L1: u64 = 2;
    const L2: u64 = 16;
    const RT: [u64; 4] = [0, 2, 2, 4];
    const R: bool = false;
    const W: bool = true;
    /// An access's `(hit, coherence)`: a hit, a miss the L2 serves, and a
    /// miss another L1-D serves (a cache-to-cache transfer).
    const HIT: (bool, bool) = (true, false);
    const MISS: (bool, bool) = (false, false);
    const XFER: (bool, bool) = (false, true);

    /// What cores 0-3 hold of [`B`] before core 0 reads or writes it, one
    /// character per core (`-` no copy, `C` a clean copy, `D` a dirty
    /// one); the access; what they hold after; its `(hit, coherence)` and
    /// stall; and how many upgrade invalidations and L2 write-backs it
    /// adds.
    type Case = (State, bool, State, (bool, bool), u64, u64, u64);
    type State = &'static str;

    /// Every MESI-reachable case of one block across four cores: the
    /// requester holds nothing, a clean copy or a dirty copy; the other
    /// cores hold nothing, one clean copy, two clean copies (the nearest
    /// and the farthest core) or one dirty copy (the farthest); the access
    /// reads or writes. A dirty copy has no other holder, so a dirty
    /// requester sees no other copy and a dirty other core no clean one.
    /// A stall is the L1 hit's extra cycles, plus the largest round trip
    /// to a core written back from or invalidated, plus the L2 directory
    /// hop on a transfer or the L2 access on any other miss.
    const CASES: [Case; 16] = [
        ("----", R, "C---", MISS, L1 + RT[2] + L2, 0, 0),
        ("----", W, "D---", MISS, L1 + RT[2] + L2, 0, 0),
        ("C---", R, "C---", HIT, L1, 0, 0),
        ("C---", W, "D---", HIT, L1, 0, 0),
        ("D---", R, "D---", HIT, L1, 0, 0),
        ("D---", W, "D---", HIT, L1, 0, 0),
        ("-C--", R, "CC--", XFER, L1 + L2, 0, 0),
        ("-C-C", R, "CC-C", XFER, L1 + L2, 0, 0),
        ("CC--", R, "CC--", HIT, L1, 0, 0),
        ("CC-C", R, "CC-C", HIT, L1, 0, 0),
        ("-C--", W, "D---", XFER, L1 + RT[1] + L2, 1, 0),
        ("-C-C", W, "D---", XFER, L1 + RT[3] + L2, 1, 0),
        ("CC--", W, "D---", HIT, L1 + RT[1], 1, 0),
        ("CC-C", W, "D---", HIT, L1 + RT[3], 1, 0),
        ("---D", R, "C--C", XFER, L1 + RT[3] + L2, 0, 1),
        ("---D", W, "D---", XFER, L1 + RT[3] + L2, 1, 1),
    ];

    /// A [`tiny`] system with [`B`] in the L2 and in no L1-D, then in
    /// state `before`, with table core `i` played by core `core_of(i)`:
    /// each clean holder reads `B`, the dirty one writes it.
    fn system_in(before: &str, core_of: impl Fn(usize) -> usize) -> MemorySystem {
        let mut m = tiny();
        // Core 0 reads B, then two more blocks push it out of its L1-D.
        for block in [B, 100, 101] {
            m.access_data(c(0), Addr::new(block * 64), false, 0);
        }
        for (i, held) in before.chars().enumerate() {
            if held != '-' {
                m.access_data(c(core_of(i)), Addr::new(B * 64), held == 'D', 0);
            }
        }
        m
    }

    /// What table cores 0-3 hold of [`B`], read off the L1-Ds.
    fn held(m: &MemorySystem, core_of: impl Fn(usize) -> usize) -> String {
        let (holders, dirty_owner) = m.l1d_holders(BlockAddr::new(B));
        (0..4)
            .map(|i| match core_of(i) {
                k if dirty_owner == Some(c(k)) => 'D',
                k if holders & 1 << k != 0 => 'C',
                _ => '-',
            })
            .collect()
    }

    /// Runs the [`CASES`] that `select` picks, core 0 requesting, and
    /// checks the access, every core's state after it and the counters
    /// that carry it out. A hit charges `d_stall_cycles` only its wait on
    /// other cores; a miss charges its whole stall.
    fn check(select: impl Fn(&Case) -> bool) {
        let cfg = SystemConfig::with_cores(4);
        assert_eq!((cfg.l1_hit_extra, cfg.l2_hit_latency), (L1, L2));
        let torus = Torus::with_hop_latency(4, cfg.hop_latency);
        assert_eq!(RT, std::array::from_fn(|k| torus.round_trip(c(0), c(k))));
        let cases: Vec<&Case> = CASES.iter().filter(|case| select(case)).collect();
        assert!(!cases.is_empty(), "the selection picks no case");
        for case in cases {
            let &(before, write, after, (hit, coherence), stall, upgrades, writebacks) = case;
            let mut m = system_in(before, |i| i);
            assert_eq!(held(&m, |i| i), before, "set-up of {case:?}");
            let (core, shared) = (m.stats().cores[0], m.shared_stats());
            let got = m.access_data(c(0), Addr::new(B * 64), write, 0);
            assert_eq!((got.hit, got.coherence, got.stall), (hit, coherence, stall));
            assert_eq!(held(&m, |i| i), after, "{case:?}");
            let now = m.stats().cores[0];
            let charged = if hit { stall - L1 } else { stall };
            assert_eq!(
                (
                    now.upgrade_invalidations - core.upgrade_invalidations,
                    now.d_coherence_misses - core.d_coherence_misses,
                    now.d_stall_cycles - core.d_stall_cycles,
                    m.shared_stats().writebacks - shared.writebacks,
                ),
                (upgrades, u64::from(coherence), charged, writebacks),
                "{case:?}"
            );
        }
    }

    #[test]
    fn cold_read_no_action() {
        check(|case| case.0 == "----");
    }

    #[test]
    fn repeat_access_by_owner_is_silent() {
        check(|case| !case.0.starts_with('-') && &case.0[1..] == "---");
    }

    #[test]
    fn read_sharing_accumulates() {
        check(|case| !case.1 && case.0[1..].contains('C'));
    }

    #[test]
    fn write_invalidates_sharers() {
        check(|case| case.1 && case.0[1..].contains('C'));
    }

    #[test]
    fn read_of_modified_downgrades() {
        check(|case| !case.1 && case.0[1..].contains('D'));
    }

    #[test]
    fn write_of_modified_steals_ownership() {
        check(|case| case.1 && case.0[1..].contains('D'));
    }

    /// The tests above run [`CASES`] with core 0 requesting. Here cores
    /// 1-3 each play the requester in every case, the other roles rotated
    /// along, and every core must end as the case says; the requester
    /// keeps the block in every case.
    #[test]
    fn the_requester_is_never_invalidated() {
        for rot in 1..4 {
            let core_of = |i: usize| (i + rot) % 4;
            for case in &CASES {
                let &(before, write, after, ..) = case;
                assert!(!after.starts_with('-'), "{case:?}");
                let mut m = system_in(before, core_of);
                m.access_data(c(rot), Addr::new(B * 64), write, 0);
                assert_eq!(held(&m, core_of), after, "core {rot} requests {case:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 cores")]
    fn too_many_cores_panics() {
        let _ = MemorySystem::new(SystemConfig::with_cores(65));
    }

    #[test]
    fn eviction_removes_sharer() {
        let mut m = tiny();
        let b = BlockAddr::new(1);
        m.access_data(c(0), Addr::new(64), false, 0);
        m.access_data(c(1), Addr::new(64), false, 0);
        assert_eq!(m.l1d_holders(b), (mask(&[0, 1]), None));
        // Two more blocks through core 0's one set push block 1 out.
        m.access_data(c(0), Addr::new(128), false, 0);
        m.access_data(c(0), Addr::new(192), false, 0);
        assert_eq!(m.l1d_holders(b), (mask(&[1]), None));
        // Core 1 is now the sole holder: its write invalidates no one.
        let w = m.access_data(c(1), Addr::new(64), true, 10);
        assert!(w.hit && !w.coherence);
        assert_eq!(m.stats().cores[1].upgrade_invalidations, 0);
    }

    #[test]
    fn eviction_of_modified_clears_line() {
        let mut m = tiny();
        let b = BlockAddr::new(7);
        m.access_data(c(2), Addr::new(7 * 64), true, 0);
        assert_eq!(m.l1d_holders(b), (mask(&[2]), Some(c(2))));
        m.access_data(c(2), Addr::new(8 * 64), false, 0);
        m.access_data(c(2), Addr::new(9 * 64), false, 0);
        assert_eq!(m.l1d_holders(b), (0, None));
        assert_eq!(m.shared_stats().writebacks, 1, "the dirty victim");
    }
}
