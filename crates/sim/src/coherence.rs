//! MESI coherence for the private L1-D caches (Table 2).
//!
//! Coherence produces the paper's D-MPKI behaviour: with conventional
//! scheduling, more cores ⇒ more concurrent sharers of the same index
//! roots, lock words and catalog metadata ⇒ more invalidations ⇒ more data
//! misses (Section 5.2). STREX serializes same-type transactions on one
//! core, collapsing that sharing back into a single L1-D.
//!
//! The L1-Ds are the directory. Which cores hold a block, and which one
//! holds it dirty, is read off their frames
//! ([`MemorySystem::l1d_holders`]); [`decide`] turns that state into the
//! action an access needs, and the memory hierarchy carries it out on the
//! frames. There is no second record of the sharers, so there is nothing
//! that has to agree with the caches. A dirty block has one holder
//! because a write invalidates every other copy first and a read of a
//! dirty block cleans it.
//!
//! [`MemorySystem::l1d_holders`]: crate::hierarchy::MemorySystem::l1d_holders

use crate::ids::CoreId;

/// Sharer bitmask, one bit per core; supports up to 64 cores (the paper
/// uses at most 16).
pub type SharerMask = u64;

/// What the requesting core must do to complete an access.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CoherenceAction {
    /// Cores whose L1-D copy must be invalidated before the access proceeds.
    pub invalidate: SharerMask,
    /// Core that must write its dirty copy back (supplies the data).
    pub writeback_from: Option<CoreId>,
    /// Whether this access was a coherence-induced transfer (the block was
    /// live in another core's cache) — used to classify coherence misses.
    pub coherence_transfer: bool,
}

/// The MESI action an access by `core` needs, given the cores whose L1-Ds
/// hold the block (`holders`) and the one holding it dirty, if any.
///
/// * No holder: nothing to do.
/// * Clean holders: a read is a transfer if another core holds the block;
///   a write invalidates the other holders and is a transfer only if the
///   writer held nothing.
/// * Another core holds it dirty: that core writes it back and supplies
///   it; a write also invalidates its copy.
/// * The requester holds it dirty: nothing to do.
///
/// The requester is never asked to invalidate its own copy.
///
/// # Examples
///
/// ```
/// use strex_sim::coherence::decide;
/// use strex_sim::ids::CoreId;
///
/// // Core 0 holds the block clean; core 1 writes it.
/// let act = decide(CoreId::new(1), 0b01, None, true);
/// assert_eq!(act.invalidate, 0b01);
/// assert!(act.coherence_transfer);
/// ```
pub fn decide(
    core: CoreId,
    holders: SharerMask,
    dirty_owner: Option<CoreId>,
    is_write: bool,
) -> CoherenceAction {
    debug_assert!(
        dirty_owner.is_none_or(|owner| holders == 1 << owner.as_usize()),
        "a dirty block has one holder: {holders:#b} hold it, {dirty_owner:?} dirty"
    );
    let me = 1 << core.as_usize();
    match dirty_owner {
        Some(owner) if owner == core => CoherenceAction::default(),
        Some(owner) => CoherenceAction {
            invalidate: if is_write { 1 << owner.as_usize() } else { 0 },
            writeback_from: Some(owner),
            coherence_transfer: true,
        },
        None => {
            let others = holders & !me;
            CoherenceAction {
                invalidate: if is_write { others } else { 0 },
                writeback_from: None,
                coherence_transfer: others != 0 && holders & me == 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, BlockAddr};
    use crate::cache::CacheGeometry;
    use crate::config::SystemConfig;
    use crate::hierarchy::MemorySystem;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn mask(cores: &[u16]) -> SharerMask {
        cores.iter().fold(0, |m, &i| m | 1 << i)
    }

    fn action(invalidate: &[u16], writeback_from: Option<u16>, transfer: bool) -> CoherenceAction {
        CoherenceAction {
            invalidate: mask(invalidate),
            writeback_from: writeback_from.map(c),
            coherence_transfer: transfer,
        }
    }

    /// A 4-core system whose L1-Ds are one set of two ways, so a third
    /// block on a core evicts.
    fn tiny() -> MemorySystem {
        let mut cfg = SystemConfig::with_cores(4);
        cfg.l1d_geometry = CacheGeometry::new(128, 2);
        MemorySystem::new(cfg)
    }

    #[test]
    fn cold_read_no_action() {
        for write in [false, true] {
            assert_eq!(decide(c(0), 0, None, write), CoherenceAction::default());
        }
    }

    #[test]
    fn read_sharing_accumulates() {
        // (reader, clean holders, transfer)
        for (reader, holders, transfer) in [
            (1, &[0][..], true),
            (2, &[0, 1], true),
            (1, &[0, 1], false), // a read hit
        ] {
            assert_eq!(
                decide(c(reader), mask(holders), None, false),
                action(&[], None, transfer),
                "core {reader} reads a block held by {holders:?}"
            );
        }
    }

    #[test]
    fn write_invalidates_sharers() {
        // (writer, clean holders, invalidated, transfer)
        for (writer, holders, invalidated, transfer) in [
            (0, &[0, 1, 2][..], &[1, 2][..], false), // an upgrade
            (3, &[0, 1, 2], &[0, 1, 2], true),       // a write miss
            (0, &[0], &[], false),                   // the sole holder
        ] {
            assert_eq!(
                decide(c(writer), mask(holders), None, true),
                action(invalidated, None, transfer),
                "core {writer} writes a block held by {holders:?}"
            );
        }
    }

    #[test]
    fn read_of_modified_downgrades() {
        assert_eq!(
            decide(c(1), mask(&[0]), Some(c(0)), false),
            action(&[], Some(0), true)
        );
    }

    #[test]
    fn write_of_modified_steals_ownership() {
        assert_eq!(
            decide(c(1), mask(&[0]), Some(c(0)), true),
            action(&[0], Some(0), true)
        );
    }

    #[test]
    fn repeat_access_by_owner_is_silent() {
        for write in [false, true] {
            assert_eq!(
                decide(c(0), mask(&[0]), Some(c(0)), write),
                CoherenceAction::default()
            );
        }
    }

    #[test]
    fn the_requester_is_never_invalidated() {
        for core in 0..4u16 {
            for holders in 0..16u64 {
                let owners = (0..4u16).filter(|&o| holders == 1 << o).map(Some);
                for dirty_owner in owners.chain([None]) {
                    for write in [false, true] {
                        let act = decide(c(core), holders, dirty_owner.map(c), write);
                        assert_eq!(act.invalidate & mask(&[core]), 0, "{act:?}");
                    }
                }
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
