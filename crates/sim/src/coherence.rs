//! MESI coherence directory for the private L1-D caches (Table 2).
//!
//! The directory tracks, per data block, which cores hold the block and
//! whether one of them holds it modified. Its role in the reproduction is to
//! produce the paper's D-MPKI behaviour: with conventional scheduling, more
//! cores ⇒ more concurrent sharers of the same index roots, lock words and
//! catalog metadata ⇒ more invalidations ⇒ more data misses (Section 5.2).
//! STREX serializes same-type transactions on one core, collapsing that
//! sharing back into a single L1-D.
//!
//! The directory decides; the memory hierarchy, which owns the caches,
//! carries out the invalidations and downgrades on the L1-D frames. The
//! two must agree: the directory lists a core for a block if and only if
//! that core's L1-D holds it, and marks it `Modified` by that core if and
//! only if the copy is dirty. [`MemorySystem::access_data`] relies on that
//! agreement to serve an L1-D hit that needs no coherence action (a read,
//! or a write to a dirty frame) without consulting the directory.
//! [`MemorySystem::coherence_violations`] checks it; debug builds assert
//! it for the accessed block on every data access and for the whole
//! hierarchy at the end of every simulation loop.
//!
//! [`MemorySystem::access_data`]: crate::hierarchy::MemorySystem::access_data
//! [`MemorySystem::coherence_violations`]: crate::hierarchy::MemorySystem::coherence_violations

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::BlockAddr;
use crate::ids::CoreId;

/// Deterministic multiply-mix hasher for block addresses.
///
/// The directory performs one map lookup per data access that misses or
/// changes state, which makes the default SipHash a measurable cost on
/// the simulation hot path. Block addresses are simulator-internal (no
/// untrusted input, no DoS surface), and the one iteration of the map
/// ([`Directory::blocks`], for the coherence check) is sorted by its
/// caller, so the bucket layout is unobservable: swapping the hasher
/// cannot change any simulation result.
#[derive(Clone, Default)]
struct BlockAddrHasher {
    hash: u64,
}

impl Hasher for BlockAddrHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply, then fold the strong high bits back down so
        // bucket indices (low bits) are well mixed too.
        let h = (self.hash ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.hash = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type BlockMap<V> = HashMap<BlockAddr, V, BuildHasherDefault<BlockAddrHasher>>;

/// Sharer bitmask; supports up to 64 cores (the paper uses at most 16).
pub type SharerMask = u64;

/// Directory state for one block.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum LineState {
    /// One or more cores hold the block clean.
    Shared(SharerMask),
    /// Exactly one core holds the block, possibly dirty.
    Modified(CoreId),
}

/// What the requesting core must do to complete an access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceAction {
    /// Cores whose L1-D copy must be invalidated before the access proceeds.
    pub invalidate: Vec<CoreId>,
    /// Core that must write its dirty copy back (supplies the data).
    pub writeback_from: Option<CoreId>,
    /// Whether this access was a coherence-induced transfer (the block was
    /// live in another core's cache) — used to classify coherence misses.
    pub coherence_transfer: bool,
}

impl CoherenceAction {
    fn none() -> Self {
        CoherenceAction {
            invalidate: Vec::new(),
            writeback_from: None,
            coherence_transfer: false,
        }
    }
}

/// The MESI directory.
///
/// # Examples
///
/// ```
/// use strex_sim::addr::BlockAddr;
/// use strex_sim::coherence::Directory;
/// use strex_sim::ids::CoreId;
///
/// let mut dir = Directory::new(4);
/// let b = BlockAddr::new(9);
/// dir.on_read(CoreId::new(0), b);
/// let act = dir.on_write(CoreId::new(1), b);
/// assert_eq!(act.invalidate, vec![CoreId::new(0)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Directory {
    lines: BlockMap<LineState>,
    n_cores: usize,
}

impl Directory {
    /// Creates a directory for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` exceeds the sharer mask's width (64 cores).
    pub fn new(n_cores: usize) -> Self {
        assert!(
            n_cores <= SharerMask::BITS as usize,
            "sharer mask supports at most 64 cores"
        );
        Directory {
            lines: BlockMap::default(),
            n_cores,
        }
    }

    fn mask(core: CoreId) -> SharerMask {
        1u64 << core.as_usize()
    }

    fn sharers(mask: SharerMask, except: CoreId) -> Vec<CoreId> {
        (0..64u16)
            .filter(|&i| mask & (1 << i) != 0 && i != except.value())
            .map(CoreId::new)
            .collect()
    }

    /// Records a read by `core` and returns the required coherence action.
    pub fn on_read(&mut self, core: CoreId, block: BlockAddr) -> CoherenceAction {
        match self.lines.get_mut(&block) {
            None => {
                self.lines
                    .insert(block, LineState::Shared(Self::mask(core)));
                CoherenceAction::none()
            }
            Some(LineState::Shared(mask)) => {
                let transfer = *mask & !Self::mask(core) != 0 && *mask & Self::mask(core) == 0;
                *mask |= Self::mask(core);
                CoherenceAction {
                    invalidate: Vec::new(),
                    writeback_from: None,
                    coherence_transfer: transfer,
                }
            }
            Some(state @ LineState::Modified(_)) => {
                let owner = match *state {
                    LineState::Modified(o) => o,
                    LineState::Shared(_) => unreachable!(),
                };
                if owner == core {
                    return CoherenceAction::none();
                }
                // Downgrade M -> S: owner writes back, both become sharers.
                *state = LineState::Shared(Self::mask(core) | Self::mask(owner));
                CoherenceAction {
                    invalidate: Vec::new(),
                    writeback_from: Some(owner),
                    coherence_transfer: true,
                }
            }
        }
    }

    /// Records a write by `core` and returns the required coherence action.
    pub fn on_write(&mut self, core: CoreId, block: BlockAddr) -> CoherenceAction {
        match self.lines.get_mut(&block) {
            None => {
                self.lines.insert(block, LineState::Modified(core));
                CoherenceAction::none()
            }
            Some(state @ LineState::Shared(_)) => {
                let mask = match *state {
                    LineState::Shared(m) => m,
                    LineState::Modified(_) => unreachable!(),
                };
                let others = Self::sharers(mask, core);
                let transfer = !others.is_empty() && mask & Self::mask(core) == 0;
                *state = LineState::Modified(core);
                CoherenceAction {
                    invalidate: others,
                    writeback_from: None,
                    coherence_transfer: transfer,
                }
            }
            Some(state @ LineState::Modified(_)) => {
                let owner = match *state {
                    LineState::Modified(o) => o,
                    LineState::Shared(_) => unreachable!(),
                };
                if owner == core {
                    return CoherenceAction::none();
                }
                *state = LineState::Modified(core);
                CoherenceAction {
                    invalidate: vec![owner],
                    writeback_from: Some(owner),
                    coherence_transfer: true,
                }
            }
        }
    }

    /// Records that `core` evicted `block` from its L1-D.
    pub fn on_evict(&mut self, core: CoreId, block: BlockAddr) {
        if let Some(state) = self.lines.get_mut(&block) {
            match state {
                LineState::Shared(mask) => {
                    *mask &= !Self::mask(core);
                    if *mask == 0 {
                        self.lines.remove(&block);
                    }
                }
                LineState::Modified(owner) => {
                    if *owner == core {
                        self.lines.remove(&block);
                    }
                }
            }
        }
    }

    /// What the directory says the L1-Ds hold of `block`: the mask of
    /// holding cores, and whether the one holder has it dirty (`Modified`).
    /// `(0, false)` when no core holds it.
    pub(crate) fn holders(&self, block: BlockAddr) -> (SharerMask, bool) {
        match self.lines.get(&block) {
            None => (0, false),
            Some(&LineState::Shared(mask)) => (mask, false),
            Some(&LineState::Modified(owner)) => (Self::mask(owner), true),
        }
    }

    /// Every block the directory has a line for, in unspecified order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.lines.keys().copied()
    }

    /// Returns how many cores currently share `block`.
    pub fn sharer_count(&self, block: BlockAddr) -> usize {
        match self.lines.get(&block) {
            None => 0,
            Some(LineState::Shared(mask)) => mask.count_ones() as usize,
            Some(LineState::Modified(_)) => 1,
        }
    }

    /// Number of cores the directory was built for.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }
    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn cold_read_no_action() {
        let mut d = Directory::new(4);
        let act = d.on_read(c(0), b(1));
        assert_eq!(act, CoherenceAction::none());
        assert_eq!(d.sharer_count(b(1)), 1);
    }

    #[test]
    fn read_sharing_accumulates() {
        let mut d = Directory::new(4);
        d.on_read(c(0), b(1));
        let act = d.on_read(c(1), b(1));
        assert!(act.coherence_transfer, "data supplied by another cache");
        assert!(act.invalidate.is_empty());
        assert_eq!(d.sharer_count(b(1)), 2);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new(4);
        d.on_read(c(0), b(1));
        d.on_read(c(1), b(1));
        d.on_read(c(2), b(1));
        let act = d.on_write(c(0), b(1));
        let mut inv = act.invalidate.clone();
        inv.sort();
        assert_eq!(inv, vec![c(1), c(2)]);
        assert_eq!(d.sharer_count(b(1)), 1);
    }

    #[test]
    fn read_of_modified_downgrades() {
        let mut d = Directory::new(4);
        d.on_write(c(0), b(1));
        let act = d.on_read(c(1), b(1));
        assert_eq!(act.writeback_from, Some(c(0)));
        assert!(act.coherence_transfer);
        assert_eq!(d.sharer_count(b(1)), 2);
    }

    #[test]
    fn write_of_modified_steals_ownership() {
        let mut d = Directory::new(4);
        d.on_write(c(0), b(1));
        let act = d.on_write(c(1), b(1));
        assert_eq!(act.invalidate, vec![c(0)]);
        assert_eq!(act.writeback_from, Some(c(0)));
        assert_eq!(d.sharer_count(b(1)), 1);
    }

    #[test]
    fn repeat_access_by_owner_is_silent() {
        let mut d = Directory::new(4);
        d.on_write(c(0), b(1));
        assert_eq!(d.on_write(c(0), b(1)), CoherenceAction::none());
        assert_eq!(d.on_read(c(0), b(1)), CoherenceAction::none());
    }

    #[test]
    fn eviction_removes_sharer() {
        let mut d = Directory::new(4);
        d.on_read(c(0), b(1));
        d.on_read(c(1), b(1));
        d.on_evict(c(0), b(1));
        assert_eq!(d.sharer_count(b(1)), 1);
        d.on_evict(c(1), b(1));
        assert_eq!(d.sharer_count(b(1)), 0);
    }

    #[test]
    fn eviction_of_modified_clears_line() {
        let mut d = Directory::new(4);
        d.on_write(c(2), b(7));
        d.on_evict(c(2), b(7));
        assert_eq!(d.sharer_count(b(7)), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 cores")]
    fn too_many_cores_panics() {
        let _ = Directory::new(65);
    }
}
