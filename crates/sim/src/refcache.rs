//! Reference (pre-optimization) set-associative cache: the seed
//! implementation the SoA single-probe [`crate::cache`] replaced.
//!
//! Kept for differential testing: the property tests drive identical
//! operation sequences through [`RefSetAssocCache`] and
//! [`SetAssocCache`](crate::cache::SetAssocCache) and require identical
//! observable behaviour (hits, victims, aux tags, dirty bits) — the
//! unit-level half of the bit-identity guarantee the golden report
//! snapshot enforces end to end.
//!
//! The code is a frame-struct (array-of-structs) design whose operations
//! scan the set multiple times (`contains` then `access`, `find` twice in
//! `access_write`, a residency scan plus an invalid-way scan in
//! `peek_victim`) — exactly the costs the SoA rewrite removed. Do not use
//! it in the simulator proper.

use crate::addr::BlockAddr;
use crate::cache::{CacheGeometry, Victim};
use crate::replacement::{Replacement, ReplacementKind};

#[derive(Copy, Clone, Debug, Default)]
struct Frame {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    aux: u8,
}

/// Outcome of [`RefSetAssocCache::access`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum RefAccessOutcome {
    /// The block was resident.
    Hit,
    /// The block was installed; `evicted` names the displaced block, if any.
    Miss {
        /// The displaced block, `None` if an invalid way was used.
        evicted: Option<Victim>,
    },
}

impl RefAccessOutcome {
    /// Returns `true` for [`RefAccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, RefAccessOutcome::Hit)
    }

    /// Returns the evicted victim of a miss, if any.
    pub fn evicted(self) -> Option<Victim> {
        match self {
            RefAccessOutcome::Hit => None,
            RefAccessOutcome::Miss { evicted } => evicted,
        }
    }
}

/// The seed's frame-struct cache (see the module doc).
#[derive(Clone, Debug)]
pub struct RefSetAssocCache {
    geom: CacheGeometry,
    frames: Vec<Frame>,
    repl: Replacement,
}

impl RefSetAssocCache {
    /// Creates an empty cache with the given geometry and replacement policy.
    pub fn new(geom: CacheGeometry, repl: ReplacementKind) -> Self {
        RefSetAssocCache {
            geom,
            frames: vec![Frame::default(); geom.blocks()],
            repl: Replacement::new(repl, geom.sets(), geom.assoc()),
        }
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.geom.assoc();
        base..base + self.geom.assoc()
    }

    fn find(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let set = self.geom.set_of(block);
        for (way, idx) in self.set_range(set).enumerate() {
            let f = &self.frames[idx];
            if f.valid && f.block == block {
                return Some((set, way));
            }
        }
        None
    }

    /// Returns `true` if `block` is resident, without touching policy state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Returns the aux tag of a resident block.
    pub fn aux(&self, block: BlockAddr) -> Option<u8> {
        self.find(block)
            .map(|(set, way)| self.frames[set * self.geom.assoc() + way].aux)
    }

    /// Overwrites the aux tag of a resident block.
    pub fn set_aux(&mut self, block: BlockAddr, aux: u8) -> bool {
        if let Some((set, way)) = self.find(block) {
            self.frames[set * self.geom.assoc() + way].aux = aux;
            true
        } else {
            false
        }
    }

    /// Reports which block a fill of `block` would displace.
    pub fn peek_victim(&self, block: BlockAddr) -> Option<Victim> {
        if self.contains(block) {
            return None;
        }
        let set = self.geom.set_of(block);
        for idx in self.set_range(set) {
            if !self.frames[idx].valid {
                return None;
            }
        }
        let way = self.repl.victim_way(set);
        let f = &self.frames[set * self.geom.assoc() + way];
        Some(Victim {
            block: f.block,
            aux: f.aux,
            dirty: f.dirty,
        })
    }

    /// Accesses `block`, tagging the frame with `aux`.
    pub fn access(&mut self, block: BlockAddr, aux: u8) -> RefAccessOutcome {
        if let Some((set, way)) = self.find(block) {
            self.repl.on_hit(set, way);
            self.frames[set * self.geom.assoc() + way].aux = aux;
            return RefAccessOutcome::Hit;
        }
        let evicted = self.fill(block, aux);
        RefAccessOutcome::Miss { evicted }
    }

    /// Accesses `block` for writing; also marks the frame dirty.
    pub fn access_write(&mut self, block: BlockAddr, aux: u8) -> RefAccessOutcome {
        let outcome = self.access(block, aux);
        if let Some((set, way)) = self.find(block) {
            self.frames[set * self.geom.assoc() + way].dirty = true;
        }
        outcome
    }

    /// Installs `block` (which must not be resident), returning any victim.
    pub fn fill(&mut self, block: BlockAddr, aux: u8) -> Option<Victim> {
        debug_assert!(!self.contains(block), "fill of resident block");
        let set = self.geom.set_of(block);
        let assoc = self.geom.assoc();
        let mut target = None;
        for (way, idx) in self.set_range(set).enumerate() {
            if !self.frames[idx].valid {
                target = Some((way, None));
                break;
            }
        }
        let (way, victim) = match target {
            Some(t) => t,
            None => {
                let way = self.repl.evict(set);
                let f = &self.frames[set * assoc + way];
                (
                    way,
                    Some(Victim {
                        block: f.block,
                        aux: f.aux,
                        dirty: f.dirty,
                    }),
                )
            }
        };
        self.frames[set * assoc + way] = Frame {
            block,
            valid: true,
            dirty: false,
            aux,
        };
        self.repl.on_fill(set, way);
        victim
    }

    /// Invalidates `block` if resident, returning its frame info.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Victim> {
        if let Some((set, way)) = self.find(block) {
            let idx = set * self.geom.assoc() + way;
            let f = self.frames[idx];
            self.frames[idx].valid = false;
            self.frames[idx].dirty = false;
            self.repl.on_invalidate(set, way);
            Some(Victim {
                block: f.block,
                aux: f.aux,
                dirty: f.dirty,
            })
        } else {
            None
        }
    }

    /// Clears the dirty bit of a resident block, returning whether it was
    /// dirty.
    pub fn clean(&mut self, block: BlockAddr) -> bool {
        if let Some((set, way)) = self.find(block) {
            let idx = set * self.geom.assoc() + way;
            let was = self.frames[idx].dirty;
            self.frames[idx].dirty = false;
            was
        } else {
            false
        }
    }

    /// Number of resident (valid) blocks.
    pub fn occupancy(&self) -> usize {
        self.frames.iter().filter(|f| f.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_the_seed() {
        let mut c = RefSetAssocCache::new(CacheGeometry::new(256, 2), ReplacementKind::Lru);
        let b = BlockAddr::new(4);
        assert!(!c.access(b, 1).is_hit());
        assert!(c.access(b, 2).is_hit());
        assert_eq!(c.aux(b), Some(2));
        // Set 0 full: 0, 2 -> fill of 4... (2 sets x 2 ways)
        c.access(BlockAddr::new(0), 0);
        c.access(BlockAddr::new(2), 0);
        let peek = c.peek_victim(BlockAddr::new(6));
        let got = c.access(BlockAddr::new(6), 0).evicted();
        assert_eq!(peek, got);
    }
}
