//! Property-based tests of the replacement policies and cache invariants,
//! including differential tests of the SoA single-probe cache against the
//! reference (pre-optimization) implementation, `RefSetAssocCache`, which
//! lives at the end of this file.

use proptest::prelude::*;
use strex_sim::addr::{BlockAddr, BLOCK_SIZE};
use strex_sim::cache::{CacheGeometry, SetAssocCache, Victim};
use strex_sim::replacement::{Replacement, ReplacementKind};

fn any_kind() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![
        Just(ReplacementKind::Lru),
        Just(ReplacementKind::Lip),
        Just(ReplacementKind::Bip),
        Just(ReplacementKind::Srrip),
        Just(ReplacementKind::Brrip),
    ]
}

/// Operations applied to one set of a replacement instance.
#[derive(Copy, Clone, Debug)]
enum Op {
    Hit(usize),
    Fill(usize),
    Evict,
    Invalidate(usize),
}

fn any_op(assoc: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..assoc).prop_map(Op::Hit),
        (0..assoc).prop_map(Op::Fill),
        Just(Op::Evict),
        (0..assoc).prop_map(Op::Invalidate),
    ]
}

/// The reference cache's dirty bit for `block`, read off an invalidation
/// of a copy so the reference itself is untouched.
fn dirty_of(reference: &RefSetAssocCache, block: BlockAddr) -> Option<bool> {
    reference.clone().invalidate(block).map(|v| v.dirty)
}

proptest! {
    /// The victim way is always a legal way, and peeking never changes the
    /// answer (calling victim_way twice gives the same way).
    #[test]
    fn victim_way_is_stable_and_legal(
        kind in any_kind(),
        ops in prop::collection::vec(any_op(8), 1..200),
    ) {
        let mut r = Replacement::new(kind, 2, 8);
        for op in ops {
            match op {
                Op::Hit(w) => r.on_hit(0, w),
                Op::Fill(w) => r.on_fill(0, w),
                Op::Evict => {
                    let first = r.victim_way(0);
                    let second = r.victim_way(0);
                    prop_assert_eq!(first, second, "peek must be pure");
                    let evicted = r.evict(0);
                    prop_assert_eq!(first, evicted, "peek must match evict");
                    prop_assert!(evicted < 8);
                }
                Op::Invalidate(w) => r.on_invalidate(0, w),
            }
            prop_assert!(r.victim_way(0) < 8);
            // The untouched set keeps a legal victim too.
            prop_assert!(r.victim_way(1) < 8);
        }
    }

    /// After an invalidation, the invalidated way is the next victim for
    /// LRU-family policies (free ways are preferred by the cache layer).
    #[test]
    fn invalidated_way_becomes_victim(
        way in 0usize..4,
        prefill_hits in prop::collection::vec(0usize..4, 0..16),
    ) {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        for w in prefill_hits {
            r.on_hit(0, w);
        }
        r.on_invalidate(0, way);
        prop_assert_eq!(r.victim_way(0), way);
    }

    /// An MRU block is never the victim under LRU immediately after a hit.
    #[test]
    fn lru_never_evicts_most_recent(accesses in prop::collection::vec(0u64..64, 1..300)) {
        let mut cache = SetAssocCache::new(
            CacheGeometry::new(2048, 4), // 8 sets x 4 ways
            ReplacementKind::Lru,
        );
        for blk in accesses {
            let block = BlockAddr::new(blk);
            cache.access(block, 0);
            if let Some(victim) = cache.peek_victim(BlockAddr::new(blk + 8 * 100)) {
                // The conflicting fill maps to the same set only when
                // blk + 800 ≡ blk (mod 8); peek may be None otherwise.
                prop_assert_ne!(victim.block, block, "MRU block chosen as victim");
            }
        }
    }

    /// Aux tags survive arbitrary access interleavings: the tag read back
    /// is always the one most recently written for that block.
    #[test]
    fn aux_tags_track_last_write(
        accesses in prop::collection::vec((0u64..32, 0u8..16), 1..200),
    ) {
        let mut cache = SetAssocCache::new(
            CacheGeometry::new(4096, 8),
            ReplacementKind::Lru,
        );
        let mut last: std::collections::HashMap<u64, u8> = Default::default();
        for (blk, aux) in accesses {
            let block = BlockAddr::new(blk);
            cache.access(block, aux);
            last.insert(blk, aux);
            // 32 distinct blocks over 64 frames: nothing is ever evicted,
            // so every recorded tag must be readable.
            for (&b, &expect) in &last {
                prop_assert_eq!(cache.aux(BlockAddr::new(b)), Some(expect));
            }
        }
    }

    /// Differential bit-identity: arbitrary interleavings of accesses,
    /// writes, conditional fills, write snoops (invalidations), read
    /// snoops (cleans) and victim peeks behave identically on the SoA
    /// single-probe cache and the reference (seed) implementation, for
    /// every replacement kind and every scan width: 4, 8 and 16 ways take
    /// the mask kernels, 2 and 64 the generic loop. Every probe's dirty
    /// bit is the reference's before the access.
    #[test]
    fn soa_cache_matches_reference(
        kind in any_kind(),
        assoc in prop_oneof![Just(2usize), Just(4), Just(8), Just(16), Just(64)],
        warm in any::<bool>(),
        ops in prop::collection::vec((0u8..6, 0u64..64, 0u64..3, 0u8..16), 1..400),
    ) {
        // 2 sets; `assoc` low indices times 3 high parts is 1.5 blocks per
        // frame, so sets fill and evict. The high parts reach indices above
        // 2^31, so some blocks of a set share all of their low 31 bits.
        let geom = CacheGeometry::new(2 * assoc as u64 * BLOCK_SIZE, assoc);
        let block_of = |low: u64, high: u64| BlockAddr::new(low % assoc as u64 + (high << 31));
        let mut soa = SetAssocCache::new(geom, kind);
        let mut reference = RefSetAssocCache::new(geom, kind);
        if warm {
            // Touch every block once, so even 64-way sets start full and
            // the random ops below evict.
            for high in 0..3 {
                for low in 0..assoc as u64 {
                    let block = block_of(low, high);
                    let (a, b) = (soa.access(block, 0), reference.access(block, 0));
                    prop_assert_eq!(a.evicted(), b.evicted());
                }
            }
        }
        for (op, low, high, aux) in ops {
            let block = block_of(low, high);
            let was_dirty = dirty_of(&reference, block) == Some(true);
            match op {
                0 => {
                    let a = soa.access(block, aux);
                    let b = reference.access(block, aux);
                    prop_assert_eq!(a.is_hit(), b.is_hit());
                    prop_assert_eq!(a.evicted(), b.evicted());
                    prop_assert_eq!(a.dirty, was_dirty);
                }
                1 => {
                    let a = soa.access_write(block, aux);
                    let b = reference.access_write(block, aux);
                    prop_assert_eq!(a.is_hit(), b.is_hit());
                    prop_assert_eq!(a.evicted(), b.evicted());
                    prop_assert_eq!(a.dirty, was_dirty);
                }
                2 => {
                    // fill_if_absent vs the contains-then-fill idiom it
                    // replaced.
                    let a = soa.fill_if_absent(block, aux);
                    let b = if reference.contains(block) {
                        None
                    } else {
                        Some(reference.fill(block, aux))
                    };
                    prop_assert_eq!(a.is_hit(), b.is_none());
                    prop_assert_eq!(a.evicted(), b.flatten());
                    prop_assert_eq!(a.dirty, was_dirty);
                }
                3 => {
                    let b = reference.invalidate(block).map(|v| v.dirty);
                    prop_assert_eq!(soa.snoop(block, true), b);
                }
                4 => {
                    let b = reference.contains(block).then(|| reference.clean(block));
                    prop_assert_eq!(soa.snoop(block, false), b);
                }
                _ => {
                    prop_assert_eq!(soa.peek_victim(block), reference.peek_victim(block));
                }
            }
            prop_assert_eq!(soa.aux(block), reference.aux(block));
            prop_assert_eq!(soa.dirty(block), dirty_of(&reference, block));
            prop_assert_eq!(soa.occupancy(), reference.occupancy());
        }
    }

    /// The victim monitor contract under arbitrary traffic: whenever
    /// `peek_victim` names a victim, the very next access of that block
    /// evicts exactly it — for every replacement kind, with invalidations
    /// interleaved.
    #[test]
    fn peek_victim_agrees_with_next_eviction(
        kind in any_kind(),
        ops in prop::collection::vec((0u8..4, 0u64..64, 0u8..8), 1..300),
    ) {
        let mut cache = SetAssocCache::new(CacheGeometry::new(1024, 4), kind);
        for (op, blk, aux) in ops {
            let block = BlockAddr::new(blk);
            let peek = cache.peek_victim(block);
            match op {
                0 | 1 => {
                    let got = cache.access(block, aux);
                    prop_assert!(!got.is_hit() || peek.is_none());
                    prop_assert_eq!(peek, got.evicted());
                }
                2 => {
                    cache.snoop(block, true);
                }
                _ => {
                    // A pure peek must not disturb the next prediction.
                    prop_assert_eq!(cache.peek_victim(block), peek);
                }
            }
        }
    }

    /// Flush restores the pristine state: empty, and behaviour matches a
    /// freshly constructed cache for the next access sequence.
    #[test]
    fn flush_equals_fresh(
        kind in any_kind(),
        before in prop::collection::vec(0u64..64, 0..100),
        after in prop::collection::vec(0u64..64, 1..100),
    ) {
        let geom = CacheGeometry::new(2048, 4);
        let mut warmed = SetAssocCache::new(geom, kind);
        for blk in before {
            warmed.access(BlockAddr::new(blk), 0);
        }
        warmed.flush();
        prop_assert_eq!(warmed.occupancy(), 0);
        let mut fresh = SetAssocCache::new(geom, kind);
        for blk in after {
            let a = warmed.access(BlockAddr::new(blk), 0).is_hit();
            let b = fresh.access(BlockAddr::new(blk), 0).is_hit();
            prop_assert_eq!(a, b, "flushed cache diverged from fresh cache");
        }
    }
}

// ----- The reference cache -----
//
// The seed's set-associative cache, which the SoA single-probe
// `strex_sim::cache` replaced, kept as the differential reference for
// `soa_cache_matches_reference`: the unit-level half of the bit-identity
// guarantee the golden report snapshot enforces end to end. It is a
// frame-struct (array-of-structs) design whose operations scan the set
// several times (`contains` then `access`, `find` twice in
// `access_write`, a residency scan plus an invalid-way scan in
// `peek_victim`) — exactly the costs the SoA rewrite removed.

#[derive(Copy, Clone, Debug, Default)]
struct Frame {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    aux: u8,
}

/// Outcome of [`RefSetAssocCache::access`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum RefAccessOutcome {
    /// The block was resident.
    Hit,
    /// The block was installed; `evicted` names the displaced block, if any.
    Miss { evicted: Option<Victim> },
}

impl RefAccessOutcome {
    fn is_hit(self) -> bool {
        matches!(self, RefAccessOutcome::Hit)
    }

    fn evicted(self) -> Option<Victim> {
        match self {
            RefAccessOutcome::Hit => None,
            RefAccessOutcome::Miss { evicted } => evicted,
        }
    }
}

/// The seed's frame-struct cache (see the comment above).
#[derive(Clone, Debug)]
struct RefSetAssocCache {
    geom: CacheGeometry,
    frames: Vec<Frame>,
    repl: Replacement,
}

impl RefSetAssocCache {
    fn new(geom: CacheGeometry, repl: ReplacementKind) -> Self {
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

    fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    fn aux(&self, block: BlockAddr) -> Option<u8> {
        self.find(block)
            .map(|(set, way)| self.frames[set * self.geom.assoc() + way].aux)
    }

    fn peek_victim(&self, block: BlockAddr) -> Option<Victim> {
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

    fn access(&mut self, block: BlockAddr, aux: u8) -> RefAccessOutcome {
        if let Some((set, way)) = self.find(block) {
            self.repl.on_hit(set, way);
            self.frames[set * self.geom.assoc() + way].aux = aux;
            return RefAccessOutcome::Hit;
        }
        let evicted = self.fill(block, aux);
        RefAccessOutcome::Miss { evicted }
    }

    fn access_write(&mut self, block: BlockAddr, aux: u8) -> RefAccessOutcome {
        let outcome = self.access(block, aux);
        if let Some((set, way)) = self.find(block) {
            self.frames[set * self.geom.assoc() + way].dirty = true;
        }
        outcome
    }

    fn fill(&mut self, block: BlockAddr, aux: u8) -> Option<Victim> {
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

    fn invalidate(&mut self, block: BlockAddr) -> Option<Victim> {
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

    fn clean(&mut self, block: BlockAddr) -> bool {
        if let Some((set, way)) = self.find(block) {
            let idx = set * self.geom.assoc() + way;
            let was = self.frames[idx].dirty;
            self.frames[idx].dirty = false;
            was
        } else {
            false
        }
    }

    fn occupancy(&self) -> usize {
        self.frames.iter().filter(|f| f.valid).count()
    }
}

#[test]
fn behaves_like_the_seed() {
    let mut c = RefSetAssocCache::new(CacheGeometry::new(256, 2), ReplacementKind::Lru);
    let b = BlockAddr::new(4);
    assert!(!c.access(b, 1).is_hit());
    assert!(c.access(b, 2).is_hit());
    assert_eq!(c.aux(b), Some(2));
    // Blocks 0, 2 and 6 map to set 0 (2 sets x 2 ways), so the fill of 6
    // evicts.
    c.access(BlockAddr::new(0), 0);
    c.access(BlockAddr::new(2), 0);
    let peek = c.peek_victim(BlockAddr::new(6));
    let got = c.access(BlockAddr::new(6), 0).evicted();
    assert_eq!(peek, got);
}
