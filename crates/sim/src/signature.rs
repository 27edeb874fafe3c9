//! Cache content signatures for SLICC (Table 4: 2K-bit cache signature).
//!
//! SLICC decides where to migrate a thread by asking which remote L1-I
//! likely holds the blocks the thread is missing on. Hardware answers this
//! with a per-core Bloom-filter signature of L1-I contents: a 2048-bit
//! filter with two hash functions, set on every fill and, because a Bloom
//! filter cannot delete, rebuilt from the resident set at every 128th
//! eviction.
//!
//! # Counting instead of rebuilding
//!
//! This model answers exactly the hardware's queries without the rebuild
//! walk. It keeps one `u16` count per filter position (a counting Bloom
//! filter, Fan et al., "Summary Cache", IEEE/ACM ToN 2000) over the
//! multiset *resident blocks + blocks evicted since the last rebuild
//! point*:
//!
//! * a fill adds its block's two positions;
//! * an eviction only logs the victim's two positions;
//! * every 128th eviction subtracts that victim and the log.
//!
//! Between rebuilds the hardware bitmap is the union of the positions of
//! (resident at the last rebuild) ∪ (filled since). An L1-I changes only
//! by fills and evictions, so that set equals (resident now) ∪ (evicted
//! since): a block that was resident at some point since the rebuild is
//! either still resident or was evicted since. A bitmap bit is therefore
//! set exactly when its count is nonzero, and
//! [`CacheSignature::may_contain`] answers what the rebuilt bitmap
//! answers. The multiset holds at most `frames + 127` blocks, each adding
//! at most 2 to one count, so no count exceeds 2 × (frames + 127); a debug
//! assertion pins that bound.

use crate::addr::BlockAddr;

/// Signature size in bits (Table 4 budget).
pub const SIGNATURE_BITS: usize = 2048;

/// Evictions between rebuild points.
const REBUILD_THRESHOLD: usize = 128;

/// A Bloom-filter signature of one L1-I's contents.
///
/// # Examples
///
/// ```
/// use strex_sim::addr::BlockAddr;
/// use strex_sim::signature::CacheSignature;
///
/// let mut sig = CacheSignature::new(512); // a 32 KB L1-I
/// sig.on_fill(BlockAddr::new(42), None);
/// assert!(sig.may_contain(BlockAddr::new(42)));
/// ```
#[derive(Clone, Debug)]
pub struct CacheSignature {
    /// Per-position counts over the resident blocks and the blocks
    /// evicted since the last rebuild point.
    counts: [u16; SIGNATURE_BITS],
    /// The two positions of each block evicted since the last rebuild
    /// point.
    evicted: Vec<[u16; 2]>,
    /// Largest count the filtered cache can produce: 2 × (frames + 127).
    max_count: usize,
}

impl CacheSignature {
    /// Creates an empty signature of a cache with `frames` block frames.
    pub fn new(frames: usize) -> Self {
        CacheSignature {
            counts: [0; SIGNATURE_BITS],
            evicted: Vec::with_capacity(REBUILD_THRESHOLD),
            max_count: 2 * (frames + REBUILD_THRESHOLD - 1),
        }
    }

    #[inline]
    fn hash1(block: BlockAddr) -> usize {
        // Fibonacci hashing on the block index.
        let h = block.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 53) as usize % SIGNATURE_BITS
    }

    #[inline]
    fn hash2(block: BlockAddr) -> usize {
        let h = block
            .index()
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .rotate_left(31);
        (h >> 53) as usize % SIGNATURE_BITS
    }

    /// Records the fill of `block`, which was not resident, displacing
    /// `victim` if the set was full.
    ///
    /// The victim is logged before the fill is counted, so the multiset
    /// stays within its `frames + 127` bound at every step.
    #[inline]
    pub fn on_fill(&mut self, block: BlockAddr, victim: Option<BlockAddr>) {
        if let Some(victim) = victim {
            self.evicted
                .push([Self::hash1(victim) as u16, Self::hash2(victim) as u16]);
            if self.evicted.len() == REBUILD_THRESHOLD {
                // The rebuild point: the hardware's rebuilt bitmap forgets
                // every block evicted since the previous one.
                for [p1, p2] in self.evicted.drain(..) {
                    self.counts[p1 as usize] -= 1;
                    self.counts[p2 as usize] -= 1;
                }
            }
        }
        for p in [Self::hash1(block), Self::hash2(block)] {
            self.counts[p] += 1;
            debug_assert!(
                usize::from(self.counts[p]) <= self.max_count,
                "signature count {} exceeds 2 x (frames + 127) = {}",
                self.counts[p],
                self.max_count
            );
        }
    }

    /// Membership test. A resident block always tests positive; hash
    /// collisions and blocks evicted since the last rebuild point are
    /// false positives, as in the hardware filter.
    #[inline]
    pub fn may_contain(&self, block: BlockAddr) -> bool {
        self.counts[Self::hash1(block)] != 0 && self.counts[Self::hash2(block)] != 0
    }

    /// Fraction of filter bits set (diagnostic for false-positive pressure).
    pub fn fill_ratio(&self) -> f64 {
        let set = self.counts.iter().filter(|&&c| c != 0).count();
        set as f64 / SIGNATURE_BITS as f64
    }

    /// How many blocks of `blocks` the signature claims to hold.
    pub fn coverage<'a, I: IntoIterator<Item = &'a BlockAddr>>(&self, blocks: I) -> usize {
        blocks.into_iter().filter(|&&b| self.may_contain(b)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheGeometry, SetAssocCache};
    use crate::replacement::ReplacementKind;
    use proptest::prelude::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    /// The eager filter the counts replaced, kept verbatim (less its dead
    /// insertion counter) as the differential reference: a bitmap set on
    /// every fill and rebuilt from the resident set at every 128th
    /// eviction.
    struct Reference {
        bits: [u64; SIGNATURE_BITS / 64],
        evictions_since_rebuild: u32,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                bits: [0u64; SIGNATURE_BITS / 64],
                evictions_since_rebuild: 0,
            }
        }

        fn set(&mut self, bit: usize) {
            self.bits[bit / 64] |= 1 << (bit % 64);
        }

        fn get(&self, bit: usize) -> bool {
            self.bits[bit / 64] & (1 << (bit % 64)) != 0
        }

        fn insert(&mut self, block: BlockAddr) {
            self.set(CacheSignature::hash1(block));
            self.set(CacheSignature::hash2(block));
        }

        fn may_contain(&self, block: BlockAddr) -> bool {
            self.get(CacheSignature::hash1(block)) && self.get(CacheSignature::hash2(block))
        }

        fn note_eviction(&mut self) -> bool {
            self.evictions_since_rebuild += 1;
            self.evictions_since_rebuild >= REBUILD_THRESHOLD as u32
        }

        fn rebuild<I: IntoIterator<Item = BlockAddr>>(&mut self, resident: I) {
            self.bits = [0u64; SIGNATURE_BITS / 64];
            self.evictions_since_rebuild = 0;
            for b in resident {
                self.set(CacheSignature::hash1(b));
                self.set(CacheSignature::hash2(b));
            }
        }
    }

    /// A signature holding exactly `resident`, with an empty log.
    fn holding(frames: usize, resident: impl IntoIterator<Item = BlockAddr>) -> CacheSignature {
        let mut sig = CacheSignature::new(frames);
        for block in resident {
            sig.on_fill(block, None);
        }
        sig
    }

    /// Fills block `k` displacing block `k - 1` for `k` in `from..to`: a
    /// one-frame cache streaming through consecutive blocks.
    fn stream(sig: &mut CacheSignature, from: u64, to: u64) {
        for k in from..to {
            sig.on_fill(b(k), Some(b(k - 1)));
        }
    }

    #[test]
    fn no_false_negatives_without_eviction() {
        let blocks: Vec<_> = (0..512).map(BlockAddr::new).collect();
        let sig = holding(512, blocks.iter().copied());
        for &b in &blocks {
            assert!(sig.may_contain(b));
        }
    }

    #[test]
    fn empty_signature_contains_nothing() {
        let sig = CacheSignature::new(512);
        assert!(!sig.may_contain(BlockAddr::new(1)));
        assert_eq!(sig.fill_ratio(), 0.0);
    }

    #[test]
    fn false_positive_rate_reasonable_at_l1_occupancy() {
        // A 32 KB L1-I holds 512 blocks; 2048-bit filter with 2 hashes
        // should stay usefully selective.
        let sig = holding(512, (0..512u64).map(|i| BlockAddr::new(i * 7 + 3)));
        let fp = (10_000..20_000u64)
            .filter(|&i| sig.may_contain(BlockAddr::new(i)))
            .count();
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.65, "false positive rate {rate} too high");
    }

    #[test]
    fn rebuild_clears_stale_entries() {
        // A one-frame cache: block 1 is resident, then block 2 evicts it.
        let mut sig = holding(1, [b(1)]);
        sig.on_fill(b(2), Some(b(1)));
        assert!(sig.may_contain(b(1)), "stale until the rebuild point");
        // 127 more evictions reach the rebuild point, which leaves exactly
        // the resident block counted.
        stream(&mut sig, 3, 3 + REBUILD_THRESHOLD as u64 - 1);
        let resident = b(1 + REBUILD_THRESHOLD as u64);
        assert_eq!(sig.counts, holding(1, [resident]).counts);
        assert!(sig.may_contain(resident));
        // Both of block 1's bits matching block 129's is astronomically
        // unlikely for these constants.
        assert!(!sig.may_contain(b(1)), "stale entry survived rebuild");
    }

    #[test]
    fn eviction_counter_triggers_rebuild() {
        let mut sig = holding(1, [b(0)]);
        // 127 evictions are logged and every victim is still counted.
        stream(&mut sig, 1, REBUILD_THRESHOLD as u64);
        assert_eq!(sig.evicted.len(), REBUILD_THRESHOLD - 1);
        assert!((0..REBUILD_THRESHOLD as u64).all(|k| sig.may_contain(b(k))));
        // The 128th subtracts its victim and the log.
        let last = REBUILD_THRESHOLD as u64;
        sig.on_fill(b(last), Some(b(last - 1)));
        assert!(sig.evicted.is_empty());
        assert_eq!(sig.counts, holding(1, [b(last)]).counts);
        // The counter restarts: the next eviction is logged, not applied.
        sig.on_fill(b(last + 1), Some(b(last)));
        assert_eq!(sig.evicted.len(), 1);
        assert!(sig.may_contain(b(last)));
    }

    #[test]
    fn coverage_counts_members() {
        let sig = holding(512, [BlockAddr::new(10), BlockAddr::new(11)]);
        let probe = [BlockAddr::new(10), BlockAddr::new(11), BlockAddr::new(9999)];
        let cov = sig.coverage(probe.iter());
        assert!(cov >= 2);
    }

    /// Distinct blocks the differential draws from: 16 per set of the
    /// 64-set L1-I, twice its ways, so blocks keep leaving and coming back.
    const UNIVERSE: u64 = 1024;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The counts against the eager reference, fed by a Table 2 L1-I
        /// (64 sets x 8 ways, LRU) through both fill paths: demand
        /// `access` and NextLine-style `fill_if_absent`. Evicted blocks
        /// come back, and every stream crosses at least three rebuild
        /// points. After every fill, every block of the universe must
        /// test the same in both filters.
        #[test]
        fn counting_filter_matches_eager_reference(
            ops in prop::collection::vec((0..UNIVERSE, any::<bool>()), 2000..2400),
        ) {
            let mut cache =
                SetAssocCache::new(CacheGeometry::new(32 * 1024, 8), ReplacementKind::Lru);
            let mut counting = CacheSignature::new(cache.geometry().blocks());
            let mut eager = Reference::new();
            let mut evictions = 0;
            for (i, (blk, prefetch)) in ops.into_iter().enumerate() {
                let block = BlockAddr::new(blk);
                let probe = if prefetch {
                    cache.fill_if_absent(block, 0)
                } else {
                    cache.access(block, 0)
                };
                if probe.hit {
                    continue;
                }
                let victim = probe.evicted.map(|v| v.block);
                evictions += usize::from(victim.is_some());
                counting.on_fill(block, victim);
                eager.insert(block);
                if victim.is_some() && eager.note_eviction() {
                    eager.rebuild(cache.resident_blocks());
                }
                for u in (0..UNIVERSE).map(BlockAddr::new) {
                    prop_assert_eq!(
                        counting.may_contain(u),
                        eager.may_contain(u),
                        "op {} (eviction {}): block {}",
                        i,
                        evictions,
                        u.index()
                    );
                }
            }
            prop_assert!(
                evictions >= 3 * REBUILD_THRESHOLD,
                "only {} evictions",
                evictions
            );
        }
    }
}
