//! Cache replacement policies.
//!
//! Section 5.7 of the paper studies STREX against state-of-the-art
//! replacement policies. This module implements all five policies evaluated
//! there:
//!
//! * **LRU** — classic least-recently-used stack.
//! * **LIP** — LRU Insertion Policy (Qureshi et al., ISCA 2007): new blocks
//!   are inserted at the LRU position so a streaming footprint cannot evict
//!   the working set.
//! * **BIP** — Bimodal Insertion Policy (same paper): like LIP, but a small
//!   fraction of insertions (1/32) go to the MRU position so the cache can
//!   adapt to working-set changes.
//! * **SRRIP** — Static Re-Reference Interval Prediction (Jaleel et al.,
//!   ISCA 2010): 2-bit re-reference prediction values (RRPV), inserting at
//!   "long" (RRPV = 2) and promoting to "near-immediate" (RRPV = 0) on hits.
//! * **BRRIP** — Bimodal RRIP: inserts at "distant" (RRPV = 3) most of the
//!   time and at "long" 1/32 of the time, resisting thrashing/streaming.
//!
//! The implementation stores one metadata byte per way per set (LRU stack
//! position or RRPV), and a shared bimodal throttle counter for BIP/BRRIP.
//! All decision logic is deterministic so that a *peek* at the next victim
//! (needed by STREX's victim monitor) always agrees with the subsequent
//! eviction.
//!
//! # Branch-free set updates
//!
//! Every L1 and L2 probe updates one of these sets, so no per-way decision
//! is a branch (a data-dependent branch per way mispredicts on most
//! updates of a thrashing cache):
//!
//! * **Promote / demote** (LRU, LIP, BIP) is one unconditional
//!   compare-and-add over the set: `*m += (*m < old) as u8` moves every
//!   shallower way one level deeper (`*m -= (*m > old) as u8` the other
//!   way), then the touched way takes depth 0 (or `assoc - 1`). A way
//!   already at the target depth leaves the set unchanged.
//! * **Victim selection** (all five policies) is the set's maximum, one
//!   equality mask against it and `trailing_zeros`: the way with the
//!   largest value, and **the lowest index on ties**. RRIP's aging loop
//!   picks exactly that way (the first to reach `RRPV_MAX`), and the LRU
//!   stack is a permutation, so ties arise only under RRIP. Peek
//!   ([`Replacement::victim_way`]) and eviction ([`Replacement::evict`])
//!   share the one selection, which is what the victim monitor's
//!   peek-equals-evict contract rests on.
//!
//! The kernels are written once over a set slice and run with the length
//! a compile-time constant for the Table 2 associativities (8-way L1s,
//! 16-way L2): LLVM turns the compare-and-add and the maximum into a few
//! SSE2 instructions, and the equality mask is built eight ways to a
//! `u64` word. Every other associativity up to [`MAX_ASSOC`] runs the same
//! updates over a runtime-length slice and finds the victim by a linear
//! search for the first maximal way.

use std::fmt;

/// RRPV width used by SRRIP/BRRIP (2 bits, values 0..=3).
const RRPV_MAX: u8 = 3;
/// "Long re-reference" insertion value for SRRIP.
const RRPV_LONG: u8 = RRPV_MAX - 1;
/// Bimodal throttle period for BIP/BRRIP (1-in-32 insertions are favored).
const BIMODAL_PERIOD: u32 = 32;

/// Largest associativity the one-byte-per-way state can represent: an LRU
/// stack depth must fit a `u8`.
pub const MAX_ASSOC: usize = u8::MAX as usize;

/// The replacement policy family to use for a cache.
///
/// # Examples
///
/// ```
/// use strex_sim::replacement::ReplacementKind;
/// assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
/// assert_eq!(ReplacementKind::Brrip.to_string(), "BRRIP");
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum ReplacementKind {
    /// Least recently used.
    #[default]
    Lru,
    /// LRU Insertion Policy.
    Lip,
    /// Bimodal Insertion Policy.
    Bip,
    /// Static Re-Reference Interval Prediction.
    Srrip,
    /// Bimodal Re-Reference Interval Prediction.
    Brrip,
}

impl ReplacementKind {
    /// All policy kinds, in the order Figure 9 reports them.
    pub const ALL: [ReplacementKind; 5] = [
        ReplacementKind::Lru,
        ReplacementKind::Lip,
        ReplacementKind::Bip,
        ReplacementKind::Srrip,
        ReplacementKind::Brrip,
    ];
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::Lip => "LIP",
            ReplacementKind::Bip => "BIP",
            ReplacementKind::Srrip => "SRRIP",
            ReplacementKind::Brrip => "BRRIP",
        };
        f.write_str(s)
    }
}

/// Replacement state for every set of one cache.
///
/// The cache calls [`on_hit`](Replacement::on_hit) when an access hits,
/// [`on_fill`](Replacement::on_fill) when a block is installed, and
/// [`victim_way`](Replacement::victim_way) /
/// [`evict`](Replacement::evict) when it must choose a victim.
#[derive(Clone, Debug)]
pub struct Replacement {
    kind: ReplacementKind,
    assoc: usize,
    /// One metadata byte per way per set: LRU stack depth, or RRPV.
    meta: Vec<u8>,
    /// Bimodal throttle counter shared by all sets (BIP/BRRIP only).
    bimodal_ctr: u32,
}

impl Replacement {
    /// Creates replacement state for `sets` sets of `assoc` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or greater than [`MAX_ASSOC`].
    pub fn new(kind: ReplacementKind, sets: usize, assoc: usize) -> Self {
        assert!(
            assoc > 0 && assoc <= MAX_ASSOC,
            "associativity out of range"
        );
        let meta = match kind {
            // The LRU stack must be a permutation of 0..assoc per set even
            // before any access, so initialize each set as the identity
            // (the cache prefers invalid ways regardless).
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                (0..sets * assoc).map(|i| (i % assoc) as u8).collect()
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => vec![RRPV_MAX; sets * assoc],
        };
        Replacement {
            kind,
            assoc,
            meta,
            bimodal_ctr: 0,
        }
    }

    /// Returns the policy family.
    pub fn kind(&self) -> ReplacementKind {
        self.kind
    }

    /// Returns the associativity this state was built for.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    #[inline]
    fn set_meta(&mut self, set: usize) -> &mut [u8] {
        let base = set * self.assoc;
        &mut self.meta[base..base + self.assoc]
    }

    #[inline]
    fn set_meta_ref(&self, set: usize) -> &[u8] {
        let base = set * self.assoc;
        &self.meta[base..base + self.assoc]
    }

    /// Records a hit on `way` of `set`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                self.promote_to_mru(set, way);
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => {
                self.set_meta(set)[way] = 0;
            }
        }
    }

    /// Records that a new block was installed in `way` of `set`.
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.kind {
            ReplacementKind::Lru => self.promote_to_mru(set, way),
            ReplacementKind::Lip => self.demote_to_lru(set, way),
            ReplacementKind::Bip => {
                self.bimodal_ctr = (self.bimodal_ctr + 1) % BIMODAL_PERIOD;
                if self.bimodal_ctr == 0 {
                    self.promote_to_mru(set, way);
                } else {
                    self.demote_to_lru(set, way);
                }
            }
            ReplacementKind::Srrip => self.set_meta(set)[way] = RRPV_LONG,
            ReplacementKind::Brrip => {
                self.bimodal_ctr = (self.bimodal_ctr + 1) % BIMODAL_PERIOD;
                let rrpv = if self.bimodal_ctr == 0 {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                };
                self.set_meta(set)[way] = rrpv;
            }
        }
    }

    /// Returns the way that would be evicted from `set`, without mutating any
    /// policy state.
    ///
    /// This is the *peek* operation STREX's victim monitor relies on: the way
    /// returned here is exactly the way [`evict`](Replacement::evict) will
    /// select next (assuming no intervening hits or fills in the set). Under
    /// every policy it is the way holding the set's largest value — the
    /// deepest LRU stack position, or the largest RRPV (the first way RRIP
    /// aging would bring to `RRPV_MAX`) — with ties going to the lowest
    /// index.
    #[inline]
    pub fn victim_way(&self, set: usize) -> usize {
        fixed(self.set_meta_ref(set), victim)
    }

    /// Chooses and returns the victim way of `set`, applying any policy
    /// mutation that eviction implies (RRIP aging).
    #[inline]
    pub fn evict(&mut self, set: usize) -> usize {
        let way = self.victim_way(set);
        if matches!(self.kind, ReplacementKind::Srrip | ReplacementKind::Brrip) {
            // Age every way by the amount needed for `way` to reach
            // RRPV_MAX, mirroring the iterative increment loop in hardware
            // (a zero delta leaves the set unchanged).
            let meta = self.set_meta(set);
            let delta = RRPV_MAX - meta[way];
            fixed_mut(meta, |meta| age(meta, delta));
        }
        way
    }

    /// Clears the metadata of `way` in `set` after an invalidation so the
    /// way is preferred for the next fill.
    pub fn on_invalidate(&mut self, set: usize, way: usize) {
        match self.kind {
            // A demotion to LRU keeps the stack a permutation.
            ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip => {
                self.demote_to_lru(set, way);
            }
            ReplacementKind::Srrip | ReplacementKind::Brrip => self.set_meta(set)[way] = RRPV_MAX,
        }
    }

    /// Moves `way` to stack depth 0 and pushes shallower entries down.
    #[inline]
    fn promote_to_mru(&mut self, set: usize, way: usize) {
        fixed_mut(self.set_meta(set), |meta| promote(meta, way));
    }

    /// Moves `way` to the deepest stack position, pulling deeper entries up.
    #[inline]
    fn demote_to_lru(&mut self, set: usize, way: usize) {
        fixed_mut(self.set_meta(set), |meta| demote(meta, way));
    }
}

/// Runs `kernel` over one set, with the set length a compile-time constant
/// for the Table 2 associativities (8-way L1s, 16-way L2) — the same
/// dispatch as the cache's way scan — and a runtime length otherwise.
#[inline(always)]
fn fixed<R>(meta: &[u8], kernel: impl FnOnce(&[u8]) -> R) -> R {
    match meta.len() {
        8 => kernel(<&[u8; 8]>::try_from(meta).expect("length checked")),
        16 => kernel(<&[u8; 16]>::try_from(meta).expect("length checked")),
        _ => kernel(meta),
    }
}

/// [`fixed`] for kernels that update the set.
#[inline(always)]
fn fixed_mut(meta: &mut [u8], kernel: impl FnOnce(&mut [u8])) {
    match meta.len() {
        8 => kernel(<&mut [u8; 8]>::try_from(meta).expect("length checked")),
        16 => kernel(<&mut [u8; 16]>::try_from(meta).expect("length checked")),
        _ => kernel(meta),
    }
}

/// Moves `way` to stack depth 0: every way shallower than it sinks one
/// level. One compare-and-add per way, no branch; a way already at depth
/// 0 leaves the set unchanged.
#[inline(always)]
fn promote(meta: &mut [u8], way: usize) {
    let old = meta[way];
    for m in meta.iter_mut() {
        *m += (*m < old) as u8;
    }
    meta[way] = 0;
}

/// Moves `way` to the deepest stack position: every way deeper than it
/// rises one level. The mirror image of [`promote`].
#[inline(always)]
fn demote(meta: &mut [u8], way: usize) {
    let old = meta[way];
    for m in meta.iter_mut() {
        *m -= (*m > old) as u8;
    }
    meta[way] = (meta.len() - 1) as u8;
}

/// The way holding the set's largest value, lowest index on ties: the
/// maximum, an equality mask against it and `trailing_zeros`.
#[inline(always)]
fn victim(meta: &[u8]) -> usize {
    let max = meta.iter().fold(0, |acc, &m| acc.max(m));
    if !matches!(meta.len(), 8 | 16) {
        // Not a Table 2 shape: the first equal way, by a linear search.
        return meta
            .iter()
            .position(|&m| m == max)
            .expect("the maximum is in the set");
    }
    // Eight ways to a `u64` word: bit 7 of byte `w` of the mask is set iff
    // way `w` holds the maximum.
    let mut mask = 0u128;
    for (i, word) in meta.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        mask |= u128::from(zero_bytes(word ^ (BYTE_ONES * u64::from(max)))) << (64 * i);
    }
    (mask.trailing_zeros() / 8) as usize
}

/// `0x01` in every byte of a `u64`.
const BYTE_ONES: u64 = u64::from_le_bytes([0x01; 8]);

/// Bit 7 of every byte of `word` that is zero, and no other bit. The
/// per-byte sum `(b & 0x7f) + 0x7f` cannot carry into the next byte, so
/// the mask is exact.
#[inline(always)]
fn zero_bytes(word: u64) -> u64 {
    let low7 = BYTE_ONES * 0x7f;
    !(((word & low7) + low7) | word | low7)
}

/// RRIP aging: adds `delta` to every RRPV. The caller's `delta` brings the
/// set's largest RRPV to `RRPV_MAX`, so no RRPV passes it.
#[inline(always)]
fn age(meta: &mut [u8], delta: u8) {
    for m in meta.iter_mut() {
        *m += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stack_positions(r: &Replacement, set: usize) -> Vec<u8> {
        r.set_meta_ref(set).to_vec()
    }

    /// The replacement state as the branchy per-way loops kept it before
    /// the kernels became branch-free: the differential reference. The
    /// three loops are kept verbatim.
    struct Reference {
        kind: ReplacementKind,
        assoc: usize,
        meta: Vec<u8>,
        bimodal_ctr: u32,
    }

    impl Reference {
        fn new(kind: ReplacementKind, sets: usize, assoc: usize) -> Self {
            Reference {
                kind,
                assoc,
                meta: Replacement::new(kind, sets, assoc).meta,
                bimodal_ctr: 0,
            }
        }

        fn set_meta(&mut self, set: usize) -> &mut [u8] {
            let base = set * self.assoc;
            &mut self.meta[base..base + self.assoc]
        }

        fn lru_family(&self) -> bool {
            matches!(
                self.kind,
                ReplacementKind::Lru | ReplacementKind::Lip | ReplacementKind::Bip
            )
        }

        fn on_hit(&mut self, set: usize, way: usize) {
            if self.lru_family() {
                self.promote_to_mru(set, way);
            } else {
                self.set_meta(set)[way] = 0;
            }
        }

        fn on_fill(&mut self, set: usize, way: usize) {
            if matches!(self.kind, ReplacementKind::Bip | ReplacementKind::Brrip) {
                self.bimodal_ctr = (self.bimodal_ctr + 1) % BIMODAL_PERIOD;
            }
            let favored = self.bimodal_ctr == 0;
            match self.kind {
                ReplacementKind::Lru => self.promote_to_mru(set, way),
                ReplacementKind::Lip => self.demote_to_lru(set, way),
                ReplacementKind::Bip if favored => self.promote_to_mru(set, way),
                ReplacementKind::Bip => self.demote_to_lru(set, way),
                ReplacementKind::Srrip => self.set_meta(set)[way] = RRPV_LONG,
                ReplacementKind::Brrip if favored => self.set_meta(set)[way] = RRPV_LONG,
                ReplacementKind::Brrip => self.set_meta(set)[way] = RRPV_MAX,
            }
        }

        fn victim_way(&self, set: usize) -> usize {
            let base = set * self.assoc;
            Self::argmax(&self.meta[base..base + self.assoc])
        }

        fn evict(&mut self, set: usize) -> usize {
            let way = self.victim_way(set);
            if !self.lru_family() {
                let meta = self.set_meta(set);
                let delta = RRPV_MAX - meta[way];
                if delta > 0 {
                    for m in meta.iter_mut() {
                        *m = (*m + delta).min(RRPV_MAX);
                    }
                }
            }
            way
        }

        fn on_invalidate(&mut self, set: usize, way: usize) {
            let init = if self.lru_family() {
                self.demote_to_lru(set, way);
                (self.assoc - 1) as u8
            } else {
                RRPV_MAX
            };
            self.set_meta(set)[way] = init;
        }

        #[inline]
        fn argmax(meta: &[u8]) -> usize {
            let mut best = 0;
            for (i, &m) in meta.iter().enumerate() {
                if m > meta[best] {
                    best = i;
                }
            }
            best
        }

        /// Moves `way` to stack depth 0 and pushes shallower entries down.
        #[inline]
        fn promote_to_mru(&mut self, set: usize, way: usize) {
            let meta = self.set_meta(set);
            let old = meta[way];
            if old == 0 {
                return; // already MRU: the pass below would change nothing
            }
            for m in meta.iter_mut() {
                if *m < old {
                    *m += 1;
                }
            }
            meta[way] = 0;
        }

        /// Moves `way` to the deepest stack position, pulling deeper entries up.
        #[inline]
        fn demote_to_lru(&mut self, set: usize, way: usize) {
            let assoc = self.assoc as u8;
            let meta = self.set_meta(set);
            let old = meta[way];
            if old == assoc - 1 {
                return; // already LRU: the pass below would change nothing
            }
            for m in meta.iter_mut() {
                if *m > old {
                    *m -= 1;
                }
            }
            meta[way] = assoc - 1;
        }
    }

    const DIFF_SETS: usize = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The branch-free kernels against the branchy reference loops,
        /// for every policy and the Table 2 associativities, the odd ones
        /// the generic path serves, and the widest one allowed. After every
        /// operation the full metadata, the bimodal counter and the touched
        /// set's victim must agree.
        #[test]
        fn kernels_match_reference_loops(
            ops in prop::collection::vec((0u8..4, 0..DIFF_SETS, 0..MAX_ASSOC), 1..200),
        ) {
            for kind in ReplacementKind::ALL {
                for assoc in [1, 2, 3, 4, 8, 12, 16, 64, MAX_ASSOC] {
                    let mut fast = Replacement::new(kind, DIFF_SETS, assoc);
                    let mut slow = Reference::new(kind, DIFF_SETS, assoc);
                    for &(op, set, way) in &ops {
                        let way = way % assoc;
                        match op {
                            0 => {
                                fast.on_hit(set, way);
                                slow.on_hit(set, way);
                            }
                            1 => {
                                fast.on_fill(set, way);
                                slow.on_fill(set, way);
                            }
                            2 => prop_assert_eq!(
                                fast.evict(set),
                                slow.evict(set),
                                "{} {}-way evict",
                                kind,
                                assoc
                            ),
                            _ => {
                                fast.on_invalidate(set, way);
                                slow.on_invalidate(set, way);
                            }
                        }
                        prop_assert_eq!(&fast.meta, &slow.meta, "{} {}-way op {}", kind, assoc, op);
                        prop_assert_eq!(fast.bimodal_ctr, slow.bimodal_ctr);
                        prop_assert_eq!(
                            fast.victim_way(set),
                            slow.victim_way(set),
                            "{} {}-way victim",
                            kind,
                            assoc
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_bytes_marks_exactly_the_zero_bytes() {
        for word in [0u64, u64::MAX, 0x0100_ff00_0080_7f00, 0x8000_0000_0000_0001] {
            let expect = word
                .to_le_bytes()
                .iter()
                .enumerate()
                .fold(0u64, |mask, (i, &b)| {
                    mask | u64::from(b == 0) << (8 * i + 7)
                });
            assert_eq!(zero_bytes(word), expect, "{word:#x}");
        }
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        // Fill order 0,1,2,3 -> way 0 is LRU.
        assert_eq!(r.victim_way(0), 0);
        r.on_hit(0, 0); // way 0 becomes MRU
        assert_eq!(r.victim_way(0), 1);
    }

    #[test]
    fn lru_stack_is_a_permutation() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 8);
        for way in 0..8 {
            r.on_fill(0, way);
        }
        for &w in &[3usize, 1, 7, 3, 0] {
            r.on_hit(0, w);
            let mut pos = stack_positions(&r, 0);
            pos.sort_unstable();
            assert_eq!(pos, (0..8u8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lip_inserts_at_lru() {
        let mut r = Replacement::new(ReplacementKind::Lip, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        // The most recent fill sits at the LRU position under LIP.
        assert_eq!(r.victim_way(0), 3);
        // A hit rescues it.
        r.on_hit(0, 3);
        assert_ne!(r.victim_way(0), 3);
    }

    #[test]
    fn bip_occasionally_inserts_at_mru() {
        let mut r = Replacement::new(ReplacementKind::Bip, 1, 2);
        let mut mru_inserts = 0;
        for i in 0..(2 * BIMODAL_PERIOD as usize) {
            let way = i % 2;
            r.on_fill(0, way);
            if r.set_meta_ref(0)[way] == 0 {
                mru_inserts += 1;
            }
        }
        assert_eq!(mru_inserts, 2, "exactly 1-in-32 fills go to MRU");
    }

    #[test]
    fn srrip_promotes_on_hit_and_ages_on_evict() {
        let mut r = Replacement::new(ReplacementKind::Srrip, 1, 2);
        r.on_fill(0, 0);
        r.on_fill(0, 1);
        assert_eq!(r.set_meta_ref(0), &[RRPV_LONG, RRPV_LONG]);
        r.on_hit(0, 0);
        assert_eq!(r.set_meta_ref(0)[0], 0);
        // Way 1 has the larger RRPV, so it is the victim; eviction ages way 0.
        assert_eq!(r.victim_way(0), 1);
        let v = r.evict(0);
        assert_eq!(v, 1);
        assert_eq!(r.set_meta_ref(0)[0], 1, "other ways aged by the same delta");
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut r = Replacement::new(ReplacementKind::Brrip, 1, 1);
        let mut long_inserts = 0;
        for _ in 0..BIMODAL_PERIOD as usize {
            r.on_fill(0, 0);
            if r.set_meta_ref(0)[0] == RRPV_LONG {
                long_inserts += 1;
            }
        }
        assert_eq!(long_inserts, 1);
    }

    #[test]
    fn peek_matches_evict_for_all_kinds() {
        for kind in ReplacementKind::ALL {
            let mut r = Replacement::new(kind, 4, 8);
            // Mixed traffic over a few sets.
            for i in 0..200usize {
                let set = i % 4;
                let way = (i * 7) % 8;
                if i % 3 == 0 {
                    r.on_hit(set, way);
                } else {
                    r.on_fill(set, way);
                }
                let peek = r.victim_way(set);
                let got = r.evict(set);
                assert_eq!(peek, got, "peek/evict divergence for {kind}");
            }
        }
    }

    #[test]
    fn invalidate_prefers_way_for_next_victim() {
        let mut r = Replacement::new(ReplacementKind::Lru, 1, 4);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        r.on_invalidate(0, 2);
        assert_eq!(r.victim_way(0), 2);
    }

    #[test]
    #[should_panic(expected = "associativity out of range")]
    fn zero_assoc_panics() {
        let _ = Replacement::new(ReplacementKind::Lru, 1, 0);
    }

    #[test]
    #[should_panic(expected = "associativity out of range")]
    fn assoc_beyond_a_byte_panics() {
        let _ = Replacement::new(ReplacementKind::Lru, 1, MAX_ASSOC + 1);
    }
}
