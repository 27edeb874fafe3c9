//! Generic set-associative cache with per-frame auxiliary tags.
//!
//! Two features distinguish this cache from a textbook model, both required
//! by STREX (Section 4.3 of the paper):
//!
//! 1. **Auxiliary 8-bit tag per frame.** STREX maintains a phase-ID table
//!    (PIDT) parallel to the L1-I tag array; here the PIDT is an `aux` byte
//!    stored alongside each frame. The cache itself attaches no meaning to
//!    the byte.
//! 2. **Victim monitoring.** STREX must observe which block a fill is about
//!    to evict *and its phase tag*. [`SetAssocCache::peek_victim`] answers
//!    that question without side effects, and is guaranteed to agree with
//!    the victim the next [`SetAssocCache::access`] of that block evicts.
//!
//! # Layout: one tag array, one scan
//!
//! This cache sits on the simulator's hottest path (every instruction fetch
//! and data access probes it), so its storage is a structure of arrays
//! rather than an array of frame structs. Every cache — the private L1s
//! and each NUCA L2 slice — has the same two arrays:
//!
//! * `tags` — one packed `u64` per frame: the block index with the valid
//!   flag folded into bit 63 (`TAG_VALID`), 64-byte aligned so an 8-way
//!   set is one host cache line. The way search compares the needle with
//!   `assoc` consecutive `u64`s, with **no** separate valid-bit load or
//!   branch: the [`crate::wayscan`] mask kernels at 4, 8 and 16 ways (the
//!   paper's geometries, Table 2), a plain loop at any other width.
//! * `meta` — one `u16` per frame packing the aux tag and the dirty flag,
//!   touched only after the tag scan has named a way.
//!
//! **Packing invariant:** a resident frame stores `block.index() |
//! TAG_VALID`; an empty frame stores `TAG_INVALID` (zero, i.e. bit 63
//! clear). Block indices are byte addresses shifted right by
//! [`BLOCK_SHIFT`](crate::addr::BLOCK_SHIFT), so bit 63 of a real index is
//! always clear and the packed forms can never collide: one `u64` compare
//! per way decides both validity and tag match.
//!
//! Every logical operation probes the tag array **exactly once**.
//! [`SetAssocCache::access`]/[`access_write`](SetAssocCache::access_write)
//! return a [`Probe`] naming the set, way and any victim, so callers never
//! re-scan to learn what just happened; the single scan also records the
//! first invalid way, so a miss installs without a second pass. Set
//! selection is a mask (`index & (sets - 1)`), which is why set counts
//! must be powers of two — all of the paper's geometries (Table 2)
//! qualify, and [`CacheGeometry::try_new`] rejects the rest.
//!
//! # Hot path
//!
//! Every per-access operation — the scan, `install`, [`access`],
//! [`access_write`], [`access_untagged`], [`fill_if_absent`],
//! [`peek_victim`], [`snoop`] (a data access that needs MESI runs it once
//! per other L1-D) and the [`Replacement`] updates they call — is
//! `#[inline(always)]`, so the way scan, the victim choice,
//! the install and the replacement update stay in the caller's registers.
//! `#[inline]` is only a hint across the crate boundary: out of line,
//! `install` stored its `(way, Option<Victim>)` result field by field and
//! `access` reloaded it as one 16-byte word, a failed store-to-load
//! forward on every miss fill and the hottest instruction in a sampling
//! profile of the quick matrix. README's Performance section has the A/B.
//! CI's "Per-access cache path stays inlined" step fails if `nm` finds
//! any of these compiled as a function of its own in `repro`.
//!
//! [`access`]: SetAssocCache::access
//! [`access_write`]: SetAssocCache::access_write
//! [`access_untagged`]: SetAssocCache::access_untagged
//! [`fill_if_absent`]: SetAssocCache::fill_if_absent
//! [`peek_victim`]: SetAssocCache::peek_victim
//! [`snoop`]: SetAssocCache::snoop

use std::fmt;

use crate::addr::{BlockAddr, BLOCK_SIZE};
use crate::replacement::{Replacement, ReplacementKind};

/// Valid flag folded into bit 63 of a packed tag word.
const TAG_VALID: u64 = 1 << 63;

/// Packed-tag sentinel for an empty way. Zero has bit 63 clear, so it can
/// never equal a packed (valid) tag.
const TAG_INVALID: u64 = 0;

#[inline]
fn pack(block: BlockAddr) -> u64 {
    debug_assert!(
        block.index() & TAG_VALID == 0,
        "block index {:#x} overflows the packed tag",
        block.index()
    );
    block.index() | TAG_VALID
}

#[inline]
fn unpack(tag: u64) -> BlockAddr {
    BlockAddr::new(tag & !TAG_VALID)
}

/// Why a cache shape is unusable.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum GeometryError {
    /// Zero capacity or zero associativity.
    Degenerate,
    /// The capacity does not divide evenly into `assoc`-way sets of
    /// [`BLOCK_SIZE`] blocks.
    UnevenSets {
        /// The rejected capacity.
        size_bytes: u64,
        /// The rejected associativity.
        assoc: usize,
    },
    /// The set count is not a power of two, so the single-probe set mask
    /// cannot address it.
    NonPowerOfTwoSets {
        /// The rejected set count.
        sets: usize,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Degenerate => {
                write!(f, "cache capacity and associativity must be nonzero")
            }
            GeometryError::UnevenSets { size_bytes, assoc } => write!(
                f,
                "capacity {size_bytes} B does not divide evenly into {assoc}-way sets"
            ),
            GeometryError::NonPowerOfTwoSets { sets } => {
                write!(f, "set count {sets} is not a power of two")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Shape of one cache: capacity, associativity and block size.
///
/// # Examples
///
/// ```
/// use strex_sim::cache::CacheGeometry;
///
/// let l1 = CacheGeometry::new(32 * 1024, 8); // Table 2: 32 KB, 8-way
/// assert_eq!(l1.sets(), 64);
/// assert_eq!(l1.blocks(), 512);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CacheGeometry {
    size_bytes: u64,
    assoc: usize,
}

impl CacheGeometry {
    /// Creates a geometry of `size_bytes` capacity and `assoc` ways with the
    /// global 64 B block size.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of
    /// `assoc * BLOCK_SIZE` or if either argument is zero. The set count is
    /// *not* checked here (so configuration validation can reject it with
    /// an error instead of a panic); [`SetAssocCache::new`] is where a
    /// non-power-of-two set count becomes fatal.
    pub fn new(size_bytes: u64, assoc: usize) -> Self {
        assert!(size_bytes > 0 && assoc > 0, "degenerate cache geometry");
        assert_eq!(
            size_bytes % (assoc as u64 * BLOCK_SIZE),
            0,
            "capacity must divide evenly into sets"
        );
        CacheGeometry { size_bytes, assoc }
    }

    /// Fallible constructor: every [`CacheGeometry::new`] panic condition
    /// plus the power-of-two set-count requirement of the single-probe
    /// lookup, reported as a [`GeometryError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use strex_sim::cache::{CacheGeometry, GeometryError};
    ///
    /// assert!(CacheGeometry::try_new(32 * 1024, 8).is_ok());
    /// assert_eq!(
    ///     CacheGeometry::try_new(3 * 128, 2), // 3 sets
    ///     Err(GeometryError::NonPowerOfTwoSets { sets: 3 }),
    /// );
    /// ```
    pub fn try_new(size_bytes: u64, assoc: usize) -> Result<Self, GeometryError> {
        if size_bytes == 0 || assoc == 0 {
            return Err(GeometryError::Degenerate);
        }
        if !size_bytes.is_multiple_of(assoc as u64 * BLOCK_SIZE) {
            return Err(GeometryError::UnevenSets { size_bytes, assoc });
        }
        let geom = CacheGeometry { size_bytes, assoc };
        if !geom.sets().is_power_of_two() {
            return Err(GeometryError::NonPowerOfTwoSets { sets: geom.sets() });
        }
        Ok(geom)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Number of ways per set.
    pub fn assoc(self) -> usize {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(self) -> usize {
        (self.size_bytes / (self.assoc as u64 * BLOCK_SIZE)) as usize
    }

    /// Total number of block frames.
    pub fn blocks(self) -> usize {
        (self.size_bytes / BLOCK_SIZE) as usize
    }

    /// `true` if the set count is a power of two (required by
    /// [`SetAssocCache`]'s mask-based set selection).
    pub fn has_pow2_sets(self) -> bool {
        self.sets().is_power_of_two()
    }

    /// Maps a block address to its set index.
    ///
    /// General (modulo) form; the cache's hot path uses the precomputed
    /// mask instead, which is identical for power-of-two set counts.
    pub fn set_of(self, block: BlockAddr) -> usize {
        (block.index() % self.sets() as u64) as usize
    }
}

/// A block about to be (or just) evicted, with its auxiliary tag.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct Victim {
    /// The evicted block's address.
    pub block: BlockAddr,
    /// The auxiliary tag (STREX phase ID) the block carried.
    pub aux: u8,
    /// Whether the block was dirty (data caches only).
    pub dirty: bool,
}

/// Outcome of one cache probe: [`SetAssocCache::access`],
/// [`access_write`](SetAssocCache::access_write) and
/// [`fill_if_absent`](SetAssocCache::fill_if_absent) return it.
///
/// The probe names the frame the single tag scan landed on, so callers
/// (the memory hierarchy, coherence, statistics) never re-scan the set to
/// learn what happened.
#[derive(Copy, Clone, Debug)]
pub struct Probe {
    /// Whether the block was already resident.
    pub hit: bool,
    /// The set that was probed.
    pub set: usize,
    /// The way the block now occupies (the resident way on a hit, the
    /// filled way on a miss).
    pub way: usize,
    /// The block displaced by a miss fill, `None` on a hit or when an
    /// invalid way absorbed the fill.
    pub evicted: Option<Victim>,
    /// Whether the frame was dirty before this probe: the resident frame's
    /// dirty bit on a hit, `false` on a miss. A data write that hits a
    /// dirty frame needs no coherence action; one that hits a clean frame
    /// must snoop the other L1-Ds.
    pub dirty: bool,
}

impl Probe {
    /// Returns `true` if the block was already resident.
    pub fn is_hit(self) -> bool {
        self.hit
    }

    /// Returns the evicted victim of a miss, if any.
    pub fn evicted(self) -> Option<Victim> {
        self.evicted
    }
}

/// Dirty flag folded into bit 8 of a frame's packed sidecar word
/// (bits 0..8 hold the aux tag).
const META_DIRTY: u16 = 1 << 8;

/// A 64-byte-aligned buffer of `T` so that an aligned group of elements
/// spanning one cache line is loaded with a single line fill (an 8-way set
/// of `u64` tags). Dereferences to the logical `[T]`.
#[derive(Debug)]
struct Aligned64<T> {
    /// Backing storage, over-allocated by up to one line for alignment.
    buf: Vec<T>,
    /// First logical element within `buf`.
    off: usize,
    /// Logical length (total frame count).
    len: usize,
}

impl<T: Copy> Aligned64<T> {
    fn new(len: usize, fill: T) -> Self {
        let pad = (64 / std::mem::size_of::<T>()).max(1) - 1;
        let buf = vec![fill; len + pad];
        // `align_offset` is permitted to return usize::MAX (no usable
        // offset); degrade to an unaligned buffer rather than indexing
        // out of bounds — alignment is an optimization, not a soundness
        // requirement.
        let off = match buf.as_ptr().align_offset(64) {
            off if off <= pad => off,
            _ => 0,
        };
        Aligned64 { buf, off, len }
    }

    fn fill_with(&mut self, value: T) {
        let (off, len) = (self.off, self.len);
        self.buf[off..off + len].fill(value);
    }
}

impl<T: Copy + Default> Clone for Aligned64<T> {
    fn clone(&self) -> Self {
        // The clone's allocation has its own alignment; re-derive the
        // offset rather than copying the raw buffer.
        let mut t = Aligned64::new(self.len, T::default());
        t.copy_from_slice(self);
        t
    }
}

impl<T> std::ops::Deref for Aligned64<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl<T> std::ops::DerefMut for Aligned64<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

/// A set-associative cache with pluggable replacement and per-frame aux tags.
///
/// # Examples
///
/// ```
/// use strex_sim::addr::BlockAddr;
/// use strex_sim::cache::{CacheGeometry, SetAssocCache};
/// use strex_sim::replacement::ReplacementKind;
///
/// let mut c = SetAssocCache::new(CacheGeometry::new(4096, 4), ReplacementKind::Lru);
/// let b = BlockAddr::new(10);
/// assert!(!c.access(b, 0).is_hit());
/// assert!(c.access(b, 0).is_hit());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    assoc: usize,
    /// `sets - 1`; set selection is `(block.index() >> set_shift) & set_mask`.
    set_mask: u64,
    /// Low index bits dropped before set selection (zero for private
    /// caches; the log2 slice count for NUCA slice caches, whose low bits
    /// are constant within a slice — see [`SetAssocCache::new_sliced`]).
    set_shift: u32,
    /// Packed tag words (see the module doc's packing invariant).
    tags: Aligned64<u64>,
    /// Sidecar: one word per frame packing the aux tag (low byte) and the
    /// dirty flag ([`META_DIRTY`]), so victim reads and fills touch one
    /// cache line instead of two.
    meta: Vec<u16>,
    repl: Replacement,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two — the mask-based set
    /// selection requires it. Configurations built through
    /// `SimConfig::builder` reject such geometries with a `ConfigError`
    /// before reaching this point.
    pub fn new(geom: CacheGeometry, repl: ReplacementKind) -> Self {
        Self::new_sliced(geom, repl, 0)
    }

    /// Creates a cache whose block stream has `slice_bits` constant low
    /// index bits (an address-interleaved NUCA slice: every block routed
    /// here satisfies `index % n_slices == slice_id`).
    ///
    /// The constant bits carry no set-selection information, so they are
    /// shifted out and the cache is built with `sets / 2^slice_bits`
    /// physical sets. The mapping `set -> set >> slice_bits` is a
    /// bijection on the sets a slice's stream can reach, so hits, misses,
    /// evictions and replacement state are **bit-identical** to a
    /// full-size cache fed the same stream — only the metadata footprint
    /// shrinks (by the slice count), which is what keeps the slice probe
    /// in cache on the simulation hot path. This mirrors NUCA hardware,
    /// which excludes the slice-select bits from the set index.
    ///
    /// # Panics
    ///
    /// Panics if the set count (after the shift) is not a power of two or
    /// `slice_bits` is not less than the set-index width.
    pub fn new_sliced(geom: CacheGeometry, repl: ReplacementKind, slice_bits: u32) -> Self {
        let sets = geom.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two for single-probe lookup (got {sets})"
        );
        assert!(
            slice_bits < sets.trailing_zeros() || (slice_bits == 0 && sets == 1),
            "slice bits {slice_bits} must leave at least one set (of {sets})"
        );
        let phys_sets = sets >> slice_bits;
        let frames = phys_sets * geom.assoc();
        SetAssocCache {
            geom,
            assoc: geom.assoc(),
            set_mask: phys_sets as u64 - 1,
            set_shift: slice_bits,
            tags: Aligned64::new(frames, TAG_INVALID),
            meta: vec![0; frames],
            repl: Replacement::new(repl, phys_sets, geom.assoc()),
        }
    }

    /// Returns the cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline(always)]
    fn set_of(&self, block: BlockAddr) -> usize {
        ((block.index() >> self.set_shift) & self.set_mask) as usize
    }

    #[inline(always)]
    fn set_base(&self, set: usize) -> usize {
        set * self.assoc
    }

    /// Compare-mask pass over `N` packed tags: bit `w` of the first mask
    /// is set iff way `w` holds `needle`, bit `w` of the second iff way
    /// `w` is invalid ([`TAG_INVALID`] is all-zero, the sentinel the
    /// [`crate::wayscan`] kernels test against).
    #[inline(always)]
    fn scan_masks<const N: usize>(tags: &[u64], needle: u64) -> (u32, u32) {
        let tags: &[u64; N] = tags
            .try_into()
            .expect("set slice length is the associativity");
        crate::wayscan::scan_masks_u64(tags, needle)
    }

    /// One pass over the set's tags: the way holding `needle` (if
    /// resident) and the first invalid way (if any). This is the only tag
    /// scan in the cache; every public operation runs it exactly once.
    /// Dispatches to a mask kernel for the associativities the paper's
    /// geometries use (Table 2: 8-way L1s, 16-way L2).
    #[inline(always)]
    fn scan(&self, set: usize, needle: u64) -> (Option<usize>, Option<usize>) {
        let base = self.set_base(set);
        let tags = &self.tags[base..base + self.assoc];
        let (hit, invalid) = match self.assoc {
            4 => Self::scan_masks::<4>(tags, needle),
            8 => Self::scan_masks::<8>(tags, needle),
            16 => Self::scan_masks::<16>(tags, needle),
            _ => {
                let mut hit = None;
                let mut invalid = None;
                for (way, &tag) in tags.iter().enumerate() {
                    if tag == needle {
                        hit = Some(way);
                    } else if tag == TAG_INVALID && invalid.is_none() {
                        invalid = Some(way);
                    }
                }
                return (hit, invalid);
            }
        };
        // A block is resident in at most one way; `trailing_zeros` names
        // it (and the first invalid way), matching the sequential scan.
        (
            (hit != 0).then(|| hit.trailing_zeros() as usize),
            (invalid != 0).then(|| invalid.trailing_zeros() as usize),
        )
    }

    #[inline(always)]
    fn find(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let set = self.set_of(block);
        self.scan(set, pack(block)).0.map(|way| (set, way))
    }

    /// Installs `needle` into `set`, preferring the scanned invalid way and
    /// evicting otherwise. Returns the way used and any victim. Every caller
    /// installs only after its scan of `set` missed, so no block is ever
    /// resident in two ways.
    #[inline(always)]
    fn install(
        &mut self,
        set: usize,
        invalid_way: Option<usize>,
        needle: u64,
        aux: u8,
    ) -> (usize, Option<Victim>) {
        let (way, victim) = match invalid_way {
            Some(way) => (way, None),
            None => {
                let way = self.repl.evict(set);
                let idx = self.set_base(set) + way;
                let meta = self.meta[idx];
                (
                    way,
                    Some(Victim {
                        block: unpack(self.tags[idx]),
                        aux: meta as u8,
                        dirty: meta & META_DIRTY != 0,
                    }),
                )
            }
        };
        let idx = self.set_base(set) + way;
        self.tags[idx] = needle;
        self.meta[idx] = aux as u16;
        self.repl.on_fill(set, way);
        (way, victim)
    }

    /// Returns `true` if `block` is resident, without touching policy state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Returns the aux tag of a resident block.
    pub fn aux(&self, block: BlockAddr) -> Option<u8> {
        self.find(block)
            .map(|(set, way)| self.meta[self.set_base(set) + way] as u8)
    }

    /// Reports which block a fill of `block` would displace.
    ///
    /// Returns `None` when `block` is already resident or the set still has
    /// an invalid way (the fill would be eviction-free). The answer agrees
    /// exactly with the eviction performed by a subsequent
    /// [`access`](SetAssocCache::access) or
    /// [`fill_if_absent`](SetAssocCache::fill_if_absent) of the same block,
    /// provided no other mutation intervenes.
    #[inline(always)]
    pub fn peek_victim(&self, block: BlockAddr) -> Option<Victim> {
        let set = self.set_of(block);
        let (hit, invalid) = self.scan(set, pack(block));
        if hit.is_some() || invalid.is_some() {
            return None;
        }
        let way = self.repl.victim_way(set);
        let idx = self.set_base(set) + way;
        let meta = self.meta[idx];
        Some(Victim {
            block: unpack(self.tags[idx]),
            aux: meta as u8,
            dirty: meta & META_DIRTY != 0,
        })
    }

    /// Accesses `block`, tagging the frame with `aux` whether the access hits
    /// or misses (STREX tags blocks with the current phase on *every* touch).
    #[inline(always)]
    pub fn access(&mut self, block: BlockAddr, aux: u8) -> Probe {
        let set = self.set_of(block);
        let needle = pack(block);
        let (hit, invalid) = self.scan(set, needle);
        match hit {
            Some(way) => {
                self.repl.on_hit(set, way);
                let idx = self.set_base(set) + way;
                let dirty = self.meta[idx] & META_DIRTY;
                self.meta[idx] = dirty | aux as u16;
                Probe {
                    hit: true,
                    set,
                    way,
                    evicted: None,
                    dirty: dirty != 0,
                }
            }
            None => {
                let (way, evicted) = self.install(set, invalid, needle, aux);
                Probe {
                    hit: false,
                    set,
                    way,
                    evicted,
                    dirty: false,
                }
            }
        }
    }

    /// Latency-only access for caches that never consult aux tags, dirty
    /// bits or victims (the shared L2: it always tags with zero, never
    /// writes, and discards evictions). Returns only the hit flag.
    ///
    /// Skips the sidecar-array stores and victim materialization of
    /// [`access`](SetAssocCache::access) — two to three extra cache-line
    /// touches per probe on the simulator's hottest path. Because such a
    /// cache only ever writes `aux = 0` and never sets a dirty bit, the
    /// skipped stores would re-write the values already there: the
    /// observable state is identical to using `access(block, 0)` and
    /// dropping the probe.
    #[inline(always)]
    pub fn access_untagged(&mut self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        let needle = pack(block);
        let (hit, invalid) = self.scan(set, needle);
        match hit {
            Some(way) => {
                self.repl.on_hit(set, way);
                true
            }
            None => {
                let way = match invalid {
                    Some(way) => way,
                    None => self.repl.evict(set),
                };
                let idx = self.set_base(set) + way;
                // The skipped meta store is sound only while every frame's
                // sidecar is still pristine — i.e. the cache has never been
                // touched through the tagged/dirtying entry points.
                debug_assert_eq!(
                    self.meta[idx], 0,
                    "access_untagged on a cache with live aux/dirty metadata"
                );
                self.tags[idx] = needle;
                self.repl.on_fill(set, way);
                false
            }
        }
    }

    /// Accesses `block` for writing; like [`access`](SetAssocCache::access)
    /// but also marks the frame dirty. The probe already names the frame,
    /// so no second lookup happens, and its [`dirty`](Probe::dirty) is the
    /// bit as it was before the write.
    #[inline(always)]
    pub fn access_write(&mut self, block: BlockAddr, aux: u8) -> Probe {
        let probe = self.access(block, aux);
        let idx = self.set_base(probe.set) + probe.way;
        self.meta[idx] |= META_DIRTY;
        probe
    }

    /// Installs `block` unless it is already resident (one probe for what
    /// was previously a `contains` scan followed by a `fill` scan).
    ///
    /// On a hit the cache is left untouched — no replacement-state update,
    /// matching the prefetcher's "already here, nothing to do" semantics —
    /// and the returned probe has `hit == true`. On a miss the block is
    /// installed and the probe carries any victim.
    #[inline(always)]
    pub fn fill_if_absent(&mut self, block: BlockAddr, aux: u8) -> Probe {
        let set = self.set_of(block);
        let needle = pack(block);
        let (hit, invalid) = self.scan(set, needle);
        match hit {
            Some(way) => Probe {
                hit: true,
                set,
                way,
                evicted: None,
                dirty: self.meta[self.set_base(set) + way] & META_DIRTY != 0,
            },
            None => {
                let (way, evicted) = self.install(set, invalid, needle, aux);
                Probe {
                    hit: false,
                    set,
                    way,
                    evicted,
                    dirty: false,
                }
            }
        }
    }

    /// Another core's access to `block` as this (private data) cache
    /// sees it, in one scan: a write invalidates the frame, a read clears
    /// its dirty bit (the caller writes a dirty copy back, and the copy
    /// stays, shared). Returns whether the frame was dirty, or `None` if
    /// `block` is not resident.
    ///
    /// # Examples
    ///
    /// ```
    /// use strex_sim::addr::BlockAddr;
    /// use strex_sim::cache::{CacheGeometry, SetAssocCache};
    /// use strex_sim::replacement::ReplacementKind;
    ///
    /// let mut l1d = SetAssocCache::new(CacheGeometry::new(4096, 4), ReplacementKind::Lru);
    /// let b = BlockAddr::new(7);
    /// l1d.access_write(b, 0);
    /// assert_eq!(l1d.snoop(b, false), Some(true)); // a remote read cleans it
    /// assert_eq!(l1d.snoop(b, true), Some(false)); // a remote write invalidates it
    /// assert_eq!(l1d.snoop(b, true), None);
    /// ```
    #[inline(always)]
    pub fn snoop(&mut self, block: BlockAddr, write: bool) -> Option<bool> {
        let set = self.set_of(block);
        let way = self.scan(set, pack(block)).0?;
        let idx = self.set_base(set) + way;
        let dirty = self.meta[idx] & META_DIRTY != 0;
        self.meta[idx] &= !META_DIRTY;
        if write {
            self.tags[idx] = TAG_INVALID;
            self.repl.on_invalidate(set, way);
        }
        Some(dirty)
    }

    /// Whether a resident block is dirty; `None` if it is not resident.
    pub fn dirty(&self, block: BlockAddr) -> Option<bool> {
        self.find(block)
            .map(|(set, way)| self.meta[self.set_base(set) + way] & META_DIRTY != 0)
    }

    /// Iterates over all resident blocks.
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.tags
            .iter()
            .filter(|&&tag| tag != TAG_INVALID)
            .map(|&tag| unpack(tag))
    }

    /// Number of resident (valid) blocks.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != TAG_INVALID).count()
    }

    /// Invalidates every frame, returning the cache to its initial state.
    pub fn flush(&mut self) {
        let kind = self.repl.kind();
        self.tags.fill_with(TAG_INVALID);
        self.meta.fill(0);
        let phys_sets = self.set_mask as usize + 1;
        self.repl = Replacement::new(kind, phys_sets, self.assoc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheGeometry::new(256, 2), ReplacementKind::Lru)
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(32 * 1024, 8);
        assert_eq!(g.sets(), 64);
        assert_eq!(g.blocks(), 512);
        assert_eq!(g.set_of(BlockAddr::new(64)), 0);
        assert_eq!(g.set_of(BlockAddr::new(65)), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must divide evenly")]
    fn bad_geometry_panics() {
        let _ = CacheGeometry::new(100, 3);
    }

    #[test]
    fn try_new_rejects_each_failure_mode() {
        assert_eq!(CacheGeometry::try_new(0, 4), Err(GeometryError::Degenerate));
        assert_eq!(
            CacheGeometry::try_new(4096, 0),
            Err(GeometryError::Degenerate)
        );
        assert_eq!(
            CacheGeometry::try_new(100, 3),
            Err(GeometryError::UnevenSets {
                size_bytes: 100,
                assoc: 3
            })
        );
        // 384 B / 2-way / 64 B blocks = 3 sets: divides evenly, not pow2.
        assert_eq!(
            CacheGeometry::try_new(384, 2),
            Err(GeometryError::NonPowerOfTwoSets { sets: 3 })
        );
        let ok = CacheGeometry::try_new(32 * 1024, 8).expect("Table 2 geometry");
        assert!(ok.has_pow2_sets());
        assert_eq!(ok, CacheGeometry::new(32 * 1024, 8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_rejects_non_pow2_sets() {
        // The geometry itself is constructible (validation rejects it with
        // an error), but the single-probe cache cannot be built on it.
        let _ = SetAssocCache::new(CacheGeometry::new(384, 2), ReplacementKind::Lru);
    }

    #[test]
    fn tag_packing_round_trips() {
        for idx in [0u64, 1, 63, 64, (1 << 58) - 1] {
            let b = BlockAddr::new(idx);
            assert_eq!(unpack(pack(b)), b);
            assert_ne!(pack(b), TAG_INVALID, "valid tag collides with sentinel");
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let b = BlockAddr::new(4);
        assert!(!c.access(b, 1).is_hit());
        assert!(c.access(b, 2).is_hit());
        assert_eq!(c.aux(b), Some(2), "aux retagged on hit");
    }

    #[test]
    fn probe_names_the_frame() {
        let mut c = small();
        let b = BlockAddr::new(4); // set 0 (2 sets)
        let miss = c.access(b, 1);
        assert!(!miss.hit);
        assert_eq!(miss.set, 0);
        let hit = c.access(b, 1);
        assert!(hit.hit);
        assert_eq!((hit.set, hit.way), (miss.set, miss.way));
    }

    #[test]
    fn eviction_in_full_set() {
        let mut c = small();
        // Blocks 0, 2, 4 all map to set 0 (2 sets).
        c.access(BlockAddr::new(0), 0);
        c.access(BlockAddr::new(2), 0);
        let out = c.access(BlockAddr::new(4), 0);
        let v = out.evicted().expect("set was full");
        assert_eq!(v.block, BlockAddr::new(0), "LRU victim");
        assert!(!c.contains(BlockAddr::new(0)));
        assert!(c.contains(BlockAddr::new(2)));
        assert!(c.contains(BlockAddr::new(4)));
    }

    #[test]
    fn peek_agrees_with_fill() {
        let mut c = small();
        c.access(BlockAddr::new(0), 7);
        c.access(BlockAddr::new(2), 8);
        let peek = c.peek_victim(BlockAddr::new(4)).expect("set full");
        let actual = c.access(BlockAddr::new(4), 0).evicted().unwrap();
        assert_eq!(peek, actual);
        assert_eq!(peek.aux, 7);
    }

    #[test]
    fn peek_none_when_resident_or_free() {
        let mut c = small();
        assert!(c.peek_victim(BlockAddr::new(0)).is_none(), "free way");
        c.access(BlockAddr::new(0), 0);
        assert!(c.peek_victim(BlockAddr::new(0)).is_none(), "resident");
    }

    #[test]
    fn dirty_victims_reported() {
        let mut c = small();
        c.access_write(BlockAddr::new(0), 0);
        c.access(BlockAddr::new(2), 0);
        c.access(BlockAddr::new(2), 0); // block 2 MRU; block 0 is victim
        let v = c.access(BlockAddr::new(4), 0).evicted().unwrap();
        assert_eq!(v.block, BlockAddr::new(0));
        assert!(v.dirty);
    }

    #[test]
    fn access_write_marks_exactly_the_probed_frame() {
        // The dirty bit must land on the frame the probe named, on both
        // the miss path and the hit path, with no second lookup involved.
        let mut c = small();
        let b = BlockAddr::new(6);
        let miss = c.access_write(b, 0);
        assert!(!miss.hit);
        assert_eq!(c.dirty(b), Some(true), "miss fill marked dirty");
        // A clean read hit on another block must not disturb it; a write
        // hit on a clean block must dirty that block only.
        let other = BlockAddr::new(4); // same set
        c.access(other, 0);
        assert_eq!(c.dirty(other), Some(false));
        let hit = c.access_write(other, 0);
        assert!(hit.hit);
        assert_eq!(c.dirty(other), Some(true), "hit marked dirty");
        assert_eq!(c.dirty(b), Some(true), "first block still dirty");
    }

    #[test]
    fn fill_if_absent_is_single_probe_fill() {
        let mut c = small();
        let b = BlockAddr::new(2);
        let first = c.fill_if_absent(b, 5);
        assert!(!first.hit);
        assert_eq!(c.aux(b), Some(5));
        // Second attempt: resident, untouched (aux keeps its old value).
        let second = c.fill_if_absent(b, 9);
        assert!(second.hit);
        assert_eq!((second.set, second.way), (first.set, first.way));
        assert_eq!(c.aux(b), Some(5), "resident block not retagged");
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn probe_reports_the_prior_dirty_bit() {
        let mut c = small();
        let b = BlockAddr::new(4);
        assert!(!c.access_write(b, 0).dirty, "a miss fill was not dirty");
        assert!(c.access(b, 0).dirty, "a read hit sees the write");
        assert_eq!(c.dirty(b), Some(true), "and leaves it dirty");
        assert!(c.access_write(b, 0).dirty, "a write hit on a dirty frame");
        assert_eq!(c.snoop(b, false), Some(true));
        assert!(!c.access_write(b, 0).dirty, "a write hit on a clean frame");
        assert!(c.fill_if_absent(b, 0).dirty, "a prefetch finds it resident");
    }

    #[test]
    fn invalidate_frees_way() {
        let mut c = small();
        c.access(BlockAddr::new(0), 0);
        c.access_write(BlockAddr::new(2), 0);
        assert_eq!(c.snoop(BlockAddr::new(0), true), Some(false));
        assert_eq!(c.snoop(BlockAddr::new(2), true), Some(true));
        assert_eq!(c.snoop(BlockAddr::new(2), true), None, "already gone");
        assert!(!c.contains(BlockAddr::new(0)));
        // Set has free ways again: no victim for the next fills.
        assert!(c.access(BlockAddr::new(4), 0).evicted().is_none());
        assert!(c.access(BlockAddr::new(6), 0).evicted().is_none());
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = small();
        let b = BlockAddr::new(0);
        c.access_write(b, 3);
        assert_eq!(c.snoop(b, false), Some(true));
        assert_eq!((c.dirty(b), c.aux(b)), (Some(false), Some(3)), "kept");
        assert_eq!(c.snoop(b, false), Some(false));
        assert_eq!(c.snoop(BlockAddr::new(2), false), None, "not resident");
    }

    #[test]
    fn resident_blocks_and_occupancy() {
        let mut c = small();
        c.access(BlockAddr::new(0), 0);
        c.access(BlockAddr::new(1), 0);
        c.access(BlockAddr::new(2), 0);
        assert_eq!(c.occupancy(), 3);
        let mut blocks: Vec<_> = c.resident_blocks().map(BlockAddr::index).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2]);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn aux_round_trip() {
        let mut c = small();
        c.access(BlockAddr::new(5), 9);
        assert_eq!(c.aux(BlockAddr::new(5)), Some(9));
        assert_eq!(c.aux(BlockAddr::new(99)), None);
    }

    #[test]
    fn works_with_all_replacement_kinds() {
        for kind in ReplacementKind::ALL {
            let mut c = SetAssocCache::new(CacheGeometry::new(512, 2), kind);
            for i in 0..64u64 {
                c.access(BlockAddr::new(i % 12), (i % 256) as u8);
                if let Some(peek) = c.peek_victim(BlockAddr::new(100 + i)) {
                    let got = c.access(BlockAddr::new(100 + i), 0).evicted().unwrap();
                    assert_eq!(peek, got, "{kind}");
                }
            }
        }
    }
}
