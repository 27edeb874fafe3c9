//! Shared NUCA L2 cache (Table 2: 1 MB per core, 16-way, 16-cycle hit,
//! address-interleaved slices over the torus).
//!
//! Each slice is a plain [`SetAssocCache`], probed with the same packed
//! tags and way scan as the L1s. At power-of-two core counts the slices
//! are set-compressed ([`SetAssocCache::new_sliced`]), so the Table 2 L2
//! holds 16,384 frames — 128 KiB of tags — from 1 to 512 cores; other
//! counts get full-size slices (384 KiB of tags at 3 cores).

use crate::addr::BlockAddr;
use crate::cache::{CacheGeometry, SetAssocCache};
use crate::ids::{CoreId, Cycle};
use crate::interconnect::Torus;
use crate::memory::Dram;
use crate::replacement::ReplacementKind;
use crate::stats::SharedStats;

/// The shared L2: one slice per core, interleaved by block address.
///
/// # Examples
///
/// ```
/// use strex_sim::addr::BlockAddr;
/// use strex_sim::ids::CoreId;
/// use strex_sim::l2::SharedL2;
///
/// let mut l2 = SharedL2::table2(4);
/// let cold = l2.access(CoreId::new(0), BlockAddr::new(5), 0);
/// let warm = l2.access(CoreId::new(0), BlockAddr::new(5), cold);
/// assert!(warm < cold);
/// ```
#[derive(Clone, Debug)]
pub struct SharedL2 {
    slices: Vec<SetAssocCache>,
    torus: Torus,
    hit_latency: u64,
    dram: Dram,
    stats: SharedStats,
    /// `slices.len() - 1` when the slice count is a power of two (the
    /// common Table 2 core counts), letting `slice_of` mask instead of
    /// divide; `None` falls back to the modulo.
    slice_mask: Option<u64>,
}

impl SharedL2 {
    /// Builds the Table 2 L2 for `n_cores` cores.
    pub fn table2(n_cores: usize) -> Self {
        SharedL2::new(
            n_cores,
            1024 * 1024,
            16,
            16,
            ReplacementKind::Lru,
            Torus::new(n_cores),
            Dram::default(),
        )
    }

    /// Builds an L2 from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero (via the torus) or the slice geometry is
    /// degenerate (via [`CacheGeometry::new`]).
    pub fn new(
        n_cores: usize,
        bytes_per_core: u64,
        assoc: usize,
        hit_latency: u64,
        repl: ReplacementKind,
        torus: Torus,
        dram: Dram,
    ) -> Self {
        let geom = CacheGeometry::new(bytes_per_core, assoc);
        // Power-of-two slice counts interleave on the low index bits, so
        // those bits are constant within a slice and each slice can be
        // built set-compressed (bit-identical, smaller probe footprint —
        // see `SetAssocCache::new_sliced`). Other slice counts interleave
        // by modulo and get full-size slices.
        let slice_bits = if n_cores.is_power_of_two() {
            let bits = n_cores.trailing_zeros();
            if bits < geom.sets().trailing_zeros() {
                bits
            } else {
                0
            }
        } else {
            0
        };
        SharedL2 {
            slices: (0..n_cores)
                .map(|_| SetAssocCache::new_sliced(geom, repl, slice_bits))
                .collect(),
            torus,
            hit_latency,
            dram,
            stats: SharedStats::default(),
            slice_mask: n_cores.is_power_of_two().then(|| n_cores as u64 - 1),
        }
    }

    /// Which slice a block maps to.
    #[inline]
    pub fn slice_of(&self, block: BlockAddr) -> CoreId {
        let idx = match self.slice_mask {
            Some(mask) => block.index() & mask,
            None => block.index() % self.slices.len() as u64,
        };
        CoreId::new(idx as u16)
    }

    /// Serves a demand access from `core` arriving at `now`; returns the
    /// total latency (network + slice hit or memory fill).
    pub fn access(&mut self, core: CoreId, block: BlockAddr, now: Cycle) -> u64 {
        self.stats.l2_accesses += 1;
        let slice = self.slice_of(block);
        let net = self.torus.round_trip(core, slice);
        let cache = &mut self.slices[slice.as_usize()];
        // Latency-only probe: the L2 keeps no aux tags or dirty bits and
        // discards victims, so the untagged path is observably identical.
        if cache.access_untagged(block) {
            net + self.hit_latency
        } else {
            self.stats.l2_misses += 1;
            let mem = self.dram.access(block, now + net / 2 + self.hit_latency);
            net + self.hit_latency + mem
        }
    }

    /// Accepts a dirty writeback from an L1 (charged to the L2 only as a
    /// statistic; writebacks are off the critical path).
    pub fn writeback(&mut self, core: CoreId, block: BlockAddr) {
        let _ = core;
        self.stats.writebacks += 1;
        let slice = self.slice_of(block);
        // Single probe: install unless already resident.
        let _ = self.slices[slice.as_usize()].fill_if_absent(block, 0);
    }

    /// Returns `true` if the block is resident in its slice.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.slices[self.slice_of(block).as_usize()].contains(block)
    }

    /// Accumulated shared-level statistics.
    pub fn stats(&self) -> SharedStats {
        self.stats
    }

    /// Aggregate capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.slices.iter().map(|s| s.geometry().size_bytes()).sum()
    }

    /// Number of slices (= cores).
    pub fn n_slices(&self) -> usize {
        self.slices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_covers_all_slices() {
        let l2 = SharedL2::table2(4);
        let mut seen = [false; 4];
        for i in 0..16 {
            seen[l2.slice_of(BlockAddr::new(i)).as_usize()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn miss_then_hit_latency_ordering() {
        let mut l2 = SharedL2::table2(2);
        let b = BlockAddr::new(3);
        let miss = l2.access(CoreId::new(0), b, 0);
        let hit = l2.access(CoreId::new(0), b, 1000);
        assert!(miss > hit);
        assert!(hit >= l2.hit_latency);
        assert_eq!(l2.stats().l2_accesses, 2);
        assert_eq!(l2.stats().l2_misses, 1);
    }

    #[test]
    fn remote_slice_costs_network() {
        let mut l2 = SharedL2::table2(4);
        // Warm both blocks first.
        let local = BlockAddr::new(0); // slice 0
        let remote = BlockAddr::new(1); // slice 1
        l2.access(CoreId::new(0), local, 0);
        l2.access(CoreId::new(0), remote, 0);
        let l_local = l2.access(CoreId::new(0), local, 10_000);
        let l_remote = l2.access(CoreId::new(0), remote, 10_000);
        assert!(l_remote > l_local, "remote slice adds torus hops");
    }

    #[test]
    fn writeback_installs_block() {
        let mut l2 = SharedL2::table2(2);
        let b = BlockAddr::new(9);
        assert!(!l2.contains(b));
        l2.writeback(CoreId::new(1), b);
        assert!(l2.contains(b));
        assert_eq!(l2.stats().writebacks, 1);
    }

    #[test]
    fn capacity_scales() {
        assert_eq!(SharedL2::table2(4).capacity_bytes(), 4 * 1024 * 1024);
        assert_eq!(SharedL2::table2(16).n_slices(), 16);
    }
}
