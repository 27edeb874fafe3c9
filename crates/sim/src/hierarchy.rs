//! The complete CMP memory system: per-core L1-I/L1-D, MESI coherence,
//! shared NUCA L2, DRAM, prefetchers and cache signatures.
//!
//! The L1-Ds are the coherence directory: a data access that misses, or
//! writes a clean frame, snoops every other L1-D once
//! ([`SetAssocCache::snoop`]), which invalidates or cleans the copy it
//! finds and reports whether it was dirty (see [`crate::coherence`]).
//!
//! [`MemorySystem`] is the single mutable substrate the schedulers in the
//! `strex` crate drive. Its API is shaped by what the paper's mechanisms
//! observe:
//!
//! * **STREX** tags every touched L1-I block with the core's current phase
//!   ([`MemorySystem::fetch_inst`] takes the tag) and watches victims
//!   (the returned [`InstFetch::evicted`]).
//! * **SLICC** consults remote cache signatures
//!   ([`MemorySystem::l1i_signature`]) and counts recent misses.

use crate::addr::{Addr, BlockAddr};
use crate::cache::{SetAssocCache, Victim};
use crate::coherence::SharerMask;
use crate::config::SystemConfig;
use crate::ids::{CoreId, Cycle};
use crate::interconnect::Torus;
use crate::l2::SharedL2;
use crate::memory::Dram;
use crate::signature::CacheSignature;
use crate::stats::{SharedStats, SystemStats};

/// Outcome of one instruction-block fetch.
#[derive(Copy, Clone, Debug)]
pub struct InstFetch {
    /// Stall cycles the fetch adds beyond the pipelined base cost.
    pub stall: u64,
    /// Whether the block was found in the L1-I.
    pub hit: bool,
    /// Block displaced by the demand fill, if any — STREX's victim monitor.
    pub evicted: Option<Victim>,
}

/// Outcome of one data access.
#[derive(Copy, Clone, Debug)]
pub struct DataAccess {
    /// Stall cycles beyond the base cost.
    pub stall: u64,
    /// Whether the access hit in the local L1-D.
    pub hit: bool,
    /// Whether a miss was served by another core's cache (coherence miss).
    pub coherence: bool,
}

/// The simulated memory hierarchy.
///
/// # Examples
///
/// ```
/// use strex_sim::addr::BlockAddr;
/// use strex_sim::config::SystemConfig;
/// use strex_sim::hierarchy::MemorySystem;
/// use strex_sim::ids::CoreId;
///
/// let mut mem = MemorySystem::new(SystemConfig::with_cores(2));
/// let cold = mem.fetch_inst(CoreId::new(0), BlockAddr::new(1), 0, 0);
/// assert!(!cold.hit);
/// let warm = mem.fetch_inst(CoreId::new(0), BlockAddr::new(1), 0, 10);
/// assert!(warm.hit && warm.stall == 0);
/// ```
#[derive(Clone, Debug)]
pub struct MemorySystem {
    cfg: SystemConfig,
    l1i: Vec<SetAssocCache>,
    l1d: Vec<SetAssocCache>,
    signatures: Vec<CacheSignature>,
    l2: SharedL2,
    torus: Torus,
    stats: SystemStats,
}

impl MemorySystem {
    /// Builds the hierarchy described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has more cores than a [`SharerMask`] has bits (64).
    pub fn new(cfg: SystemConfig) -> Self {
        let n = cfg.n_cores;
        assert!(
            n <= SharerMask::BITS as usize,
            "sharer mask supports at most 64 cores"
        );
        let torus = Torus::with_hop_latency(n, cfg.hop_latency);
        MemorySystem {
            l1i: (0..n)
                .map(|_| SetAssocCache::new(cfg.l1i_geometry, cfg.l1i_replacement))
                .collect(),
            l1d: (0..n)
                .map(|_| SetAssocCache::new(cfg.l1d_geometry, cfg.l1d_replacement))
                .collect(),
            signatures: (0..n)
                .map(|_| CacheSignature::new(cfg.l1i_geometry.blocks()))
                .collect(),
            l2: SharedL2::new(
                n,
                cfg.l2_bytes_per_core,
                cfg.l2_assoc,
                cfg.l2_hit_latency,
                cfg.l2_replacement,
                torus.clone(),
                Dram::new(cfg.dram),
            ),
            torus,
            stats: SystemStats::new(n),
            cfg,
        }
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Shared L2/memory statistics.
    pub fn shared_stats(&self) -> SharedStats {
        self.l2.stats()
    }

    /// Credits `n` retired instructions to `core` (the driver calls this as
    /// it consumes fetch groups; MPKI denominators come from here).
    #[inline]
    pub fn add_instructions(&mut self, core: CoreId, n: u64) {
        self.stats.cores[core.as_usize()].instructions += n;
    }

    /// Fetches one instruction block on `core`, tagging the L1-I frame with
    /// `phase_tag` whether the access hits or misses (STREX semantics).
    ///
    /// Returns the stall cycles, hit flag and any demand-fill victim.
    #[inline]
    pub fn fetch_inst(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        phase_tag: u8,
        now: Cycle,
    ) -> InstFetch {
        let c = core.as_usize();
        self.stats.cores[c].i_accesses += 1;

        // Single probe: hit bookkeeping (replacement update + phase retag)
        // or miss fill, and the fill's victim, all from one tag scan.
        let probe = self.l1i[c].access(block, phase_tag);
        if probe.hit {
            return InstFetch {
                stall: 0,
                hit: true,
                evicted: None,
            };
        }
        // Demand miss path. Under PIF-ideal the stall is hidden but the L2
        // still sees the demand traffic (Section 5.3's model).
        let hidden = self.cfg.prefetcher.hides_all_fetch_latency();
        if hidden {
            self.stats.cores[c].i_misses_hidden += 1;
        } else {
            self.stats.cores[c].i_misses += 1;
        }
        let l2_latency = self.l2.access(core, block, now);
        let evicted = probe.evicted;
        self.signatures[c].on_fill(block, evicted.map(|v| v.block));

        // Sequential prefetch, optimistically timely.
        for target in self.cfg.prefetcher.prefetch_targets(block) {
            let pf = self.l1i[c].fill_if_absent(target, phase_tag);
            if !pf.hit {
                self.stats.cores[c].prefetches += 1;
                let _ = self.l2.access(core, target, now);
                self.signatures[c].on_fill(target, pf.evicted.map(|v| v.block));
            }
        }

        let stall = if hidden { 0 } else { l2_latency };
        self.stats.cores[c].i_stall_cycles += stall;
        InstFetch {
            stall,
            hit: false,
            evicted,
        }
    }

    /// Performs a data access on `core`.
    ///
    /// The requester's L1-D is probed once. A read hit, or a write hit on
    /// a frame already dirty, is done: MESI lets no other L1-D hold the
    /// block dirty, nor, for the dirty frame, at all. Otherwise every other
    /// L1-D is snooped once ([`SetAssocCache::snoop`]): a write invalidates
    /// each copy, and a dirty copy is written back to the L2, which then
    /// supplies it. The access waits for the farthest core it wrote back
    /// from or invalidated. A miss that another L1-D held is a
    /// cache-to-cache transfer, a coherence miss.
    #[inline]
    pub fn access_data(
        &mut self,
        core: CoreId,
        addr: Addr,
        is_write: bool,
        now: Cycle,
    ) -> DataAccess {
        let c = core.as_usize();
        let block = addr.block();
        self.stats.cores[c].d_accesses += 1;

        let l1d = &mut self.l1d[c];
        let probe = if is_write {
            l1d.access_write(block, 0)
        } else {
            l1d.access(block, 0)
        };
        if probe.hit && (!is_write || probe.dirty) {
            return DataAccess {
                stall: self.cfg.l1_hit_extra,
                hit: true,
                coherence: false,
            };
        }

        let mut holders = 0u32;
        let mut dirty_holder = false;
        let mut remote_penalty = 0u64;
        for (k, l1d) in self.l1d.iter_mut().enumerate() {
            if k == c {
                continue;
            }
            let Some(dirty) = l1d.snoop(block, is_write) else {
                continue;
            };
            holders += 1;
            dirty_holder |= dirty;
            let holder = CoreId::new(k as u16);
            if dirty {
                self.l2.writeback(holder, block);
            }
            if dirty || is_write {
                remote_penalty = remote_penalty.max(self.torus.round_trip(core, holder));
            }
        }
        debug_assert!(
            !dirty_holder || (holders == 1 && !probe.hit),
            "a dirty block has one holder: core {c} {} it, {holders} other cores held it",
            if probe.hit { "holds" } else { "lacks" }
        );
        if is_write && holders != 0 {
            self.stats.cores[c].upgrade_invalidations += 1;
        }
        if probe.hit {
            // An upgrade: the requester wrote a clean copy it shares.
            self.stats.cores[c].d_stall_cycles += remote_penalty;
            return DataAccess {
                stall: self.cfg.l1_hit_extra + remote_penalty,
                hit: true,
                coherence: false,
            };
        }

        self.stats.cores[c].d_misses += 1;
        let transfer = holders != 0;
        if transfer {
            self.stats.cores[c].d_coherence_misses += 1;
        }
        // Miss: the block was installed by the probe above; a dirty
        // displaced frame writes back. The L2's replacement state depends
        // on its order of calls: a remote owner's write-back (in the
        // snoop loop), then this victim's, then the access.
        if let Some(v) = probe.evicted.filter(|v| v.dirty) {
            self.l2.writeback(core, v.block);
        }
        let latency = if transfer {
            // Cache-to-cache transfer: network plus one L2-directory hop.
            remote_penalty + self.cfg.l2_hit_latency
        } else {
            self.l2.access(core, block, now)
        };
        let stall = self.cfg.l1_hit_extra + latency;
        self.stats.cores[c].d_stall_cycles += stall;
        DataAccess {
            stall,
            hit: false,
            coherence: transfer,
        }
    }

    /// The cores whose L1-Ds hold `block`, one bit per core, and the one
    /// holding it dirty, if any: one tag probe per L1-D. Observation only;
    /// [`access_data`](MemorySystem::access_data) snoops the caches itself.
    pub fn l1d_holders(&self, block: BlockAddr) -> (SharerMask, Option<CoreId>) {
        let mut holders: SharerMask = 0;
        let mut dirty_owner = None;
        for (k, l1d) in self.l1d.iter().enumerate() {
            if let Some(dirty) = l1d.dirty(block) {
                holders |= 1 << k;
                if dirty {
                    dirty_owner = Some(CoreId::new(k as u16));
                }
            }
        }
        (holders, dirty_owner)
    }

    /// Charges the latency of saving or restoring one thread context
    /// to/from the L2 slice nearest `core` (Section 4.3: contexts live in
    /// the L2 to avoid thrashing the L1-D).
    ///
    /// `blocks` is the architectural-state size in cache blocks.
    #[inline]
    pub fn context_transfer(&mut self, core: CoreId, blocks: u64) -> u64 {
        // The nearest slice is the local one: zero hops, pipelined writes.
        let _ = core;
        self.cfg.l2_hit_latency + blocks.saturating_sub(1)
    }

    // ----- L1-I introspection used by STREX, SLICC and the analyses -----

    /// Would a fill of `block` evict something, and if so what?
    #[inline]
    pub fn l1i_peek_victim(&self, core: CoreId, block: BlockAddr) -> Option<Victim> {
        self.l1i[core.as_usize()].peek_victim(block)
    }

    /// Is `block` resident in `core`'s L1-I?
    pub fn l1i_contains(&self, core: CoreId, block: BlockAddr) -> bool {
        self.l1i[core.as_usize()].contains(block)
    }

    /// Phase tag of a resident block.
    pub fn l1i_aux(&self, core: CoreId, block: BlockAddr) -> Option<u8> {
        self.l1i[core.as_usize()].aux(block)
    }

    /// The Bloom signature of `core`'s L1-I (SLICC's migration oracle).
    pub fn l1i_signature(&self, core: CoreId) -> &CacheSignature {
        &self.signatures[core.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::PrefetcherKind;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(SystemConfig::with_cores(cores))
    }

    #[test]
    fn inst_miss_then_hit() {
        let mut m = sys(2);
        let b = BlockAddr::new(100);
        let first = m.fetch_inst(CoreId::new(0), b, 5, 0);
        assert!(!first.hit);
        assert!(first.stall > 0);
        let second = m.fetch_inst(CoreId::new(0), b, 6, 100);
        assert!(second.hit);
        assert_eq!(second.stall, 0);
        assert_eq!(m.l1i_aux(CoreId::new(0), b), Some(6), "retagged on hit");
        assert_eq!(m.stats().cores[0].i_misses, 1);
        assert_eq!(m.stats().cores[0].i_accesses, 2);
    }

    #[test]
    fn l1i_isolation_between_cores() {
        let mut m = sys(2);
        let b = BlockAddr::new(7);
        m.fetch_inst(CoreId::new(0), b, 0, 0);
        assert!(m.l1i_contains(CoreId::new(0), b));
        assert!(!m.l1i_contains(CoreId::new(1), b));
        m.fetch_inst(CoreId::new(1), b, 0, 0);
        assert!(m.l1i_contains(CoreId::new(0), b) && m.l1i_contains(CoreId::new(1), b));
    }

    #[test]
    fn second_core_fetch_hits_l2() {
        let mut m = sys(2);
        let b = BlockAddr::new(7);
        let cold = m.fetch_inst(CoreId::new(0), b, 0, 0);
        let warm = m.fetch_inst(CoreId::new(1), b, 0, 10_000);
        assert!(warm.stall < cold.stall, "second core served from L2");
    }

    #[test]
    fn data_hit_after_fill() {
        let mut m = sys(2);
        let a = Addr::new(4096);
        let miss = m.access_data(CoreId::new(0), a, false, 0);
        assert!(!miss.hit);
        let hit = m.access_data(CoreId::new(0), a, false, 100);
        assert!(hit.hit);
        assert_eq!(hit.stall, m.config().l1_hit_extra);
    }

    #[test]
    fn write_invalidates_other_core() {
        let mut m = sys(2);
        let a = Addr::new(8192);
        m.access_data(CoreId::new(0), a, false, 0);
        m.access_data(CoreId::new(1), a, false, 0);
        // Core 1 writes: core 0 loses its copy.
        let w = m.access_data(CoreId::new(1), a, true, 10);
        assert!(w.hit, "upgrade on a resident shared block");
        assert_eq!(m.stats().cores[1].upgrade_invalidations, 1);
        // Core 0 re-read: coherence miss.
        let r = m.access_data(CoreId::new(0), a, false, 20);
        assert!(!r.hit);
        assert!(r.coherence);
        assert_eq!(m.stats().cores[0].d_coherence_misses, 1);
    }

    #[test]
    fn dirty_data_downgraded_on_remote_read() {
        let mut m = sys(2);
        let a = Addr::new(12345 * 64);
        m.access_data(CoreId::new(0), a, true, 0);
        let r = m.access_data(CoreId::new(1), a, false, 10);
        assert!(!r.hit);
        assert!(r.coherence, "served by the dirty owner");
        assert!(m.shared_stats().writebacks >= 1);
    }

    #[test]
    fn pif_hides_stalls_but_counts_hidden_misses() {
        let cfg = SystemConfig::with_cores(2).with_prefetcher(PrefetcherKind::PifIdeal);
        let mut m = MemorySystem::new(cfg);
        let f = m.fetch_inst(CoreId::new(0), BlockAddr::new(50), 0, 0);
        assert!(!f.hit);
        assert_eq!(f.stall, 0);
        assert_eq!(m.stats().cores[0].i_misses, 0);
        assert_eq!(m.stats().cores[0].i_misses_hidden, 1);
        assert!(m.shared_stats().l2_accesses >= 1, "traffic still generated");
    }

    #[test]
    fn next_line_prefetch_installs_successor() {
        let cfg = SystemConfig::with_cores(2).with_prefetcher(PrefetcherKind::NextLine);
        let mut m = MemorySystem::new(cfg);
        let b = BlockAddr::new(200);
        m.fetch_inst(CoreId::new(0), b, 0, 0);
        assert!(m.l1i_contains(CoreId::new(0), b.next()));
        assert_eq!(m.stats().cores[0].prefetches, 1);
        // Demand on the prefetched block is a hit.
        let f = m.fetch_inst(CoreId::new(0), b.next(), 0, 10);
        assert!(f.hit);
    }

    #[test]
    fn victim_reported_with_phase_tag() {
        let mut m = sys(1);
        let geom = m.config().l1i_geometry;
        let sets = geom.sets() as u64;
        // Fill one set beyond capacity: blocks that all map to set 0.
        for i in 0..geom.assoc() as u64 {
            m.fetch_inst(CoreId::new(0), BlockAddr::new(i * sets), 3, 0);
        }
        let f = m.fetch_inst(
            CoreId::new(0),
            BlockAddr::new(geom.assoc() as u64 * sets),
            4,
            0,
        );
        let v = f.evicted.expect("set was full");
        assert_eq!(v.aux, 3, "victim carries its phase tag");
    }

    #[test]
    fn context_transfer_latency_scales() {
        let mut m = sys(2);
        let short = m.context_transfer(CoreId::new(0), 1);
        let long = m.context_transfer(CoreId::new(0), 8);
        assert!(long > short);
        assert_eq!(short, m.config().l2_hit_latency);
    }

    #[test]
    fn signature_tracks_fills() {
        let mut m = sys(1);
        let b = BlockAddr::new(77);
        m.fetch_inst(CoreId::new(0), b, 0, 0);
        assert!(m.l1i_signature(CoreId::new(0)).may_contain(b));
    }

    #[test]
    fn instruction_crediting() {
        let mut m = sys(2);
        m.add_instructions(CoreId::new(0), 500);
        m.add_instructions(CoreId::new(1), 1500);
        assert_eq!(m.stats().instructions(), 2000);
    }
}
