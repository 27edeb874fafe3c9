//! Simulation configuration (Sections 4.3 and 5.1 of the paper): scheduler
//! parameters, the top-level [`SimConfig`], and its validating builder.

use strex_sim::coherence::SharerMask;
use strex_sim::config::SystemConfig;

use crate::error::ConfigError;

/// Most cores a configuration may request: a MESI decision reads a
/// block's holders off the L1-Ds into one [`SharerMask`] bit per core.
/// Scenarios and the dispatcher share this limit, so every layer accepts
/// the same systems.
pub const MAX_CORES: usize = SharerMask::BITS as usize;

/// STREX parameters.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct StrexParams {
    /// Maximum transactions per team (Section 5.1: ten unless noted;
    /// Figure 7/8 sweep 2..=20).
    pub team_size: usize,
    /// Architectural-state size in cache blocks saved/restored through the
    /// L2 on a context switch (Section 4.4.2).
    pub ctx_state_blocks: u64,
    /// Window of transactions team formation may examine (Section 4.3: the
    /// OLTP system provides up to 30 transactions at any time).
    pub formation_window: usize,
    /// Minimum instruction-block fetches a thread executes per quantum
    /// before the victim monitor may switch it (Section 4.4.2: "an
    /// implementation may choose to enforce a minimum number of
    /// instructions or cycles that a transaction ought to execute before a
    /// context switch is allowed"). Lets diverging followers force-fill
    /// their private path instead of starving behind the lead.
    pub min_quantum_fetches: u32,
}

impl Default for StrexParams {
    fn default() -> Self {
        StrexParams {
            team_size: 10,
            ctx_state_blocks: 4,
            formation_window: 30,
            min_quantum_fetches: 96,
        }
    }
}

/// SLICC parameters (modeled after the structures in Table 4).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SliccParams {
    /// Missed-tag queue length (Table 4: 60 bits ≈ 5 tags).
    pub mtq_len: usize,
    /// Miss shift-vector length in fetches (Table 4: 100 bits). At most
    /// 128: the history is kept in a 128-bit shift register, and
    /// [`SimConfig::validate`] rejects wider windows.
    pub window: usize,
    /// Misses within the window that signal a segment change.
    pub miss_burst: usize,
    /// L1-I fills a thread performs on one core before it spills to a
    /// fresh core (the thread has roughly filled the local cache with its
    /// current segment and should pipeline the next one elsewhere).
    pub fill_cap: usize,
    /// Missed tags a remote signature must cover to attract a migration.
    pub coverage_threshold: usize,
    /// SLICC teams hold up to `2 * n_cores` threads (Section 5.1).
    pub team_factor: usize,
    /// Minimum fetches a thread executes on a core between migrations
    /// (prevents ping-ponging while a segment is being established).
    pub min_residency: usize,
    /// Hits a thread must score on its current core before a miss burst is
    /// treated as a *segment transition* worth following to another cache.
    /// A thread missing since it landed is building a segment, not leaving
    /// one; following coverage then would convoy every same-code thread
    /// onto one core (and breaks small-footprint workloads, which must be
    /// unaffected by SLICC).
    pub min_hits_before_follow: usize,
}

impl Default for SliccParams {
    fn default() -> Self {
        SliccParams {
            mtq_len: 5,
            window: 100,
            miss_burst: 40,
            coverage_threshold: 4,
            fill_cap: 416,
            team_factor: 2,
            min_residency: 192,
            min_hits_before_follow: 128,
        }
    }
}

/// Which scheduler drives the simulation.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum SchedulerKind {
    /// Conventional run-to-completion assignment (the paper's baseline).
    #[default]
    Baseline,
    /// STREX stratified execution.
    Strex,
    /// SLICC thread migration.
    Slicc,
    /// The Section 5.5 hybrid: profiles footprints, then picks SLICC when
    /// the aggregate L1-I fits them, STREX otherwise.
    Hybrid,
}

impl SchedulerKind {
    /// All kinds, in Figure 6 comparison order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::Baseline,
        SchedulerKind::Strex,
        SchedulerKind::Slicc,
        SchedulerKind::Hybrid,
    ];

    /// The registry key this kind resolves to — `SchedulerKind` is a thin
    /// alias over the entries of
    /// [`sched::registry`](crate::sched::registry); the driver looks the
    /// key up there rather than matching on the enum.
    pub fn key(self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "baseline",
            SchedulerKind::Strex => "strex",
            SchedulerKind::Slicc => "slicc",
            SchedulerKind::Hybrid => "hybrid",
        }
    }

    /// The inverse of [`SchedulerKind::key`], for the built-in kinds.
    pub fn from_key(key: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.key() == key)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerKind::Baseline => "Base",
            SchedulerKind::Strex => "STREX",
            SchedulerKind::Slicc => "SLICC",
            SchedulerKind::Hybrid => "STREX+SLICC",
        };
        f.write_str(s)
    }
}

/// Full simulation configuration.
///
/// Construct through [`SimConfig::builder`], which validates the
/// invariants the simulator depends on and returns
/// `Result<SimConfig, ConfigError>`:
///
/// ```
/// use strex::config::{SchedulerKind, SimConfig};
///
/// let cfg = SimConfig::builder()
///     .cores(4)
///     .scheduler(SchedulerKind::Strex)
///     .team_size(8)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.system.n_cores, 4);
///
/// // Invalid combinations are rejected, not silently accepted:
/// assert!(SimConfig::builder().team_size(0).build().is_err());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct SimConfig {
    /// Hardware configuration (Table 2).
    pub system: SystemConfig,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// STREX parameters.
    pub strex: StrexParams,
    /// SLICC parameters.
    pub slicc: SliccParams,
}

impl Default for SimConfig {
    /// The paper's headline setup: Table 2 hardware with 16 cores under
    /// baseline scheduling.
    fn default() -> Self {
        SimConfig {
            system: SystemConfig::default(),
            scheduler: SchedulerKind::default(),
            strex: StrexParams::default(),
            slicc: SliccParams::default(),
        }
    }
}

impl SimConfig {
    /// Starts a builder at the defaults
    /// (`SimConfig::builder().build().unwrap() == SimConfig::default()`).
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// Compatibility shorthand: baseline Table 2 hardware with `n_cores`
    /// cores under `scheduler`. Prefer [`SimConfig::builder`] for anything
    /// beyond these two knobs.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero (use the builder for fallible
    /// construction).
    pub fn new(n_cores: usize, scheduler: SchedulerKind) -> Self {
        SimConfig {
            system: SystemConfig::with_cores(n_cores),
            scheduler,
            strex: StrexParams::default(),
            slicc: SliccParams::default(),
        }
    }

    /// Compatibility shorthand overriding the STREX team size (Figures 7
    /// and 8). Prefer [`SimConfigBuilder::team_size`], which validates.
    pub fn with_team_size(mut self, team_size: usize) -> Self {
        self.strex.team_size = team_size;
        self
    }

    /// Checks every invariant the simulator depends on.
    ///
    /// The builder calls this from [`SimConfigBuilder::build`]; it is also
    /// public so configurations assembled field-by-field (or mutated by
    /// sweep code) can be re-checked before running.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let n = self.system.n_cores;
        if n == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if n > MAX_CORES {
            return Err(ConfigError::TooManyCores { requested: n });
        }
        if self.strex.team_size == 0 {
            return Err(ConfigError::ZeroTeamSize);
        }
        if self.strex.formation_window < self.strex.team_size {
            return Err(ConfigError::FormationWindowTooSmall {
                window: self.strex.formation_window,
                team_size: self.strex.team_size,
            });
        }
        if self.slicc.window > 128 {
            return Err(ConfigError::SliccWindowTooWide {
                window: self.slicc.window,
            });
        }
        let l1i = self.system.l1i_geometry;
        if l1i.size_bytes() == 0 || l1i.assoc() == 0 {
            return Err(ConfigError::ZeroCacheGeometry { cache: "L1-I" });
        }
        let l1d = self.system.l1d_geometry;
        if l1d.size_bytes() == 0 || l1d.assoc() == 0 {
            return Err(ConfigError::ZeroCacheGeometry { cache: "L1-D" });
        }
        if self.system.l2_bytes_per_core == 0 || self.system.l2_assoc == 0 {
            return Err(ConfigError::ZeroCacheGeometry { cache: "L2" });
        }
        // The replacement state keeps one byte per way, so an LRU stack
        // deeper than a byte can count is unrepresentable.
        for (cache, assoc) in [
            ("L1-I", l1i.assoc()),
            ("L1-D", l1d.assoc()),
            ("L2", self.system.l2_assoc),
        ] {
            if assoc > strex_sim::replacement::MAX_ASSOC {
                return Err(ConfigError::AssociativityTooWide { cache, assoc });
            }
        }
        // The single-probe cache lookup indexes sets with a mask, so every
        // level needs a power-of-two set count (all Table 2 shapes qualify).
        for (cache, geom) in [("L1-I", l1i), ("L1-D", l1d)] {
            if !geom.has_pow2_sets() {
                return Err(ConfigError::NonPowerOfTwoSets {
                    cache,
                    sets: geom.sets(),
                });
            }
        }
        self.system
            .dram
            .check_shape()
            .map_err(ConfigError::InvalidDramShape)?;
        // The L2 geometry is derived here (per-slice caches are built
        // later from these two fields), so run the full fallible
        // constructor: uneven capacities must surface as an error now,
        // not as a panic inside `SharedL2::new`.
        match strex_sim::cache::CacheGeometry::try_new(
            self.system.l2_bytes_per_core,
            self.system.l2_assoc,
        ) {
            Ok(_) => Ok(()),
            Err(strex_sim::cache::GeometryError::Degenerate) => {
                Err(ConfigError::ZeroCacheGeometry { cache: "L2" })
            }
            Err(strex_sim::cache::GeometryError::UnevenSets { .. }) => {
                Err(ConfigError::UnevenCacheCapacity { cache: "L2" })
            }
            Err(strex_sim::cache::GeometryError::NonPowerOfTwoSets { sets }) => {
                Err(ConfigError::NonPowerOfTwoSets { cache: "L2", sets })
            }
        }
    }
}

/// Fluent, validating constructor for [`SimConfig`].
///
/// Every setter is infallible; [`SimConfigBuilder::build`] checks the
/// combined result once and reports the first violated invariant as a
/// [`ConfigError`].
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the core count (Table 2 evaluates 2, 4, 8 and 16).
    pub fn cores(mut self, n_cores: usize) -> Self {
        self.config.system.n_cores = n_cores;
        self
    }

    /// Sets the scheduling policy.
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Replaces the whole hardware configuration. The core count of a
    /// previously applied [`SimConfigBuilder::cores`] is overwritten.
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.config.system = system;
        self
    }

    /// Replaces the STREX parameter block.
    pub fn strex(mut self, strex: StrexParams) -> Self {
        self.config.strex = strex;
        self
    }

    /// Replaces the SLICC parameter block.
    pub fn slicc(mut self, slicc: SliccParams) -> Self {
        self.config.slicc = slicc;
        self
    }

    /// Sets the STREX team size (Figures 7 and 8 sweep this).
    pub fn team_size(mut self, team_size: usize) -> Self {
        self.config.strex.team_size = team_size;
        self
    }

    /// Sets the team-formation window (Section 4.3).
    pub fn formation_window(mut self, window: usize) -> Self {
        self.config.strex.formation_window = window;
        self
    }

    /// Sets the context-switch state size in blocks (Section 4.4.2).
    pub fn ctx_state_blocks(mut self, blocks: u64) -> Self {
        self.config.strex.ctx_state_blocks = blocks;
        self
    }

    /// Sets the minimum per-quantum fetch count (Section 4.4.2).
    pub fn min_quantum_fetches(mut self, fetches: u32) -> Self {
        self.config.strex.min_quantum_fetches = fetches;
        self
    }

    /// Sets the L1-I instruction prefetcher.
    pub fn prefetcher(mut self, prefetcher: strex_sim::prefetch::PrefetcherKind) -> Self {
        self.config.system.prefetcher = prefetcher;
        self
    }

    /// Sets the L1-I replacement policy (Figure 9 varies this).
    pub fn l1i_replacement(mut self, kind: strex_sim::replacement::ReplacementKind) -> Self {
        self.config.system.l1i_replacement = kind;
        self
    }

    /// Validates the assembled configuration.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let s = StrexParams::default();
        assert_eq!(s.team_size, 10);
        assert_eq!(s.formation_window, 30);
        let l = SliccParams::default();
        assert_eq!(l.mtq_len, 5);
        assert_eq!(l.window, 100);
        assert_eq!(l.team_factor, 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(SchedulerKind::Baseline.to_string(), "Base");
        assert_eq!(SchedulerKind::Hybrid.to_string(), "STREX+SLICC");
    }

    #[test]
    fn registry_keys_roundtrip() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(SchedulerKind::from_key("nope"), None);
    }

    #[test]
    fn builder_defaults_equal_default() {
        let built = SimConfig::builder().build().expect("defaults are valid");
        let default = SimConfig::default();
        assert_eq!(built.system, default.system);
        assert_eq!(built.scheduler, default.scheduler);
        assert_eq!(built.strex, default.strex);
        assert_eq!(built.slicc, default.slicc);
        assert_eq!(built, default);
    }

    #[test]
    fn builder_rejects_each_invariant_violation() {
        assert_eq!(
            SimConfig::builder().cores(0).build(),
            Err(ConfigError::ZeroCores)
        );
        assert_eq!(
            SimConfig::builder().cores(MAX_CORES + 1).build(),
            Err(ConfigError::TooManyCores {
                requested: MAX_CORES + 1
            })
        );
        assert_eq!(
            SimConfig::builder().team_size(0).build(),
            Err(ConfigError::ZeroTeamSize)
        );
        assert_eq!(
            SimConfig::builder()
                .team_size(12)
                .formation_window(4)
                .build(),
            Err(ConfigError::FormationWindowTooSmall {
                window: 4,
                team_size: 12
            })
        );
        // SLICC's miss history is a 128-bit shift register; a wider
        // window must be rejected here, not silently truncated.
        let wide = SliccParams {
            window: 129,
            ..SliccParams::default()
        };
        assert_eq!(
            SimConfig::builder().slicc(wide).build(),
            Err(ConfigError::SliccWindowTooWide { window: 129 })
        );
        assert!(SimConfig::builder()
            .slicc(SliccParams {
                window: 128,
                ..SliccParams::default()
            })
            .build()
            .is_ok());
        let mut degenerate = SystemConfig::with_cores(2);
        degenerate.l2_bytes_per_core = 0;
        assert_eq!(
            SimConfig::builder().system(degenerate).build(),
            Err(ConfigError::ZeroCacheGeometry { cache: "L2" })
        );
        // An L2 capacity that does not divide into sets is an error, not a
        // later panic inside SharedL2 construction.
        let mut uneven = SystemConfig::with_cores(2);
        uneven.l2_bytes_per_core = 1000;
        assert_eq!(
            SimConfig::builder().system(uneven).build(),
            Err(ConfigError::UnevenCacheCapacity { cache: "L2" })
        );
        // A 256-way level cannot be ordered by one replacement byte per
        // way: a typed error naming the cache, not a panic at build time.
        let mut wide = SystemConfig::with_cores(2);
        wide.l1d_geometry = strex_sim::cache::CacheGeometry::new(256 * 64, 256);
        assert_eq!(
            SimConfig::builder().system(wide).build(),
            Err(ConfigError::AssociativityTooWide {
                cache: "L1-D",
                assoc: 256
            })
        );
        // 255 ways is the widest accepted; 64 is a wide but valid L2.
        let mut widest = SystemConfig::with_cores(2);
        widest.l1d_geometry = strex_sim::cache::CacheGeometry::new(255 * 64, 255);
        widest.l2_assoc = 64;
        assert!(SimConfig::builder().system(widest).build().is_ok());
        // A divisible but non-power-of-two L2 set count is also an error.
        let mut non_pow2 = SystemConfig::with_cores(2);
        non_pow2.l2_bytes_per_core = 3 * 16 * 64; // 3 sets at 16 ways
        assert_eq!(
            SimConfig::builder().system(non_pow2).build(),
            Err(ConfigError::NonPowerOfTwoSets {
                cache: "L2",
                sets: 3
            })
        );
    }

    #[test]
    fn dram_shapes_are_typed_errors() {
        use strex_sim::memory::DramShapeError;

        // (banks per channel, row size in blocks, expected failure)
        for (banks_per_channel, row_blocks, error) in [
            (0, 128, DramShapeError::NoBanks),
            (
                3,
                128,
                DramShapeError::NonPowerOfTwo {
                    row_blocks: 128,
                    banks: 6,
                },
            ),
            (
                8,
                100,
                DramShapeError::NonPowerOfTwo {
                    row_blocks: 100,
                    banks: 16,
                },
            ),
        ] {
            let mut system = SystemConfig::with_cores(2);
            system.dram.banks_per_channel = banks_per_channel;
            system.dram.row_blocks = row_blocks;
            assert_eq!(
                SimConfig::builder().system(system).build(),
                Err(ConfigError::InvalidDramShape(error))
            );
        }
    }

    #[test]
    fn builder_applies_every_setter() {
        use strex_sim::prefetch::PrefetcherKind;
        use strex_sim::replacement::ReplacementKind;

        let cfg = SimConfig::builder()
            .cores(8)
            .scheduler(SchedulerKind::Hybrid)
            .team_size(6)
            .formation_window(24)
            .ctx_state_blocks(16)
            .min_quantum_fetches(32)
            .prefetcher(PrefetcherKind::NextLine)
            .l1i_replacement(ReplacementKind::Brrip)
            .build()
            .expect("valid");
        assert_eq!(cfg.system.n_cores, 8);
        assert_eq!(cfg.scheduler, SchedulerKind::Hybrid);
        assert_eq!(cfg.strex.team_size, 6);
        assert_eq!(cfg.strex.formation_window, 24);
        assert_eq!(cfg.strex.ctx_state_blocks, 16);
        assert_eq!(cfg.strex.min_quantum_fetches, 32);
        assert_eq!(cfg.system.prefetcher, PrefetcherKind::NextLine);
        assert_eq!(cfg.system.l1i_replacement, ReplacementKind::Brrip);
    }

    #[test]
    fn max_cores_is_exactly_the_sharer_mask_width() {
        assert_eq!(MAX_CORES, 64);
        let mut cfg = SimConfig::default();
        cfg.system.n_cores = MAX_CORES;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.system.n_cores = MAX_CORES + 1;
        assert!(cfg.validate().is_err());
    }
}
