//! Configuration validation errors.

use std::error::Error;
use std::fmt;

/// Why a [`SimConfig`](crate::config::SimConfig) failed validation.
///
/// Returned by [`SimConfigBuilder::build`](crate::config::SimConfigBuilder::build)
/// and [`SimConfig::validate`](crate::config::SimConfig::validate).
#[derive(Clone, Eq, PartialEq, Debug)]
#[non_exhaustive]
pub enum ConfigError {
    /// The system has no cores.
    ZeroCores,
    /// More cores than a coherence sharer mask has bits (one bit per
    /// core, so at most [`MAX_CORES`](crate::config::MAX_CORES)).
    TooManyCores {
        /// The rejected core count.
        requested: usize,
    },
    /// STREX teams must hold at least one transaction.
    ZeroTeamSize,
    /// Team formation cannot examine fewer transactions than fit in one
    /// team (Section 4.3: the window is where teams are drawn from).
    FormationWindowTooSmall {
        /// The rejected window.
        window: usize,
        /// The configured team size it must cover.
        team_size: usize,
    },
    /// SLICC's miss shift-vector is a 128-bit register; wider windows
    /// cannot be represented.
    SliccWindowTooWide {
        /// The rejected window length in fetches.
        window: usize,
    },
    /// A cache level has zero capacity or zero associativity.
    ZeroCacheGeometry {
        /// Which cache: `"L1-I"`, `"L1-D"`, or `"L2"`.
        cache: &'static str,
    },
    /// A cache level's capacity does not divide evenly into
    /// `assoc`-way sets of 64-byte blocks.
    UnevenCacheCapacity {
        /// Which cache: `"L1-I"`, `"L1-D"`, or `"L2"`.
        cache: &'static str,
    },
    /// A cache level has more ways than its one-byte-per-way replacement
    /// state can order ([`MAX_ASSOC`](strex_sim::replacement::MAX_ASSOC)).
    AssociativityTooWide {
        /// Which cache: `"L1-I"`, `"L1-D"`, or `"L2"`.
        cache: &'static str,
        /// The rejected associativity.
        assoc: usize,
    },
    /// A cache level's set count is not a power of two, which the
    /// single-probe (mask-indexed) cache lookup requires. All of the
    /// paper's geometries (Table 2) qualify.
    NonPowerOfTwoSets {
        /// Which cache: `"L1-I"`, `"L1-D"`, or `"L2"`.
        cache: &'static str,
        /// The rejected set count.
        sets: usize,
    },
    /// The DRAM shape cannot be addressed: no banks, or a row size or
    /// bank count that is not a power of two.
    InvalidDramShape(strex_sim::memory::DramShapeError),
    /// The scheduler name is not present in the registry consulted.
    UnknownScheduler {
        /// The name that failed to resolve.
        name: String,
    },
    /// A [`ShardSpec`](crate::campaign::ShardSpec) does not name a valid
    /// shard: the count is zero or the index is out of range.
    InvalidShard {
        /// The rejected shard index.
        index: usize,
        /// The rejected shard count.
        count: usize,
    },
    /// A finished cell offered to
    /// [`Campaign::run_shard_resumable`](crate::campaign::Campaign::run_shard_resumable)
    /// does not belong to the shard (or matrix) it was offered to resume.
    CheckpointMismatch {
        /// Which cell disagreed, and how.
        detail: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCores => write!(f, "core count must be at least 1"),
            ConfigError::TooManyCores { requested } => write!(
                f,
                "core count {requested} exceeds the {} cores a coherence sharer mask holds",
                crate::config::MAX_CORES
            ),
            ConfigError::ZeroTeamSize => write!(f, "STREX team size must be at least 1"),
            ConfigError::FormationWindowTooSmall { window, team_size } => write!(
                f,
                "formation window {window} cannot cover a team of {team_size}"
            ),
            ConfigError::SliccWindowTooWide { window } => write!(
                f,
                "SLICC miss window {window} exceeds the 128-bit shift register"
            ),
            ConfigError::ZeroCacheGeometry { cache } => {
                write!(f, "{cache} cache has zero capacity or associativity")
            }
            ConfigError::UnevenCacheCapacity { cache } => {
                write!(f, "{cache} cache capacity does not divide evenly into sets")
            }
            ConfigError::AssociativityTooWide { cache, assoc } => write!(
                f,
                "{cache} cache is {assoc}-way; at most {} ways are supported",
                strex_sim::replacement::MAX_ASSOC
            ),
            ConfigError::NonPowerOfTwoSets { cache, sets } => write!(
                f,
                "{cache} cache has {sets} sets; set counts must be powers of two"
            ),
            ConfigError::InvalidDramShape(e) => write!(f, "invalid DRAM shape: {e}"),
            ConfigError::UnknownScheduler { name } => {
                write!(f, "scheduler {name:?} is not registered")
            }
            ConfigError::InvalidShard { index, count } => {
                write!(
                    f,
                    "shard {index}/{count} is not a valid shard of a campaign"
                )
            }
            ConfigError::CheckpointMismatch { detail } => {
                write!(f, "checkpoint does not match this shard: {detail}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        assert!(ConfigError::ZeroCores.to_string().contains("at least 1"));
        assert!(ConfigError::TooManyCores { requested: 1 << 20 }
            .to_string()
            .contains("1048576"));
        assert!(ConfigError::FormationWindowTooSmall {
            window: 3,
            team_size: 8
        }
        .to_string()
        .contains("3"));
        assert!(ConfigError::ZeroCacheGeometry { cache: "L2" }
            .to_string()
            .contains("L2"));
        assert!(ConfigError::NonPowerOfTwoSets {
            cache: "L1-I",
            sets: 3
        }
        .to_string()
        .contains("3 sets"));
        assert!(ConfigError::AssociativityTooWide {
            cache: "L1-D",
            assoc: 256
        }
        .to_string()
        .contains("L1-D cache is 256-way"));
        assert!(ConfigError::UnevenCacheCapacity { cache: "L2" }
            .to_string()
            .contains("divide evenly"));
        assert!(ConfigError::UnknownScheduler {
            name: "nope".into()
        }
        .to_string()
        .contains("nope"));
        assert!(ConfigError::InvalidShard { index: 3, count: 2 }
            .to_string()
            .contains("3/2"));
    }
}
