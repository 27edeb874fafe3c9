//! Main-memory (DDR3) latency model.
//!
//! Table 2 of the paper specifies DDR3-1600 with a 42 ns access latency, two
//! channels, one rank, eight banks and an open-page policy. At the 2.5 GHz
//! core clock, 42 ns is 105 core cycles. This model keeps per-bank open-row
//! state: a row hit saves the precharge + activate portion of the latency,
//! a row conflict pays it. Queueing is modeled with a per-bank busy-until
//! timestamp, which captures bank-conflict serialization without a full
//! controller model (documented substitution; identical for all schedulers).

use std::fmt;

use crate::addr::BlockAddr;
use crate::ids::Cycle;

/// Configuration of the DRAM model, in core cycles.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct DramConfig {
    /// Cycles for a row-buffer hit (CAS + transfer + wire).
    pub row_hit_latency: u64,
    /// Extra cycles for a row conflict (precharge + activate).
    pub row_conflict_penalty: u64,
    /// Cycles a bank stays busy per request (tRC-derived occupancy).
    pub bank_occupancy: u64,
    /// Number of channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row size in cache blocks (open-page granularity).
    pub row_blocks: u64,
}

impl Default for DramConfig {
    /// Table 2 values mapped to 2.5 GHz core cycles: 42 ns ≈ 105 cycles
    /// total for a row-miss access; a row hit saves tRP + tRCD
    /// (10 + 10 bus cycles at 800 MHz ≈ 62 core cycles are split between
    /// hit latency and conflict penalty below).
    fn default() -> Self {
        DramConfig {
            row_hit_latency: 60,
            row_conflict_penalty: 45,
            bank_occupancy: 30,
            channels: 2,
            banks_per_channel: 8,
            row_blocks: 128, // 8 KB rows / 64 B blocks
        }
    }
}

impl DramConfig {
    /// Checks the shape [`Dram::new`] needs: at least one bank, and a
    /// power-of-two row size and total bank count (the bank and row of a
    /// block are bit fields of its index).
    pub fn check_shape(&self) -> Result<(), DramShapeError> {
        let banks = self.channels.saturating_mul(self.banks_per_channel) as u64;
        if banks == 0 {
            Err(DramShapeError::NoBanks)
        } else if !self.row_blocks.is_power_of_two() || !banks.is_power_of_two() {
            Err(DramShapeError::NonPowerOfTwo {
                row_blocks: self.row_blocks,
                banks,
            })
        } else {
            Ok(())
        }
    }
}

/// Why a [`DramConfig`] shape is unusable.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum DramShapeError {
    /// Zero channels or zero banks per channel.
    NoBanks,
    /// The row size or the total bank count is not a power of two.
    NonPowerOfTwo {
        /// The rejected row size, in cache blocks.
        row_blocks: u64,
        /// The rejected total bank count (channels × banks per channel).
        banks: u64,
    },
}

impl fmt::Display for DramShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramShapeError::NoBanks => write!(f, "DRAM needs at least one bank"),
            DramShapeError::NonPowerOfTwo { row_blocks, banks } => write!(
                f,
                "DRAM row size ({row_blocks}) and bank count ({banks}) must be powers of two"
            ),
        }
    }
}

impl std::error::Error for DramShapeError {}

#[derive(Copy, Clone, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

/// Statistics kept by the DRAM model.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct DramStats {
    /// Total requests served.
    pub requests: u64,
    /// Requests that hit the open row.
    pub row_hits: u64,
    /// Requests delayed by a busy bank.
    pub bank_conflicts: u64,
}

/// The DRAM latency model.
///
/// # Examples
///
/// ```
/// use strex_sim::addr::BlockAddr;
/// use strex_sim::memory::Dram;
///
/// let mut dram = Dram::default();
/// let first = dram.access(BlockAddr::new(0), 0);
/// let again = dram.access(BlockAddr::new(1), first);
/// assert!(again < first, "second access hits the open row");
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
    /// Block-index bits below the bank field (log2 of the row size).
    row_shift: u32,
    /// Bank-field mask (bank count − 1).
    bank_mask: u64,
    /// Block-index bits below the row number (row bits + bank bits).
    row_of_shift: u32,
}

impl Default for Dram {
    fn default() -> Self {
        Dram::new(DramConfig::default())
    }
}

impl Dram {
    /// Creates a DRAM model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the shape fails [`DramConfig::check_shape`].
    pub fn new(cfg: DramConfig) -> Self {
        if let Err(e) = cfg.check_shape() {
            panic!("{e}");
        }
        let total_banks = (cfg.channels * cfg.banks_per_channel) as u64;
        Dram {
            cfg,
            banks: vec![Bank::default(); total_banks as usize],
            stats: DramStats::default(),
            row_shift: cfg.row_blocks.trailing_zeros(),
            bank_mask: total_banks - 1,
            row_of_shift: cfg.row_blocks.trailing_zeros() + total_banks.trailing_zeros(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    #[inline]
    fn bank_of(&self, block: BlockAddr) -> usize {
        // Channel interleaving on low block bits, bank on the next bits —
        // adjacent blocks spread over channels, rows stay within a bank.
        ((block.index() >> self.row_shift) & self.bank_mask) as usize
    }

    #[inline]
    fn row_of(&self, block: BlockAddr) -> u64 {
        block.index() >> self.row_of_shift
    }

    /// Serves a block request arriving at `now`; returns the access latency
    /// in cycles (including any time queued behind the bank).
    ///
    /// Queueing is bounded: outstanding misses are limited by the MSHRs in
    /// front of the memory controller (Table 2: 64 at the L2), so a request
    /// can wait behind at most a few bank-occupancy slots. The cap also
    /// keeps the cycle-approximate core skew (cores are simulated in
    /// batches) from manufacturing phantom queueing.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, now: Cycle) -> u64 {
        self.stats.requests += 1;
        let row = self.row_of(block);
        let bank_idx = self.bank_of(block);
        let bank = &mut self.banks[bank_idx];

        let queue_cap = self.cfg.bank_occupancy * 6;
        let queue_delay = bank.busy_until.saturating_sub(now).min(queue_cap);
        if queue_delay > 0 {
            self.stats.bank_conflicts += 1;
        }

        let service = if bank.open_row == Some(row) {
            self.stats.row_hits += 1;
            self.cfg.row_hit_latency
        } else {
            bank.open_row = Some(row);
            self.cfg.row_hit_latency + self.cfg.row_conflict_penalty
        };

        let start = now + queue_delay;
        bank.busy_until = bank.busy_until.max(start).min(now + queue_cap) + self.cfg.bank_occupancy;
        queue_delay + service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_row_conflict() {
        let mut d = Dram::default();
        let lat = d.access(BlockAddr::new(0), 0);
        assert_eq!(
            lat,
            d.config().row_hit_latency + d.config().row_conflict_penalty
        );
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn open_row_hit_is_cheaper() {
        let mut d = Dram::default();
        let miss = d.access(BlockAddr::new(0), 0);
        let hit = d.access(BlockAddr::new(1), 1000);
        assert!(hit < miss);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn bank_conflict_queues() {
        let mut d = Dram::default();
        let l1 = d.access(BlockAddr::new(0), 0);
        // Same bank, immediately after: must queue.
        let l2 = d.access(BlockAddr::new(1), 0);
        assert!(l2 > l1 - d.config().row_conflict_penalty);
        assert_eq!(d.stats().bank_conflicts, 1);
    }

    #[test]
    fn different_banks_do_not_queue() {
        let mut d = Dram::default();
        let row_blocks = d.config().row_blocks;
        d.access(BlockAddr::new(0), 0);
        let l2 = d.access(BlockAddr::new(row_blocks), 0); // next bank
        assert_eq!(d.stats().bank_conflicts, 0);
        assert_eq!(
            l2,
            d.config().row_hit_latency + d.config().row_conflict_penalty
        );
    }

    #[test]
    fn distinct_rows_conflict_in_same_bank() {
        let mut d = Dram::default();
        let stride = d.config().row_blocks * d.banks.len() as u64;
        d.access(BlockAddr::new(0), 0);
        let lat = d.access(BlockAddr::new(stride), 10_000);
        assert_eq!(
            lat,
            d.config().row_hit_latency + d.config().row_conflict_penalty,
            "new row in same bank pays the conflict penalty"
        );
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn a_non_power_of_two_shape_is_refused() {
        Dram::new(DramConfig {
            banks_per_channel: 3,
            ..DramConfig::default()
        });
    }

    #[test]
    fn stats_count_requests() {
        let mut d = Dram::default();
        for i in 0..10 {
            d.access(BlockAddr::new(i), i * 1000);
        }
        assert_eq!(d.stats().requests, 10);
    }
}
