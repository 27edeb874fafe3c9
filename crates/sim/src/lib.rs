//! # strex-sim
//!
//! Cycle-approximate chip-multiprocessor **memory hierarchy simulator** — the
//! hardware substrate of the STREX (ISCA 2013) reproduction.
//!
//! The crate models the system of Table 2 of the paper:
//!
//! * private per-core 32 KB / 8-way L1 instruction and data caches with
//!   64-byte blocks and pluggable replacement policies
//!   ([`replacement::ReplacementKind`]: LRU, LIP, BIP, SRRIP, BRRIP);
//! * MESI coherence across the L1-Ds ([`coherence::Directory`]);
//! * a shared NUCA L2 (1 MB per core, 16-way, 16-cycle hit) whose slices are
//!   interleaved across a 2-D torus ([`l2::SharedL2`], [`interconnect::Torus`]);
//! * a DDR3-style DRAM latency model ([`memory::Dram`]);
//! * instruction prefetchers ([`prefetch::PrefetcherKind`]): a next-line
//!   prefetcher and the paper's idealized-PIF upper bound;
//! * per-core cache *signatures* ([`signature::CacheSignature`]) used by the
//!   SLICC scheduler to locate code segments in remote caches.
//!
//! Two STREX-specific hooks distinguish this hierarchy from a generic cache
//! simulator: every L1-I frame carries an **8-bit phase tag** (the paper's
//! PIDT), and instruction fetches report the **victim block and its tag**,
//! which is exactly the signal STREX's victim monitor consumes.
//!
//! ## Quick example
//!
//! ```
//! use strex_sim::addr::BlockAddr;
//! use strex_sim::config::SystemConfig;
//! use strex_sim::hierarchy::MemorySystem;
//! use strex_sim::ids::CoreId;
//!
//! let mut mem = MemorySystem::new(SystemConfig::with_cores(4));
//! let core = CoreId::new(0);
//! let fetch = mem.fetch_inst(core, BlockAddr::new(0x100), /*phase*/ 0, /*now*/ 0);
//! assert!(!fetch.hit); // cold cache
//! mem.add_instructions(core, 10);
//! assert!(mem.stats().i_mpki() > 0.0);
//! ```

pub mod addr;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod hierarchy;
pub mod ids;
pub mod interconnect;
pub mod l2;
pub mod memory;
pub mod prefetch;
pub mod replacement;
pub mod signature;
pub mod stats;
pub mod wayscan;

pub use addr::{Addr, AddrRange, BlockAddr, BLOCK_SIZE};
pub use cache::{CacheGeometry, GeometryError, Probe, SetAssocCache, Victim};
pub use config::SystemConfig;
pub use hierarchy::{DataAccess, InstFetch, MemorySystem};
pub use ids::{CoreId, Cycle, PhaseId, ThreadId, TxnTypeId};
pub use prefetch::PrefetcherKind;
pub use replacement::ReplacementKind;
pub use stats::{CoreStats, SystemStats};
