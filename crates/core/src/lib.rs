//! # strex
//!
//! Reproduction of **STREX** (Atta, Tözün, Tong, Ailamaki, Moshovos —
//! ISCA 2013): *Boosting Instruction Cache Reuse in OLTP Workloads Through
//! Stratified Transaction Execution*.
//!
//! OLTP transactions have instruction footprints far larger than an L1
//! instruction cache, so conventional run-to-completion scheduling thrashes
//! the L1-I continuously. STREX exploits the heavy code overlap between
//! *same-type* transactions: it groups them into **teams**, runs a team on
//! one core, and context-switches threads whenever they would evict a cache
//! block the team is still using (detected with per-block **phase tags**).
//! A *lead* transaction pays the misses for each cache-sized code segment;
//! the rest of the team hits.
//!
//! This crate implements the paper's four scheduling policies over the
//! `strex-sim` memory hierarchy and the `strex-oltp` workload model:
//!
//! * [`sched::BaselineSched`] — conventional run-to-completion;
//! * [`sched::StrexSched`] — stratified execution (Section 4);
//! * [`sched::SliccSched`] — the SLICC thread-migration comparison point;
//! * [`sched::HybridSched`] — the Section 5.5 FPTable-based selector.
//!
//! ## Quick example
//!
//! Single runs go through the validating builder and [`driver::run`]:
//!
//! ```no_run
//! use strex::config::{SchedulerKind, SimConfig};
//! use strex::driver::run;
//! use strex_oltp::workload::{Workload, WorkloadKind};
//!
//! let workload = Workload::preset_small(WorkloadKind::TpccW1, 16, 42);
//! let cfg = |kind| {
//!     SimConfig::builder()
//!         .cores(4)
//!         .scheduler(kind)
//!         .build()
//!         .expect("valid configuration")
//! };
//! let base = run(&workload, &cfg(SchedulerKind::Baseline));
//! let strex = run(&workload, &cfg(SchedulerKind::Strex));
//! println!(
//!     "I-MPKI {:.1} -> {:.1}, speedup {:.2}x",
//!     base.i_mpki(),
//!     strex.i_mpki(),
//!     strex.relative_throughput(&base),
//! );
//! ```
//!
//! Whole evaluations — the paper's scheduler × workload × core matrices —
//! go through [`campaign::Campaign`], which runs every cell on a worker
//! pool and serializes results to JSON:
//!
//! ```no_run
//! use strex::campaign::Campaign;
//! use strex::config::{SchedulerKind, SimConfig};
//! use strex_oltp::workload::{Workload, WorkloadKind};
//!
//! let w = Workload::preset_small(WorkloadKind::TpccW1, 24, 42);
//! let result = Campaign::new(SimConfig::default())
//!     .over_schedulers(SchedulerKind::ALL)
//!     .over_workloads([&w])
//!     .over_cores([2, 4, 8, 16])
//!     .run()
//!     .expect("valid matrix");
//! println!("{}", result.to_json());
//! ```
//!
//! Custom scheduling policies implement
//! [`sched::registry::SchedulerFactory`] and register by name — the
//! driver and campaigns resolve policies through the registry, never a
//! hard-coded list.

pub mod campaign;
pub mod config;
pub mod cost;
pub mod dispatch;
pub mod driver;
pub mod error;
pub mod json;
pub mod jsonval;
pub mod report;
pub mod scenario;
pub mod sched;
pub mod team;
pub mod thread;

pub use campaign::{
    fnv64, merge, Campaign, CampaignCell, CampaignPerf, CampaignResult, CampaignShard, CellKey,
    MergeError, ShardSpec,
};
pub use config::{SchedulerKind, SimConfig, SimConfigBuilder, SliccParams, StrexParams};
pub use dispatch::DispatchError;
pub use driver::{run, run_with, SimScratch};
pub use error::ConfigError;
pub use jsonval::{JsonValue, WireError};
pub use report::Report;
pub use scenario::{Assertion, AssertionOutcome, CellSelector, Metric, Scenario, ScenarioError};
pub use sched::registry::{SchedulerFactory, SchedulerRegistry};
pub use sched::{FpTable, Scheduler};
pub use team::{form_teams, Team};
pub use thread::TxnThread;
