//! The quick reproduction matrix outside the figures: the campaign a
//! `repro serve`/`work`/`submit` fleet runs.
//!
//! [`quick_matrix_workloads`] and [`quick_campaign`] declare the matrix:
//! every workload × every scheduler × the quick core counts, the cells of
//! the quick Figures 5/6. [`QuickRunner`] serves it to the dispatcher
//! under the catalog name [`QUICK_CAMPAIGN`], and `submit --verify`
//! re-runs it in process.
//!
//! How fast one build simulates against another is measured by the
//! end-to-end benchmark in `benchmark/`, not here.

use std::sync::Arc;

use strex::campaign::{Campaign, CampaignCell, CampaignShard, ShardSpec};
use strex::config::SchedulerKind;
use strex_oltp::workload::{Workload, WorkloadKind};

use crate::experiments::{Effort, MATRIX_POOL, SEED};

/// The quick reproduction matrix's workloads — one source shared by
/// `submit --verify` and every `repro work` worker (all processes
/// of a fleet must agree on the matrix cell for cell, which they do
/// because each rebuilds it from this function and the fixed [`SEED`]).
/// Within one process the pools come from the
/// [`WorkloadCache`](strex_oltp::cache::WorkloadCache), so a dispatch
/// worker serving many shards, or a `submit --verify` run, generates
/// each trace pool exactly once.
pub fn quick_matrix_workloads() -> Vec<Arc<Workload>> {
    WorkloadKind::ALL
        .into_iter()
        .map(|wk| Effort::Quick.workload(wk, MATRIX_POOL, SEED))
        .collect()
}

/// The quick matrix (every workload × every scheduler × the quick core
/// counts) as a campaign over `workloads`.
pub fn quick_campaign(workloads: &[Arc<Workload>]) -> Campaign<'_> {
    let base = strex::config::SimConfig::builder()
        .build()
        .expect("default configuration is valid");
    Campaign::new(base)
        .over_schedulers(SchedulerKind::ALL)
        .over_workloads(workloads.iter().map(|w| &**w))
        .over_cores(Effort::Quick.core_counts())
}

/// The catalog name the dispatcher knows the quick matrix by: what
/// `repro serve` accepts, `repro submit` submits, and `repro work` runs
/// through [`QuickRunner`]. One constant so the three CLIs cannot drift.
pub const QUICK_CAMPAIGN: &str = "quick";

/// The campaign names a `repro serve` coordinator accepts.
pub fn dispatch_catalog() -> Vec<String> {
    vec![QUICK_CAMPAIGN.to_string()]
}

/// The [`strex::dispatch::ShardRunner`] a `repro work` worker serves
/// with: maps the catalog names to their shard executors, resumably —
/// a shard re-assigned with finished cells skips what some dead worker
/// already simulated, and each finished cell is reported once so the
/// coordinator always holds everything done so far.
#[derive(Default)]
pub struct QuickRunner;

impl strex::dispatch::ShardRunner for QuickRunner {
    fn run(&mut self, campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String> {
        self.run_resumable(campaign, spec, Vec::new(), &mut |_, _| {})
    }

    fn run_resumable(
        &mut self,
        campaign: &str,
        spec: ShardSpec,
        done: Vec<(usize, CampaignCell)>,
        on_cell: &mut dyn FnMut(usize, &CampaignCell),
    ) -> Result<CampaignShard, String> {
        if campaign != QUICK_CAMPAIGN {
            return Err(format!("worker has no runner for campaign {campaign:?}"));
        }
        let workloads = quick_matrix_workloads();
        quick_campaign(&workloads)
            .run_shard_resumable(spec, done, on_cell)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_pools_are_pinned() {
        // Every quick-matrix cell simulates one L1 access per packed
        // event, so these totals fix what the quick Figures 5/6 and the
        // dispatch catalog simulate: 8 cells per pool, 18,392,560 events
        // over the matrix. A generator change that moves any of them is a
        // change of results, not of speed.
        let pools: Vec<(&str, u64, u64)> = quick_matrix_workloads()
            .iter()
            .map(|w| {
                let events = w.txns().iter().map(|t| t.len() as u64).sum();
                (w.name(), events, w.total_instructions())
            })
            .collect();
        assert_eq!(
            pools,
            [
                ("TPC-C-1", 974_694, 10_586_194),
                ("TPC-C-10", 978_621, 10_618_467),
                ("TPC-E", 191_514, 2_105_352),
                ("MapReduce", 154_241, 1_596_780),
            ]
        );
    }
}
