//! The quick reproduction matrix outside the figures: the scale-out sweep
//! `repro scale` prints, and the campaign a `repro serve`/`work`/`submit`
//! fleet runs.
//!
//! [`quick_matrix_workloads`] and [`quick_campaign`] declare the matrix:
//! every workload × every scheduler × the quick core counts, the cells of
//! the quick Figures 5/6. [`campaign_scaling_sweep`] runs it through the
//! sharded executor at several worker counts in interleaved rounds and
//! checks every run bit-identical to the sequential reference.
//! [`QuickRunner`] serves it to the dispatcher under the catalog name
//! [`QUICK_CAMPAIGN`], and `submit --verify` re-runs it in process.
//!
//! How fast one build simulates against another is measured by the
//! end-to-end benchmark in `benchmark/`, not here.

use std::sync::Arc;

use strex::campaign::{scaling_efficiency, Campaign, CampaignShard, ShardSpec};
use strex::config::SchedulerKind;
use strex_oltp::workload::{Workload, WorkloadKind};

use crate::experiments::{Effort, MATRIX_POOL, SEED};

/// The host's available parallelism: the top of `repro scale`'s sweep
/// and the cap on each point's effective cores.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One point of [`campaign_scaling_sweep`]: the quick matrix on `workers`
/// workers against the sequential reference measured in the same rounds,
/// with every result checked bit-identical before any number is reported.
#[derive(Copy, Clone, Debug)]
pub struct CampaignScaling {
    /// Worker threads of the multi-worker run.
    pub workers: usize,
    /// `min(workers, available_parallelism)` — the parallelism the host
    /// could actually grant, which scaling efficiency is judged against
    /// (oversubscribing a small host is not a scaling failure of the
    /// executor; see [`strex::campaign::scaling_efficiency`]).
    pub effective_cores: usize,
    /// Aggregate events/sec of the 1-worker (sequential) reference, the
    /// median of its rounds.
    pub single_events_per_sec: f64,
    /// Aggregate events/sec of the `workers`-worker runs, the median of
    /// their rounds.
    pub events_per_sec: f64,
}

impl CampaignScaling {
    /// Multi-worker throughput normalized per *effective* core.
    pub fn events_per_sec_per_core(&self) -> f64 {
        if self.effective_cores > 0 {
            self.events_per_sec / self.effective_cores as f64
        } else {
            0.0
        }
    }

    /// Scaling efficiency against the sequential run on the effective
    /// cores (1.0 = perfect linear scaling).
    pub fn efficiency(&self) -> f64 {
        scaling_efficiency(
            self.single_events_per_sec,
            self.events_per_sec,
            self.effective_cores,
        )
    }
}

/// The quick reproduction matrix's workloads — one source shared by the
/// in-process scaling sweep and every `repro work` worker (all processes
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
/// a shard re-assigned with a checkpoint skips the cells some dead
/// worker already simulated, and progress is reported cell by cell so
/// the coordinator always holds a fresh resume point.
#[derive(Default)]
pub struct QuickRunner;

impl strex::dispatch::ShardRunner for QuickRunner {
    fn run(&mut self, campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String> {
        self.run_resumable(campaign, spec, None, &mut |_| {})
    }

    fn run_resumable(
        &mut self,
        campaign: &str,
        spec: ShardSpec,
        checkpoint: Option<strex::campaign::ShardCheckpoint>,
        on_cell: &mut dyn FnMut(&strex::campaign::ShardCheckpoint),
    ) -> Result<CampaignShard, String> {
        if campaign != QUICK_CAMPAIGN {
            return Err(format!("worker has no runner for campaign {campaign:?}"));
        }
        let workloads = quick_matrix_workloads();
        let quick = quick_campaign(&workloads);
        let run = match quick.run_shard_resumable(spec, checkpoint, on_cell) {
            // A checkpoint that does not line up with this build's quick
            // matrix (version skew across the fleet) costs a fresh run,
            // never a failed worker.
            Err(strex::ConfigError::CheckpointMismatch { .. }) => {
                quick.run_shard_resumable(spec, None, on_cell)
            }
            other => other,
        };
        run.map_err(|e| e.to_string())
    }
}

/// How many interleaved rounds [`campaign_scaling_sweep`] measures. Each
/// round runs the reference and every sweep point once, so drift in the
/// host's speed lands on both sides of every ratio.
const SCALING_ROUNDS: usize = 3;

/// The sharded executor's scale-out over the quick matrix, one point per
/// worker count. Each of the `SCALING_ROUNDS` (3) rounds runs the
/// 1-worker reference and then every other distinct worker count once,
/// and every run is checked bit-identical to the first. A point's
/// throughput is the median of its rounds, judged against the median of
/// the reference runs from the same rounds; a 1-worker point *is* the
/// reference, so its efficiency is exactly 1.0.
pub fn campaign_scaling_sweep(worker_counts: &[usize]) -> Vec<CampaignScaling> {
    let workloads = quick_matrix_workloads();
    let mut counts = vec![1];
    for &workers in worker_counts {
        if !counts.contains(&workers) {
            counts.push(workers);
        }
    }
    let mut samples = vec![Vec::with_capacity(SCALING_ROUNDS); counts.len()];
    let mut golden: Option<String> = None;
    for _ in 0..SCALING_ROUNDS {
        for (runs, &workers) in samples.iter_mut().zip(&counts) {
            let result = quick_campaign(&workloads)
                .parallelism(workers)
                .run()
                .expect("quick matrix is valid");
            let json = result.to_json();
            match &golden {
                None => golden = Some(json),
                Some(golden) => assert_eq!(
                    golden, &json,
                    "sharded executor diverged from sequential at {workers} workers"
                ),
            }
            runs.push(result.perf().events_per_sec());
        }
    }
    scaling_points(worker_counts, &counts, &samples, host_cores())
}

/// The sweep's rows from its per-round throughputs: `samples[i]` holds
/// the rounds of `counts[i]` workers, and `counts[0]` is the 1-worker
/// reference.
fn scaling_points(
    worker_counts: &[usize],
    counts: &[usize],
    samples: &[Vec<f64>],
    host_cores: usize,
) -> Vec<CampaignScaling> {
    let reference = median(&samples[0]);
    worker_counts
        .iter()
        .map(|&workers| {
            let i = counts
                .iter()
                .position(|&c| c == workers)
                .expect("every requested count was measured");
            CampaignScaling {
                workers,
                effective_cores: host_cores.min(workers).max(1),
                single_events_per_sec: reference,
                events_per_sec: median(&samples[i]),
            }
        })
        .collect()
}

/// The middle value (the mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_scaling_point_is_the_reference() {
        // Noisy rounds on purpose: the 1-worker row must still read
        // exactly 1.0, because it is the reference rather than a rerun.
        let counts = [1, 2, 4];
        let samples = vec![
            vec![1000.0, 1100.0, 900.0],
            vec![1700.0, 1900.0, 1800.0],
            vec![1750.0, 1850.0, 1800.0],
        ];
        let points = scaling_points(&[1, 2, 4], &counts, &samples, 2);
        assert_eq!(points[0].efficiency(), 1.0);
        assert_eq!(points[0].events_per_sec, 1000.0);
        assert_eq!(points[1].single_events_per_sec, 1000.0);
        assert!((points[1].efficiency() - 0.9).abs() < 1e-12);
        assert_eq!(points[2].effective_cores, 2);
        assert_eq!(points[2].events_per_sec_per_core(), 900.0);
        assert!((points[2].efficiency() - 0.9).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn quick_matrix_pools_are_pinned() {
        // Every quick-matrix cell simulates one L1 access per packed
        // event, so these totals fix what the quick Figures 5/6, `repro
        // scale` and the dispatch catalog simulate: 8 cells per pool,
        // 18,392,560 events over the matrix. A generator change that
        // moves any of them is a change of results, not of speed.
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
