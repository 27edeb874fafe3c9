//! The checkpoint/resume determinism guarantee, property-tested
//! differentially: a shard interrupted at *any* cell boundary and
//! resumed from the checkpoint observed there — after the checkpoint
//! round-trips through its JSON wire form — merges into a
//! `CampaignResult` byte-identical to the uninterrupted run. Plus the
//! typed-rejection surface: a checkpoint from the wrong shard, the
//! wrong matrix, or with a tampered cell must fail loudly with
//! `ConfigError::CheckpointMismatch`, never corrupt a merge.

use proptest::prelude::*;
use std::sync::OnceLock;

use strex::campaign::{merge, Campaign, CampaignShard, ShardCheckpoint, ShardSpec};
use strex::config::{SchedulerKind, SimConfig};
use strex::error::ConfigError;
use strex_oltp::workload::{Workload, WorkloadKind};

fn workloads() -> Vec<Workload> {
    vec![
        Workload::preset_small(WorkloadKind::TpccW1, 8, 7),
        Workload::preset_small(WorkloadKind::MapReduce, 8, 7),
    ]
}

fn campaign(workloads: &[Workload]) -> Campaign<'_> {
    Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
        .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
        .over_workloads(workloads)
}

/// The golden artifacts every interrupted run is measured against: the
/// sequential merged JSON and, per shard count, the uninterrupted shard
/// set (recomputed per call — shards carry wall-clock perf, but merge
/// drops it, so the merged JSON is stable).
fn golden() -> &'static String {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let w = workloads();
        campaign(&w).run().expect("valid campaign").to_json()
    })
}

fn run_shards(count: usize) -> Vec<CampaignShard> {
    let w = workloads();
    let c = campaign(&w);
    (0..count)
        .map(|index| {
            c.run_shard(ShardSpec { index, count })
                .expect("valid shard")
        })
        .collect()
}

/// Ships a checkpoint across a process boundary as JSON, exactly as the
/// dispatcher's `checkpoint` frames do.
fn round_trip(ckpt: &ShardCheckpoint) -> ShardCheckpoint {
    ShardCheckpoint::from_json(&ckpt.to_json()).expect("own JSON parses back")
}

/// Runs shard `spec` to completion while recording the checkpoint at
/// every cell boundary — the full set of states a preemption could have
/// left behind.
fn boundaries(spec: ShardSpec) -> Vec<ShardCheckpoint> {
    let w = workloads();
    let mut observed = vec![ShardCheckpoint::new(spec)];
    campaign(&w)
        .run_shard_resumable(spec, None, &mut |c| observed.push(c.clone()))
        .expect("valid shard");
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property. For a drawn shard layout, interrupt every
    /// shard at *every* cell boundary (including "before the first
    /// cell"), ship the checkpoint through the wire, resume, and require
    /// the merge of resumed + untouched peers to be byte-identical to the
    /// sequential run.
    #[test]
    fn resume_from_any_boundary_is_bit_identical_through_the_wire(count in 1usize..=3) {
        let w = workloads();
        let c = campaign(&w);
        let baseline = run_shards(count);
        for index in 0..count {
            let spec = ShardSpec { index, count };
            for ckpt in boundaries(spec) {
                let shipped = round_trip(&ckpt);
                prop_assert_eq!(shipped.cursor(), ckpt.cursor());
                prop_assert_eq!(shipped.cells().len(), ckpt.cells().len());
                let resumed = c
                    .run_shard_resumable(spec, Some(shipped), &mut |_| {})
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                let mut set = baseline.clone();
                set[index] = resumed;
                let merged = merge(set).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
                prop_assert_eq!(
                    merged.to_json(),
                    golden().clone(),
                    "resume at cursor {} of shard {} diverged",
                    ckpt.cursor(),
                    spec
                );
            }
        }
    }
}

/// A final checkpoint (cursor at the end, all cells done) resumes into
/// a shard that runs nothing new and still merges identically — the
/// no-op resume a worker performs when its predecessor died after the
/// last cell but before `shard_done` went out.
#[test]
fn resuming_a_finished_checkpoint_runs_nothing_and_merges_identically() {
    let spec = ShardSpec { index: 0, count: 1 };
    let final_ckpt = boundaries(spec).pop().expect("at least one boundary");
    let w = workloads();
    let mut fresh_cells = 0usize;
    let resumed = campaign(&w)
        .run_shard_resumable(spec, Some(final_ckpt), &mut |_| fresh_cells += 1)
        .expect("valid resume");
    assert_eq!(fresh_cells, 0, "every cell was adopted, none re-ran");
    let merged = merge([resumed]).expect("complete set");
    assert_eq!(merged.to_json(), *golden());
}

/// The rejection surface: a checkpoint that does not belong to the run
/// being resumed is a typed `CheckpointMismatch`, not silent corruption.
#[test]
fn foreign_checkpoints_are_rejected_with_a_typed_mismatch() {
    let w = workloads();
    let c = campaign(&w);
    let spec = ShardSpec { index: 0, count: 2 };
    let ckpt = boundaries(spec).pop().expect("boundary");

    // Wrong shard spec: the checkpoint names shard 0/2, the resume asks
    // for 1/2.
    let err = c
        .run_shard_resumable(
            ShardSpec { index: 1, count: 2 },
            Some(ckpt.clone()),
            &mut |_| {},
        )
        .expect_err("spec mismatch");
    assert!(
        matches!(err, ConfigError::CheckpointMismatch { .. }),
        "{err}"
    );

    // Wrong matrix: same spec, but the campaign resumed against has a
    // different cell set, so the recorded cells cannot line up.
    let other_workloads = vec![Workload::preset_small(WorkloadKind::Tpce, 8, 7)];
    let other = campaign(&other_workloads);
    let err = other
        .run_shard_resumable(spec, Some(ckpt), &mut |_| {})
        .expect_err("matrix mismatch");
    match err {
        ConfigError::CheckpointMismatch { ref detail } => {
            assert!(!detail.is_empty(), "{err}");
        }
        other => panic!("expected CheckpointMismatch, got {other}"),
    }
}

/// Both decode paths re-check the structural invariants: a cursor beyond
/// the matrix parses (the wire cannot know the matrix size) but is
/// rejected at resume; a tampered payload fails at decode.
#[test]
fn tampered_checkpoints_fail_at_decode_or_resume() {
    let spec = ShardSpec { index: 0, count: 1 };
    let ckpt = boundaries(spec).pop().expect("boundary");

    // A cursor far past the matrix is structurally valid wire but must
    // be refused by the resume's matrix checks.
    let json = ckpt
        .to_json()
        .replace(&format!("\"cursor\":{}", ckpt.cursor()), "\"cursor\":4096");
    let oversized = ShardCheckpoint::from_json(&json).expect("structurally valid");
    let w = workloads();
    let err = campaign(&w)
        .run_shard_resumable(spec, Some(oversized), &mut |_| {})
        .expect_err("cursor beyond matrix");
    assert!(
        matches!(err, ConfigError::CheckpointMismatch { .. }),
        "{err}"
    );

    // Renaming the checkpoint's header object must fail the decode, not
    // produce a half-parsed checkpoint.
    let renamed = ckpt.to_json().replacen("\"checkpoint\"", "\"progress\"", 1);
    assert!(ShardCheckpoint::from_json(&renamed).is_err());
}
