//! The resume determinism guarantee, property-tested differentially: a
//! shard resumed from *any* subset of the cells it already finished —
//! after those cells travel through an `assign` frame's JSON, exactly as
//! the coordinator re-assigns a lost shard — merges into a
//! `CampaignResult` byte-identical to the uninterrupted run. Plus the
//! typed-rejection surface: a finished cell from another matrix, another
//! shard or another index must fail loudly with
//! `ConfigError::CheckpointMismatch`, never corrupt a merge.

use proptest::prelude::*;
use std::sync::OnceLock;

use strex::campaign::{merge, Campaign, CampaignCell, CampaignShard, ShardSpec};
use strex::config::{SchedulerKind, SimConfig};
use strex::dispatch::{JobSpec, Message};
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

/// The golden artifact every resumed run is measured against: the
/// sequential merged JSON.
fn golden() -> &'static String {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let w = workloads();
        campaign(&w).run().expect("valid campaign").to_json()
    })
}

/// Every cell `spec` finishes, with its matrix index.
fn finished(c: &Campaign<'_>, spec: ShardSpec) -> Vec<(usize, CampaignCell)> {
    c.run_shard(spec).expect("valid shard").cells().to_vec()
}

/// Ships finished cells across a process boundary in an `assign` frame's
/// `done` array, exactly as the coordinator re-assigns a lost shard.
fn through_assign(spec: ShardSpec, done: Vec<(usize, CampaignCell)>) -> Vec<(usize, CampaignCell)> {
    let work = JobSpec::Catalog("tiny".into());
    let frame = Message::Assign {
        job: "job".into(),
        work,
        spec,
        done,
    }
    .to_frame();
    match Message::parse_frame(&frame).expect("own frame parses") {
        Message::Assign { done, .. } => done,
        other => panic!("expected an assign frame, got {other:?}"),
    }
}

/// Resumes every shard of a `count`-way split from each subset that
/// `subsets(k)` picks out of its `k` finished cells, shipped through an
/// `assign` frame. The resume must run exactly the missing cells, and its
/// merge with the untouched peers must equal the sequential run.
fn check_resumes(
    count: usize,
    subsets: impl Fn(usize) -> Vec<Vec<bool>>,
) -> Result<(), TestCaseError> {
    let w = workloads();
    let c = campaign(&w);
    let peers: Vec<CampaignShard> = (0..count)
        .map(|index| c.run_shard(ShardSpec { index, count }).expect("valid"))
        .collect();
    for index in 0..count {
        let spec = ShardSpec { index, count };
        let cells = peers[index].cells();
        for keep in subsets(cells.len()) {
            let done = (cells.iter().zip(&keep))
                .filter(|(_, kept)| **kept)
                .map(|(cell, _)| cell.clone())
                .collect();
            let mut fresh = 0usize;
            let resumed = c
                .run_shard_resumable(spec, through_assign(spec, done), &mut |_, _| fresh += 1)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(fresh, keep.iter().filter(|kept| !**kept).count());
            let mut set = peers.clone();
            set[index] = resumed;
            let merged = merge(set).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
            prop_assert_eq!(&merged.to_json(), golden(), "{} from {:?}", spec, keep);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For a drawn shard layout, interrupt every shard at *every* cell
    /// boundary (including "before the first cell"): the finished prefix
    /// rides an `assign` frame and the resume is bit-identical.
    #[test]
    fn resume_from_any_boundary_is_bit_identical_through_the_wire(count in 1usize..=3) {
        check_resumes(count, |k| (0..=k).map(|p| (0..k).map(|j| j < p).collect()).collect())?;
    }

    /// Gaps resume too: a lost `checkpoint` frame leaves a hole in what
    /// the coordinator holds, and the hole simply runs again. Every
    /// single-cell gap and a drawn subset of every shard's cells.
    #[test]
    fn resume_from_any_subset_of_finished_cells_is_bit_identical_through_the_wire(
        count in 1usize..=3,
        mask in any::<u64>(),
    ) {
        check_resumes(count, |k| {
            let mut subsets: Vec<Vec<bool>> =
                (0..k).map(|gap| (0..k).map(|j| j != gap).collect()).collect();
            subsets.push((0..k).map(|j| (mask >> (j % 64)) & 1 == 1).collect());
            subsets
        })?;
    }
}

/// Every cell already finished: the resume runs nothing new and still
/// merges identically — the no-op resume a worker performs when its
/// predecessor died after the last cell but before `shard_done` went out.
#[test]
fn resuming_a_finished_checkpoint_runs_nothing_and_merges_identically() {
    let w = workloads();
    let c = campaign(&w);
    let spec = ShardSpec { index: 0, count: 1 };
    let done = through_assign(spec, finished(&c, spec));
    let mut fresh_cells = 0usize;
    let resumed = c
        .run_shard_resumable(spec, done, &mut |_, _| fresh_cells += 1)
        .expect("valid resume");
    assert_eq!(fresh_cells, 0, "every cell was adopted, none re-ran");
    assert_eq!(merge([resumed]).expect("complete set").to_json(), *golden());
}

/// The rejection surface: a finished cell that does not belong to the
/// shard being resumed — another matrix's, another shard's, or this
/// shard's under another index — or a repeated index is a typed
/// `CheckpointMismatch` before anything runs, not silent corruption.
#[test]
fn foreign_checkpoints_are_rejected_with_a_typed_mismatch() {
    let w = workloads();
    let c = campaign(&w);
    let spec = ShardSpec { index: 0, count: 2 };
    let owned = finished(&c, spec);
    let unowned = finished(&c, ShardSpec { index: 1, count: 2 });
    assert!(!owned.is_empty() && !unowned.is_empty(), "a two-way split");
    let other_workloads = [Workload::preset_small(WorkloadKind::Tpce, 8, 7)];
    let other = finished(
        &campaign(&other_workloads),
        ShardSpec { index: 0, count: 1 },
    );
    for (what, done) in [
        ("another matrix's cell", vec![other[0].clone()]),
        ("a cell shard 0 does not own", vec![unowned[0].clone()]),
        (
            "an owned cell re-keyed",
            vec![(owned[0].0 + 1, owned[0].1.clone())],
        ),
        ("a repeated index", vec![owned[0].clone(), owned[0].clone()]),
    ] {
        let err = c
            .run_shard_resumable(spec, through_assign(spec, done), &mut |_, _| {
                panic!("{what}: a cell ran before the done cells were checked")
            })
            .expect_err(what);
        assert!(
            matches!(err, ConfigError::CheckpointMismatch { .. }),
            "{what}: {err}"
        );
    }
}

/// Both checks run: a tampered cell fails when its frame is decoded, and
/// an index beyond the matrix decodes (the wire cannot know the matrix
/// size) but is refused at resume.
#[test]
fn tampered_checkpoints_fail_at_decode_or_resume() {
    let w = workloads();
    let c = campaign(&w);
    let spec = ShardSpec { index: 0, count: 1 };
    let (index, cell) = finished(&c, spec).pop().expect("a finished cell");

    let beyond = through_assign(spec, vec![(4096, cell.clone())]);
    let err = c
        .run_shard_resumable(spec, beyond, &mut |_, _| {})
        .expect_err("index beyond the matrix");
    assert!(
        matches!(err, ConfigError::CheckpointMismatch { .. }),
        "{err}"
    );

    // A cell whose id no longer matches its key must fail the decode, not
    // produce a half-parsed checkpoint.
    let id = format!("\"id\":\"{}\"", cell.key);
    let frame = Message::Checkpoint {
        job: "job".into(),
        spec,
        cell: Box::new((index, cell)),
    }
    .to_frame();
    assert!(frame.contains(&id), "{frame}");
    let tampered = frame.replace(&id, "\"id\":\"someone/else/c2/t8\"");
    assert!(Message::parse_frame(&tampered).is_err());
}
