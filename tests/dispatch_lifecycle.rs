//! The dispatcher's job lifecycle on a hand-advanced clock: assignment,
//! completion, heartbeat-timeout → re-queue, straggler hedging,
//! duplicate-completion dedup, finished cells held across a re-queue,
//! token-bucket rate limiting and status snapshots — all driven through
//! the pure [`Coordinator`] state machine, no socket or sleep anywhere.
//! The timestamps come from a [`FakeClock`] exactly as the serve shell
//! reads its `SystemClock`, so the deadline arithmetic under test is the
//! production arithmetic.

use std::sync::Arc;

use strex::campaign::{Campaign, CampaignCell, CampaignResult, CampaignShard, ShardSpec};
use strex::config::{SchedulerKind, SimConfig};
use strex::dispatch::proto::MAX_FRAME;
use strex::dispatch::{
    job_key, Action, Clock, Coordinator, DispatchConfig, Event, FakeClock, JobSpec, JournalEntry,
    Message, RejectReason, WorkerLossReason, MAX_FINISHED,
};
use strex_oltp::workload::{Workload, WorkloadKind};

const CAMPAIGN: &str = "tiny";

fn tiny_workloads() -> Vec<Workload> {
    vec![
        Workload::preset_small(WorkloadKind::TpccW1, 8, 7),
        Workload::preset_small(WorkloadKind::MapReduce, 8, 7),
    ]
}

fn tiny_campaign(workloads: &[Workload]) -> Campaign<'_> {
    Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
        .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
        .over_workloads(workloads)
}

fn tiny_shard(spec: ShardSpec) -> CampaignShard {
    let workloads = tiny_workloads();
    tiny_campaign(&workloads).run_shard(spec).expect("valid")
}

fn tiny_sequential() -> CampaignResult {
    let workloads = tiny_workloads();
    tiny_campaign(&workloads).run().expect("valid")
}

fn cfg() -> DispatchConfig {
    DispatchConfig {
        worker_timeout_ms: 1_000,
        shard_deadline_ms: 60_000,
        // Rate limiting off (refill 0 snaps the bucket full) so lifecycle
        // tests exercise one mechanism at a time; the rate-limit tests
        // below opt back in explicitly.
        submit_refill_ms: 0,
        ..DispatchConfig::default()
    }
}

fn coordinator() -> Coordinator {
    Coordinator::new(cfg(), [CAMPAIGN.to_string()])
}

/// Drives `c` with `event` at the fake clock's current reading.
fn step(c: &mut Coordinator, clock: &FakeClock, event: Event) -> Vec<Action> {
    c.handle(clock.now_ms(), event)
}

/// The `Assign` sent to `conn` within `actions`, if any.
fn assignment_to(actions: &[Action], conn: u64) -> Option<(String, ShardSpec)> {
    actions.iter().find_map(|a| match a {
        Action::Send(to, Message::Assign { job, spec, .. }) if *to == conn => {
            Some((job.clone(), *spec))
        }
        _ => None,
    })
}

/// The `Result` sent to `conn` within `actions`, if any.
fn result_to(actions: &[Action], conn: u64) -> Option<CampaignResult> {
    actions.iter().find_map(|a| match a {
        Action::Send(to, Message::Result { result, .. }) if *to == conn => Some(result.clone()),
        _ => None,
    })
}

/// The typed rejection sent to `conn` within `actions`, if any.
fn rejection_to(actions: &[Action], conn: u64) -> Option<RejectReason> {
    actions.iter().find_map(|a| match a {
        Action::Send(to, Message::Reject { reason, .. }) if *to == conn => Some(*reason),
        _ => None,
    })
}

const SUBMITTER: u64 = 1;
const WORKER_A: u64 = 2;
const WORKER_B: u64 = 3;

fn register(c: &mut Coordinator, clock: &FakeClock, conn: u64, name: &str) -> Vec<Action> {
    step(
        c,
        clock,
        Event::Message(
            conn,
            Message::Register {
                name: name.into(),
                cores: 2,
            },
        ),
    )
}

fn submit(c: &mut Coordinator, clock: &FakeClock, shards: usize) -> Vec<Action> {
    submit_from(c, clock, SUBMITTER, shards)
}

fn submit_from(c: &mut Coordinator, clock: &FakeClock, conn: u64, shards: usize) -> Vec<Action> {
    step(
        c,
        clock,
        Event::Message(
            conn,
            Message::Submit {
                work: JobSpec::Catalog(CAMPAIGN.into()),
                shards,
            },
        ),
    )
}

/// Runs every `Assign` in `actions` through the real shard executor and
/// feeds the completions back, returning all follow-up actions.
fn complete_assignments(c: &mut Coordinator, clock: &FakeClock, actions: &[Action]) -> Vec<Action> {
    complete_assignments_of(c, clock, actions, None)
}

/// [`complete_assignments`] restricted to assignments sent to `only`
/// (`None` completes them all) — for tests where one worker must stay
/// silent on its shard.
fn complete_assignments_of(
    c: &mut Coordinator,
    clock: &FakeClock,
    actions: &[Action],
    only: Option<u64>,
) -> Vec<Action> {
    let mut out = Vec::new();
    for action in actions {
        if let Action::Send(conn, Message::Assign { job, spec, .. }) = action {
            if only.is_some_and(|w| w != *conn) {
                continue;
            }
            let shard = tiny_shard(*spec);
            out.extend(step(
                c,
                clock,
                Event::Message(
                    *conn,
                    Message::ShardDone {
                        job: job.clone(),
                        shard,
                    },
                ),
            ));
        }
    }
    out
}

#[test]
fn two_workers_complete_a_job_bit_identical_to_sequential() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "a");
    register(&mut c, &clock, WORKER_B, "b");
    assert_eq!(c.worker_count(), 2);

    let actions = submit(&mut c, &clock, 3);
    // Two shards go out immediately (one per idle worker), the third waits.
    assert!(assignment_to(&actions, WORKER_A).is_some());
    assert!(assignment_to(&actions, WORKER_B).is_some());
    assert_eq!(c.open_jobs(), 1);

    // Completing the first wave frees workers; the third shard is assigned
    // in the same handle() call and completes in the second wave.
    let wave2 = complete_assignments(&mut c, &clock, &actions);
    let wave3 = complete_assignments(&mut c, &clock, &wave2);

    let result = result_to(&wave3, SUBMITTER).expect("merged result delivered");
    assert_eq!(result.to_json(), tiny_sequential().to_json());
    assert!(wave3
        .iter()
        .any(|a| matches!(a, Action::JobCompleted { job } if *job == job_key(CAMPAIGN, 3))));
    assert_eq!(c.open_jobs(), 0);
}

#[test]
fn heartbeats_keep_a_silent_worker_alive() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "a");
    for _ in 0..8 {
        clock.advance(900);
        let actions = step(&mut c, &clock, Event::Message(WORKER_A, Message::Heartbeat));
        assert!(actions.is_empty(), "{actions:?}");
        assert_eq!(c.worker_count(), 1);
    }
}

#[test]
fn dead_worker_times_out_and_its_shard_requeues() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "doomed");
    register(&mut c, &clock, WORKER_B, "steady");
    let actions = submit(&mut c, &clock, 2);
    let (job_a, spec_a) = assignment_to(&actions, WORKER_A).expect("A assigned");
    let (_, spec_b) = assignment_to(&actions, WORKER_B).expect("B assigned");
    assert_ne!(spec_a.index, spec_b.index);

    // B completes its shard and heartbeats on cadence; A never speaks
    // again. Past the timeout, a tick reaps A and hands its shard to B.
    let after_b = complete_assignments_of(&mut c, &clock, &actions, Some(WORKER_B));
    assert!(result_to(&after_b, SUBMITTER).is_none(), "job still open");
    clock.advance(600);
    step(&mut c, &clock, Event::Message(WORKER_B, Message::Heartbeat));
    clock.advance(600);
    let reaped = step(&mut c, &clock, Event::Tick);
    assert!(
        reaped.iter().any(|a| matches!(
            a,
            Action::WorkerLost {
                name,
                reason: WorkerLossReason::HeartbeatTimeout,
                requeued: Some(spec),
            } if name == "doomed" && *spec == spec_a
        )),
        "{reaped:?}"
    );
    assert_eq!(c.worker_count(), 1);
    let (job_b2, spec_b2) = assignment_to(&reaped, WORKER_B).expect("A's shard re-assigned to B");
    assert_eq!((job_b2, spec_b2), (job_a, spec_a));

    let done = complete_assignments(&mut c, &clock, &reaped);
    let result = result_to(&done, SUBMITTER).expect("job completes despite the death");
    assert_eq!(result.to_json(), tiny_sequential().to_json());
}

#[test]
fn disconnected_worker_requeues_immediately() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "flaky");
    let actions = submit(&mut c, &clock, 1);
    let (_, spec) = assignment_to(&actions, WORKER_A).expect("assigned");

    let lost = step(&mut c, &clock, Event::Disconnected(WORKER_A));
    assert!(
        lost.iter().any(|a| matches!(
            a,
            Action::WorkerLost {
                reason: WorkerLossReason::Disconnected,
                requeued: Some(s),
                ..
            } if *s == spec
        )),
        "{lost:?}"
    );
    assert_eq!(c.worker_count(), 0);

    // A fresh worker picks the shard up and the job still completes.
    let assigned = register(&mut c, &clock, WORKER_B, "fresh");
    assert_eq!(
        assignment_to(&assigned, WORKER_B).map(|(_, s)| s),
        Some(spec)
    );
    let done = complete_assignments(&mut c, &clock, &assigned);
    let result = result_to(&done, SUBMITTER).expect("delivered");
    assert_eq!(result.to_json(), tiny_sequential().to_json());
}

#[test]
fn straggler_is_hedged_and_its_late_duplicate_is_dropped() {
    let clock = Arc::new(FakeClock::new());
    let mut c = Coordinator::new(
        DispatchConfig {
            worker_timeout_ms: 1_000_000, // liveness out of the picture
            shard_deadline_ms: 500,       // hedge quickly
            ..cfg()
        },
        [CAMPAIGN.to_string()],
    );
    register(&mut c, &clock, WORKER_A, "straggler");
    let actions = submit(&mut c, &clock, 1);
    let (job, spec) = assignment_to(&actions, WORKER_A).expect("assigned");

    // Past the shard deadline the shard re-queues while A keeps running;
    // a newly registered B receives the duplicate assignment.
    clock.advance(600);
    step(&mut c, &clock, Event::Message(WORKER_A, Message::Heartbeat));
    let hedged = register(&mut c, &clock, WORKER_B, "hedge");
    assert_eq!(
        assignment_to(&hedged, WORKER_B),
        Some((job.clone(), spec)),
        "{hedged:?}"
    );

    // B finishes first: the job completes. A's late duplicate lands on a
    // finished job and is dropped without an error or a second result.
    let done = complete_assignments(&mut c, &clock, &hedged);
    let result = result_to(&done, SUBMITTER).expect("delivered");
    assert_eq!(result.to_json(), tiny_sequential().to_json());
    let late = step(
        &mut c,
        &clock,
        Event::Message(
            WORKER_A,
            Message::ShardDone {
                job,
                shard: tiny_shard(spec),
            },
        ),
    );
    assert!(
        !late
            .iter()
            .any(|a| matches!(a, Action::Send(SUBMITTER, _) | Action::JobCompleted { .. })),
        "{late:?}"
    );
}

#[test]
fn duplicate_completion_before_the_merge_is_deduplicated() {
    let clock = Arc::new(FakeClock::new());
    let mut c = Coordinator::new(
        DispatchConfig {
            worker_timeout_ms: 1_000_000,
            shard_deadline_ms: 500,
            ..cfg()
        },
        [CAMPAIGN.to_string()],
    );
    register(&mut c, &clock, WORKER_A, "straggler");
    register(&mut c, &clock, WORKER_B, "partner");
    let actions = submit(&mut c, &clock, 2);
    let (job, spec_a) = assignment_to(&actions, WORKER_A).expect("A assigned");

    // Hedge A's shard while B is still busy with its own; then a third
    // worker runs the duplicate. Both A and the third worker deliver
    // shard `spec_a`: the slot takes the first, drops the second, and the
    // final merge still succeeds (merge's DuplicateShard never fires).
    clock.advance(600);
    let tick = step(&mut c, &clock, Event::Tick);
    assert!(assignment_to(&tick, WORKER_A).is_none(), "{tick:?}");
    let third = register(&mut c, &clock, 9, "dup");
    assert_eq!(assignment_to(&third, 9).map(|(_, s)| s), Some(spec_a));

    for conn in [9, WORKER_A] {
        step(
            &mut c,
            &clock,
            Event::Message(
                conn,
                Message::ShardDone {
                    job: job.clone(),
                    shard: tiny_shard(spec_a),
                },
            ),
        );
    }
    let done = complete_assignments(&mut c, &clock, &actions);
    let result = result_to(&done, SUBMITTER).expect("delivered");
    assert_eq!(result.to_json(), tiny_sequential().to_json());
}

#[test]
fn reported_cells_are_held_once_per_index_and_ride_the_reassignment() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "doomed");
    register(&mut c, &clock, WORKER_B, "busy");
    let actions = submit(&mut c, &clock, 2);
    let (job, spec) = assignment_to(&actions, WORKER_A).expect("A assigned");
    let (_, other) = assignment_to(&actions, WORKER_B).expect("B assigned");
    let (owned, foreign) = (tiny_shard(spec), tiny_shard(other));
    let (owned, foreign) = (owned.cells(), foreign.cells());
    assert!(owned.len() >= 2 && !foreign.is_empty(), "a two-way split");

    // A reports out of order, sends a cell its shard does not own,
    // repeats itself, re-keys a reported index, and sends one cell under
    // another partitioning and one for an unknown job. None is answered,
    // and only the first report of each owned index is held.
    let report = |job: &str, spec, cell: &(usize, CampaignCell)| {
        let (job, cell) = (job.to_string(), Box::new(cell.clone()));
        Event::Message(WORKER_A, Message::Checkpoint { job, spec, cell })
    };
    let rekeyed = (owned[1].0, owned[0].1.clone());
    let other_partition = ShardSpec { count: 3, ..spec };
    for event in [
        report(&job, spec, &owned[1]),
        report(&job, spec, &foreign[0]),
        report(&job, spec, &owned[0]),
        report(&job, spec, &owned[1]),
        report(&job, spec, &rekeyed),
        report(&job, other_partition, &owned[0]),
        report("no-such-job", spec, &owned[0]),
    ] {
        let actions = step(&mut c, &clock, event);
        assert!(actions.is_empty(), "{actions:?}");
    }

    // A dies: the next worker receives the held cells as `done`, in
    // ascending index order and as first reported.
    step(&mut c, &clock, Event::Disconnected(WORKER_A));
    let heir = register(&mut c, &clock, 9, "heir");
    let done = heir
        .iter()
        .find_map(|a| match a {
            Action::Send(9, Message::Assign { spec: s, done, .. }) if *s == spec => Some(done),
            _ => None,
        })
        .expect("A's shard re-assigned");
    let keys = |cells: &[(usize, CampaignCell)]| -> Vec<(usize, String)> {
        cells.iter().map(|(i, c)| (*i, c.key.to_string())).collect()
    };
    assert_eq!(keys(done), keys(&owned[..2]));
}

#[test]
fn a_flood_of_reported_indices_leaves_a_readable_reassignment() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "doomed");
    let actions = submit(&mut c, &clock, 1);
    let (job, spec) = assignment_to(&actions, WORKER_A).expect("A assigned");
    let cell = tiny_shard(spec).cells()[0].1.clone();

    // A connection that never registered reports one owned cell under
    // 10,000 matrix indices, nearly all beyond the matrix. The flood fits
    // one frame, so it is held whole; the heir's assignment must stay
    // within MAX_FRAME and parse. (The cap itself is unit-tested in
    // `coordinator`: reaching 256 MiB here would take gigabytes.)
    let flood = 10_000;
    for index in 0..flood {
        let cell = Box::new((index, cell.clone()));
        let job = job.clone();
        step(
            &mut c,
            &clock,
            Event::Message(77, Message::Checkpoint { job, spec, cell }),
        );
    }
    step(&mut c, &clock, Event::Disconnected(WORKER_A));
    let heir = register(&mut c, &clock, 9, "heir");
    let frame = heir
        .iter()
        .find_map(|a| match a {
            Action::Send(9, msg @ Message::Assign { .. }) => Some(msg.to_frame()),
            _ => None,
        })
        .expect("A's shard re-assigned");
    assert!(frame.len() <= MAX_FRAME, "{} bytes", frame.len());
    match Message::parse_frame(&frame) {
        Ok(Message::Assign { spec: s, done, .. }) => {
            assert_eq!(s, spec);
            let indices: Vec<usize> = done.iter().map(|(i, _)| *i).collect();
            assert_eq!(indices, (0..flood).collect::<Vec<_>>());
        }
        other => panic!("the heir cannot read its assignment: {other:?}"),
    }
}

#[test]
fn finished_jobs_answer_resubmissions_from_the_cache() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "a");
    let actions = submit(&mut c, &clock, 2);
    let wave2 = complete_assignments(&mut c, &clock, &actions);
    let wave3 = complete_assignments(&mut c, &clock, &wave2);
    let first = result_to(&wave3, SUBMITTER).expect("delivered");

    // Same spec again, from a different submitter, with no workers doing
    // any new work: answered straight from the idempotency cache.
    let replay = submit_from(&mut c, &clock, 77, 2);
    let cached = result_to(&replay, 77).expect("cache hit");
    assert_eq!(cached.to_json(), first.to_json());
    assert!(replay.iter().any(|a| matches!(a, Action::Close(77))));
    assert_eq!(c.open_jobs(), 0, "no new job was opened");
}

/// The `Result` frame sent to `conn` within `actions`, as wire text.
fn result_frame_to(actions: &[Action], conn: u64) -> Option<String> {
    actions.iter().find_map(|a| match a {
        Action::Send(to, msg @ Message::Result { .. }) if *to == conn => Some(msg.to_frame()),
        _ => None,
    })
}

#[test]
fn the_result_cache_keeps_the_newest_results_and_reruns_an_evicted_job() {
    // MAX_FINISHED + 1 distinct one-shard jobs, one catalog name each;
    // every name runs the tiny matrix, so its one shard is computed once.
    let names: Vec<String> = (0..=MAX_FINISHED)
        .map(|i| format!("{CAMPAIGN}-{i}"))
        .collect();
    let submit = |name: &str| Message::Submit {
        work: JobSpec::Catalog(name.to_string()),
        shards: 1,
    };
    let shard = tiny_shard(ShardSpec { index: 0, count: 1 });
    let clock = Arc::new(FakeClock::new());
    let mut lived = Coordinator::new(cfg(), names.clone());
    register(&mut lived, &clock, WORKER_A, "a");
    // Every data frame, journaled as the serve shell does, then handled.
    let mut journal = Vec::new();
    let mut deliver = |c: &mut Coordinator, conn: u64, msg: Message| {
        journal.push(JournalEntry {
            now_ms: clock.now_ms(),
            conn,
            peer: format!("conn:{conn}"),
            msg: msg.clone(),
        });
        step(c, &clock, Event::Message(conn, msg))
    };
    let mut first = None;
    for (conn, name) in (100..).zip(&names) {
        let submitted = deliver(&mut lived, conn, submit(name));
        let (job, _) = assignment_to(&submitted, WORKER_A).expect("a new job is dispatched");
        let shard = shard.clone();
        let delivered = deliver(&mut lived, WORKER_A, Message::ShardDone { job, shard });
        let frame = result_frame_to(&delivered, conn).expect("result delivered");
        first.get_or_insert(frame);
    }
    let first = first.expect("at least one job");

    // Replay sees the same completions in the same order, so it evicts
    // the same result.
    let mut replayed = Coordinator::new(cfg(), names.clone());
    replayed.replay_journal(journal);
    register(&mut replayed, &clock, WORKER_A, "a");

    for c in [&mut lived, &mut replayed] {
        // The newest result is still cached: answered with no `assign`.
        let newest = step(c, &clock, Event::Message(500, submit(&names[MAX_FINISHED])));
        assert!(assignment_to(&newest, WORKER_A).is_none(), "{newest:?}");
        assert!(result_frame_to(&newest, 500).is_some(), "{newest:?}");
        // The first was evicted: its resubmission dispatches the shard
        // again, and the re-run delivers the same bytes.
        let again = step(c, &clock, Event::Message(501, submit(&names[0])));
        assert!(assignment_to(&again, WORKER_A).is_some(), "{again:?}");
        let delivered = complete_assignments(c, &clock, &again);
        assert_eq!(result_frame_to(&delivered, 501), Some(first.clone()));
    }
}

#[test]
fn rate_limit_rejects_a_burst_then_refills_on_schedule() {
    let clock = Arc::new(FakeClock::new());
    let mut c = Coordinator::new(
        DispatchConfig {
            submit_burst: 2,
            submit_refill_ms: 1_000,
            ..cfg()
        },
        [CAMPAIGN.to_string()],
    );
    // Two submissions fit the burst (distinct shard counts → distinct
    // jobs, so neither is a cache replay); the third is refused with the
    // typed reason and the connection is closed.
    assert!(rejection_to(&submit(&mut c, &clock, 1), SUBMITTER).is_none());
    assert!(rejection_to(&submit(&mut c, &clock, 2), SUBMITTER).is_none());
    let refused = submit(&mut c, &clock, 3);
    assert_eq!(
        rejection_to(&refused, SUBMITTER),
        Some(RejectReason::RateLimited),
        "{refused:?}"
    );
    assert!(refused
        .iter()
        .any(|a| matches!(a, Action::Close(SUBMITTER))));
    assert_eq!(c.open_jobs(), 2, "the refused submission opened no job");

    // 999 ms later the bucket is still dry; at 1000 ms exactly one token
    // returns and one more submission goes through.
    clock.advance(999);
    assert_eq!(
        rejection_to(&submit(&mut c, &clock, 3), SUBMITTER),
        Some(RejectReason::RateLimited)
    );
    clock.advance(1);
    let admitted = submit(&mut c, &clock, 3);
    assert!(rejection_to(&admitted, SUBMITTER).is_none(), "{admitted:?}");
    assert_eq!(c.open_jobs(), 3);

    // The whole-interval accounting and the rejections are visible in the
    // status snapshot.
    let report = c.status(clock.now_ms());
    assert_eq!(report.counters.submissions, 3);
    assert_eq!(report.counters.rejections, 2);
    let bucket = report
        .rate
        .iter()
        .find(|r| r.peer == format!("conn:{SUBMITTER}"))
        .expect("bucket tracked");
    assert_eq!(bucket.tokens, 0);
}

#[test]
fn a_full_queue_refuses_new_jobs_but_admits_attaches() {
    let clock = Arc::new(FakeClock::new());
    let mut c = Coordinator::new(
        DispatchConfig {
            max_pending_jobs: 1,
            ..cfg()
        },
        [CAMPAIGN.to_string()],
    );
    assert!(rejection_to(&submit(&mut c, &clock, 1), SUBMITTER).is_none());
    // A second distinct job would exceed the bound: typed refusal.
    assert_eq!(
        rejection_to(&submit_from(&mut c, &clock, 7, 2), 7),
        Some(RejectReason::QueueFull)
    );
    // Attaching another waiter to the in-flight job is always admitted —
    // it creates no new work.
    assert!(rejection_to(&submit_from(&mut c, &clock, 8, 1), 8).is_none());
    assert_eq!(c.open_jobs(), 1);
}

#[test]
fn status_stays_accurate_across_a_worker_loss() {
    let clock = Arc::new(FakeClock::new());
    let mut c = coordinator();
    register(&mut c, &clock, WORKER_A, "a");
    clock.advance(100);
    register(&mut c, &clock, WORKER_B, "b");
    let actions = submit(&mut c, &clock, 3);
    assert!(assignment_to(&actions, WORKER_A).is_some());

    // Snapshot with both workers busy: one job, 1 of 3 shards queued,
    // 2 running, ages measured from the snapshot instant.
    clock.advance(50);
    let report = c.status(clock.now_ms());
    assert_eq!(report.queue_depth, 1);
    assert_eq!(report.jobs.len(), 1);
    let job = &report.jobs[0];
    assert_eq!(
        (job.shards, job.done, job.queued, job.running),
        (3, 0, 1, 2)
    );
    assert_eq!(job.waiters, 1);
    assert_eq!(report.workers.len(), 2);
    let a = report.workers.iter().find(|w| w.name == "a").expect("a");
    assert_eq!(a.last_seen_ms_ago, 150);
    let assignment = a.assignment.as_ref().expect("a is running a shard");
    assert_eq!(assignment.running_ms, 50);
    assert!(!assignment.hedged);

    // Worker A dies: its shard re-queues, and the next snapshot shows one
    // worker, two queued shards, one still running.
    step(&mut c, &clock, Event::Disconnected(WORKER_A));
    let report = c.status(clock.now_ms());
    assert_eq!(report.workers.len(), 1);
    assert_eq!(report.workers[0].name, "b");
    assert_eq!(report.queue_depth, 2);
    let job = &report.jobs[0];
    assert_eq!((job.done, job.queued, job.running), (0, 2, 1));

    // The same snapshot travels the wire: a status request is answered
    // with a frame carrying an identical report, connection kept open.
    let asked = step(&mut c, &clock, Event::Message(55, Message::StatusRequest));
    let wired = asked
        .iter()
        .find_map(|a| match a {
            Action::Send(55, Message::Status { report }) => Some(report.clone()),
            _ => None,
        })
        .expect("status frame");
    assert_eq!(wired, report);
    assert!(
        !asked.iter().any(|a| matches!(a, Action::Close(55))),
        "a status poll must not hang up the watcher: {asked:?}"
    );
}

/// The journal's crash-recovery contract: a coordinator restarted on a
/// ledger of durable frames must be indistinguishable — status counters,
/// pending queue, per-peer rate buckets — from one that never crashed
/// but whose peers all hung up, and a partially completed job must run
/// its remaining shards to the same bit-identical merge.
mod journal_restart {
    use super::*;
    use strex::dispatch::{replay_journal_file, Journal};

    /// Rate limiting on, so the replayed bucket state is part of the
    /// equivalence claim.
    fn limited_cfg() -> DispatchConfig {
        DispatchConfig {
            submit_burst: 2,
            submit_refill_ms: 1_000,
            ..cfg()
        }
    }

    fn scratch_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("strex-journal-{tag}-{}.bin", std::process::id()))
    }

    /// Journals `msg` exactly as the serve shell does (write-ahead),
    /// then feeds it to the lived coordinator.
    fn deliver(
        c: &mut Coordinator,
        journal: &mut Journal,
        now_ms: u64,
        conn: u64,
        peer: &str,
        msg: Message,
    ) -> Vec<Action> {
        journal
            .append(now_ms, conn, peer, &msg)
            .expect("journal append");
        c.handle(now_ms, Event::Message(conn, msg))
    }

    #[test]
    fn replaying_the_journal_reproduces_the_never_crashed_coordinator() {
        let path = scratch_journal("equivalence");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open_append(&path).expect("open journal");
        let mut lived = Coordinator::new(limited_cfg(), [CAMPAIGN.to_string()]);

        // Identities arrive via Connected in the shell; the journal
        // records them per entry.
        for (conn, peer) in [
            (10, "ip:a"),
            (11, "ip:a"),
            (12, "ip:a"),
            (13, "ip:b"),
            (20, "ip:w"),
        ] {
            lived.handle(0, Event::Connected(conn, peer.to_string()));
        }

        // Two admitted submissions drain ip:a's burst; the third is
        // rate-limited (journaled anyway — write-ahead means the ledger
        // records what arrived, and the replay re-derives the verdict).
        let submit = |shards: usize| Message::Submit {
            work: JobSpec::Catalog(CAMPAIGN.into()),
            shards,
        };
        deliver(&mut lived, &mut journal, 0, 10, "ip:a", submit(3));
        deliver(&mut lived, &mut journal, 10, 11, "ip:a", submit(2));
        let refused = deliver(&mut lived, &mut journal, 20, 12, "ip:a", submit(4));
        assert_eq!(
            rejection_to(&refused, 12),
            Some(RejectReason::RateLimited),
            "{refused:?}"
        );
        // A second waiter coalesces onto the in-flight 2-shard job.
        deliver(&mut lived, &mut journal, 30, 13, "ip:b", submit(2));

        // One shard of the 3-shard job completes before the crash, and a
        // checkpoint for a still-queued shard of the same job lands (the
        // first cell a reaped worker finished before dying; ownership is
        // by cell-key hash, so some shards of a small matrix may
        // legitimately be empty).
        let job3 = job_key(CAMPAIGN, 3);
        deliver(
            &mut lived,
            &mut journal,
            500,
            20,
            "ip:w",
            Message::ShardDone {
                job: job3.clone(),
                shard: tiny_shard(ShardSpec { index: 0, count: 3 }),
            },
        );
        let checkpointed = (1..3).find_map(|index| {
            let spec = ShardSpec { index, count: 3 };
            let first = tiny_shard(spec).cells().first().cloned();
            first.map(|cell| (spec, cell))
        });
        if let Some((spec, cell)) = &checkpointed {
            deliver(
                &mut lived,
                &mut journal,
                600,
                20,
                "ip:w",
                Message::Checkpoint {
                    job: job3.clone(),
                    spec: *spec,
                    cell: Box::new(cell.clone()),
                },
            );
        }
        drop(journal);
        let last_now = if checkpointed.is_some() { 600 } else { 500 };

        // The crash kills every connection; the never-crashed reference
        // sees the same hangups the restart implies.
        for conn in [10, 11, 12, 13, 20] {
            lived.handle(last_now, Event::Disconnected(conn));
        }

        // Restart: fresh coordinator, same journal.
        let entries = replay_journal_file(&path).expect("readable ledger");
        let mut restarted = Coordinator::new(limited_cfg(), [CAMPAIGN.to_string()]);
        restarted.replay_journal(entries);

        let report = lived.status(700);
        let replayed = restarted.status(700);
        assert_eq!(report, replayed, "restart must be invisible in status");
        assert_eq!(report.counters.submissions, 3);
        assert_eq!(report.counters.rejections, 1);
        assert_eq!(report.counters.shards_completed, 1);
        assert_eq!(restarted.open_jobs(), 2);
        assert_eq!(restarted.worker_count(), 0, "registrations are not durable");
        let bucket = replayed
            .rate
            .iter()
            .find(|r| r.peer == "ip:a")
            .expect("replayed bucket");
        assert_eq!(bucket.tokens, 0, "the drained burst survives the restart");

        // A fresh worker drains the replayed queue: the checkpointed
        // shard's assignment carries the journaled cell, and both jobs
        // finish bit-identical to sequential runs.
        let clock = FakeClock::new();
        clock.advance(700);
        let mut actions = register(&mut restarted, &clock, 30, "fresh");
        let mut resumed_with_checkpoint = false;
        while !actions.is_empty() {
            let mut next = Vec::new();
            for action in &actions {
                if let Action::Send(
                    conn,
                    Message::Assign {
                        job, spec, done, ..
                    },
                ) = action
                {
                    if let Some((ck_spec, (index, cell))) = &checkpointed {
                        if spec == ck_spec {
                            let carried: Vec<(usize, String)> =
                                done.iter().map(|(i, c)| (*i, c.key.to_string())).collect();
                            assert_eq!(carried, [(*index, cell.key.to_string())]);
                            resumed_with_checkpoint = true;
                        }
                    }
                    next.extend(restarted.handle(
                        700,
                        Event::Message(
                            *conn,
                            Message::ShardDone {
                                job: job.clone(),
                                shard: tiny_shard(*spec),
                            },
                        ),
                    ));
                }
            }
            actions = next;
        }
        assert_eq!(restarted.open_jobs(), 0, "both replayed jobs completed");
        assert_eq!(
            resumed_with_checkpoint,
            checkpointed.is_some(),
            "the journaled checkpoint must ride the re-assignment"
        );

        // The finished jobs answer resubmissions from the cache with the
        // bit-identical merged result — no waiter was lost, no work redone.
        let replayed_result = submit_from(&mut restarted, &clock, 40, 3);
        let cached = result_to(&replayed_result, 40).expect("cache hit after restart");
        assert_eq!(cached.to_json(), tiny_sequential().to_json());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rebased_buckets_grant_no_credit_for_the_outage() {
        let mut c = Coordinator::new(limited_cfg(), [CAMPAIGN.to_string()]);
        c.handle(0, Event::Connected(1, "ip:a".to_string()));
        for shards in [1, 2] {
            let actions = c.handle(
                0,
                Event::Message(
                    1,
                    Message::Submit {
                        work: JobSpec::Catalog(CAMPAIGN.into()),
                        shards,
                    },
                ),
            );
            assert!(rejection_to(&actions, 1).is_none(), "{actions:?}");
        }

        // Five refill intervals pass while the coordinator is "down";
        // rebasing at restart must surrender that elapsed-time credit.
        c.rebase_buckets(5_000);
        let probe = |c: &mut Coordinator, now: u64, shards: usize| {
            let actions = c.handle(
                now,
                Event::Message(
                    1,
                    Message::Submit {
                        work: JobSpec::Catalog(CAMPAIGN.into()),
                        shards,
                    },
                ),
            );
            rejection_to(&actions, 1)
        };
        assert_eq!(
            probe(&mut c, 5_999, 3),
            Some(RejectReason::RateLimited),
            "no tokens earned during the outage"
        );
        assert_eq!(
            probe(&mut c, 6_000, 3),
            None,
            "earning resumes from the restart instant"
        );
    }
}
