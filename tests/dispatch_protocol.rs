//! The dispatcher's wire protocol under hostile input: arbitrary bytes,
//! truncated frames, unknown message types and mistyped payloads must all
//! come back as typed [`ProtoError`]s — never a panic — and every
//! well-formed frame must survive a parse → re-emit round trip
//! byte-identically (what the coordinator's idempotency cache and the
//! bit-identical-merge guarantee lean on).

use std::io::BufReader;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use strex::campaign::{CampaignCell, CampaignShard, ShardSpec};
use strex::dispatch::{read_message, JobSpec, Message, ProtoError, RejectReason};
use strex::scenario::Scenario;

/// Short strings over the whole scalar range (surrogates excluded, plus
/// weight on ASCII and JSON-escape-relevant characters), as message
/// payload text.
fn wire_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\u{0}'),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
            (0u32..0xD800).prop_map(|c| char::from_u32(c).expect("below surrogates")),
            (0xE000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("above surrogates")),
        ],
        0..24,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A small fixed scenario document for the scenario-carrying frames —
/// its canonical JSON is deterministic, so the round-trip property holds
/// on it like on any other payload.
fn tiny_scenario() -> Arc<Scenario> {
    Arc::new(
        Scenario::from_json(
            r#"{
                "name": "proto-tiny",
                "matrix": {
                    "workloads": ["TPC-C-1"],
                    "pool": 8,
                    "seed": 7,
                    "small": true,
                    "schedulers": ["baseline"],
                    "cores": [2]
                },
                "assertions": [
                    {
                        "kind": "throughput_at_least",
                        "cell": {"workload": "TPC-C-1", "scheduler": "baseline", "cores": 2},
                        "min": 0.0
                    }
                ]
            }"#,
        )
        .expect("valid scenario"),
    )
}

fn job_specs() -> impl Strategy<Value = JobSpec> {
    prop_oneof![
        wire_text().prop_map(JobSpec::Catalog),
        Just(JobSpec::Scenario(tiny_scenario())),
    ]
}

/// The tiny scenario's one simulated cell, run once: the payload of
/// generated `checkpoint` frames and `assign` frames' `done` cells.
fn sample_cell() -> CampaignCell {
    static CELL: OnceLock<CampaignCell> = OnceLock::new();
    CELL.get_or_init(|| {
        let s = tiny_scenario();
        let result = s.campaign(&s.workloads()).run().expect("valid matrix");
        result.cells()[0].clone()
    })
    .clone()
}

/// A drawn shard spec: `count` in 1..64, a valid index below it.
fn shard_specs() -> impl Strategy<Value = ShardSpec> {
    (1usize..64, 0usize..64).prop_map(|(count, i)| ShardSpec {
        index: i % count,
        count,
    })
}

fn control_messages() -> impl Strategy<Value = Message> {
    prop_oneof![
        (job_specs(), 1usize..64).prop_map(|(work, shards)| Message::Submit { work, shards }),
        (wire_text(), 1usize..256).prop_map(|(name, cores)| Message::Register { name, cores }),
        Just(Message::Heartbeat),
        Just(Message::StatusRequest),
        (
            wire_text(),
            job_specs(),
            shard_specs(),
            prop::collection::vec(0usize..4096, 0..4)
        )
            .prop_map(|(job, work, spec, mut cells)| {
                cells.sort_unstable();
                cells.dedup();
                let done = cells.into_iter().map(|i| (i, sample_cell())).collect();
                Message::Assign {
                    job,
                    work,
                    spec,
                    done,
                }
            }),
        (wire_text(), shard_specs(), 0usize..4096).prop_map(|(job, spec, index)| {
            let cell = Box::new((index, sample_cell()));
            Message::Checkpoint { job, spec, cell }
        }),
        (0usize..RejectReason::ALL.len(), wire_text()).prop_map(|(pick, message)| {
            Message::Reject {
                reason: RejectReason::ALL[pick],
                message,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_control_frame_round_trips_byte_identically(msg in control_messages()) {
        let frame = msg.to_frame();
        prop_assert!(frame.ends_with('\n'));
        prop_assert!(!frame[..frame.len() - 1].contains('\n'), "one line per frame");
        let parsed = Message::parse_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("{e} for {frame:?}")))?;
        prop_assert_eq!(parsed.to_frame(), frame);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut reader = BufReader::new(bytes.as_slice());
        // Drain the whole stream; every outcome must be a value or a
        // typed error, and an error ends the stream (as the serve shell
        // treats it).
        loop {
            match read_message(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(
                    ProtoError::Io(_)
                    | ProtoError::Truncated { .. }
                    | ProtoError::Malformed(_)
                    | ProtoError::Wire(_)
                    | ProtoError::Stalled { .. },
                ) => break,
            }
        }
    }

    #[test]
    fn arbitrary_bytes_behind_a_binary_magic_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // The magic byte an older build opened its binary frames with,
        // then hostile bytes standing in for length prefix, payload and
        // terminator: no JSON line starts with 0xB1, so this is a typed
        // error whatever follows.
        let mut framed = vec![0xB1u8];
        framed.extend_from_slice(&bytes);
        let mut reader = BufReader::new(framed.as_slice());
        match read_message(&mut reader) {
            Err(ProtoError::Truncated { .. } | ProtoError::Malformed(_)) => {}
            other => prop_assert!(false, "expected Truncated or Malformed, got {:?}", other),
        }
    }

    #[test]
    fn truncating_a_valid_frame_is_a_typed_error(msg in control_messages(), cut in 0usize..64) {
        let frame = msg.to_frame();
        // Cut strictly inside the frame (losing at least the newline), on
        // a char boundary so the slice stays valid UTF-8 (invalid UTF-8 is
        // the Malformed arm, covered by the arbitrary-bytes case above).
        let mut cut = cut.min(frame.len().saturating_sub(1));
        while !frame.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &frame.as_bytes()[..cut];
        let mut reader = BufReader::new(truncated);
        match read_message(&mut reader) {
            Ok(None) => prop_assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
            Err(ProtoError::Truncated { bytes }) => prop_assert_eq!(bytes, cut),
            other => prop_assert!(false, "expected Truncated, got {:?}", other),
        }
    }

    #[test]
    fn unknown_message_types_are_wire_errors(pick in 0usize..6) {
        let kind = ["warp", "submitx", "heart_beat", "shard", "assignn", "results"][pick];
        let frame = format!("{{\"type\":\"{kind}\"}}\n");
        match Message::parse_frame(&frame) {
            Err(ProtoError::Wire(e)) => prop_assert!(e.to_string().contains(kind), "{}", e),
            other => prop_assert!(false, "expected Wire error, got {:?}", other),
        }
    }

    #[test]
    fn known_types_with_mangled_payloads_are_typed_errors(pick in 0usize..6, junk_pick in 0usize..6) {
        let kind = ["submit", "register", "assign", "checkpoint", "shard_done", "result"][pick];
        // None of these fragments completes any message type's payload:
        // wrong field types, missing required fields, invalid shard specs.
        let junk = [
            "",
            ",\"shards\":\"four\"",
            ",\"job\":17",
            ",\"index\":9,\"count\":4",
            ",\"shard\":[]",
            ",\"result\":3",
        ][junk_pick];
        let frame = format!("{{\"type\":\"{kind}\"{junk}}}\n");
        match Message::parse_frame(&frame) {
            Err(ProtoError::Wire(_)) => {}
            Err(other) => prop_assert!(false, "expected Wire error, got {:?}", other),
            Ok(msg) => prop_assert!(false, "mangled frame parsed as {:?}", msg),
        }
    }
}

#[test]
fn a_frame_split_across_reads_still_parses_once_whole() {
    // BufRead assembles a line across TCP segment boundaries; emulate a
    // stream delivering a frame in two chunks followed by a clean close.
    let frame = Message::Submit {
        work: JobSpec::Catalog("quick".into()),
        shards: 4,
    }
    .to_frame();
    let (head, tail) = frame.split_at(frame.len() / 2);
    let joined = [head.as_bytes(), tail.as_bytes()].concat();
    let mut reader = BufReader::new(joined.as_slice());
    assert!(matches!(
        read_message(&mut reader).expect("parses"),
        Some(Message::Submit { shards: 4, .. })
    ));
    assert!(read_message(&mut reader).expect("clean EOF").is_none());
}

fn tiny_shard_done() -> Message {
    let shard = CampaignShard::from_parts(ShardSpec::new(1, 3).expect("valid"), Vec::new())
        .expect("valid shard");
    Message::ShardDone {
        job: "job-1".into(),
        shard,
    }
}

#[test]
fn a_payload_frame_trickled_byte_by_byte_parses_once_whole() {
    // Through the reusable-buffer reader the serve loops hold: one frame
    // delivered byte by byte (the worst split TCP can produce) must parse
    // exactly once, then EOF cleanly, with the buffer reused across both
    // calls.
    let msg = tiny_shard_done();
    let frame = msg.to_frame().into_bytes();
    struct TrickleReader<'a> {
        bytes: &'a [u8],
    }
    impl std::io::Read for TrickleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.bytes.len().min(1).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }
    let mut buf = Vec::new();
    let mut reader = BufReader::with_capacity(1, TrickleReader { bytes: &frame });
    let parsed = strex::dispatch::read_message_buffered(&mut reader, &mut buf)
        .expect("parses")
        .expect("one frame in");
    assert_eq!(parsed.to_frame().into_bytes(), frame);
    assert!(
        strex::dispatch::read_message_buffered(&mut reader, &mut buf)
            .expect("clean EOF")
            .is_none()
    );
}

/// `checkpoint` frames and the `assign` frame's `done` cells: a parse →
/// re-emit round trip must be byte-identical (resume from the decoded
/// cells is covered by `tests/checkpoint_resume.rs`; this is the frame
/// layer).
mod checkpoint_frames {
    use super::*;

    fn checkpoint_msg() -> Message {
        Message::Checkpoint {
            job: "job-9".into(),
            spec: ShardSpec::new(1, 3).expect("valid"),
            cell: Box::new((5, sample_cell())),
        }
    }

    fn assign_with_done_cells() -> Message {
        Message::Assign {
            job: "job-9".into(),
            work: JobSpec::Catalog("tiny".into()),
            spec: ShardSpec::new(1, 3).expect("valid"),
            done: vec![(2, sample_cell()), (5, sample_cell())],
        }
    }

    #[test]
    fn checkpoint_frames_round_trip_byte_identically() {
        for msg in [checkpoint_msg(), assign_with_done_cells()] {
            let json = msg.to_frame();
            let parsed = Message::parse_frame(&json).expect("own JSON parses");
            assert_eq!(parsed.to_frame(), json);
        }
        // One cell per checkpoint frame, in the shard cell layout.
        let frame = checkpoint_msg().to_frame();
        assert_eq!(frame.matches("\"report\":").count(), 1, "{frame}");
        assert!(frame.contains("\"cell\":{\"index\":5,"), "{frame}");
    }

    #[test]
    fn an_assign_without_done_cells_is_a_fresh_shard() {
        // A fresh assignment carries no `done`: the absent field means
        // "run every cell", and an empty list is never written.
        let frame =
            "{\"type\":\"assign\",\"job\":\"j\",\"campaign\":\"tiny\",\"index\":0,\"count\":2}\n";
        let msg = Message::parse_frame(frame).expect("fresh assign parses");
        assert!(
            matches!(&msg, Message::Assign { done, .. } if done.is_empty()),
            "{msg:?}"
        );
        assert_eq!(msg.to_frame(), frame, "no empty done array");
    }
}

/// The per-frame read deadline: a peer that dribbles a frame one byte at
/// a time must come back as a typed [`ProtoError::Stalled`], while slow
///-but-idle connections (no frame in flight) wait unbounded. Driven by a
/// [`FakeClock`] through an in-memory transport — no sockets, no sleeps.
mod frame_deadline {
    use super::*;
    use std::io::{BufRead, Read};
    use strex::dispatch::{FakeClock, FrameReader};

    /// An in-memory peer delivering one byte per read, advancing the
    /// shared fake clock by `step_ms` each time it is polled (and by
    /// `initial_wait_ms` once before the first byte — idle time between
    /// frames).
    struct Dribbler {
        data: Vec<u8>,
        pos: usize,
        clock: Arc<FakeClock>,
        step_ms: u64,
        initial_wait_ms: u64,
        waited: bool,
    }

    impl Dribbler {
        fn new(data: impl Into<Vec<u8>>, clock: Arc<FakeClock>, step_ms: u64) -> Dribbler {
            Dribbler {
                data: data.into(),
                pos: 0,
                clock,
                step_ms,
                initial_wait_ms: 0,
                waited: true,
            }
        }

        fn with_initial_wait(mut self, ms: u64) -> Dribbler {
            self.initial_wait_ms = ms;
            self.waited = false;
            self
        }
    }

    impl Read for Dribbler {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Dribbler {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if !self.waited {
                self.clock.advance(self.initial_wait_ms);
                self.waited = true;
            } else {
                self.clock.advance(self.step_ms);
            }
            let end = (self.pos + 1).min(self.data.len());
            Ok(&self.data[self.pos..end])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn a_dribbling_peer_is_a_typed_stall_not_a_pinned_thread() {
        let clock = Arc::new(FakeClock::new());
        // One byte per 200 ms against a 500 ms frame deadline: the frame
        // can never complete, and the reader must say so in finite steps.
        let peer = Dribbler::new(Message::Heartbeat.to_frame(), Arc::clone(&clock), 200);
        let mut reader = FrameReader::with_deadline(peer, 500, clock);
        match reader.next_message() {
            Err(ProtoError::Stalled { ms }) => assert_eq!(ms, 500),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn idle_time_between_frames_never_trips_the_deadline() {
        let clock = Arc::new(FakeClock::new());
        // An hour of silence before the first byte, then a fast frame:
        // the timer starts at the first byte, so this parses cleanly.
        let peer = Dribbler::new(Message::Heartbeat.to_frame(), Arc::clone(&clock), 1)
            .with_initial_wait(3_600_000);
        let mut reader = FrameReader::with_deadline(peer, 500, clock);
        assert!(matches!(
            reader.next_message().expect("parses"),
            Some(Message::Heartbeat)
        ));
    }

    #[test]
    fn a_frame_faster_than_the_deadline_parses_and_the_next_stall_is_caught() {
        let clock = Arc::new(FakeClock::new());
        // Two heartbeats: the first dribbles in under the wire, the
        // second is cut off mid-frame by the deadline — per-frame means
        // the first frame's speed buys the second nothing.
        let two = Message::Heartbeat.to_frame().repeat(2);
        let frame_len = Message::Heartbeat.to_frame().len() as u64;
        // Finish frame one with room to spare, then stall: the per-byte
        // step that lets ~2x frame-length polls through 500 ms.
        let step = 500 / (2 * frame_len + 2);
        let peer = Dribbler::new(two, Arc::clone(&clock), step.max(1));
        let mut reader = FrameReader::with_deadline(peer, 500, clock.clone());
        assert!(matches!(
            reader.next_message().expect("first frame parses"),
            Some(Message::Heartbeat)
        ));
        // Stall the rest of the stream: the second frame begins but the
        // clock now jumps a full deadline per byte.
        clock.advance(0); // (explicit: the dribbler keeps stepping)
        let second = reader.next_message();
        match second {
            Ok(Some(Message::Heartbeat)) => {
                // The second frame also made it under the deadline with
                // the same step — acceptable only if steps stayed small.
                assert!(step * (frame_len + 1) < 500);
            }
            Err(ProtoError::Stalled { ms }) => assert_eq!(ms, 500),
            other => panic!("expected a frame or a stall, got {other:?}"),
        }
    }
}
