//! Append-only job journal: the coordinator's crash-recovery ledger.
//!
//! A coordinator run with a journal writes every *durable* frame —
//! `submit`, `shard_done`, `checkpoint` — to disk, fsync'd, **before**
//! the state machine acts on it. On restart the ledger is replayed
//! through the pure [`Coordinator`](super::Coordinator) at each record's
//! original timestamp, rebuilding jobs, completion slots, reported cells,
//! the finished-result cache and the rate-limit buckets exactly as the
//! dead process had them. Transient frames (`register`, `heartbeat`,
//! `status`) are deliberately *not* journaled: workers must re-register
//! with the new process, and replay must not conjure phantom fleets.
//!
//! # Record format
//!
//! One record is a one-line JSON header followed by the frame itself, as
//! the same one-line JSON the wire carries:
//!
//! ```text
//! {"type":"journal","now_ms":1234,"conn":7,"peer":"10.0.0.3"}\n
//! {"type":"shard_done","job":"…","shard":{…}}\n
//! ```
//!
//! Appends are fsync'd per record — a journal append that returned `Ok`
//! survives the process. A crash *mid-append* leaves a partial record at
//! the tail; [`replay_journal_file`] tolerates exactly that (the frame
//! was never acted on — write-ahead means the ledger is a superset of
//! the applied state) and fails loudly on corruption anywhere else,
//! including a record in a format this build does not write (a journal
//! from an older build).

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::json::JsonWriter;
use crate::jsonval::JsonValue;

use super::coordinator::ConnId;
use super::proto::{read_message_buffered, Message, ProtoError};

/// One replayed journal record: the frame plus the context
/// [`Coordinator::replay_journal`](super::Coordinator::replay_journal)
/// feeds back through `handle`.
#[derive(Debug)]
pub struct JournalEntry {
    /// The coordinator clock when the frame was journaled.
    pub now_ms: u64,
    /// The connection the frame arrived on. Only meaningful *within* the
    /// ledger (replay closes them all at the end); never reused live.
    pub conn: ConnId,
    /// The submitter identity the rate limiter keys on.
    pub peer: String,
    /// The frame itself.
    pub msg: Message,
}

/// The write side: an append-only, fsync-per-record frame ledger.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens `path` for appending, creating it if absent. Replay the
    /// existing contents first — appends do not read.
    pub fn open_append(path: impl AsRef<Path>) -> io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Whether a frame belongs in the ledger: durable job state only.
    pub fn records(msg: &Message) -> bool {
        matches!(
            msg,
            Message::Submit { .. } | Message::ShardDone { .. } | Message::Checkpoint { .. }
        )
    }

    /// Appends one record and fsyncs it. When this returns `Ok`, the
    /// frame survives a crash of this process.
    pub fn append(
        &mut self,
        now_ms: u64,
        conn: ConnId,
        peer: &str,
        msg: &Message,
    ) -> io::Result<()> {
        let mut header = JsonWriter::new();
        header.begin_object();
        header.key("type");
        header.string("journal");
        header.key("now_ms");
        header.number_u64(now_ms);
        header.key("conn");
        header.number_u64(conn);
        header.key("peer");
        header.string(peer);
        header.end_object();
        let mut record = header.finish().into_bytes();
        record.push(b'\n');
        record.extend_from_slice(msg.to_frame().as_bytes());
        // One write, then fsync: the record is on disk in order, and a
        // crash can only ever truncate the final record.
        self.file.write_all(&record)?;
        self.file.sync_data()
    }
}

/// Reads a journal back into replayable entries. A missing file is an
/// empty ledger. A partial *final* record (crash mid-append) is dropped
/// silently — write-ahead ordering guarantees the state machine never
/// acted on it. Corruption anywhere else is an error: the ledger's
/// middle is load-bearing and must not be silently skipped.
pub fn replay_journal_file(path: impl AsRef<Path>) -> io::Result<Vec<JournalEntry>> {
    let file = match File::open(path.as_ref()) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    let mut entries = Vec::new();
    let mut line = String::new();
    let mut frame_buf = Vec::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(entries); // clean end of ledger
        }
        if !line.ends_with('\n') {
            return Ok(entries); // torn header at the tail
        }
        let header = match JsonValue::parse(&line) {
            Ok(doc) => doc,
            Err(e) => return Err(corrupt(entries.len(), format!("bad header: {e}"))),
        };
        let kind = header.get("type").and_then(JsonValue::as_str);
        if kind != Some("journal") {
            return Err(corrupt(
                entries.len(),
                format!("header type {kind:?}, expected \"journal\""),
            ));
        }
        let (now_ms, conn, peer) = match (
            header.get("now_ms").and_then(JsonValue::as_u64),
            header.get("conn").and_then(JsonValue::as_u64),
            header.get("peer").and_then(JsonValue::as_str),
        ) {
            (Some(n), Some(c), Some(p)) => (n, c, p.to_string()),
            _ => return Err(corrupt(entries.len(), "header missing a field".to_string())),
        };
        match read_message_buffered(&mut reader, &mut frame_buf) {
            Ok(Some(msg)) => entries.push(JournalEntry {
                now_ms,
                conn,
                peer,
                msg,
            }),
            // A header with no frame, or a torn frame, at the tail: the
            // crash hit between the header and the fsync. Drop it.
            Ok(None) | Err(ProtoError::Truncated { .. }) => return Ok(entries),
            Err(e) => return Err(corrupt(entries.len(), format!("bad frame: {e}"))),
        }
    }
}

fn corrupt(record: usize, detail: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("journal corrupt at record {record}: {detail}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::proto::JobSpec;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("strex-journal-{}-{name}.wal", std::process::id()));
        p
    }

    fn submit(campaign: &str) -> Message {
        Message::Submit {
            work: JobSpec::Catalog(campaign.to_string()),
            shards: 2,
        }
    }

    #[test]
    fn round_trips_records_in_order() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open_append(&path).expect("open");
        journal.append(10, 1, "10.0.0.1", &submit("quick")).unwrap();
        journal.append(20, 2, "10.0.0.2", &submit("other")).unwrap();
        let entries = replay_journal_file(&path).expect("replay");
        assert_eq!(entries.len(), 2);
        assert_eq!(
            (entries[0].now_ms, entries[0].conn, entries[0].peer.as_str()),
            (10, 1, "10.0.0.1")
        );
        assert_eq!(entries[1].now_ms, 20);
        assert!(
            matches!(&entries[1].msg, Message::Submit { work: JobSpec::Catalog(c), .. } if c == "other")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_ledger() {
        let entries = replay_journal_file(tmp("never-created")).expect("replay");
        assert!(entries.is_empty());
    }

    #[test]
    fn torn_tail_is_dropped_but_corrupt_middle_is_an_error() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open_append(&path).expect("open");
        journal.append(10, 1, "peer", &submit("quick")).unwrap();
        journal.append(20, 1, "peer", &submit("other")).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Chop bytes off the tail: every truncation point must replay to
        // either both records (only the trailing newline-adjacent bytes
        // missing would still truncate the second frame) or fewer — and
        // never error, because only the tail is damaged.
        for cut in 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let entries = replay_journal_file(&path).expect("torn tails replay cleanly");
            assert!(entries.len() <= 2);
        }

        // Corruption in the middle (first record's frame bytes) must
        // surface, not silently skip.
        let mut corrupted = full.clone();
        let frame_start = corrupted
            .iter()
            .position(|&b| b == b'\n')
            .expect("header newline")
            + 1;
        corrupted[frame_start] = b'X'; // first record's frame no longer parses
        std::fs::write(&path, &corrupted).unwrap();
        assert!(replay_journal_file(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_binary_record_from_an_older_build_is_a_typed_corruption() {
        let path = tmp("old-binary");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open_append(&path).expect("open");
        journal.append(10, 1, "peer", &submit("quick")).unwrap();
        // An older build wrote payload frames as a 0xB1 magic byte, a
        // little-endian `u32` length, the payload and a newline.
        let payload = [0xB1, b'D', 3, 0, 0, 0, b'j', b'o', b'b'];
        let mut record =
            b"{\"type\":\"journal\",\"now_ms\":20,\"conn\":1,\"peer\":\"peer\"}\n".to_vec();
        record.push(0xB1);
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        record.push(b'\n');
        journal.file.write_all(&record).unwrap();
        journal.append(30, 1, "peer", &submit("other")).unwrap();

        let err = replay_journal_file(&path).expect_err("an old record is not a torn tail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("journal corrupt at record 1"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
