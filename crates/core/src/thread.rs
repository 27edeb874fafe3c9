//! Transaction-thread state: a virtual hardware context replaying a trace.

use strex_oltp::trace::TraceCursor;
use strex_sim::ids::{Cycle, ThreadId, TxnTypeId};

/// One transaction thread (virtual context).
#[derive(Clone, Debug)]
pub struct TxnThread {
    id: ThreadId,
    trace_idx: usize,
    txn_type: TxnTypeId,
    cursor: TraceCursor,
    arrival: Cycle,
    completed: Option<Cycle>,
}

impl TxnThread {
    /// Creates a thread replaying `traces[trace_idx]`, arriving at `arrival`.
    pub fn new(id: ThreadId, trace_idx: usize, txn_type: TxnTypeId, arrival: Cycle) -> Self {
        TxnThread {
            id,
            trace_idx,
            txn_type,
            cursor: TraceCursor::new(),
            arrival,
            completed: None,
        }
    }

    /// Thread identifier.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Index of the trace this thread replays.
    pub fn trace_idx(&self) -> usize {
        self.trace_idx
    }

    /// Transaction type (team formation key).
    pub fn txn_type(&self) -> TxnTypeId {
        self.txn_type
    }

    /// Replay cursor.
    pub fn cursor(&self) -> TraceCursor {
        self.cursor
    }

    /// Mutable replay cursor.
    pub fn cursor_mut(&mut self) -> &mut TraceCursor {
        &mut self.cursor
    }

    /// Arrival cycle (entering the transaction queue).
    pub fn arrival(&self) -> Cycle {
        self.arrival
    }

    /// Completion cycle, if finished.
    pub fn completed(&self) -> Option<Cycle> {
        self.completed
    }

    /// Marks the thread complete at `now`.
    ///
    /// # Panics
    ///
    /// Panics if already marked complete.
    pub fn mark_completed(&mut self, now: Cycle) {
        assert!(self.completed.is_none(), "thread completed twice");
        self.completed = Some(now);
    }

    /// Latency from queue entry to completion (Section 5.4's metric), if
    /// the thread has finished.
    pub fn latency(&self) -> Option<Cycle> {
        self.completed.map(|c| c - self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut t = TxnThread::new(ThreadId::new(1), 0, TxnTypeId::new(2), 100);
        assert_eq!(t.arrival(), 100);
        assert_eq!(t.completed(), None);
        assert_eq!(t.latency(), None);
        t.mark_completed(500);
        assert_eq!(t.latency(), Some(400));
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut t = TxnThread::new(ThreadId::new(1), 0, TxnTypeId::new(0), 0);
        t.mark_completed(10);
        t.mark_completed(20);
    }

    #[test]
    fn cursor_is_mutable() {
        let mut t = TxnThread::new(ThreadId::new(3), 7, TxnTypeId::new(0), 0);
        t.cursor_mut().advance();
        assert_eq!(t.cursor().position(), 1);
        assert_eq!(t.trace_idx(), 7);
    }
}
