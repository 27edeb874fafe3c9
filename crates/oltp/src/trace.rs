//! Transaction reference traces and cursors.
//!
//! The paper's methodology replays instruction traces of TPC-C/TPC-E through
//! a timing simulator (Section 5.1). This reproduction does the same: every
//! transaction is materialized as a [`TxnTrace`] — the exact sequence of
//! instruction-block fetches and data accesses its execution produces — and
//! the schedulers replay traces through the memory hierarchy via resumable
//! [`TraceCursor`]s, which is what makes context switching at arbitrary
//! points (STREX) and mid-flight migration (SLICC) possible.
//!
//! # Packed event representation
//!
//! Trace replay is the simulator's memory-bandwidth floor: every simulated
//! event is one read of the trace stream, and the enum form of [`MemRef`]
//! occupies 16 bytes (payload + discriminant + padding). Traces therefore
//! store events as [`PackedRef`] — one `u64` per event, with the operation
//! kind, the fetch group's instruction count and the address folded into a
//! single word — halving the stream bandwidth the replay loop pulls through
//! the host caches. [`MemRef`] remains the decoded view: builders construct
//! traces from `MemRef`s and analyses decode on demand; the conversion is a
//! handful of shifts with no branches on the field extractions.
//!
//! Layout of a packed word (low to high):
//!
//! | bits  | field                                              |
//! |-------|----------------------------------------------------|
//! | 0..2  | kind: 0 = IFetch, 1 = Load, 2 = Store              |
//! | 2..10 | instructions retired (fetches; zero for data ops)  |
//! | 10..64| payload: block index (fetch) or byte address (data)|
//!
//! The 54-bit payload covers 2^54 blocks / bytes; the workload generator's
//! address layout stays far below it, and [`PackedRef::encode`] rejects
//! anything larger.

use strex_sim::addr::{Addr, BlockAddr};
use strex_sim::ids::TxnTypeId;

/// Stride, in bytes, of workspace streaming writes (one touch per block).
pub const WORKSPACE_STRIDE: u64 = 64;

/// One event of a transaction's execution (decoded view).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum MemRef {
    /// Fetch of one instruction cache block, retiring `instrs` instructions.
    IFetch {
        /// The code block fetched.
        block: BlockAddr,
        /// Instructions retired out of this block before the next event.
        instrs: u8,
    },
    /// A data load.
    Load {
        /// Byte address read.
        addr: Addr,
    },
    /// A data store.
    Store {
        /// Byte address written.
        addr: Addr,
    },
}

impl MemRef {
    /// Instructions retired by this event (zero for data accesses, whose
    /// instructions are accounted by their enclosing fetch group).
    pub fn instrs(self) -> u64 {
        match self {
            MemRef::IFetch { instrs, .. } => instrs as u64,
            MemRef::Load { .. } | MemRef::Store { .. } => 0,
        }
    }

    /// The instruction block, if this is a fetch.
    pub fn fetch_block(self) -> Option<BlockAddr> {
        match self {
            MemRef::IFetch { block, .. } => Some(block),
            _ => None,
        }
    }
}

/// Kind field of a packed event: instruction fetch.
const KIND_IFETCH: u64 = 0;
/// Kind field of a packed event: data load.
const KIND_LOAD: u64 = 1;
/// Kind field of a packed event: data store.
const KIND_STORE: u64 = 2;

/// Bit position of the instruction-count field.
const INSTR_SHIFT: u32 = 2;
/// Bit position of the payload (block index / byte address) field.
const PAYLOAD_SHIFT: u32 = 10;
/// Widest payload a packed event can carry.
const PAYLOAD_MAX: u64 = (1 << (64 - PAYLOAD_SHIFT)) - 1;

/// One trace event packed into a single `u64` (see the module doc).
///
/// # Examples
///
/// ```
/// use strex_oltp::trace::{MemRef, PackedRef};
/// use strex_sim::addr::BlockAddr;
///
/// let e = MemRef::IFetch { block: BlockAddr::new(42), instrs: 9 };
/// let p = PackedRef::encode(e);
/// assert_eq!(p.decode(), e);
/// assert_eq!(p.instrs(), 9);
/// assert_eq!(p.fetch_block(), Some(BlockAddr::new(42)));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct PackedRef(u64);

impl PackedRef {
    /// Packs a decoded event.
    ///
    /// # Panics
    ///
    /// Panics if the address payload exceeds the 54-bit packed field —
    /// unreachable for generator-produced traces, whose address layout tops
    /// out far below it.
    pub fn encode(r: MemRef) -> Self {
        let (kind, instrs, payload) = match r {
            MemRef::IFetch { block, instrs } => (KIND_IFETCH, instrs as u64, block.index()),
            MemRef::Load { addr } => (KIND_LOAD, 0, addr.value()),
            MemRef::Store { addr } => (KIND_STORE, 0, addr.value()),
        };
        assert!(
            payload <= PAYLOAD_MAX,
            "trace address {payload:#x} overflows the packed event payload"
        );
        PackedRef(kind | (instrs << INSTR_SHIFT) | (payload << PAYLOAD_SHIFT))
    }

    /// The raw packed word.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Decodes back to the enum view. Field extraction is shift/mask only;
    /// the final three-way dispatch is the same discriminant branch the
    /// enum form carried.
    #[inline]
    pub fn decode(self) -> MemRef {
        let payload = self.payload();
        match self.0 & 0b11 {
            KIND_IFETCH => MemRef::IFetch {
                block: BlockAddr::new(payload),
                instrs: ((self.0 >> INSTR_SHIFT) & 0xff) as u8,
            },
            KIND_LOAD => MemRef::Load {
                addr: Addr::new(payload),
            },
            _ => MemRef::Store {
                addr: Addr::new(payload),
            },
        }
    }

    /// The payload field: block index for fetches, byte address for data.
    #[inline]
    pub fn payload(self) -> u64 {
        self.0 >> PAYLOAD_SHIFT
    }

    /// `true` if this is an instruction fetch.
    #[inline]
    pub fn is_fetch(self) -> bool {
        self.0 & 0b11 == KIND_IFETCH
    }

    /// Instructions retired by this event — branch-free: data events store
    /// a zero instruction field, so no kind test is needed.
    #[inline]
    pub fn instrs(self) -> u64 {
        (self.0 >> INSTR_SHIFT) & 0xff
    }

    /// The instruction block, if this is a fetch.
    #[inline]
    pub fn fetch_block(self) -> Option<BlockAddr> {
        if self.is_fetch() {
            Some(BlockAddr::new(self.payload()))
        } else {
            None
        }
    }
}

impl From<MemRef> for PackedRef {
    fn from(r: MemRef) -> Self {
        PackedRef::encode(r)
    }
}

impl From<PackedRef> for MemRef {
    fn from(p: PackedRef) -> Self {
        p.decode()
    }
}

/// The full reference trace of one transaction instance.
#[derive(Clone, Debug)]
pub struct TxnTrace {
    txn_type: TxnTypeId,
    type_name: &'static str,
    refs: Vec<PackedRef>,
    instr_total: u64,
}

impl TxnTrace {
    /// Builds a trace from raw events, packing them into the 8-byte
    /// representation the replay loop streams.
    pub fn new(txn_type: TxnTypeId, type_name: &'static str, refs: Vec<MemRef>) -> Self {
        let refs: Vec<PackedRef> = refs.into_iter().map(PackedRef::encode).collect();
        let instr_total = refs.iter().map(|r| r.instrs()).sum();
        TxnTrace {
            txn_type,
            type_name,
            refs,
            instr_total,
        }
    }

    /// The transaction type this instance belongs to.
    pub fn txn_type(&self) -> TxnTypeId {
        self.txn_type
    }

    /// Human-readable type name ("NewOrder", "Payment", ...).
    pub fn type_name(&self) -> &'static str {
        self.type_name
    }

    /// The packed events of the trace — the stream the driver replays.
    #[inline]
    pub fn refs(&self) -> &[PackedRef] {
        &self.refs
    }

    /// The events decoded back to the legacy enum view (analyses and
    /// differential tests; allocates).
    pub fn decode_refs(&self) -> Vec<MemRef> {
        self.refs.iter().map(|r| r.decode()).collect()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Total instructions retired by the transaction.
    pub fn instr_total(&self) -> u64 {
        self.instr_total
    }

    /// Unique instruction blocks touched — the transaction's instruction
    /// footprint, the quantity the FPTable records (Table 3).
    pub fn unique_code_blocks(&self) -> usize {
        let mut blocks: Vec<u64> = self
            .refs
            .iter()
            .filter_map(|r| r.fetch_block().map(BlockAddr::index))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks.len()
    }

    /// Instruction footprint in L1-I-size units of `l1i_bytes` (rounded up),
    /// the unit the hybrid mechanism's FPTable uses.
    pub fn footprint_units(&self, l1i_bytes: u64) -> u64 {
        let bytes = self.unique_code_blocks() as u64 * strex_sim::addr::BLOCK_SIZE;
        bytes.div_ceil(l1i_bytes)
    }
}

/// A resumable read position within a [`TxnTrace`].
///
/// Cursors index into traces owned elsewhere so that a trace can be shared
/// by several replicas (Figure 4 replicates instances ten times).
///
/// # Examples
///
/// ```
/// use strex_oltp::trace::{MemRef, TraceCursor, TxnTrace};
/// use strex_sim::addr::BlockAddr;
/// use strex_sim::ids::TxnTypeId;
///
/// let t = TxnTrace::new(
///     TxnTypeId::new(0),
///     "demo",
///     vec![MemRef::IFetch { block: BlockAddr::new(1), instrs: 10 }],
/// );
/// let mut cur = TraceCursor::new();
/// assert!(cur.peek(&t).is_some());
/// cur.advance();
/// assert!(cur.done(&t));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct TraceCursor {
    pos: usize,
}

impl TraceCursor {
    /// A cursor at the start of a trace.
    pub fn new() -> Self {
        TraceCursor { pos: 0 }
    }

    /// Current event index.
    pub fn position(self) -> usize {
        self.pos
    }

    /// Positions the cursor at event `pos` (the driver writes back the
    /// index it advanced to while replaying the packed stream directly).
    #[inline]
    pub fn set_position(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// The next event to replay (decoded), or `None` at end of trace.
    #[inline]
    pub fn peek(self, trace: &TxnTrace) -> Option<MemRef> {
        trace.refs.get(self.pos).map(|r| r.decode())
    }

    /// Moves past the current event.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// `true` once every event has been replayed.
    pub fn done(self, trace: &TxnTrace) -> bool {
        self.pos >= trace.refs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_refs() -> Vec<MemRef> {
        vec![
            MemRef::IFetch {
                block: BlockAddr::new(1),
                instrs: 10,
            },
            MemRef::Load {
                addr: Addr::new(4096),
            },
            MemRef::IFetch {
                block: BlockAddr::new(2),
                instrs: 12,
            },
            MemRef::IFetch {
                block: BlockAddr::new(1),
                instrs: 8,
            },
            MemRef::Store {
                addr: Addr::new(8192),
            },
        ]
    }

    fn demo_trace() -> TxnTrace {
        TxnTrace::new(TxnTypeId::new(3), "demo", demo_refs())
    }

    #[test]
    fn instr_total_sums_fetch_groups() {
        let t = demo_trace();
        assert_eq!(t.instr_total(), 30);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn unique_blocks_deduplicated() {
        let t = demo_trace();
        assert_eq!(t.unique_code_blocks(), 2);
    }

    #[test]
    fn footprint_units_round_up() {
        let t = demo_trace();
        // 2 blocks = 128 bytes; one 64-byte "L1" unit would be 2 units.
        assert_eq!(t.footprint_units(64), 2);
        assert_eq!(t.footprint_units(1024), 1);
    }

    #[test]
    fn cursor_replays_in_order() {
        let t = demo_trace();
        let mut c = TraceCursor::new();
        let mut seen = Vec::new();
        while let Some(r) = c.peek(&t) {
            seen.push(r);
            c.advance();
        }
        assert_eq!(seen, demo_refs());
        assert_eq!(seen, t.decode_refs());
        assert!(c.done(&t));
    }

    #[test]
    fn empty_trace_is_done_immediately() {
        let t = TxnTrace::new(TxnTypeId::new(0), "empty", Vec::new());
        let c = TraceCursor::new();
        assert!(c.done(&t));
        assert_eq!(t.footprint_units(32 * 1024), 0);
    }

    #[test]
    fn memref_accessors() {
        let f = MemRef::IFetch {
            block: BlockAddr::new(9),
            instrs: 4,
        };
        assert_eq!(f.instrs(), 4);
        assert_eq!(f.fetch_block(), Some(BlockAddr::new(9)));
        let l = MemRef::Load { addr: Addr::new(1) };
        assert_eq!(l.instrs(), 0);
        assert_eq!(l.fetch_block(), None);
    }

    #[test]
    fn packed_round_trips_each_kind() {
        for r in [
            MemRef::IFetch {
                block: BlockAddr::new(0),
                instrs: 0,
            },
            MemRef::IFetch {
                block: BlockAddr::new(PAYLOAD_MAX),
                instrs: 255,
            },
            MemRef::Load {
                addr: Addr::new(0x8000_0040),
            },
            MemRef::Store {
                addr: Addr::new(PAYLOAD_MAX),
            },
        ] {
            let p = PackedRef::encode(r);
            assert_eq!(p.decode(), r, "{r:?}");
            assert_eq!(p.instrs(), r.instrs());
            assert_eq!(p.fetch_block(), r.fetch_block());
            assert_eq!(MemRef::from(PackedRef::from(r)), r);
        }
    }

    #[test]
    fn packed_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<PackedRef>(), 8);
        // The very point of the packing: the enum view is twice the size.
        assert_eq!(std::mem::size_of::<MemRef>(), 16);
    }

    #[test]
    #[should_panic(expected = "overflows the packed event payload")]
    fn oversized_address_rejected() {
        let _ = PackedRef::encode(MemRef::Store {
            addr: Addr::new(PAYLOAD_MAX + 1),
        });
    }

    #[test]
    fn cursor_set_position_round_trips() {
        let t = demo_trace();
        let mut c = TraceCursor::new();
        c.set_position(3);
        assert_eq!(c.position(), 3);
        assert_eq!(c.peek(&t), Some(demo_refs()[3]));
    }
}
