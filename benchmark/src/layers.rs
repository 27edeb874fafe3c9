//! Attribution of one 1-core baseline cell's time to the memory layers.
//!
//! The cell runs through the campaign executor (timed by the benchmark's
//! registry); then its streams are replayed, all in the same run:
//!
//! * the trace, in order, through `MemorySystem::fetch_inst` and
//!   `access_data` — once untimed to capture the streams below and check
//!   the counts against the cell's `Report`, then fetches alone and data
//!   accesses alone, each timed;
//! * the L1 miss stream (demand misses and dirty write-backs, in order)
//!   through a standalone `SharedL2`;
//! * the L2 miss stream through a standalone `Dram`.
//!
//! Each replay is timed best-of-`reps`. A layer's self cost per operation
//! is its replay time less the layers below it (their ns/op times the
//! operations the replay sent them); its share of the cell is that cost
//! times the cell's operation count. What remains of the cell's time is the
//! driver and scheduler (`driver.self_ms`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use strex::{Campaign, Report, SimConfig};
use strex_oltp::trace::MemRef;
use strex_oltp::workload::Workload;
use strex_sim::addr::{Addr, BlockAddr};
use strex_sim::cache::SetAssocCache;
use strex_sim::hierarchy::MemorySystem;
use strex_sim::ids::{CoreId, Cycle};
use strex_sim::interconnect::Torus;
use strex_sim::l2::SharedL2;
use strex_sim::memory::Dram;
use strex_sim::stats::SharedStats;

use crate::metrics::{metric, Better, Metric};
use crate::stats::min;
use crate::trace::{timed_registry, CellTimer, Tracer};

/// One layer's work in the cell and its measured self cost.
#[derive(Copy, Clone, Debug, Default)]
pub struct Layer {
    pub ops: u64,
    pub misses: u64,
    pub ns_per_op: f64,
}

impl Layer {
    fn ms(&self) -> f64 {
        self.ops as f64 * self.ns_per_op / 1e6
    }

    fn miss_ratio(&self) -> f64 {
        self.misses as f64 / self.ops.max(1) as f64
    }
}

pub struct SimLayers {
    pub cell_ms: f64,
    pub l1i: Layer,
    pub l1d: Layer,
    pub l2: Layer,
    pub dram: Layer,
    /// Replay counts that differ from the cell's `Report`.
    pub problems: Vec<String>,
}

impl SimLayers {
    fn attributed_ms(&self) -> f64 {
        self.l1i.ms() + self.l1d.ms() + self.l2.ms() + self.dram.ms()
    }

    pub fn metrics(&self) -> Vec<Metric> {
        use Better::{Higher, Lower};
        let mut out = vec![
            metric("sim.l1i.ops", "count", Lower, self.l1i.ops as f64),
            metric("sim.l1i.miss_ratio", "ratio", Lower, self.l1i.miss_ratio()),
            metric("sim.l1i.ns_per_op", "ns", Lower, self.l1i.ns_per_op),
            metric("sim.l1d.ops", "count", Lower, self.l1d.ops as f64),
            metric("sim.l1d.miss_ratio", "ratio", Lower, self.l1d.miss_ratio()),
            metric("sim.l1d.ns_per_op", "ns", Lower, self.l1d.ns_per_op),
            metric("sim.l2.ops", "count", Lower, self.l2.ops as f64),
            metric("sim.l2.miss_ratio", "ratio", Lower, self.l2.miss_ratio()),
            metric("sim.l2.ns_per_op", "ns", Lower, self.l2.ns_per_op),
        ];
        out.push(metric("sim.dram.ops", "count", Lower, self.dram.ops as f64));
        out.push(metric(
            "sim.dram.ns_per_op",
            "ns",
            Lower,
            self.dram.ns_per_op,
        ));
        let attributed = self.attributed_ms();
        out.push(
            metric("sim.attributed_share", "ratio", Higher, attributed / self.cell_ms).with_note(
                format!(
                    "{attributed:.2} of {:.2} ms in the 1-core baseline cell; the rest is driver.self_ms",
                    self.cell_ms
                ),
            ),
        );
        out.push(metric(
            "driver.self_ms",
            "ms",
            Lower,
            self.cell_ms - attributed,
        ));
        out
    }
}

/// One data access of the captured stream.
struct DataRef {
    addr: Addr,
    write: bool,
    now: Cycle,
}

/// One request the L1s sent to the L2.
struct L2Ref {
    block: BlockAddr,
    now: Cycle,
    writeback: bool,
}

fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    min(&samples)
}

fn expect_eq(problems: &mut Vec<String>, what: &str, replay: u64, cell: u64) {
    if replay != cell {
        problems.push(format!("replay {what} {replay} != cell {cell}"));
    }
}

/// Runs `workload` as a 1-core baseline cell and attributes its time.
pub fn attribute(workload: &Workload, tracer: &Arc<Tracer>, reps: usize) -> SimLayers {
    let base = SimConfig::builder()
        .build()
        .expect("the default configuration is valid");
    let campaign = Campaign::new(base)
        .over_scheduler_names(["baseline"])
        .over_workloads([workload])
        .over_cores([1])
        .parallelism(1);
    let timer = CellTimer::new(Arc::clone(tracer));
    let reg = timed_registry(&timer);
    let (_, cfg) = campaign
        .cells(&reg)
        .expect("a 1-core baseline cell is valid")
        .remove(0);
    let sys = cfg.system;

    let mut cell_ns = Vec::new();
    let mut report: Option<Report> = None;
    for _ in 0..reps {
        let span = tracer.open("sim.cell", None, 0);
        timer.enter(span, 0);
        let result = campaign.run_on(&reg).expect("a 1-core baseline cell runs");
        tracer.close(span);
        cell_ns.extend(timer.take().iter().map(|c| c.ns as f64));
        report = Some(result.cells()[0].report.clone());
    }
    let report = report.expect("at least one repetition");
    let cell_ms = min(&cell_ns) / 1e6;

    // Capture pass: the driver's exact event order and arrival cycles for
    // one core running each transaction to completion, with a shadow L1-D
    // naming the dirty victims the hierarchy writes back.
    let core = CoreId::new(0);
    let mut mem = MemorySystem::new(sys);
    let mut shadow = SetAssocCache::new(sys.l1d_geometry, sys.l1d_replacement);
    let mut fetches: Vec<(BlockAddr, Cycle)> = Vec::new();
    let mut data: Vec<DataRef> = Vec::new();
    let mut l2_refs: Vec<L2Ref> = Vec::new();
    let mut problems = Vec::new();
    let mut cycle: Cycle = 0;
    for txn in workload.txns() {
        cycle += mem.context_transfer(core, cfg.strex.ctx_state_blocks);
        for r in txn.refs() {
            match r.decode() {
                MemRef::IFetch { block, instrs } => {
                    let f = mem.fetch_inst(core, block, 0, cycle);
                    mem.add_instructions(core, u64::from(instrs));
                    fetches.push((block, cycle));
                    if !f.hit {
                        l2_refs.push(L2Ref {
                            block,
                            now: cycle,
                            writeback: false,
                        });
                    }
                    cycle += u64::from(instrs) + f.stall;
                }
                MemRef::Load { addr } | MemRef::Store { addr } => {
                    let write = matches!(r.decode(), MemRef::Store { .. });
                    let d = mem.access_data(core, addr, write, cycle);
                    let block = addr.block();
                    let probe = if write {
                        shadow.access_write(block, 0)
                    } else {
                        shadow.access(block, 0)
                    };
                    if probe.hit != d.hit {
                        problems.push(format!("shadow L1-D disagrees at {addr:?}"));
                    }
                    if !d.hit {
                        if let Some(v) = probe.evicted.filter(|v| v.dirty) {
                            l2_refs.push(L2Ref {
                                block: v.block,
                                now: cycle,
                                writeback: true,
                            });
                        }
                        if !d.coherence {
                            l2_refs.push(L2Ref {
                                block,
                                now: cycle,
                                writeback: false,
                            });
                        }
                    }
                    data.push(DataRef {
                        addr,
                        write,
                        now: cycle,
                    });
                    if !write {
                        cycle += d.stall;
                    }
                }
            }
        }
    }
    let cell = report.stats.aggregate();
    let replay = mem.stats().aggregate();
    let shared = mem.shared_stats();
    expect_eq(
        &mut problems,
        "L1-I accesses",
        replay.i_accesses,
        cell.i_accesses,
    );
    expect_eq(&mut problems, "L1-I misses", replay.i_misses, cell.i_misses);
    expect_eq(
        &mut problems,
        "L1-D accesses",
        replay.d_accesses,
        cell.d_accesses,
    );
    expect_eq(&mut problems, "L1-D misses", replay.d_misses, cell.d_misses);
    expect_eq(
        &mut problems,
        "instructions",
        replay.instructions,
        cell.instructions,
    );
    expect_eq(
        &mut problems,
        "L2 accesses",
        shared.l2_accesses,
        report.stats.shared.l2_accesses,
    );
    expect_eq(
        &mut problems,
        "L2 misses",
        shared.l2_misses,
        report.stats.shared.l2_misses,
    );
    expect_eq(
        &mut problems,
        "L2 write-backs",
        shared.writebacks,
        report.stats.shared.writebacks,
    );
    expect_eq(&mut problems, "final cycle", cycle, report.makespan);

    let new_l2 = || {
        SharedL2::new(
            1,
            sys.l2_bytes_per_core,
            sys.l2_assoc,
            sys.l2_hit_latency,
            sys.l2_replacement,
            Torus::with_hop_latency(1, sys.hop_latency),
            Dram::new(sys.dram),
        )
    };
    // The L2 miss stream, at the cycle each miss reaches memory.
    let mut l2 = new_l2();
    let net = Torus::with_hop_latency(1, sys.hop_latency).round_trip(core, core);
    let mut dram_refs: Vec<(BlockAddr, Cycle)> = Vec::new();
    for r in &l2_refs {
        if r.writeback {
            l2.writeback(core, r.block);
        } else {
            let before = l2.stats().l2_misses;
            l2.access(core, r.block, r.now);
            if l2.stats().l2_misses > before {
                dram_refs.push((r.block, r.now + net / 2 + sys.l2_hit_latency));
            }
        }
    }
    let l2_stats = l2.stats();
    expect_eq(
        &mut problems,
        "standalone L2 accesses",
        l2_stats.l2_accesses,
        report.stats.shared.l2_accesses,
    );
    expect_eq(
        &mut problems,
        "standalone L2 misses",
        l2_stats.l2_misses,
        report.stats.shared.l2_misses,
    );
    expect_eq(
        &mut problems,
        "standalone L2 write-backs",
        l2_stats.writebacks,
        report.stats.shared.writebacks,
    );

    let dram_ns = time_best(reps, || {
        let mut dram = Dram::new(sys.dram);
        for &(block, at) in &dram_refs {
            black_box(dram.access(block, at));
        }
        dram.stats().requests
    });
    let l2_ns = time_best(reps, || {
        let mut l2 = new_l2();
        for r in &l2_refs {
            if r.writeback {
                l2.writeback(core, r.block);
            } else {
                black_box(l2.access(core, r.block, r.now));
            }
        }
        l2.stats()
    });
    let mut fetch_shared = SharedStats::default();
    let fetch_ns = time_best(reps, || {
        let mut m = MemorySystem::new(sys);
        for &(block, now) in &fetches {
            black_box(m.fetch_inst(core, block, 0, now));
        }
        fetch_shared = m.shared_stats();
    });
    let mut data_shared = SharedStats::default();
    let data_ns = time_best(reps, || {
        let mut m = MemorySystem::new(sys);
        for d in &data {
            black_box(m.access_data(core, d.addr, d.write, d.now));
        }
        data_shared = m.shared_stats();
    });

    let per = |ns: f64, ops: u64| ns / ops.max(1) as f64;
    let dram_op = per(dram_ns, dram_refs.len() as u64);
    let l2_op = per(
        l2_ns - l2_stats.l2_misses as f64 * dram_op,
        l2_stats.l2_accesses,
    );
    let below = |s: SharedStats| s.l2_accesses as f64 * l2_op + s.l2_misses as f64 * dram_op;
    SimLayers {
        cell_ms,
        l1i: Layer {
            ops: cell.i_accesses,
            misses: cell.i_misses,
            ns_per_op: per(fetch_ns - below(fetch_shared), fetches.len() as u64),
        },
        l1d: Layer {
            ops: cell.d_accesses,
            misses: cell.d_misses,
            ns_per_op: per(data_ns - below(data_shared), data.len() as u64),
        },
        l2: Layer {
            ops: report.stats.shared.l2_accesses,
            misses: report.stats.shared.l2_misses,
            ns_per_op: l2_op,
        },
        dram: Layer {
            ops: report.stats.shared.l2_misses,
            misses: 0,
            ns_per_op: dram_op,
        },
        problems,
    }
}
