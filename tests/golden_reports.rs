//! Golden-snapshot determinism test: the simulator's observable results
//! must be bit-identical across refactors of the cache/driver hot path.
//!
//! Every `SchedulerKind` × `ReplacementKind` combination runs a fixed-seed
//! TPC-C-1 preset at 4 cores; the integer report fields (makespan,
//! per-transaction latencies, miss counters, context switches) are
//! rendered to a canonical text form and compared against the committed
//! snapshot, which was recorded from the pre-optimization seed
//! implementation. A second block runs every scheduler over MapReduce at
//! 2 and 16 cores under LRU: a quarter of MapReduce's data accesses miss
//! the L1-D, so these are the cells where MESI invalidations, write-backs
//! and cache-to-cache transfers are densest.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test --test golden_reports
//! ```
//!
//! and commit the diff of `tests/golden/report_snapshot.txt` with an
//! explanation of why results changed.

use std::fmt::Write as _;

use strex::config::{SchedulerKind, SimConfig};
use strex::driver::run;
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::config::SystemConfig;
use strex_sim::replacement::ReplacementKind;

const SNAPSHOT_PATH: &str = "tests/golden/report_snapshot.txt";
const GOLDEN_SEED: u64 = 20130624;
const CORES: usize = 4;
const POOL: usize = 8;
const MAPREDUCE_POOL: usize = 16;

/// One cell's report as the snapshot's integer fields, in canonical order.
fn cell(workload: &Workload, sched: SchedulerKind, repl: ReplacementKind, cores: usize) -> String {
    let mut system = SystemConfig::with_cores(cores);
    system.l1i_replacement = repl;
    system.l1d_replacement = repl;
    let cfg = SimConfig::builder()
        .system(system)
        .scheduler(sched)
        .build()
        .expect("golden configuration is valid");
    let r = run(workload, &cfg);
    let agg = r.stats.aggregate();
    let latencies: Vec<String> = r.latencies.iter().map(|l| l.to_string()).collect();
    format!(
        "makespan={} latencies=[{}] \
         instructions={} i_accesses={} i_misses={} i_mpki={:.6} \
         d_accesses={} d_misses={} d_coherence_misses={} \
         l2_accesses={} l2_misses={} writebacks={} \
         context_switches={} migrations={}",
        r.makespan,
        latencies.join(","),
        agg.instructions,
        agg.i_accesses,
        agg.i_misses,
        r.i_mpki(),
        agg.d_accesses,
        agg.d_misses,
        agg.d_coherence_misses,
        r.stats.shared.l2_accesses,
        r.stats.shared.l2_misses,
        r.stats.shared.writebacks,
        r.context_switches,
        r.migrations,
    )
}

fn render_all() -> String {
    let mut out = String::new();
    let workload = Workload::preset_small(WorkloadKind::TpccW1, POOL, GOLDEN_SEED);
    let _ = writeln!(
        out,
        "# golden reports: workload={} pool={POOL} seed={GOLDEN_SEED} cores={CORES}",
        workload.name()
    );
    for sched in SchedulerKind::ALL {
        for repl in ReplacementKind::ALL {
            let fields = cell(&workload, sched, repl, CORES);
            let _ = writeln!(out, "scheduler={} repl={repl} {fields}", sched.key());
        }
    }
    let workload = Workload::preset_small(WorkloadKind::MapReduce, MAPREDUCE_POOL, GOLDEN_SEED);
    let _ = writeln!(
        out,
        "# golden reports: workload={} pool={MAPREDUCE_POOL} seed={GOLDEN_SEED} repl=LRU",
        workload.name()
    );
    for cores in [2, 16] {
        for sched in SchedulerKind::ALL {
            let fields = cell(&workload, sched, ReplacementKind::Lru, cores);
            let _ = writeln!(out, "scheduler={} cores={cores} {fields}", sched.key());
        }
    }
    out
}

#[test]
fn reports_match_committed_snapshot() {
    let rendered = render_all();
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(SNAPSHOT_PATH, &rendered).expect("write snapshot");
        eprintln!("regenerated {SNAPSHOT_PATH}; review and commit the diff");
        return;
    }
    let committed = std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("snapshot file missing — run with GOLDEN_WRITE=1 to create it");
    if rendered != committed {
        // Report the first divergent line, which names the exact cell.
        for (line, (got, want)) in rendered.lines().zip(committed.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "snapshot diverged at line {} — results are no longer \
                 bit-identical to the committed baseline",
                line + 1
            );
        }
        panic!(
            "snapshot line count changed: got {}, committed {}",
            rendered.lines().count(),
            committed.lines().count()
        );
    }
}
