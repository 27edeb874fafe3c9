//! One function per figure/table of the paper's evaluation (Section 5).
//!
//! Every function returns rendered text plus structured rows so tests can
//! assert on the numbers. The `Effort` knob scales pool sizes: `Full`
//! matches the experiment index in DESIGN.md; `Quick` runs the same code in
//! seconds for CI.

use std::sync::Arc;

use strex::campaign::Campaign;
use strex::config::{SchedulerKind, SimConfig, SliccParams, StrexParams};
use strex::cost::{CostBreakdown, CostParams};
use strex::driver::run;
use strex::report::Report;
use strex::sched::FpTable;
use strex_oltp::cache::WorkloadCache;
use strex_oltp::overlap::{analyze, OverlapConfig};
use strex_oltp::tpcc::{TpccCode, TpccTxnKind};
use strex_oltp::tpce::TpceTxnKind;
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::prefetch::PrefetcherKind;
use strex_sim::replacement::ReplacementKind;

use crate::table::{f1, f2, TextTable};

/// Experiment scale.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Effort {
    /// Small pools, scaled databases — seconds, for CI.
    Quick,
    /// The DESIGN.md experiment index — minutes.
    Full,
}

/// Transaction-pool size the figure 5/6 matrix scales down from (also
/// the quick matrix of `perf::quick_matrix_workloads`).
pub const MATRIX_POOL: usize = 240;

impl Effort {
    /// Pool size at this effort, scaled down from the full-effort `full`.
    pub fn pool(self, full: usize) -> usize {
        match self {
            Effort::Quick => (full / 8).max(8),
            Effort::Full => full,
        }
    }

    /// The workload a figure uses at this effort, served through the
    /// process-wide [`WorkloadCache`]: generated once per process per
    /// `(kind, size, seed)`, shared by every figure, shard and job that
    /// asks again.
    pub fn workload(self, kind: WorkloadKind, size: usize, seed: u64) -> Arc<Workload> {
        match self {
            Effort::Quick => WorkloadCache::preset_small(kind, self.pool(size), seed),
            Effort::Full => WorkloadCache::preset(kind, size, seed),
        }
    }

    /// Core counts the run matrices sweep at this effort.
    pub fn core_counts(self) -> Vec<usize> {
        match self {
            Effort::Quick => vec![2, 4],
            Effort::Full => vec![2, 4, 8, 16],
        }
    }
}

/// The global experiment seed (fixed for reproducibility).
pub const SEED: u64 = 20130624;

fn sim(cores: usize, kind: SchedulerKind) -> SimConfig {
    SimConfig::builder()
        .cores(cores)
        .scheduler(kind)
        .build()
        .expect("experiment configurations are valid")
}

fn sim_prefetch(cores: usize, pf: PrefetcherKind) -> SimConfig {
    SimConfig::builder()
        .cores(cores)
        .prefetcher(pf)
        .build()
        .expect("experiment configurations are valid")
}

/// Figure 1: transaction flow graphs with per-action instruction footprints.
pub fn fig1() -> String {
    let code = TpccCode::new();
    let mut out = String::from(
        "Figure 1: TPC-C action flow graphs with instruction footprints\n\
         (R = lookup, U = update, I = insert, IT = index scan)\n\n",
    );
    let flows: [(&str, Vec<&str>); 2] = [
        (
            "NewOrder",
            vec![
                "begin",
                "R(WH)",
                "R(DIST)",
                "U(DIST)",
                "R(CUST)",
                "I(ORD)",
                "I(NORD)",
                "loop x OL_CNT { R(ITEM)",
                "R(STOCK)+U(STOCK)",
                "I(OL) }",
                "commit",
            ],
        ),
        (
            "Payment",
            vec![
                "begin",
                "R(WH)+U(WH)",
                "R(DIST)+U(DIST)",
                "IT(CUST)?",
                "R(CUST)",
                "U(CUST)",
                "I(HIST)",
                "commit",
            ],
        ),
    ];
    for (name, actions) in flows {
        let kind = if name == "NewOrder" {
            TpccTxnKind::NewOrder
        } else {
            TpccTxnKind::Payment
        };
        out.push_str(&format!(
            "{name} (Table 3 target: {} L1-I units)\n",
            kind.footprint_units()
        ));
        for (action, region) in actions.iter().zip(code.actions(kind)) {
            out.push_str(&format!("  {:28} {:>4} KB\n", action, region.len() / 1024));
        }
        out.push('\n');
    }
    out
}

/// Figure 2: temporal overlap of 16 same-type transactions on 16 cores.
pub fn fig2(effort: Effort) -> (String, Vec<(f64, f64)>) {
    let mut out = String::from("Figure 2: temporal instruction overlap\n\n");
    let mut headline = Vec::new();
    for kind in [TpccTxnKind::NewOrder, TpccTxnKind::Payment] {
        let n = match effort {
            Effort::Quick => 8,
            Effort::Full => 16,
        };
        let w = Workload::tpcc_same_type(kind, 1, n, SEED);
        let samples = analyze(w.txns(), OverlapConfig::default());
        let mut t = TextTable::new(vec!["K-instr", "=1", "<5", "<10", ">=10", ">=5"]);
        let step = (samples.len() / 12).max(1);
        for s in samples.iter().step_by(step) {
            t.row(vec![
                f1(s.k_instructions),
                f2(s.one),
                f2(s.lt5),
                f2(s.lt10),
                f2(s.ge10),
                f2(s.ge5()),
            ]);
        }
        let avg_ge5: f64 =
            samples.iter().map(|s| s.ge5()).sum::<f64>() / samples.len().max(1) as f64;
        out.push_str(&format!(
            "{kind}: mean fraction of touched blocks in >=5 caches: {:.2}\n{}\n",
            avg_ge5,
            t.render()
        ));
        headline.push((avg_ge5, samples.len() as f64));
    }
    (out, headline)
}

/// A Figure 4 data point: baseline vs identical-transaction STREX I-MPKI.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Transaction type name.
    pub name: &'static str,
    /// Baseline I-MPKI.
    pub base: f64,
    /// STREX-with-identical-transactions I-MPKI.
    pub ctx_identical: f64,
}

/// Figure 4: I-MPKI with the optimal synchronization of identical
/// transactions (10 instances, each replicated 10 times).
pub fn fig4(effort: Effort) -> (String, Vec<Fig4Row>) {
    let (instances, replicas) = match effort {
        Effort::Quick => (2, 3),
        Effort::Full => (10, 10),
    };
    let mut rows = Vec::new();
    let mut collect = |name: &'static str, pool: Vec<strex_oltp::TxnTrace>| {
        let mut txns = Vec::new();
        for t in pool.into_iter().take(instances) {
            for _ in 0..replicas {
                txns.push(t.clone());
            }
        }
        let w = Workload::new(name, txns);
        let base = run(&w, &sim(1, SchedulerKind::Baseline));
        let strex = run(&w, &sim(1, SchedulerKind::Strex));
        rows.push(Fig4Row {
            name,
            base: base.i_mpki(),
            ctx_identical: strex.i_mpki(),
        });
    };
    for kind in TpccTxnKind::ALL {
        let w = Workload::tpcc_same_type(kind, 1, instances, SEED);
        collect(kind.name(), w.into_txns());
    }
    for kind in TpceTxnKind::ALL {
        let w = Workload::tpce_same_type(kind, instances, SEED);
        collect(kind.name(), w.into_txns());
    }
    let mut t = TextTable::new(vec!["type", "Baseline", "CTX-Identical", "reduction"]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            f1(r.base),
            f1(r.ctx_identical),
            format!("{:.0}%", (1.0 - r.ctx_identical / r.base) * 100.0),
        ]);
    }
    (
        format!("Figure 4: I-MPKI, identical transactions\n\n{}", t.render()),
        rows,
    )
}

/// A Figure 5/6 data point.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Workload name.
    pub workload: &'static str,
    /// Core count.
    pub cores: usize,
    /// Scheduler/technique label.
    pub technique: String,
    /// Instruction MPKI.
    pub i_mpki: f64,
    /// Data MPKI.
    pub d_mpki: f64,
    /// Throughput relative to the workload's 2-core baseline.
    pub rel_throughput: f64,
}

/// Figures 5 and 6: the full scheduler x core-count x workload matrix.
///
/// Figure 5 reads the `i_mpki`/`d_mpki` columns (Base/SLICC/STREX); Figure 6
/// reads `rel_throughput` (adding next-line, PIF and the hybrid). The
/// matrix is declared as a [`Campaign`] per technique family and executed
/// on a worker pool; results are read back by cell key, so row order is
/// independent of execution order.
pub fn fig5_fig6(effort: Effort) -> (String, Vec<MatrixRow>) {
    fig5_fig6_campaign(effort).0
}

/// [`fig5_fig6`] plus the raw scheduler campaign (for JSON export).
pub fn fig5_fig6_campaign(
    effort: Effort,
) -> ((String, Vec<MatrixRow>), strex::campaign::CampaignResult) {
    let kinds = [
        SchedulerKind::Baseline,
        SchedulerKind::Slicc,
        SchedulerKind::Strex,
        SchedulerKind::Hybrid,
    ];
    let workloads: Vec<Arc<Workload>> = WorkloadKind::ALL
        .into_iter()
        .map(|wk| effort.workload(wk, MATRIX_POOL, SEED))
        .collect();
    let core_counts = effort.core_counts();

    let sched_matrix = Campaign::new(sim(2, SchedulerKind::Baseline))
        .over_schedulers(kinds)
        .over_workloads(workloads.iter().map(|w| &**w))
        .over_cores(core_counts.iter().copied())
        .run()
        .expect("figure 5/6 scheduler matrix is valid");
    let pf_matrices: Vec<(PrefetcherKind, strex::campaign::CampaignResult)> =
        [PrefetcherKind::NextLine, PrefetcherKind::PifIdeal]
            .into_iter()
            .map(|pf| {
                let m = Campaign::new(sim_prefetch(2, pf))
                    .over_workloads(workloads.iter().map(|w| &**w))
                    .over_cores(core_counts.iter().copied())
                    .run()
                    .expect("figure 6 prefetcher matrix is valid");
                (pf, m)
            })
            .collect();

    let mut rows = Vec::new();
    for (wk, w) in WorkloadKind::ALL.into_iter().zip(&workloads) {
        let base2 = sched_matrix
            .report(w.name(), SchedulerKind::Baseline.key(), 2)
            .expect("2-core baseline is part of the matrix");
        for &cores in &core_counts {
            let mut push = |label: String, r: &Report| {
                rows.push(MatrixRow {
                    workload: wk.name(),
                    cores,
                    technique: label,
                    i_mpki: r.i_mpki(),
                    d_mpki: r.d_mpki(),
                    rel_throughput: r.relative_throughput(base2),
                });
            };
            for kind in kinds {
                let r = sched_matrix
                    .report(w.name(), kind.key(), cores)
                    .expect("every scheduler cell ran");
                push(format!("{kind}"), r);
            }
            for (pf, matrix) in &pf_matrices {
                let r = matrix
                    .report(w.name(), SchedulerKind::Baseline.key(), cores)
                    .expect("every prefetcher cell ran");
                push(format!("{pf}"), r);
            }
        }
    }
    let mut t = TextTable::new(vec![
        "workload",
        "cores",
        "technique",
        "I-MPKI",
        "D-MPKI",
        "rel-tput",
    ]);
    for r in &rows {
        t.row(vec![
            r.workload.to_string(),
            r.cores.to_string(),
            r.technique.clone(),
            f1(r.i_mpki),
            f2(r.d_mpki),
            f2(r.rel_throughput),
        ]);
    }
    (
        (
            format!(
                "Figures 5 & 6: L1 misses and relative throughput\n\n{}",
                t.render()
            ),
            rows,
        ),
        sched_matrix,
    )
}

/// A Figure 7/8 data point.
#[derive(Clone, Debug)]
pub struct TeamSizeRow {
    /// Configuration label (STREX-xT or SLICC-x).
    pub label: String,
    /// Mean transaction latency in M-cycles.
    pub mean_latency_mcycles: f64,
    /// Relative throughput vs the baseline on the same cores.
    pub rel_throughput: f64,
    /// Latency distribution (bin upper edge in M-cycles, fraction).
    pub histogram: Vec<(f64, f64)>,
}

/// Figures 7 and 8: latency distribution and throughput vs team size.
pub fn fig7_fig8(effort: Effort) -> (String, Vec<TeamSizeRow>) {
    let w = effort.workload(WorkloadKind::TpccW10, 240, SEED);
    let cores = 16;
    let base = run(&w, &sim(cores, SchedulerKind::Baseline));
    let mut rows = Vec::new();
    let bin = 2_000_000u64;
    let mut push = |label: String, r: &Report| {
        rows.push(TeamSizeRow {
            label,
            mean_latency_mcycles: r.mean_latency() / 1e6,
            rel_throughput: r.relative_throughput(&base),
            histogram: r
                .latency_histogram(bin, 25)
                .into_iter()
                .map(|(edge, f)| (edge as f64 / 1e6, f))
                .collect(),
        });
    };
    push("Baseline".to_string(), &base);
    let team_sizes: Vec<usize> = match effort {
        Effort::Quick => vec![2, 10],
        Effort::Full => vec![2, 4, 6, 8, 10, 12, 16, 20],
    };
    let strex_sweep = Campaign::new(sim(cores, SchedulerKind::Strex))
        .over_workloads([&*w])
        .over_team_sizes(team_sizes.iter().copied())
        .run()
        .expect("figure 7/8 team-size sweep is valid");
    for (&ts, cell) in team_sizes.iter().zip(strex_sweep.cells()) {
        debug_assert_eq!(cell.key.team_size, ts);
        push(format!("STREX-{ts}T"), &cell.report);
    }
    let slicc_sweep = Campaign::new(sim(2, SchedulerKind::Slicc))
        .over_workloads([&*w])
        .over_cores(effort.core_counts())
        .run()
        .expect("figure 8 SLICC core sweep is valid");
    for cell in slicc_sweep.cells() {
        push(format!("SLICC-{}", cell.key.cores), &cell.report);
    }
    let mut t = TextTable::new(vec!["config", "mean latency (M-cyc)", "rel-tput"]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            f2(r.mean_latency_mcycles),
            f2(r.rel_throughput),
        ]);
    }
    (
        format!(
            "Figures 7 & 8: transaction latency vs team size (TPC-C-10)\n\n{}",
            t.render()
        ),
        rows,
    )
}

/// A Figure 9 data point.
#[derive(Clone, Debug)]
pub struct ReplacementRow {
    /// Workload name.
    pub workload: &'static str,
    /// Policy label.
    pub policy: String,
    /// Instruction MPKI.
    pub i_mpki: f64,
}

/// Figure 9: replacement policies with and without STREX, 8 cores.
pub fn fig9(effort: Effort) -> (String, Vec<ReplacementRow>) {
    let mut rows = Vec::new();
    for wk in [WorkloadKind::TpccW10, WorkloadKind::Tpce] {
        let w = effort.workload(wk, 240, SEED);
        for kind in ReplacementKind::ALL {
            let cfg = SimConfig::builder()
                .cores(8)
                .l1i_replacement(kind)
                .build()
                .expect("experiment configurations are valid");
            let r = run(&w, &cfg);
            rows.push(ReplacementRow {
                workload: wk.name(),
                policy: kind.to_string(),
                i_mpki: r.i_mpki(),
            });
        }
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Bip,
            ReplacementKind::Brrip,
        ] {
            let cfg = SimConfig::builder()
                .cores(8)
                .scheduler(SchedulerKind::Strex)
                .l1i_replacement(kind)
                .build()
                .expect("experiment configurations are valid");
            let r = run(&w, &cfg);
            rows.push(ReplacementRow {
                workload: wk.name(),
                policy: format!("STREX+{kind}"),
                i_mpki: r.i_mpki(),
            });
        }
    }
    let mut t = TextTable::new(vec!["workload", "policy", "I-MPKI"]);
    for r in &rows {
        t.row(vec![r.workload.to_string(), r.policy.clone(), f1(r.i_mpki)]);
    }
    (
        format!(
            "Figure 9: replacement policies vs STREX (8 cores)\n\n{}",
            t.render()
        ),
        rows,
    )
}

/// An ablation data point.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Parameter setting label.
    pub setting: String,
    /// Instruction MPKI.
    pub i_mpki: f64,
    /// Throughput relative to the defaults.
    pub rel_throughput: f64,
    /// Context switches performed.
    pub context_switches: u64,
}

/// Ablations of the design choices DESIGN.md calls out: the
/// minimum-progress guard (Section 4.4.2) and the context-switch state
/// size (Section 4.4.2's save/restore through the L2).
pub fn ablation(effort: Effort) -> (String, Vec<AblationRow>) {
    let w = effort.workload(WorkloadKind::TpccW1, 120, SEED);
    let cores = 2;
    let reference = run(&w, &sim(cores, SchedulerKind::Strex));
    let mut rows = Vec::new();
    for min_q in [0u32, 32, 96, 256, 1024] {
        let cfg = SimConfig::builder()
            .cores(cores)
            .scheduler(SchedulerKind::Strex)
            .min_quantum_fetches(min_q)
            .build()
            .expect("experiment configurations are valid");
        let r = run(&w, &cfg);
        rows.push(AblationRow {
            setting: format!("min_quantum_fetches={min_q}"),
            i_mpki: r.i_mpki(),
            rel_throughput: r.relative_throughput(&reference),
            context_switches: r.context_switches,
        });
    }
    for blocks in [1u64, 4, 16, 64] {
        let cfg = SimConfig::builder()
            .cores(cores)
            .scheduler(SchedulerKind::Strex)
            .ctx_state_blocks(blocks)
            .build()
            .expect("experiment configurations are valid");
        let r = run(&w, &cfg);
        rows.push(AblationRow {
            setting: format!("ctx_state_blocks={blocks}"),
            i_mpki: r.i_mpki(),
            rel_throughput: r.relative_throughput(&reference),
            context_switches: r.context_switches,
        });
    }
    let mut t = TextTable::new(vec!["setting", "I-MPKI", "rel-tput", "switches"]);
    for r in &rows {
        t.row(vec![
            r.setting.clone(),
            f1(r.i_mpki),
            f2(r.rel_throughput),
            r.context_switches.to_string(),
        ]);
    }
    (
        format!(
            "Ablations: STREX design-choice sensitivity (TPC-C-1, 2 cores)\n\n{}",
            t.render()
        ),
        rows,
    )
}

/// A future-work data point (Section 4.4.3).
#[derive(Clone, Debug)]
pub struct ComboRow {
    /// Technique label.
    pub technique: String,
    /// Instruction MPKI (hidden misses excluded, as the paper counts).
    pub i_mpki: f64,
    /// L2 accesses per kilo-instruction — the bandwidth cost prefetching
    /// adds and STREX avoids.
    pub l2_apki: f64,
    /// Throughput relative to the baseline.
    pub rel_throughput: f64,
}

/// Section 4.4.3's open question: STREX combined with prefetching.
///
/// "STREX can avoid many of the misses that PIF has to incur thus possibly
/// reducing the storage, power, and bandwidth overheads of PIF. PIF could
/// reduce execution time for the lead transaction" — the configuration
/// system composes them, so this experiment runs the combinations the
/// paper leaves for future work.
pub fn future_work(effort: Effort) -> (String, Vec<ComboRow>) {
    let w = effort.workload(WorkloadKind::TpccW1, 160, SEED);
    let cores = 4;
    let base = run(&w, &sim(cores, SchedulerKind::Baseline));
    let mut rows = Vec::new();
    let mut push = |label: &str, r: &Report| {
        let instr = r.stats.instructions().max(1) as f64;
        rows.push(ComboRow {
            technique: label.to_string(),
            i_mpki: r.i_mpki(),
            l2_apki: r.stats.shared.l2_accesses as f64 * 1000.0 / instr,
            rel_throughput: r.relative_throughput(&base),
        });
    };
    push("Base", &base);
    for (label, sched, pf) in [
        ("STREX", SchedulerKind::Strex, PrefetcherKind::None),
        (
            "Base+next-line",
            SchedulerKind::Baseline,
            PrefetcherKind::NextLine,
        ),
        (
            "STREX+next-line",
            SchedulerKind::Strex,
            PrefetcherKind::NextLine,
        ),
        (
            "Base+PIF",
            SchedulerKind::Baseline,
            PrefetcherKind::PifIdeal,
        ),
        ("STREX+PIF", SchedulerKind::Strex, PrefetcherKind::PifIdeal),
    ] {
        let cfg = SimConfig::builder()
            .cores(cores)
            .scheduler(sched)
            .prefetcher(pf)
            .build()
            .expect("experiment configurations are valid");
        let r = run(&w, &cfg);
        push(label, &r);
    }
    let mut t = TextTable::new(vec!["technique", "I-MPKI", "L2-APKI", "rel-tput"]);
    for r in &rows {
        t.row(vec![
            r.technique.clone(),
            f1(r.i_mpki),
            f1(r.l2_apki),
            f2(r.rel_throughput),
        ]);
    }
    (
        format!(
            "Future work (Section 4.4.3): STREX x prefetching (TPC-C-1, 4 cores)\n\n{}",
            t.render()
        ),
        rows,
    )
}

/// Table 3: the FPTable — per-type instruction footprints in L1-I units.
pub fn table3(effort: Effort) -> (String, Vec<(String, u64)>) {
    let mut rows = Vec::new();
    let n = match effort {
        Effort::Quick => 2,
        Effort::Full => 4,
    };
    let mut profile = |txns: Vec<strex_oltp::TxnTrace>| {
        let fp = FpTable::profile(&txns, 32 * 1024);
        for t in &txns {
            if let Some(u) = fp.units(t.txn_type()) {
                if !rows.iter().any(|(name, _)| name == t.type_name()) {
                    rows.push((t.type_name().to_string(), u));
                }
            }
        }
    };
    let mut tpcc_pool = Vec::new();
    for kind in TpccTxnKind::ALL {
        tpcc_pool.extend(Workload::tpcc_same_type(kind, 1, n, SEED).into_txns());
    }
    profile(tpcc_pool);
    let mut tpce_pool = Vec::new();
    for kind in TpceTxnKind::ALL {
        tpce_pool.extend(Workload::tpce_same_type(kind, n, SEED).into_txns());
    }
    profile(tpce_pool);

    let mut t = TextTable::new(vec!["type", "measured units", "paper units"]);
    let paper = |name: &str| -> u64 {
        TpccTxnKind::ALL
            .iter()
            .find(|k| k.name() == name)
            .map(|k| k.footprint_units())
            .or_else(|| {
                TpceTxnKind::ALL
                    .iter()
                    .find(|k| k.name() == name)
                    .map(|k| k.footprint_units())
            })
            .unwrap_or(0)
    };
    for (name, units) in &rows {
        t.row(vec![
            name.clone(),
            units.to_string(),
            paper(name).to_string(),
        ]);
    }
    (
        format!(
            "Table 3: FPTable instruction footprints (L1-I units)\n\n{}",
            t.render()
        ),
        rows,
    )
}

/// Table 4: hardware storage cost breakdown.
pub fn table4() -> String {
    let b = CostBreakdown::compute(&CostParams::default());
    let mut t = TextTable::new(vec!["component", "bits", "bytes"]);
    t.row(vec![
        "Thread scheduler (queue + phaseID + PIDT)".to_string(),
        b.thread_scheduler_bits.to_string(),
        format!("{:.1}", b.thread_scheduler_bits as f64 / 8.0),
    ]);
    t.row(vec![
        "Team formation (management table)".to_string(),
        b.team_formation_bits.to_string(),
        format!("{:.1}", b.team_formation_bits as f64 / 8.0),
    ]);
    t.row(vec![
        "SLICC cache monitor (hybrid only)".to_string(),
        b.slicc_monitor_bits.to_string(),
        format!("{:.1}", b.slicc_monitor_bits as f64 / 8.0),
    ]);
    format!(
        "Table 4: per-core storage cost\n\n{}\nSTREX total: {:.1} B, hybrid total: {:.1} B \
         (paper: 665.5 B scheduler, 225 B team unit, 276 B SLICC monitor)\n",
        t.render(),
        b.strex_bytes(),
        b.hybrid_bytes()
    )
}

/// Tables 1 and 2: the workload and system configuration in use.
pub fn config_dump() -> String {
    let sys = strex_sim::SystemConfig::with_cores(16);
    format!(
        "Table 1 workloads: TPC-C-1 (1 warehouse), TPC-C-10 (10 warehouses), \
         TPC-E (1000 customers), MapReduce (analytics tasks)\n\
         Table 2 system: {} cores @ {} GHz, L1 {}KB/{}-way, \
         L2 {}MB/core {}-way ({}-cycle hit), {}-cycle hops, \
         STREX params: {:?}, SLICC params: {:?}\n",
        sys.n_cores,
        sys.clock_ghz,
        sys.l1i_geometry.size_bytes() / 1024,
        sys.l1i_geometry.assoc(),
        sys.l2_bytes_per_core / (1024 * 1024),
        sys.l2_assoc,
        sys.l2_hit_latency,
        sys.hop_latency,
        StrexParams::default(),
        SliccParams::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_lists_both_flows() {
        let s = fig1();
        assert!(s.contains("NewOrder"));
        assert!(s.contains("Payment"));
        assert!(s.contains("R(WH)"));
    }

    #[test]
    fn fig2_quick_shows_sharing() {
        let (_, headline) = fig2(Effort::Quick);
        assert_eq!(headline.len(), 2);
        for (ge5, samples) in headline {
            assert!(samples > 0.0);
            assert!((0.0..=1.0).contains(&ge5));
        }
    }

    #[test]
    fn fig4_quick_reduces_misses_for_all_types() {
        let (_, rows) = fig4(Effort::Quick);
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(
                r.ctx_identical < r.base,
                "{}: {} !< {}",
                r.name,
                r.ctx_identical,
                r.base
            );
        }
    }

    #[test]
    fn table4_matches_paper_budget() {
        let s = table4();
        assert!(s.contains("5324"));
        assert!(s.contains("1800"));
        assert!(s.contains("2208"));
    }

    #[test]
    fn config_dump_mentions_table2() {
        let s = config_dump();
        assert!(s.contains("2.5 GHz"));
        assert!(s.contains("32KB/8-way"));
    }
}
