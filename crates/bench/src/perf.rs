//! Simulation-throughput measurement — the `BENCH_*.json` trajectory.
//!
//! [`quick_suite`] replays the quick reproduction matrix (every workload ×
//! every scheduler × the quick core counts, the same cells CI reproduces
//! for Figures 5/6) through [`strex::driver::run`], timing each cell and
//! counting the memory-reference events it simulates. The headline metric
//! is **events per second**: how many L1 accesses the simulator retires
//! per wall-clock second, aggregated over the whole suite.
//!
//! Records serialize to JSON via [`strex::json::JsonWriter`] (the
//! workspace is offline, so no serde). [`bench_json`] merges a freshly
//! measured record with the committed same-session baselines
//! ([`crate::baseline_seed`]) and reports the trajectory ratios, producing
//! the `BENCH_PR7.json` document the CI `bench-smoke` job gates on and
//! uploads (the name comes from [`bench_artifact`], the single source CI
//! and the binary share). Alongside the suite-level record, the document
//! carries the sharded-executor scale-out section ([`campaign_scaling`]:
//! aggregate events/sec, events/sec-per-core, scaling efficiency), the
//! measuring host's core count, the PGO-vs-plain ratio when CI provides one
//! ([`PgoComparison`]), and two *same-run* microbenches timing each
//! optimized hot path against its in-tree reference implementation inside
//! the producing process — those ratios are portable across machines by
//! construction.

use std::sync::Arc;
use std::time::Instant;

use strex::campaign::{scaling_efficiency, Campaign, CampaignShard, ShardSpec};
use strex::config::SchedulerKind;
use strex::driver::run;
use strex::json::JsonWriter;
use strex_oltp::trace::{MemRef, PackedRef};
use strex_oltp::workload::{Workload, WorkloadKind};
use strex_sim::addr::BlockAddr;
use strex_sim::cache::{CacheGeometry, SetAssocCache};
use strex_sim::refcache::RefSetAssocCache;
use strex_sim::replacement::ReplacementKind;

use crate::experiments::{Effort, MATRIX_POOL, SEED};

/// The single source of truth for the bench record's base name: the
/// `BENCH_ARTIFACT` environment variable (exported by CI) with the
/// committed default. `repro --bench-json` derives its output filename
/// *and* the default `--check` baseline path from here, and CI's upload
/// step publishes the same name — bump the default (and the committed
/// record) together, in one place each.
pub fn bench_artifact() -> String {
    std::env::var("BENCH_ARTIFACT").unwrap_or_else(|_| "BENCH_PR7".to_string())
}

/// The host's available parallelism — recorded into the bench JSON so
/// cross-run comparisons know what machine class produced a record.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `{bench_artifact()}.json` — the on-disk form of [`bench_artifact`].
pub fn bench_artifact_path() -> String {
    format!("{}.json", bench_artifact())
}

/// Timing of one campaign cell.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// Workload name.
    pub workload: String,
    /// Scheduler registry key.
    pub scheduler: &'static str,
    /// Core count.
    pub cores: usize,
    /// Memory-reference events simulated (L1-I + L1-D accesses).
    pub events: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Wall-clock seconds the cell took.
    pub wall_seconds: f64,
}

impl CellTiming {
    /// Events simulated per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// One full measurement of the quick suite.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// What was measured (e.g. `"seed baseline"`, `"current"`).
    pub label: String,
    /// Git revision or description of the code measured.
    pub revision: String,
    /// Per-cell timings.
    pub cells: Vec<CellTiming>,
}

impl BenchRecord {
    /// Total events across all cells.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Total wall-clock seconds across all cells.
    pub fn total_wall_seconds(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_seconds).sum()
    }

    /// Aggregate events per second over the whole suite.
    pub fn events_per_sec(&self) -> f64 {
        let wall = self.total_wall_seconds();
        if wall > 0.0 {
            self.total_events() as f64 / wall
        } else {
            0.0
        }
    }

    fn write_into(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("label");
        w.string(&self.label);
        w.key("revision");
        w.string(&self.revision);
        w.key("total_events");
        w.number_u64(self.total_events());
        w.key("total_wall_seconds");
        w.float(self.total_wall_seconds());
        w.key("events_per_sec");
        w.float(self.events_per_sec());
        w.key("cells");
        w.begin_array();
        for c in &self.cells {
            w.begin_object();
            w.key("workload");
            w.string(&c.workload);
            w.key("scheduler");
            w.string(c.scheduler);
            w.key("cores");
            w.number_u64(c.cores as u64);
            w.key("events");
            w.number_u64(c.events);
            w.key("instructions");
            w.number_u64(c.instructions);
            w.key("wall_seconds");
            w.float(c.wall_seconds);
            w.key("events_per_sec");
            w.float(c.events_per_sec());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    /// This record alone as a JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_into(&mut w);
        w.finish()
    }
}

/// Measures the quick reproduction suite cell by cell.
///
/// Cells run sequentially (unlike the parallel [`strex::campaign`]
/// executor) so each wall-clock measurement is unperturbed by sibling
/// runs.
pub fn quick_suite(label: &str, revision: &str) -> BenchRecord {
    quick_suite_best_of(label, revision, 1)
}

/// Like [`quick_suite`] but replays the whole matrix `rounds` times and
/// keeps each cell's *fastest* wall time. Taking per-cell minima over a
/// few rounds strips one-sided scheduler/load noise from a shared runner,
/// which is what keeps the `--check` regression gate from flaking; the
/// committed baselines were recorded the same way, so the ratio compares
/// like with like.
pub fn quick_suite_best_of(label: &str, revision: &str, rounds: usize) -> BenchRecord {
    // The exact cells the quick fig5/6 reproduction runs, via the same
    // Effort accessors, so the suite and the benchmark can't drift apart.
    let workloads: Vec<Arc<Workload>> = WorkloadKind::ALL
        .into_iter()
        .map(|wk| Effort::Quick.workload(wk, MATRIX_POOL, SEED))
        .collect();
    let core_counts = Effort::Quick.core_counts();
    let mut cells: Vec<CellTiming> = Vec::new();
    for round in 0..rounds.max(1) {
        let mut idx = 0usize;
        for w in &workloads {
            for kind in SchedulerKind::ALL {
                for &cores in &core_counts {
                    let cfg = strex::config::SimConfig::builder()
                        .cores(cores)
                        .scheduler(kind)
                        .build()
                        .expect("bench configurations are valid");
                    let start = Instant::now();
                    let report = run(w, &cfg);
                    let wall_seconds = start.elapsed().as_secs_f64();
                    let agg = report.stats.aggregate();
                    let cell = CellTiming {
                        workload: w.name().to_string(),
                        scheduler: kind.key(),
                        cores,
                        events: agg.i_accesses + agg.d_accesses,
                        instructions: agg.instructions,
                        wall_seconds,
                    };
                    if round == 0 {
                        cells.push(cell);
                    } else {
                        let best = &mut cells[idx];
                        assert_eq!(
                            (best.events, best.instructions),
                            (cell.events, cell.instructions),
                            "nondeterministic simulation across rounds"
                        );
                        if cell.wall_seconds < best.wall_seconds {
                            best.wall_seconds = cell.wall_seconds;
                        }
                    }
                    idx += 1;
                }
            }
        }
    }
    BenchRecord {
        label: label.to_string(),
        revision: revision.to_string(),
        cells,
    }
}

/// Same-run microbenchmark of the cache hot path: one identical access
/// stream (fetch-style accesses with interleaved victim peeks, STREX's
/// per-fetch pattern) driven through the reference (seed) implementation
/// and the SoA single-probe cache.
#[derive(Copy, Clone, Debug)]
pub struct CacheMicrobench {
    /// Operations per implementation (one access + one peek each).
    pub ops: u64,
    /// Nanoseconds per operation, reference (seed) implementation.
    pub reference_ns_per_op: f64,
    /// Nanoseconds per operation, SoA single-probe implementation.
    pub soa_ns_per_op: f64,
}

impl CacheMicrobench {
    /// Reference time over SoA time.
    pub fn speedup(&self) -> f64 {
        if self.soa_ns_per_op > 0.0 {
            self.reference_ns_per_op / self.soa_ns_per_op
        } else {
            0.0
        }
    }
}

/// Runs the cache hot-path microbenchmark (Table 2 L1-I geometry, LRU,
/// a thrashing OLTP-like fetch stream). Panics if the two implementations
/// ever disagree on an outcome — the benchmark doubles as a smoke-level
/// differential test.
pub fn cache_microbench() -> CacheMicrobench {
    const OPS: u64 = 2_000_000;
    let geom = CacheGeometry::new(32 * 1024, 8);

    fn stream(i: u64) -> (BlockAddr, BlockAddr, u8) {
        // Looping code footprint ~2x the cache, with a striding conflict
        // probe for the victim monitor.
        let access = BlockAddr::new((i * 7) % 1024);
        let peek = BlockAddr::new(4096 + (i * 13) % 2048);
        (access, peek, (i % 7) as u8)
    }

    let mut reference = RefSetAssocCache::new(geom, ReplacementKind::Lru);
    let mut ref_hits = 0u64;
    let t0 = Instant::now();
    for i in 0..OPS {
        let (b, p, aux) = stream(i);
        ref_hits += u64::from(reference.peek_victim(p).is_some());
        ref_hits += u64::from(reference.access(b, aux).is_hit());
    }
    let ref_ns = t0.elapsed().as_nanos() as f64 / OPS as f64;

    let mut soa = SetAssocCache::new(geom, ReplacementKind::Lru);
    let mut soa_hits = 0u64;
    let t0 = Instant::now();
    for i in 0..OPS {
        let (b, p, aux) = stream(i);
        soa_hits += u64::from(soa.peek_victim(p).is_some());
        soa_hits += u64::from(soa.access(b, aux).is_hit());
    }
    let soa_ns = t0.elapsed().as_nanos() as f64 / OPS as f64;

    assert_eq!(
        ref_hits, soa_hits,
        "reference and SoA cache diverged under the benchmark stream"
    );
    CacheMicrobench {
        ops: OPS,
        reference_ns_per_op: ref_ns,
        soa_ns_per_op: soa_ns,
    }
}

/// Same-run microbenchmark of the trace-event representation: one real
/// TPC-C trace pool replayed as the legacy 16-byte [`MemRef`] vector and
/// as the packed 8-byte [`PackedRef`] stream, decoding and consuming every
/// event both ways.
#[derive(Copy, Clone, Debug)]
pub struct TraceMicrobench {
    /// Events replayed per representation.
    pub events: u64,
    /// Nanoseconds per event, legacy enum-vector stream.
    pub legacy_ns_per_event: f64,
    /// Nanoseconds per event, packed u64 stream.
    pub packed_ns_per_event: f64,
}

impl TraceMicrobench {
    /// Legacy time over packed time.
    pub fn speedup(&self) -> f64 {
        if self.packed_ns_per_event > 0.0 {
            self.legacy_ns_per_event / self.packed_ns_per_event
        } else {
            0.0
        }
    }
}

/// Runs the trace-stream microbenchmark on real generated traces. Panics
/// if the two representations ever disagree on a decoded event — the
/// benchmark doubles as a smoke-level differential test of the packing.
pub fn trace_microbench() -> TraceMicrobench {
    const PASSES: usize = 8;
    // The full matrix pool (240 transactions, ~2M events): large enough
    // that the legacy stream (~32 MB) spills the host caches the packed
    // stream (~16 MB) still straddles — the bandwidth effect the packing
    // targets, not just decode arithmetic.
    let w = Workload::preset_small(WorkloadKind::TpccW1, MATRIX_POOL, SEED);
    let packed: Vec<&[PackedRef]> = w.txns().iter().map(|t| t.refs()).collect();
    let legacy: Vec<Vec<MemRef>> = w.txns().iter().map(|t| t.decode_refs()).collect();
    let events: u64 = packed.iter().map(|t| t.len() as u64).sum();

    // The consumption mirrors the driver's per-event work: dispatch on the
    // event kind and fold the payload into a checksum the optimizer cannot
    // discard.
    #[inline]
    fn consume(r: MemRef, acc: &mut u64) {
        match r {
            MemRef::IFetch { block, instrs } => {
                *acc = acc.wrapping_add(block.index() + instrs as u64)
            }
            MemRef::Load { addr } => *acc ^= addr.value(),
            MemRef::Store { addr } => *acc = acc.rotate_left(1) ^ addr.value(),
        }
    }

    let mut legacy_acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for trace in &legacy {
            for &r in trace {
                consume(r, &mut legacy_acc);
            }
        }
    }
    let legacy_ns = t0.elapsed().as_nanos() as f64 / (events * PASSES as u64) as f64;

    let mut packed_acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for trace in &packed {
            for &r in *trace {
                consume(r.decode(), &mut packed_acc);
            }
        }
    }
    let packed_ns = t0.elapsed().as_nanos() as f64 / (events * PASSES as u64) as f64;

    assert_eq!(
        legacy_acc, packed_acc,
        "packed and legacy trace streams decoded differently"
    );
    TraceMicrobench {
        events,
        legacy_ns_per_event: legacy_ns,
        packed_ns_per_event: packed_ns,
    }
}

/// Scale-out measurement of the sharded campaign executor over the quick
/// matrix: the same cells as [`quick_suite`], run sequentially (1 worker)
/// and on `workers` workers in the same interleaved rounds, with every
/// result checked bit-identical before any number is reported.
#[derive(Copy, Clone, Debug)]
pub struct CampaignScaling {
    /// Worker threads of the multi-worker run.
    pub workers: usize,
    /// `min(workers, available_parallelism)` — the parallelism the host
    /// could actually grant, which scaling efficiency is judged against
    /// (oversubscribing a small host is not a scaling failure of the
    /// executor; see [`strex::campaign::scaling_efficiency`]).
    pub effective_cores: usize,
    /// Memory-reference events the matrix simulates (identical both runs).
    pub total_events: u64,
    /// Aggregate events/sec of the 1-worker (sequential) reference, the
    /// median of its rounds.
    pub single_events_per_sec: f64,
    /// Aggregate events/sec of the `workers`-worker runs, the median of
    /// their rounds.
    pub events_per_sec: f64,
}

impl CampaignScaling {
    /// Multi-worker throughput normalized per *effective* core.
    pub fn events_per_sec_per_core(&self) -> f64 {
        if self.effective_cores > 0 {
            self.events_per_sec / self.effective_cores as f64
        } else {
            0.0
        }
    }

    /// Scaling efficiency against the sequential run on the effective
    /// cores (1.0 = perfect linear scaling).
    pub fn efficiency(&self) -> f64 {
        scaling_efficiency(
            self.single_events_per_sec,
            self.events_per_sec,
            self.effective_cores,
        )
    }
}

/// Runs the quick matrix through the sharded executor at 1 worker and at
/// `workers` workers, asserting every result bit-identical (the
/// executor's determinism guarantee doubles as a smoke test here) and
/// returning the throughput comparison.
pub fn campaign_scaling(workers: usize) -> CampaignScaling {
    campaign_scaling_sweep(&[workers])
        .pop()
        .expect("one sweep point in, one out")
}

/// The quick reproduction matrix's workloads — one source shared by the
/// suite timer, the in-process scaling sweep, and every `repro work`
/// worker (all processes of a fleet must agree on the matrix cell for
/// cell, which they do because each rebuilds it from this function and
/// the fixed [`SEED`]). Within one process the pools come from the
/// [`WorkloadCache`](strex_oltp::cache::WorkloadCache), so a dispatch
/// worker serving many shards, or a `submit --verify` run, generates
/// each trace pool exactly once.
pub fn quick_matrix_workloads() -> Vec<Arc<Workload>> {
    WorkloadKind::ALL
        .into_iter()
        .map(|wk| Effort::Quick.workload(wk, MATRIX_POOL, SEED))
        .collect()
}

/// The quick matrix (every workload × every scheduler × the quick core
/// counts) as a campaign over `workloads`.
pub fn quick_campaign(workloads: &[Arc<Workload>]) -> Campaign<'_> {
    let base = strex::config::SimConfig::builder()
        .build()
        .expect("default configuration is valid");
    Campaign::new(base)
        .over_schedulers(SchedulerKind::ALL)
        .over_workloads(workloads.iter().map(|w| &**w))
        .over_cores(Effort::Quick.core_counts())
}

/// The catalog name the dispatcher knows the quick matrix by: what
/// `repro serve` accepts, `repro submit` submits, and `repro work` runs
/// through [`QuickRunner`]. One constant so the three CLIs cannot drift.
pub const QUICK_CAMPAIGN: &str = "quick";

/// The campaign names a `repro serve` coordinator accepts.
pub fn dispatch_catalog() -> Vec<String> {
    vec![QUICK_CAMPAIGN.to_string()]
}

/// The [`strex::dispatch::ShardRunner`] a `repro work` worker serves
/// with: maps the catalog names to their shard executors, resumably —
/// a shard re-assigned with a checkpoint skips the cells some dead
/// worker already simulated, and progress is reported cell by cell so
/// the coordinator always holds a fresh resume point.
#[derive(Default)]
pub struct QuickRunner;

impl strex::dispatch::ShardRunner for QuickRunner {
    fn run(&mut self, campaign: &str, spec: ShardSpec) -> Result<CampaignShard, String> {
        self.run_resumable(campaign, spec, None, &mut |_| {})
    }

    fn run_resumable(
        &mut self,
        campaign: &str,
        spec: ShardSpec,
        checkpoint: Option<strex::campaign::ShardCheckpoint>,
        on_cell: &mut dyn FnMut(&strex::campaign::ShardCheckpoint),
    ) -> Result<CampaignShard, String> {
        if campaign != QUICK_CAMPAIGN {
            return Err(format!("worker has no runner for campaign {campaign:?}"));
        }
        let workloads = quick_matrix_workloads();
        let quick = quick_campaign(&workloads);
        let run = match quick.run_shard_resumable(spec, checkpoint, on_cell) {
            // A checkpoint that does not line up with this build's quick
            // matrix (version skew across the fleet) costs a fresh run,
            // never a failed worker.
            Err(strex::ConfigError::CheckpointMismatch { .. }) => {
                quick.run_shard_resumable(spec, None, on_cell)
            }
            other => other,
        };
        run.map_err(|e| e.to_string())
    }
}

/// The runner a `repro work` worker serves with.
pub fn dispatch_runner() -> QuickRunner {
    QuickRunner
}

/// How many interleaved rounds [`campaign_scaling_sweep`] measures. Each
/// round runs the reference and every sweep point once, so drift in the
/// host's speed lands on both sides of every ratio.
const SCALING_ROUNDS: usize = 3;

/// [`campaign_scaling`] for a whole worker-count sweep. Each of the
/// `SCALING_ROUNDS` (3) rounds runs the 1-worker reference and then every
/// other distinct worker count once, and every run is checked
/// bit-identical to the first. A point's throughput is the median of its
/// rounds, judged against the median of the reference runs from the same
/// rounds; a 1-worker point *is* the reference, so its efficiency is
/// exactly 1.0.
pub fn campaign_scaling_sweep(worker_counts: &[usize]) -> Vec<CampaignScaling> {
    let workloads = quick_matrix_workloads();
    let mut counts = vec![1];
    for &workers in worker_counts {
        if !counts.contains(&workers) {
            counts.push(workers);
        }
    }
    let mut samples = vec![Vec::with_capacity(SCALING_ROUNDS); counts.len()];
    let mut golden: Option<String> = None;
    let mut total_events = 0;
    for _ in 0..SCALING_ROUNDS {
        for (runs, &workers) in samples.iter_mut().zip(&counts) {
            let result = quick_campaign(&workloads)
                .parallelism(workers)
                .run()
                .expect("quick matrix is valid");
            let json = result.to_json();
            match &golden {
                None => golden = Some(json),
                Some(golden) => assert_eq!(
                    golden, &json,
                    "sharded executor diverged from sequential at {workers} workers"
                ),
            }
            total_events = result.perf().total_events;
            runs.push(result.perf().events_per_sec());
        }
    }
    scaling_points(worker_counts, &counts, &samples, total_events, host_cores())
}

/// The sweep's rows from its per-round throughputs: `samples[i]` holds
/// the rounds of `counts[i]` workers, and `counts[0]` is the 1-worker
/// reference.
fn scaling_points(
    worker_counts: &[usize],
    counts: &[usize],
    samples: &[Vec<f64>],
    total_events: u64,
    host_cores: usize,
) -> Vec<CampaignScaling> {
    let reference = median(&samples[0]);
    worker_counts
        .iter()
        .map(|&workers| {
            let i = counts
                .iter()
                .position(|&c| c == workers)
                .expect("every requested count was measured");
            CampaignScaling {
                workers,
                effective_cores: host_cores.min(workers).max(1),
                total_events,
                single_events_per_sec: reference,
                events_per_sec: median(&samples[i]),
            }
        })
        .collect()
}

/// The middle value (the mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The PGO comparison CI records: the plain (non-PGO) build's aggregate
/// quick-suite throughput, exported by the workflow through
/// `BENCH_PLAIN_EPS` before the PGO-built gate run re-measures.
#[derive(Copy, Clone, Debug)]
pub struct PgoComparison {
    /// `current.events_per_sec` of the plain build's record.
    pub plain_events_per_sec: f64,
}

impl PgoComparison {
    /// Reads the plain build's throughput from `BENCH_PLAIN_EPS`, if the
    /// producing workflow exported one.
    pub fn from_env() -> Option<PgoComparison> {
        let eps: f64 = std::env::var("BENCH_PLAIN_EPS").ok()?.parse().ok()?;
        (eps > 0.0).then_some(PgoComparison {
            plain_events_per_sec: eps,
        })
    }

    /// PGO-built throughput over plain-built throughput.
    pub fn ratio(&self, pgo_events_per_sec: f64) -> f64 {
        if self.plain_events_per_sec > 0.0 {
            pgo_events_per_sec / self.plain_events_per_sec
        } else {
            0.0
        }
    }
}

/// The two same-run microbenches bundled for [`bench_json`].
#[derive(Copy, Clone, Debug)]
pub struct SameRunMicros {
    /// Reference-vs-SoA cache hot path.
    pub cache: CacheMicrobench,
    /// Legacy-vs-packed trace stream.
    pub trace: TraceMicrobench,
}

/// Measures both same-run microbenches.
pub fn same_run_micros() -> SameRunMicros {
    SameRunMicros {
        cache: cache_microbench(),
        trace: trace_microbench(),
    }
}

/// The full `BENCH_PR7.json` document: the committed same-session seed,
/// PR 2 and PR 3 baselines, a fresh measurement of the current build, the
/// trajectory ratios between them, the sharded-executor scale-out section
/// (aggregate events/sec, events/sec-per-core, scaling efficiency), the
/// measuring host's core count, the CI-recorded
/// PGO-vs-plain ratio when available, and the two same-run hot-path
/// microbenchmarks (each timing the optimized path against its in-tree
/// reference inside this very run, so those ratios are portable across
/// machines).
// One parameter per document section, passed by the single producer
// (`repro --bench-json`) and the shape tests; a bundling struct would
// just restate the section names.
#[allow(clippy::too_many_arguments)]
pub fn bench_json(
    current: &BenchRecord,
    baseline: &BenchRecord,
    pr2: &BenchRecord,
    pr3: &BenchRecord,
    micros: &SameRunMicros,
    scaling: &CampaignScaling,
    pgo: Option<PgoComparison>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("strex-sim quick reproduction suite");
    w.key("metric");
    w.string("memory-reference events simulated per wall-clock second");
    // What machine class produced this record: absolute numbers and
    // scaling points are only comparable across runs on similar hosts.
    w.key("host_cores");
    w.number_u64(host_cores() as u64);
    w.key("baseline");
    baseline.write_into(&mut w);
    w.key("pr2");
    pr2.write_into(&mut w);
    w.key("pr3");
    pr3.write_into(&mut w);
    w.key("current");
    current.write_into(&mut w);
    let b = baseline.events_per_sec();
    let ratio_vs_seed = |eps: f64| if b > 0.0 { eps / b } else { 0.0 };
    w.key("speedup_vs_committed_baseline");
    w.float(ratio_vs_seed(current.events_per_sec()));
    w.key("pr2_speedup_vs_committed_baseline");
    w.float(ratio_vs_seed(pr2.events_per_sec()));
    w.key("pr3_speedup_vs_committed_baseline");
    w.float(ratio_vs_seed(pr3.events_per_sec()));
    w.key("campaign");
    w.begin_object();
    w.key("description");
    w.string(
        "the quick matrix executed by the sharded campaign executor \
         sequentially and on `workers` workers in 3 interleaved rounds \
         (medians; bit-identical results asserted); scaling efficiency is \
         judged against \
         effective_cores = min(workers, available cores), so the committed \
         record stays meaningful on small recording machines",
    );
    w.key("workers");
    w.number_u64(scaling.workers as u64);
    w.key("effective_cores");
    w.number_u64(scaling.effective_cores as u64);
    w.key("total_events");
    w.number_u64(scaling.total_events);
    w.key("single_worker_events_per_sec");
    w.float(scaling.single_events_per_sec);
    w.key("events_per_sec");
    w.float(scaling.events_per_sec);
    w.key("events_per_sec_per_core");
    w.float(scaling.events_per_sec_per_core());
    w.key("scaling_efficiency");
    w.float(scaling.efficiency());
    w.end_object();
    if let Some(pgo) = pgo {
        w.key("pgo");
        w.begin_object();
        w.key("description");
        w.string(
            "this record was produced by a PGO-built binary; \
             plain_events_per_sec is the non-PGO build of the same source \
             measured immediately before in the same CI job",
        );
        w.key("plain_events_per_sec");
        w.float(pgo.plain_events_per_sec);
        w.key("pgo_events_per_sec");
        w.float(current.events_per_sec());
        w.key("pgo_vs_plain");
        w.float(pgo.ratio(current.events_per_sec()));
        w.end_object();
    }
    w.key("baseline_note");
    w.string(
        "the committed baseline and pr2 records were measured interleaved \
         with the current build in one session on the machine that recorded \
         this file; absolute wall-clock numbers are machine-specific, the \
         ratios are the trajectory. `repro --bench-json --check` recomputes \
         the seed-vs-current ratio from a fresh best-of-3 measurement \
         against this committed seed record and gates on it — meaningful \
         on runners comparable to the recording machine; re-record the \
         baseline if the runner class changes. The same_run section is \
         measured entirely inside the producing run and is portable \
         everywhere.",
    );
    w.key("same_run");
    w.begin_object();
    w.key("cache_hot_path");
    w.begin_object();
    w.key("description");
    w.string("identical access+peek stream through the seed (reference) and SoA cache implementations, timed in this run");
    w.key("ops");
    w.number_u64(micros.cache.ops);
    w.key("reference_ns_per_op");
    w.float(micros.cache.reference_ns_per_op);
    w.key("soa_ns_per_op");
    w.float(micros.cache.soa_ns_per_op);
    w.key("speedup");
    w.float(micros.cache.speedup());
    w.end_object();
    w.key("packed_trace");
    w.begin_object();
    w.key("description");
    w.string("real TPC-C trace pool replayed as the legacy 16-byte enum vector vs the packed 8-byte stream, decoded event by event in this run");
    w.key("events");
    w.number_u64(micros.trace.events);
    w.key("legacy_ns_per_event");
    w.float(micros.trace.legacy_ns_per_event);
    w.key("packed_ns_per_event");
    w.float(micros.trace.packed_ns_per_event);
    w.key("speedup");
    w.float(micros.trace.speedup());
    w.end_object();
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_record() -> BenchRecord {
        BenchRecord {
            label: "t".into(),
            revision: "r".into(),
            cells: vec![CellTiming {
                workload: "w".into(),
                scheduler: "baseline",
                cores: 2,
                events: 1000,
                instructions: 5000,
                wall_seconds: 0.5,
            }],
        }
    }

    #[test]
    fn events_per_sec_aggregates() {
        let r = tiny_record();
        assert_eq!(r.total_events(), 1000);
        assert!((r.events_per_sec() - 2000.0).abs() < 1e-9);
    }

    fn tiny_micros() -> SameRunMicros {
        SameRunMicros {
            cache: CacheMicrobench {
                ops: 100,
                reference_ns_per_op: 20.0,
                soa_ns_per_op: 10.0,
            },
            trace: TraceMicrobench {
                events: 100,
                legacy_ns_per_event: 3.0,
                packed_ns_per_event: 2.0,
            },
        }
    }

    fn tiny_scaling() -> CampaignScaling {
        CampaignScaling {
            workers: 4,
            effective_cores: 4,
            total_events: 1000,
            single_events_per_sec: 1000.0,
            events_per_sec: 3200.0,
        }
    }

    #[test]
    fn json_shape() {
        let r = tiny_record();
        let j = r.to_json();
        assert!(j.contains(r#""label":"t""#));
        assert!(j.contains(r#""events":1000"#));
        let micros = tiny_micros();
        assert!((micros.cache.speedup() - 2.0).abs() < 1e-9);
        assert!((micros.trace.speedup() - 1.5).abs() < 1e-9);
        let scaling = tiny_scaling();
        assert!((scaling.events_per_sec_per_core() - 800.0).abs() < 1e-9);
        assert!((scaling.efficiency() - 0.8).abs() < 1e-9);
        let merged = bench_json(&r, &r, &r, &r, &micros, &scaling, None);
        assert!(merged.contains(r#""baseline":"#));
        assert!(merged.contains(r#""pr2":"#));
        assert!(merged.contains(r#""pr3":"#));
        assert!(merged.contains(r#""current":"#));
        assert!(merged.contains(r#""speedup_vs_committed_baseline":1"#));
        assert!(merged.contains(r#""pr3_speedup_vs_committed_baseline":1"#));
        assert!(merged.contains(r#""campaign":"#));
        assert!(merged.contains(r#""events_per_sec_per_core":800"#));
        assert!(merged.contains(r#""scaling_efficiency":0.8"#));
        assert!(!merged.contains(r#""dist":"#));
        assert!(!merged.contains(r#""transport":"#));
        assert!(
            !merged.contains(r#""pgo":"#),
            "no pgo section without CI env"
        );
        assert!(merged.contains(r#""same_run""#));
        assert!(merged.contains(r#""cache_hot_path""#));
        assert!(merged.contains(r#""packed_trace""#));
        assert!(merged.contains(r#""speedup":2"#), "microbench speedup");
        // The document parses back through the in-tree reader (the gate's
        // path) and records the measuring host.
        let doc = strex::jsonval::JsonValue::parse(&merged).expect("well-formed");
        assert_eq!(doc.req_u64("host_cores").unwrap(), host_cores() as u64);
        assert_eq!(doc.req_u64("campaign.workers").unwrap(), 4);
    }

    #[test]
    fn one_worker_scaling_point_is_the_reference() {
        // Noisy rounds on purpose: the 1-worker row must still read
        // exactly 1.0, because it is the reference rather than a rerun.
        let counts = [1, 2, 4];
        let samples = vec![
            vec![1000.0, 1100.0, 900.0],
            vec![1700.0, 1900.0, 1800.0],
            vec![1750.0, 1850.0, 1800.0],
        ];
        let points = scaling_points(&[1, 2, 4], &counts, &samples, 500, 2);
        assert_eq!(points[0].efficiency(), 1.0);
        assert_eq!(points[0].events_per_sec, 1000.0);
        assert_eq!(points[1].single_events_per_sec, 1000.0);
        assert!((points[1].efficiency() - 0.9).abs() < 1e-12);
        assert_eq!(points[2].effective_cores, 2);
        assert!((points[2].efficiency() - 0.9).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn pgo_section_records_the_ratio() {
        let r = tiny_record();
        let pgo = PgoComparison {
            plain_events_per_sec: 1000.0,
        };
        // tiny_record: 1000 events in 0.5 s = 2000 events/sec → 2x plain.
        assert!((pgo.ratio(tiny_record().events_per_sec()) - 2.0).abs() < 1e-9);
        let merged = bench_json(&r, &r, &r, &r, &tiny_micros(), &tiny_scaling(), Some(pgo));
        assert!(merged.contains(r#""pgo":"#));
        assert!(merged.contains(r#""plain_events_per_sec":1000"#));
        assert!(merged.contains(r#""pgo_vs_plain":2"#));
    }

    #[test]
    fn artifact_name_has_a_committed_default() {
        // Do not mutate the process environment here (tests run threaded);
        // just pin the default's shape when CI has not exported an
        // override.
        let name = bench_artifact();
        assert!(name.starts_with("BENCH_"), "{name}");
        assert_eq!(bench_artifact_path(), format!("{name}.json"));
    }

    #[test]
    fn same_run_micros_agree_and_measure() {
        // Small but real: each microbench validates its two paths against
        // each other (they panic on divergence) and must produce positive
        // timings.
        let t = trace_microbench();
        assert!(t.events > 10_000);
        assert!(t.legacy_ns_per_event > 0.0 && t.packed_ns_per_event > 0.0);
    }
}
