//! Experiment campaigns: declarative run matrices executed on a worker
//! pool.
//!
//! The paper is evaluated entirely through matrices of simulations —
//! scheduler × workload × core-count × team-size sweeps (Figures 5–9).
//! [`Campaign`] declares such a matrix over one base [`SimConfig`],
//! executes every cell on a sharded [`std::thread::scope`] worker pool
//! (simulations are independent and deterministic, so the sweep is
//! embarrassingly parallel), and yields a [`CampaignResult`] whose cells
//! carry stable [`CellKey`]s and serialize to JSON.
//!
//! # The sharded executor
//!
//! Each worker owns its shard of the output outright: cells are claimed
//! from one atomic cursor (dynamic load balancing — a slow STREX cell
//! doesn't idle the other workers), every claimed cell runs through the
//! factory's monomorphized typed driver loop with the worker's private
//! reusable [`SimScratch`] (thread table, core states, cycle heap —
//! allocated once per worker, not once per cell), and the finished
//! `(index, Report)` pairs accumulate in a worker-local vector. No mutex,
//! no per-cell slot: the main thread reassembles the shards by cell index
//! after the scope joins, so the result is in matrix order and —
//! because each simulation is itself deterministic — bit-identical to
//! sequential execution at *any* worker count (property-tested in
//! `tests/campaign_api.rs`).
//!
//! Results are pure data: a cell carries its key and report and nothing
//! about the host that computed it, so a result's bytes depend only on
//! the matrix. How fast a build simulates is the benchmark's business
//! (`benchmark/` in the repository), not the executor's.
//!
//! # Sharding
//!
//! One host fans a matrix out on threads ([`Campaign::parallelism`]);
//! work that crosses processes or hosts goes through the
//! [`crate::dispatch`] fleet, which splits a job into shards. The pieces
//! compose:
//!
//! * [`ShardSpec`] partitions the cell matrix deterministically *by
//!   stable cell key* ([`shard_of`]): shard membership depends only on
//!   the key text and the shard count, so any process — or machine —
//!   can compute its share without coordination.
//! * [`Campaign::run_shard`] executes one shard's cells (workload-major,
//!   one reused scratch) into a [`CampaignShard`], which serializes to
//!   JSON and parses back ([`CampaignShard::from_json`]) with full
//!   fidelity — the payload of the dispatcher's `shard_done` frame.
//! * [`Campaign::run_shard_resumable`] resumes a shard from the cells it
//!   already finished — any subset of them, each adopted as it was — and
//!   reports every newly finished cell as it goes, so an interrupted
//!   shard re-runs only what no report reached.
//! * [`merge`] reassembles a complete shard set into a [`CampaignResult`]
//!   bit-identical to the single-process run, for any shard count and
//!   any merge order.
//!
//! ```no_run
//! use strex::campaign::Campaign;
//! use strex::config::{SchedulerKind, SimConfig};
//! use strex_oltp::workload::{Workload, WorkloadKind};
//!
//! let workloads = [
//!     Workload::preset_small(WorkloadKind::TpccW1, 24, 42),
//!     Workload::preset_small(WorkloadKind::Tpce, 24, 42),
//! ];
//! let result = Campaign::new(SimConfig::default())
//!     .over_schedulers(SchedulerKind::ALL)
//!     .over_workloads(workloads.iter())
//!     .over_cores([2, 4, 8])
//!     .run()
//!     .expect("valid matrix");
//! for cell in result.cells() {
//!     println!("{}: I-MPKI {:.1}", cell.key, cell.report.i_mpki());
//! }
//! println!("{}", result.to_json());
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use strex_oltp::workload::Workload;

use crate::config::{SchedulerKind, SimConfig};
use crate::driver::{run_factory, SimScratch};
use crate::error::ConfigError;
use crate::json::JsonWriter;
use crate::jsonval::{JsonValue, WireError};
use crate::report::Report;
use crate::sched::registry::{self, SchedulerRegistry};

/// A declarative run matrix over one base configuration.
///
/// Axes left unset default to the single value the base configuration
/// carries (its scheduler, core count, and team size); workloads have no
/// default — an empty workload axis yields an empty result.
pub struct Campaign<'w> {
    base: SimConfig,
    schedulers: Option<Vec<String>>,
    workloads: Vec<&'w Workload>,
    cores: Option<Vec<usize>>,
    team_sizes: Option<Vec<usize>>,
    parallelism: Option<usize>,
}

impl<'w> Campaign<'w> {
    /// A campaign whose cells start from `base`.
    pub fn new(base: SimConfig) -> Self {
        Campaign {
            base,
            schedulers: None,
            workloads: Vec::new(),
            cores: None,
            team_sizes: None,
            parallelism: None,
        }
    }

    /// Adds a scheduler axis over built-in kinds.
    pub fn over_schedulers(self, kinds: impl IntoIterator<Item = SchedulerKind>) -> Self {
        self.over_scheduler_names(kinds.into_iter().map(|k| k.key()))
    }

    /// Adds a scheduler axis over registry names — the way custom
    /// [`SchedulerFactory`](crate::sched::registry::SchedulerFactory)
    /// policies enter a matrix (pair with [`Campaign::run_on`]).
    pub fn over_scheduler_names<S: Into<String>>(
        mut self,
        names: impl IntoIterator<Item = S>,
    ) -> Self {
        self.schedulers
            .get_or_insert_with(Vec::new)
            .extend(names.into_iter().map(Into::into));
        self
    }

    /// Adds workloads to the workload axis.
    pub fn over_workloads(mut self, workloads: impl IntoIterator<Item = &'w Workload>) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Adds a core-count axis (Figure 5/6 sweep 2, 4, 8, 16).
    pub fn over_cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores.get_or_insert_with(Vec::new).extend(cores);
        self
    }

    /// Adds a STREX team-size axis (Figure 7/8 sweep 2..=20).
    pub fn over_team_sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.team_sizes.get_or_insert_with(Vec::new).extend(sizes);
        self
    }

    /// Caps the worker pool (defaults to available parallelism). `1`
    /// forces sequential execution on the calling thread's schedule.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Enumerates and validates every cell without running anything.
    ///
    /// Cells are produced in deterministic matrix order — workload-major,
    /// then scheduler, cores, team size — which is also the order of
    /// [`CampaignResult::cells`].
    ///
    /// The scheduler, core and team-size axes are checked before the
    /// workload axis is read, so a campaign over no workloads still
    /// reports a bad axis: that is how the dispatcher vets a scenario
    /// without generating its traces.
    ///
    /// The cell's *key* is authoritative for the scheduler: the executor
    /// resolves `CellKey::scheduler` from the registry. The returned
    /// `SimConfig`'s `scheduler` field mirrors the key only for built-in
    /// kinds; for custom registry names (which `SchedulerKind` cannot
    /// represent) it keeps the base value — replay a custom-policy cell
    /// by resolving the cell key's scheduler name in the registry, not
    /// through the config field.
    pub fn cells(&self, reg: &SchedulerRegistry) -> Result<Vec<(CellKey, SimConfig)>, ConfigError> {
        let schedulers: Vec<String> = match &self.schedulers {
            Some(s) => s.clone(),
            None => vec![self.base.scheduler.key().to_string()],
        };
        let cores = self
            .cores
            .clone()
            .unwrap_or_else(|| vec![self.base.system.n_cores]);
        let team_sizes = self
            .team_sizes
            .clone()
            .unwrap_or_else(|| vec![self.base.strex.team_size]);

        // One validated configuration per (scheduler, cores, team size),
        // shared by every workload.
        let mut configs = Vec::new();
        for sched in &schedulers {
            if reg.get(sched).is_none() {
                return Err(ConfigError::UnknownScheduler {
                    name: sched.clone(),
                });
            }
            for &n_cores in &cores {
                for &team_size in &team_sizes {
                    let mut cfg = self.base.clone();
                    // Mutate the axis fields in place so every other
                    // base override (prefetcher, replacement, DRAM…)
                    // survives into the cell.
                    cfg.system.n_cores = n_cores;
                    cfg.strex.team_size = team_size;
                    if let Some(kind) = SchedulerKind::from_key(sched) {
                        cfg.scheduler = kind;
                    }
                    cfg.validate()?;
                    configs.push((sched, n_cores, team_size, cfg));
                }
            }
        }

        let mut cells = Vec::with_capacity(self.workloads.len() * configs.len());
        for (w_idx, w) in self.workloads.iter().enumerate() {
            for (sched, n_cores, team_size, cfg) in &configs {
                cells.push((
                    CellKey {
                        workload: w.name().to_string(),
                        workload_idx: w_idx,
                        scheduler: (*sched).clone(),
                        cores: *n_cores,
                        team_size: *team_size,
                    },
                    cfg.clone(),
                ));
            }
        }
        Ok(cells)
    }

    /// Executes the matrix against the
    /// [global registry](crate::sched::registry::global).
    pub fn run(&self) -> Result<CampaignResult, ConfigError> {
        self.run_on(registry::global())
    }

    /// Executes the matrix, resolving scheduler names from `reg`, on the
    /// sharded executor (see the module docs).
    ///
    /// Every cell is validated before anything runs, so a bad matrix
    /// costs nothing. Each worker claims cells from a shared cursor, runs
    /// them through the factory's typed run with its own reused
    /// [`SimScratch`], and keeps its results in a private shard;
    /// the shards are reassembled in matrix order afterwards, so the
    /// outcome is independent of worker interleaving — and, because each
    /// simulation is itself deterministic, bit-identical to sequential
    /// [`run`](crate::driver::run) calls.
    pub fn run_on(&self, reg: &SchedulerRegistry) -> Result<CampaignResult, ConfigError> {
        let cells = self.cells(reg)?;
        let workers = self
            .parallelism
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(cells.len().max(1));

        let next = AtomicUsize::new(0);
        let shards: Vec<Vec<(usize, Report)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let cells = &cells;
                    scope.spawn(move || {
                        let mut scratch = SimScratch::new();
                        let mut shard: Vec<(usize, Report)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some((key, cfg)) = cells.get(i) else {
                                break;
                            };
                            let workload = self.workloads[key.workload_idx];
                            let factory = reg
                                .get(&key.scheduler)
                                .expect("cells() checked registration");
                            shard.push((i, run_factory(factory, workload, cfg, &mut scratch)));
                        }
                        shard
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });

        let mut slots: Vec<Option<Report>> = cells.iter().map(|_| None).collect();
        for (i, report) in shards.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "cell {i} executed twice");
            slots[i] = Some(report);
        }
        let cells: Vec<CampaignCell> = cells
            .into_iter()
            .zip(slots)
            .map(|((key, _), slot)| CampaignCell {
                key,
                report: slot.expect("every claimed cell landed in a shard"),
            })
            .collect();
        Ok(CampaignResult { cells })
    }

    /// Executes one shard of the matrix against the
    /// [global registry](crate::sched::registry::global).
    pub fn run_shard(&self, spec: ShardSpec) -> Result<CampaignShard, ConfigError> {
        self.run_shard_on(spec, registry::global())
    }

    /// Executes the cells [`spec`](ShardSpec) owns — the half of the
    /// executor a dispatcher worker runs.
    ///
    /// The full matrix is enumerated and validated exactly as
    /// [`run_on`](Campaign::run_on) does (so every worker of a fleet
    /// agrees on cell indices), then only the owned cells run, on the
    /// calling thread, in matrix order — workload-major, so consecutive
    /// cells replay the same packed trace pool and the stream stays
    /// LLC-hot across cells — with one reused [`SimScratch`]. The partial
    /// result keeps each cell's matrix index; [`merge`] reassembles any
    /// complete set of shards into a [`CampaignResult`] bit-identical to
    /// [`run_on`](Campaign::run_on) (property-tested in
    /// `tests/campaign_api.rs`).
    ///
    /// Shard ownership is by stable cell key ([`shard_of`]), not by
    /// position, so it is insensitive to how a peer process enumerated
    /// the matrix.
    pub fn run_shard_on(
        &self,
        spec: ShardSpec,
        reg: &SchedulerRegistry,
    ) -> Result<CampaignShard, ConfigError> {
        self.run_owned(spec, reg, Vec::new(), &mut |_, _| {})
    }

    /// [`run_shard`](Campaign::run_shard) with resume: adopts the cells
    /// some earlier run of this shard already finished and runs only the
    /// rest, reporting each newly finished cell through `on_cell`.
    ///
    /// `done` holds finished cells with their matrix indices, in
    /// ascending index order. Each is adopted verbatim and its index
    /// skipped, so any subset resumes: a gap left by a lost report simply
    /// runs again. The remaining owned cells run in matrix order, and
    /// `on_cell` observes each one with its index as it finishes —
    /// callers persist or ship it (the dispatcher's `checkpoint` frames).
    /// The merged result of a resumed shard is byte-identical to the
    /// uninterrupted run (property-tested in `tests/checkpoint_resume.rs`).
    ///
    /// A `done` cell must be the cell at its index of this matrix and be
    /// owned by `spec`, and indices must be unique; anything else is a
    /// typed [`ConfigError::CheckpointMismatch`] (cells from a different
    /// campaign must fail loudly, not corrupt a merge).
    pub fn run_shard_resumable(
        &self,
        spec: ShardSpec,
        done: Vec<(usize, CampaignCell)>,
        on_cell: &mut dyn FnMut(usize, &CampaignCell),
    ) -> Result<CampaignShard, ConfigError> {
        self.run_owned(spec, registry::global(), done, on_cell)
    }

    fn run_owned(
        &self,
        spec: ShardSpec,
        reg: &SchedulerRegistry,
        done: Vec<(usize, CampaignCell)>,
        on_cell: &mut dyn FnMut(usize, &CampaignCell),
    ) -> Result<CampaignShard, ConfigError> {
        spec.validate()?;
        let matrix = self.cells(reg)?;
        let mut prev: Option<usize> = None;
        for (i, cell) in &done {
            let problem = if prev.is_some_and(|p| *i <= p) {
                "breaks the ascending index order"
            } else if !matrix.get(*i).is_some_and(|(key, _)| *key == cell.key) {
                "is not the cell at that index of this matrix"
            } else if !spec.owns(&cell.key) {
                "is not owned by this shard"
            } else {
                prev = Some(*i);
                continue;
            };
            return Err(ConfigError::CheckpointMismatch {
                detail: format!("finished cell {i} ({}) {problem} ({spec})", cell.key),
            });
        }
        let mut scratch = SimScratch::new();
        let mut adopted = done.into_iter().peekable();
        let mut cells = Vec::new();
        for (i, (key, cfg)) in matrix.into_iter().enumerate() {
            if let Some(cell) = adopted.next_if(|(j, _)| *j == i) {
                cells.push(cell);
                continue;
            }
            if !spec.owns(&key) {
                continue;
            }
            let workload = self.workloads[key.workload_idx];
            let factory = reg
                .get(&key.scheduler)
                .expect("cells() checked registration");
            let report = run_factory(factory, workload, &cfg, &mut scratch);
            let cell = CampaignCell { key, report };
            on_cell(i, &cell);
            cells.push((i, cell));
        }
        Ok(CampaignShard { spec, cells })
    }
}

/// Names one shard of a campaign's cell matrix: shard `index` of `count`.
///
/// Shards partition the matrix *by stable cell key* ([`shard_of`]): a
/// cell's assignment depends only on its textual key and the shard count,
/// never on matrix enumeration order or which process asks — so `count`
/// cooperating processes that each run `Campaign::run_shard(i/count)`
/// cover every cell exactly once (disjointness and completeness are
/// unit-tested in `tests/campaign_api.rs`).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the matrix is split into.
    pub count: usize,
}

impl ShardSpec {
    /// A validated shard spec (`index < count`, `count > 0`).
    pub fn new(index: usize, count: usize) -> Result<ShardSpec, ConfigError> {
        let spec = ShardSpec { index, count };
        spec.validate()?;
        Ok(spec)
    }

    /// Re-checks the invariants (fields are public, so a hand-built spec
    /// may be invalid).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.count == 0 || self.index >= self.count {
            return Err(ConfigError::InvalidShard {
                index: self.index,
                count: self.count,
            });
        }
        Ok(())
    }

    /// Whether this shard owns `key`'s cell.
    pub fn owns(&self, key: &CellKey) -> bool {
        shard_of(key, self.count) == self.index
    }
}

impl fmt::Display for ShardSpec {
    /// The `index/count` form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The shard a cell belongs to when the matrix is split `count` ways:
/// FNV-1a over the textual cell key, mod `count`. Deterministic across
/// processes, machines and matrix enumerations.
///
/// # Panics
///
/// Panics if `count` is zero.
pub fn shard_of(key: &CellKey, count: usize) -> usize {
    use fmt::Write as _;

    assert!(count > 0, "shard count must be positive");
    // Hash the Display bytes as they are formatted — same digest as
    // hashing `key.to_string()`, without the per-call allocation (`owns`
    // runs once per cell per shard).
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = fnv64_fold(self.0, s);
            Ok(())
        }
    }
    let mut fnv = Fnv(FNV_OFFSET);
    write!(fnv, "{key}").expect("hashing writer never fails");
    (fnv.0 % count as u64) as usize
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv64_fold(mut state: u64, s: &str) -> u64 {
    for b in s.bytes() {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    state
}

/// FNV-1a over `text` — the same digest [`shard_of`] partitions cell keys
/// with, exposed for the other place the campaign layer needs a
/// deterministic, coordination-free hash: the dispatcher derives
/// idempotent job keys from submitted campaign specs with it
/// ([`crate::dispatch::job_key`]).
pub fn fnv64(text: &str) -> u64 {
    fnv64_fold(FNV_OFFSET, text)
}

/// How much simulation work a campaign's cells did: a figure computed
/// from the cells ([`CampaignResult::perf`]), never measured on the host,
/// so it is the same however and wherever the cells ran.
#[derive(Copy, Clone, Debug)]
pub struct CampaignPerf {
    /// Memory-reference events (L1-I + L1-D accesses) simulated across
    /// all cells.
    pub total_events: u64,
}

/// Stable identity of one matrix cell.
#[derive(Clone, Eq, PartialEq, Hash, Debug)]
pub struct CellKey {
    /// Workload name.
    pub workload: String,
    /// Position of the workload in the campaign's workload axis
    /// (disambiguates two workloads sharing a name).
    pub workload_idx: usize,
    /// Scheduler registry name.
    pub scheduler: String,
    /// Core count.
    pub cores: usize,
    /// STREX team size.
    pub team_size: usize,
}

impl fmt::Display for CellKey {
    /// The stable textual key: `workload/scheduler/c<cores>/t<team_size>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/c{}/t{}",
            self.workload, self.scheduler, self.cores, self.team_size
        )
    }
}

/// One executed cell: its key and the measured report.
#[derive(Clone, Debug)]
pub struct CampaignCell {
    /// Which cell of the matrix this is.
    pub key: CellKey,
    /// The simulation outcome.
    pub report: Report,
}

/// All cells of an executed campaign, in deterministic matrix order.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    cells: Vec<CampaignCell>,
}

impl CampaignResult {
    /// The cells, in matrix order (workload-major; see
    /// [`Campaign::cells`]).
    pub fn cells(&self) -> &[CampaignCell] {
        &self.cells
    }

    /// The simulation work the cells did, summed over their reports.
    pub fn perf(&self) -> CampaignPerf {
        let total_events = self
            .cells
            .iter()
            .map(|c| {
                let agg = c.report.stats.aggregate();
                agg.i_accesses + agg.d_accesses
            })
            .sum();
        CampaignPerf { total_events }
    }

    /// Number of executed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the matrix was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The first report matching `workload`, `scheduler` and `cores`
    /// (any team size).
    pub fn report(&self, workload: &str, scheduler: &str, cores: usize) -> Option<&Report> {
        self.cells
            .iter()
            .find(|c| {
                c.key.workload == workload && c.key.scheduler == scheduler && c.key.cores == cores
            })
            .map(|c| &c.report)
    }

    /// The report for an exact key.
    pub fn get(&self, key: &CellKey) -> Option<&Report> {
        self.cells.iter().find(|c| &c.key == key).map(|c| &c.report)
    }

    /// Serializes every cell — key and full report — as one JSON object:
    /// the document `repro fig6 --json` prints and the dispatcher's result
    /// frames carry. Two runs of one matrix serialize identically
    /// regardless of worker count, process count or host.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("cells");
        w.begin_array();
        for cell in &self.cells {
            write_cell_json(&mut w, None, cell);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a campaign back from its [`to_json`](CampaignResult::to_json)
    /// form. The reassembled result re-serializes byte-identically.
    ///
    /// One reconstruction is necessarily lossy and documented:
    /// `CellKey::workload_idx` is not part of this format (the shard wire
    /// format carries it explicitly), so it is reconstructed from the
    /// workload-major run structure — each time the workload name changes
    /// between consecutive cells, the index advances. Two *adjacent
    /// same-named* workloads merge under one index, which cannot change
    /// the serialized bytes.
    pub fn from_json(text: &str) -> Result<CampaignResult, WireError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// [`from_json`](CampaignResult::from_json) over an already-parsed
    /// document — the entry point the dispatch protocol uses, where the
    /// result arrives embedded in a larger frame.
    pub fn from_json_value(doc: &JsonValue) -> Result<CampaignResult, WireError> {
        let mut cells: Vec<CampaignCell> = Vec::new();
        let mut workload_idx = 0usize;
        for v in doc.req_array("cells")? {
            let explicit = v.get("key.workload_idx").is_some();
            let (_, mut cell) = cell_from_json(v)?;
            if !explicit {
                if let Some(prev) = cells.last() {
                    if prev.key.workload != cell.key.workload {
                        workload_idx += 1;
                    }
                }
                cell.key.workload_idx = workload_idx;
            }
            cells.push(cell);
        }
        Ok(CampaignResult { cells })
    }
}

/// Writes one cell as JSON. Without `index` this is exactly the
/// [`CampaignResult::to_json`] cell layout (kept byte-stable — committed
/// documents and the golden identity checks depend on it); with `index`
/// — the shard cell layout that `shard_done`, `checkpoint` and `assign`
/// frames carry — the cell additionally carries its matrix
/// position and the key carries `workload_idx`, so a merge can rebuild
/// exact [`CellKey`]s and matrix order.
pub(crate) fn write_cell_json(w: &mut JsonWriter, index: Option<usize>, cell: &CampaignCell) {
    w.begin_object();
    if let Some(i) = index {
        w.key("index");
        w.number_u64(i as u64);
    }
    w.key("id");
    w.string(&cell.key.to_string());
    w.key("key");
    w.begin_object();
    w.key("workload");
    w.string(&cell.key.workload);
    if index.is_some() {
        w.key("workload_idx");
        w.number_u64(cell.key.workload_idx as u64);
    }
    w.key("scheduler");
    w.string(&cell.key.scheduler);
    w.key("cores");
    w.number_u64(cell.key.cores as u64);
    w.key("team_size");
    w.number_u64(cell.key.team_size as u64);
    w.end_object();
    w.key("report");
    cell.report.write_json(w);
    w.end_object();
}

/// Parses one cell (either layout); returns the matrix index when the
/// document carries one (shard wire format), `0` otherwise.
pub(crate) fn cell_from_json(v: &JsonValue) -> Result<(usize, CampaignCell), WireError> {
    let index = match v.get("index") {
        Some(_) => v.req_u64("index")? as usize,
        None => 0,
    };
    let workload_idx = match v.get("key.workload_idx") {
        Some(_) => v.req_u64("key.workload_idx")? as usize,
        None => 0,
    };
    let key = CellKey {
        workload: v.req_str("key.workload")?.to_string(),
        workload_idx,
        scheduler: v.req_str("key.scheduler")?.to_string(),
        cores: v.req_u64("key.cores")? as usize,
        team_size: v.req_u64("key.team_size")? as usize,
    };
    let id = v.req_str("id")?;
    if id != key.to_string() {
        return Err(WireError::new(format!(
            "cell id {id:?} does not match its key {:?}",
            key.to_string()
        )));
    }
    let report = Report::from_json_value(v.req("report")?)?;
    Ok((index, CampaignCell { key, report }))
}

/// One shard's worth of an executed campaign: the cells a [`ShardSpec`]
/// owns, each tagged with its matrix index. Produced by
/// [`Campaign::run_shard`], shipped across process boundaries as JSON
/// ([`to_json`](CampaignShard::to_json) /
/// [`from_json`](CampaignShard::from_json)), and reassembled by
/// [`merge`].
#[derive(Clone, Debug)]
pub struct CampaignShard {
    spec: ShardSpec,
    cells: Vec<(usize, CampaignCell)>,
}

impl CampaignShard {
    /// Which shard of how many this is.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The owned cells with their matrix indices, in matrix order.
    pub fn cells(&self) -> &[(usize, CampaignCell)] {
        &self.cells
    }

    /// Serializes the shard for the wire: spec and every cell with its
    /// matrix index and full key (including `workload_idx`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("shard");
        w.begin_object();
        w.key("index");
        w.number_u64(self.spec.index as u64);
        w.key("count");
        w.number_u64(self.spec.count as u64);
        w.end_object();
        w.key("cells");
        w.begin_array();
        for (i, cell) in &self.cells {
            write_cell_json(&mut w, Some(*i), cell);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a shard from its [`to_json`](CampaignShard::to_json) form.
    /// Keys the format does not define are ignored, so a frame written
    /// by an older worker (which also carried a `perf` object) still
    /// parses.
    pub fn from_json(text: &str) -> Result<CampaignShard, WireError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// [`from_json`](CampaignShard::from_json) over an already-parsed
    /// document — the entry point the dispatch protocol uses, where the
    /// shard arrives embedded in a `shard_done` frame.
    pub fn from_json_value(doc: &JsonValue) -> Result<CampaignShard, WireError> {
        let spec = ShardSpec {
            index: doc.req_u64("shard.index")? as usize,
            count: doc.req_u64("shard.count")? as usize,
        };
        spec.validate().map_err(|e| WireError::new(e.to_string()))?;
        let cells = doc
            .req_array("cells")?
            .iter()
            .map(cell_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignShard { spec, cells })
    }

    /// Builds a shard directly from its parts — the constructor the
    /// wire-format round-trip tests use to synthesize arbitrary shards
    /// without running a campaign. The spec must be valid; cell
    /// contents are the caller's responsibility (exactly as with
    /// [`from_json`](CampaignShard::from_json), [`merge`] remains the
    /// integrity backstop).
    pub fn from_parts(
        spec: ShardSpec,
        cells: Vec<(usize, CampaignCell)>,
    ) -> Result<CampaignShard, ConfigError> {
        spec.validate()?;
        Ok(CampaignShard { spec, cells })
    }
}

/// Why [`merge`] refused a set of shards.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum MergeError {
    /// No shards were supplied.
    Empty,
    /// Two shards disagree on the total shard count.
    MismatchedCounts {
        /// The first shard's count.
        expected: usize,
        /// The disagreeing count.
        found: usize,
    },
    /// A shard's index is not below its count.
    ShardIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The shard count.
        count: usize,
    },
    /// The same shard index appeared twice.
    DuplicateShard {
        /// The duplicated index.
        index: usize,
    },
    /// A shard of the declared count never arrived.
    MissingShard {
        /// The absent index.
        index: usize,
        /// The shard count.
        count: usize,
    },
    /// Two shards both claim the cell at this matrix index.
    DuplicateCell {
        /// The contested matrix index.
        index: usize,
    },
    /// A cell's matrix index is beyond the combined cell count, so some
    /// earlier index must be missing.
    CellIndexOutOfRange {
        /// The out-of-range matrix index.
        index: usize,
        /// The combined cell count.
        total: usize,
    },
    /// No shard delivered the cell at this matrix index.
    MissingCell {
        /// The absent matrix index.
        index: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shards to merge"),
            MergeError::MismatchedCounts { expected, found } => {
                write!(f, "shards disagree on the count: {expected} vs {found}")
            }
            MergeError::ShardIndexOutOfRange { index, count } => {
                write!(f, "shard index {index} is out of range for count {count}")
            }
            MergeError::DuplicateShard { index } => {
                write!(f, "shard {index} appeared more than once")
            }
            MergeError::MissingShard { index, count } => {
                write!(f, "shard {index} of {count} is missing")
            }
            MergeError::DuplicateCell { index } => {
                write!(f, "cell {index} was delivered by two shards")
            }
            MergeError::CellIndexOutOfRange { index, total } => {
                write!(
                    f,
                    "cell index {index} is beyond the {total} cells delivered"
                )
            }
            MergeError::MissingCell { index } => {
                write!(f, "cell {index} was delivered by no shard")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Reassembles a complete set of shards into the [`CampaignResult`] the
/// matrix would have produced in one process — cells restored to matrix
/// order, **bit-identical** to [`Campaign::run`] for any shard count and
/// any merge order (property-tested through the JSON round trip in
/// `tests/campaign_api.rs`).
///
/// Every shard of the declared count must be present exactly once, and
/// their cells must tile the matrix exactly (disjoint, no gaps); anything
/// else is a typed [`MergeError`]. The merged result holds the cells and
/// nothing else.
pub fn merge(
    shards: impl IntoIterator<Item = CampaignShard>,
) -> Result<CampaignResult, MergeError> {
    let shards: Vec<CampaignShard> = shards.into_iter().collect();
    let Some(first) = shards.first() else {
        return Err(MergeError::Empty);
    };
    let count = first.spec.count;
    let mut seen = vec![false; count];
    for s in &shards {
        if s.spec.count != count {
            return Err(MergeError::MismatchedCounts {
                expected: count,
                found: s.spec.count,
            });
        }
        if s.spec.index >= count {
            return Err(MergeError::ShardIndexOutOfRange {
                index: s.spec.index,
                count,
            });
        }
        if std::mem::replace(&mut seen[s.spec.index], true) {
            return Err(MergeError::DuplicateShard {
                index: s.spec.index,
            });
        }
    }
    if let Some(index) = seen.iter().position(|present| !present) {
        return Err(MergeError::MissingShard { index, count });
    }

    let total: usize = shards.iter().map(|s| s.cells.len()).sum();
    let mut slots: Vec<Option<CampaignCell>> = (0..total).map(|_| None).collect();
    for shard in shards {
        for (index, cell) in shard.cells {
            let slot = slots
                .get_mut(index)
                .ok_or(MergeError::CellIndexOutOfRange { index, total })?;
            if slot.replace(cell).is_some() {
                return Err(MergeError::DuplicateCell { index });
            }
        }
    }
    let cells = slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.ok_or(MergeError::MissingCell { index }))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignResult { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use strex_oltp::workload::WorkloadKind;

    fn pool() -> Workload {
        Workload::preset_small(WorkloadKind::TpccW1, 8, 17)
    }

    #[test]
    fn axes_default_to_the_base_configuration() {
        let w = pool();
        let base = SimConfig::new(4, SchedulerKind::Strex).with_team_size(6);
        let cells = Campaign::new(base)
            .over_workloads([&w])
            .cells(registry::global())
            .expect("valid");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0.scheduler, "strex");
        assert_eq!(cells[0].0.cores, 4);
        assert_eq!(cells[0].0.team_size, 6);
    }

    #[test]
    fn matrix_order_is_workload_major_and_stable() {
        let (w1, w2) = (pool(), pool());
        let campaign = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
            .over_workloads([&w1, &w2])
            .over_cores([2, 4]);
        let cells = campaign.cells(registry::global()).expect("valid");
        assert_eq!(cells.len(), 8);
        let ids: Vec<String> = cells.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(ids[0], "TPC-C-1/baseline/c2/t10");
        assert_eq!(ids[1], "TPC-C-1/baseline/c4/t10");
        assert_eq!(ids[2], "TPC-C-1/strex/c2/t10");
        assert_eq!(ids[4], "TPC-C-1/baseline/c2/t10", "second workload");
        assert_eq!(cells[4].0.workload_idx, 1);
    }

    #[test]
    fn invalid_cells_are_rejected_before_execution() {
        let w = pool();
        let err = Campaign::new(SimConfig::new(2, SchedulerKind::Strex))
            .over_workloads([&w])
            .over_team_sizes([0])
            .run()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroTeamSize);

        let err = Campaign::new(SimConfig::new(2, SchedulerKind::Strex))
            .over_workloads([&w])
            .over_scheduler_names(["no-such-policy"])
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownScheduler {
                name: "no-such-policy".into()
            }
        );

        // The axes are checked even with no workload to run them on.
        let err = Campaign::new(SimConfig::new(2, SchedulerKind::Strex))
            .over_cores([65])
            .cells(registry::global())
            .unwrap_err();
        assert_eq!(err, ConfigError::TooManyCores { requested: 65 });
    }

    #[test]
    fn empty_workload_axis_gives_empty_result() {
        let result = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .run()
            .expect("empty is fine");
        assert!(result.is_empty());
        assert_eq!(result.to_json(), r#"{"cells":[]}"#);
    }

    #[test]
    fn perf_counts_the_events_of_the_cells() {
        let w = pool();
        let result = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
            .over_workloads([&w])
            .parallelism(2)
            .run()
            .expect("runs");
        // One L1 access per packed event, so each cell simulates the
        // pool's whole event stream once.
        let events: u64 = w.txns().iter().map(|t| t.len() as u64).sum();
        assert_eq!(result.perf().total_events, 2 * events);
    }

    #[test]
    fn lookup_by_axis_and_by_key() {
        let w = pool();
        let result = Campaign::new(SimConfig::new(2, SchedulerKind::Baseline))
            .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
            .over_workloads([&w])
            .run()
            .expect("runs");
        assert_eq!(result.len(), 2);
        let r = result.report("TPC-C-1", "strex", 2).expect("present");
        assert_eq!(r.scheduler, "STREX");
        let key = result.cells()[0].key.clone();
        assert!(result.get(&key).is_some());
        assert!(result.report("TPC-C-1", "slicc", 2).is_none());
    }
}
