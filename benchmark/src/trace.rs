//! Instrumentation for the traced run: spans kept in memory and written at
//! exit, and a scheduler registry whose factories time every cell.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer; the program itself is not instrumented.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use strex::driver::SimScratch;
use strex::sched::registry::{self, SchedulerFactory, SchedulerRegistry};
use strex::sched::Scheduler;
use strex::{Report, SimConfig};
use strex_oltp::workload::Workload;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval: what ran, when, under which parent, for which job.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub job: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span store shared by every thread of the run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; [`close`](Tracer::close) ends it.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, job: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn within<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Writes one JSON object per span, in the order they were opened.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"job\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one timed cell did.
#[derive(Clone, Debug)]
pub struct CellRecord {
    pub span: SpanId,
    pub scheduler: &'static str,
    pub events: u64,
    pub ns: u64,
    pub context_switches: u64,
    pub migrations: u64,
}

/// The span and job the next cells belong to, and the cells recorded so far.
pub struct CellTimer {
    tracer: Arc<Tracer>,
    current: Mutex<(Option<SpanId>, u64)>,
    cells: Mutex<Vec<CellRecord>>,
}

impl CellTimer {
    pub fn new(tracer: Arc<Tracer>) -> Arc<CellTimer> {
        Arc::new(CellTimer {
            tracer,
            current: Mutex::new((None, 0)),
            cells: Mutex::new(Vec::new()),
        })
    }

    /// Cells run from now on are children of `parent` in job `job`.
    pub fn enter(&self, parent: SpanId, job: u64) {
        *self.current.lock().expect("cell timer poisoned") = (Some(parent), job);
    }

    /// Every cell recorded so far, then forgets them.
    pub fn take(&self) -> Vec<CellRecord> {
        std::mem::take(&mut *self.cells.lock().expect("cell timer poisoned"))
    }
}

/// Simulated L1-I + L1-D accesses of one report (the executor's event
/// definition).
pub fn report_events(report: &Report) -> u64 {
    let agg = report.stats.aggregate();
    agg.i_accesses + agg.d_accesses
}

/// A built-in factory whose typed run is wrapped in a `cell` span.
struct TimedFactory {
    inner: &'static dyn SchedulerFactory,
    timer: Arc<CellTimer>,
}

impl SchedulerFactory for TimedFactory {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create(&self, config: &SimConfig) -> Box<dyn Scheduler> {
        self.inner.create(config)
    }

    fn run_typed(
        &self,
        workload: &Workload,
        config: &SimConfig,
        scratch: &mut SimScratch,
    ) -> Option<Report> {
        let (parent, job) = *self.timer.current.lock().expect("cell timer poisoned");
        let span = self.timer.tracer.open("cell", parent, job);
        let report = self.inner.run_typed(workload, config, scratch);
        self.timer.tracer.close(span);
        if let Some(r) = &report {
            let ns = self.timer.tracer.spans.lock().expect("span store poisoned")[span].ns();
            self.timer
                .cells
                .lock()
                .expect("cell timer poisoned")
                .push(CellRecord {
                    span,
                    scheduler: self.inner.name(),
                    events: report_events(r),
                    ns,
                    context_switches: r.context_switches,
                    migrations: r.migrations,
                });
        }
        report
    }
}

/// The built-in policies, each wrapped so its cells are timed by `timer`.
pub fn timed_registry(timer: &Arc<CellTimer>) -> SchedulerRegistry {
    let builtins = registry::global();
    let mut reg = SchedulerRegistry::empty();
    for name in builtins.names() {
        let inner = builtins.get(name).expect("listed by names()");
        reg.register(Box::new(TimedFactory {
            inner,
            timer: Arc::clone(timer),
        }));
    }
    reg
}
