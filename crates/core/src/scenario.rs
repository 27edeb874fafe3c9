//! Declarative scenarios: machine-checkable claims about campaign results.
//!
//! The paper's headline claims — "STREX cuts L1-I misses versus the
//! baseline scheduler", "throughput stays inside this window" — lived
//! only in prose and in the experiment code until this module. A
//! [`Scenario`] is a small JSON document that declares a scheduler ×
//! workload × cores × team-size matrix *plus* typed [`Assertion`]s over
//! the reports the matrix produces, so the reproduction's correctness
//! contract becomes an executable regression suite (`repro check
//! scenarios/`, the committed `scenarios/` directory).
//!
//! The format is parsed through the [`crate::jsonval`] trust-boundary
//! parser and validated strictly: unknown fields, missing fields,
//! mistyped values and out-of-range numbers are all typed
//! [`ScenarioError`]s — never panics, and never silently ignored keys
//! (a typo'd assertion that silently never runs would be worse than no
//! assertion at all). [`Scenario::to_json`] re-serializes through
//! [`crate::json::JsonWriter`] deterministically, and
//! `parse(serialize(parse(x)))` is the identity (property-tested in
//! `tests/scenario_roundtrip.rs`).
//!
//! Evaluation is one function, [`Assertion::evaluate`]: a pure function
//! of the assertion and a merged [`CampaignResult`] that yields an
//! [`AssertionOutcome`] carrying the expected bound, the observed value
//! and the offending cell key — the diagnostic `repro check` prints
//! whether the assertion passed or failed. Being pure, it runs wherever
//! the result is: `repro check` judges an in-process run, and a fleet
//! submitter judges the result the coordinator returns
//! ([`crate::dispatch::submit_scenario`]).
//!
//! ```no_run
//! use strex::scenario::Scenario;
//!
//! let text = std::fs::read_to_string("scenarios/strex_l1i_reduction.json")?;
//! let scenario = Scenario::from_json(&text)?;
//! let workloads = scenario.workloads();
//! let result = scenario.campaign(&workloads).run()?;
//! for assertion in &scenario.assertions {
//!     println!("{}", assertion.evaluate(&result));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use strex_oltp::cache::WorkloadCache;
use strex_oltp::workload::{Workload, WorkloadKind};

use crate::campaign::{Campaign, CampaignResult};
use crate::config::{SimConfig, MAX_CORES};
use crate::json::JsonWriter;
use crate::jsonval::{JsonError, JsonValue};
use crate::report::Report;

/// Largest transaction pool a scenario may request. Scenarios run in CI
/// on every push; a matrix bigger than this belongs in the full
/// reproduction (`repro all`), not a check file.
pub const MAX_POOL: usize = 100_000;

/// Largest STREX team size a scenario may sweep. The default
/// configuration's formation window is 30; larger teams would need a
/// wider window than scenarios can express.
pub const MAX_TEAM_SIZE: usize = 30;

/// Why a scenario document was rejected.
///
/// Every variant names the dotted path of the offending field when one
/// exists, so a failing `repro check` run points at the exact line to
/// fix. Parsing never panics: hostile or corrupt input is answered with
/// one of these.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The document is not well-formed JSON at all.
    Json(JsonError),
    /// A required field is absent.
    Missing {
        /// Dotted path of the absent field.
        path: String,
    },
    /// A field holds a value of the wrong JSON type.
    Mistyped {
        /// Dotted path of the field.
        path: String,
        /// What type the schema wanted there.
        expected: &'static str,
    },
    /// An object carries a key the schema does not define — typos must
    /// be loud, or a misspelled assertion silently never runs.
    UnknownField {
        /// Dotted path of the unknown key.
        path: String,
    },
    /// A value is the right type but outside its allowed range (empty
    /// axis, zero pool, inverted window bounds, …).
    OutOfRange {
        /// Dotted path of the field.
        path: String,
        /// What about the value is out of range.
        detail: String,
    },
    /// A name field refers to something that does not exist (unknown
    /// workload, unknown metric, unknown assertion kind).
    UnknownName {
        /// Dotted path of the field.
        path: String,
        /// The unrecognized name.
        name: String,
        /// The accepted names, for the error message.
        known: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "scenario: {e}"),
            ScenarioError::Missing { path } => write!(f, "scenario: missing `{path}`"),
            ScenarioError::Mistyped { path, expected } => {
                write!(f, "scenario: `{path}` is not {expected}")
            }
            ScenarioError::UnknownField { path } => {
                write!(f, "scenario: unknown field `{path}`")
            }
            ScenarioError::OutOfRange { path, detail } => {
                write!(f, "scenario: `{path}` out of range: {detail}")
            }
            ScenarioError::UnknownName { path, name, known } => {
                write!(
                    f,
                    "scenario: `{path}` names unknown {name:?} (known: {known})"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json(e)
    }
}

/// A per-report metric an assertion can bound or compare.
///
/// The keys are the snake_case strings the JSON format uses; values are
/// computed from a [`Report`] by [`Metric::of`].
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
#[non_exhaustive]
pub enum Metric {
    /// System-wide instruction MPKI ([`Report::i_mpki`]).
    IMpki,
    /// System-wide data MPKI ([`Report::d_mpki`]).
    DMpki,
    /// Steady-state throughput in transactions per cycle
    /// ([`Report::steady_throughput`]).
    SteadyThroughput,
    /// Mean transaction latency in cycles ([`Report::mean_latency`]).
    MeanLatency,
    /// Total cycles to drain the pool ([`Report::makespan`]).
    Makespan,
    /// STREX context switches performed.
    ContextSwitches,
    /// SLICC migrations performed.
    Migrations,
}

impl Metric {
    /// Every metric, in the order the documentation lists them.
    pub const ALL: [Metric; 7] = [
        Metric::IMpki,
        Metric::DMpki,
        Metric::SteadyThroughput,
        Metric::MeanLatency,
        Metric::Makespan,
        Metric::ContextSwitches,
        Metric::Migrations,
    ];

    /// The snake_case key the JSON format spells this metric as.
    pub fn key(self) -> &'static str {
        match self {
            Metric::IMpki => "i_mpki",
            Metric::DMpki => "d_mpki",
            Metric::SteadyThroughput => "steady_throughput",
            Metric::MeanLatency => "mean_latency",
            Metric::Makespan => "makespan",
            Metric::ContextSwitches => "context_switches",
            Metric::Migrations => "migrations",
        }
    }

    /// Parses a metric key; `None` for unknown keys.
    pub fn from_key(key: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.key() == key)
    }

    /// Computes this metric from a report.
    pub fn of(self, r: &Report) -> f64 {
        match self {
            Metric::IMpki => r.i_mpki(),
            Metric::DMpki => r.d_mpki(),
            Metric::SteadyThroughput => r.steady_throughput(),
            Metric::MeanLatency => r.mean_latency(),
            Metric::Makespan => r.makespan as f64,
            Metric::ContextSwitches => r.context_switches as f64,
            Metric::Migrations => r.migrations as f64,
        }
    }

    fn known() -> String {
        Metric::ALL
            .iter()
            .map(|m| m.key())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Addresses one cell of the scenario's matrix by its coordinates.
///
/// `workload` is the canonical workload name (`"TPC-C-1"`…), `scheduler`
/// the registry key (`"baseline"`, `"strex"`, …). `team_size` is
/// optional: omitted, the selector requires the matrix to have exactly
/// one team size for those coordinates — an ambiguous selector is a
/// failed assertion, not a silent first match.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSelector {
    /// Workload name, as in [`crate::campaign::CellKey::workload`].
    pub workload: String,
    /// Scheduler registry key, as in
    /// [`crate::campaign::CellKey::scheduler`].
    pub scheduler: String,
    /// Core count.
    pub cores: usize,
    /// STREX team size; `None` matches any (and errors on ambiguity).
    pub team_size: Option<usize>,
}

impl fmt::Display for CellSelector {
    /// `workload/scheduler/c<cores>` with `/t<team_size>` when pinned —
    /// the same shape as [`crate::campaign::CellKey`]'s display.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/c{}", self.workload, self.scheduler, self.cores)?;
        if let Some(t) = self.team_size {
            write!(f, "/t{t}")?;
        }
        Ok(())
    }
}

/// One typed claim about the matrix's reports.
///
/// The `kind` tags are the snake_case strings spelled in the JSON
/// `assertions` array; see `docs/SCENARIOS.md` for the schema of each.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Assertion {
    /// `cell`'s steady-state throughput is at least `min` transactions
    /// per cycle — the throughput-bound claim.
    ThroughputAtLeast {
        /// The cell whose throughput is bounded.
        cell: CellSelector,
        /// Inclusive lower bound, transactions per cycle.
        min: f64,
    },
    /// `metric` on `cell` lies inside `[min, max]` — the window claim
    /// (e.g. a miss-rate window on `i_mpki`).
    MetricWithin {
        /// The cell whose metric is bounded.
        cell: CellSelector,
        /// Which metric is bounded.
        metric: Metric,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// `metric` on `to` is lower than on `from` by at least
    /// `min_percent` percent — the cross-scheduler ordering claim for
    /// lower-is-better metrics ("STREX L1-I misses < baseline by ≥ X%").
    ReductionAtLeast {
        /// Which metric must drop.
        metric: Metric,
        /// The reference cell (e.g. the baseline scheduler).
        from: CellSelector,
        /// The improved cell (e.g. STREX).
        to: CellSelector,
        /// Required reduction, in percent of `from`'s value.
        min_percent: f64,
    },
    /// `metric` on `numerator` over `metric` on `denominator` is at
    /// least `min` — the cross-scheduler ordering claim for
    /// higher-is-better metrics ("STREX throughput ≥ 1.2× baseline").
    RatioAtLeast {
        /// Which metric is compared.
        metric: Metric,
        /// The cell on top of the ratio.
        numerator: CellSelector,
        /// The cell under the ratio.
        denominator: CellSelector,
        /// Inclusive lower bound on the ratio.
        min: f64,
    },
}

/// The kind tags of the built-in assertions, in documentation order.
pub const ASSERTION_KINDS: [&str; 4] = [
    "throughput_at_least",
    "metric_within",
    "reduction_at_least",
    "ratio_at_least",
];

impl Assertion {
    /// The snake_case kind tag this assertion serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Assertion::ThroughputAtLeast { .. } => "throughput_at_least",
            Assertion::MetricWithin { .. } => "metric_within",
            Assertion::ReductionAtLeast { .. } => "reduction_at_least",
            Assertion::RatioAtLeast { .. } => "ratio_at_least",
        }
    }
}

/// The per-assertion diagnostic an evaluation produces: pass/fail plus
/// the expected bound, the observed value, and the cell key the claim
/// was judged on — everything a failing `repro check` needs to print.
#[derive(Clone, Debug, PartialEq)]
pub struct AssertionOutcome {
    /// The assertion's kind tag.
    pub kind: String,
    /// Whether the claim held.
    pub passed: bool,
    /// The cell key (or key pair) the claim was judged on.
    pub cell: String,
    /// What the assertion required, rendered for humans.
    pub expected: String,
    /// What the reports actually showed.
    pub observed: String,
}

impl fmt::Display for AssertionOutcome {
    /// `PASS`/`FAIL`, the kind, the cell, and the expected-vs-observed
    /// pair — one line per assertion.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @ {}: expected {}, observed {}",
            if self.passed { "PASS" } else { "FAIL" },
            self.kind,
            self.cell,
            self.expected,
            self.observed,
        )
    }
}

/// The run matrix a scenario declares: which workloads (resolved through
/// the process-wide [`WorkloadCache`]), which schedulers, and the core /
/// team-size axes, all over one deterministic `(pool, seed)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    /// Canonical workload names (`"TPC-C-1"`, `"TPC-C-10"`, `"TPC-E"`,
    /// `"MapReduce"`).
    pub workloads: Vec<String>,
    /// Transaction-pool size per workload.
    pub pool: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// `true` (the default) generates scaled-down databases via
    /// [`Workload::preset_small`] — the quick, CI-sized form; `false`
    /// uses the full-scale [`Workload::preset`] generators.
    pub small: bool,
    /// Scheduler registry keys (`"baseline"`, `"strex"`, `"slicc"`,
    /// `"hybrid"`, or custom registered names).
    pub schedulers: Vec<String>,
    /// Core counts to sweep.
    pub cores: Vec<usize>,
    /// STREX team sizes to sweep; `None` keeps the base configuration's
    /// single default team size.
    pub team_sizes: Option<Vec<usize>>,
}

/// A parsed, validated scenario: a name, an optional description, the
/// run [`Matrix`], and the [`Assertion`]s to judge its results by.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Short identifier, printed in `repro check` output.
    pub name: String,
    /// Optional prose: which paper claim this scenario encodes.
    pub description: Option<String>,
    /// The matrix to run.
    pub matrix: Matrix,
    /// The claims to evaluate over the matrix's results.
    pub assertions: Vec<Assertion>,
}

/// Maps a canonical workload name to its generator kind.
fn workload_kind(name: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
}

fn known_workloads() -> String {
    WorkloadKind::ALL
        .iter()
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join(", ")
}

// ---------------------------------------------------------------------
// Parsing: strict field-by-field decoding with dotted-path errors.
// ---------------------------------------------------------------------

fn as_object<'a>(
    v: &'a JsonValue,
    path: &str,
) -> Result<&'a BTreeMap<String, JsonValue>, ScenarioError> {
    v.as_object().ok_or_else(|| ScenarioError::Mistyped {
        path: path.to_string(),
        expected: "an object",
    })
}

/// Rejects any key of `map` not in `allowed` — the unknown-field check.
fn expect_keys(
    map: &BTreeMap<String, JsonValue>,
    path: &str,
    allowed: &[&str],
) -> Result<(), ScenarioError> {
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::UnknownField {
                path: if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                },
            });
        }
    }
    Ok(())
}

fn field<'a>(
    map: &'a BTreeMap<String, JsonValue>,
    path: &str,
    key: &str,
) -> Result<&'a JsonValue, ScenarioError> {
    map.get(key).ok_or_else(|| ScenarioError::Missing {
        path: join(path, key),
    })
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn str_field(
    map: &BTreeMap<String, JsonValue>,
    path: &str,
    key: &str,
) -> Result<String, ScenarioError> {
    field(map, path, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ScenarioError::Mistyped {
            path: join(path, key),
            expected: "a string",
        })
}

fn u64_field(
    map: &BTreeMap<String, JsonValue>,
    path: &str,
    key: &str,
) -> Result<u64, ScenarioError> {
    field(map, path, key)?
        .as_u64()
        .ok_or_else(|| ScenarioError::Mistyped {
            path: join(path, key),
            expected: "an unsigned integer",
        })
}

fn f64_field(
    map: &BTreeMap<String, JsonValue>,
    path: &str,
    key: &str,
) -> Result<f64, ScenarioError> {
    field(map, path, key)?
        .as_f64()
        .ok_or_else(|| ScenarioError::Mistyped {
            path: join(path, key),
            expected: "a number",
        })
}

fn metric_field(
    map: &BTreeMap<String, JsonValue>,
    path: &str,
    key: &str,
) -> Result<Metric, ScenarioError> {
    let name = str_field(map, path, key)?;
    Metric::from_key(&name).ok_or_else(|| ScenarioError::UnknownName {
        path: join(path, key),
        name,
        known: Metric::known(),
    })
}

/// A non-empty array field, with per-element decoding via `decode`.
fn vec_field<T>(
    map: &BTreeMap<String, JsonValue>,
    path: &str,
    key: &str,
    decode: impl Fn(&JsonValue, &str) -> Result<T, ScenarioError>,
) -> Result<Vec<T>, ScenarioError> {
    let full = join(path, key);
    let items = field(map, path, key)?
        .as_array()
        .ok_or_else(|| ScenarioError::Mistyped {
            path: full.clone(),
            expected: "an array",
        })?;
    if items.is_empty() {
        return Err(ScenarioError::OutOfRange {
            path: full,
            detail: "must not be empty".to_string(),
        });
    }
    items
        .iter()
        .enumerate()
        .map(|(i, v)| decode(v, &format!("{full}[{i}]")))
        .collect()
}

fn bounded_usize(
    v: &JsonValue,
    path: &str,
    min: usize,
    max: usize,
    what: &str,
) -> Result<usize, ScenarioError> {
    let n = v.as_u64().ok_or_else(|| ScenarioError::Mistyped {
        path: path.to_string(),
        expected: "an unsigned integer",
    })? as usize;
    if n < min || n > max {
        return Err(ScenarioError::OutOfRange {
            path: path.to_string(),
            detail: format!("{what} must be in {min}..={max}, got {n}"),
        });
    }
    Ok(n)
}

fn finite(value: f64, path: &str) -> Result<f64, ScenarioError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(ScenarioError::OutOfRange {
            path: path.to_string(),
            detail: "must be finite".to_string(),
        })
    }
}

impl CellSelector {
    /// Decodes a selector object (`{"workload": …, "scheduler": …,
    /// "cores": …[, "team_size": …]}`) at `path`.
    fn from_json_value(v: &JsonValue, path: &str) -> Result<CellSelector, ScenarioError> {
        let map = as_object(v, path)?;
        expect_keys(map, path, &["workload", "scheduler", "cores", "team_size"])?;
        let workload = str_field(map, path, "workload")?;
        if workload_kind(&workload).is_none() {
            return Err(ScenarioError::UnknownName {
                path: join(path, "workload"),
                name: workload,
                known: known_workloads(),
            });
        }
        let scheduler = str_field(map, path, "scheduler")?;
        if scheduler.is_empty() {
            return Err(ScenarioError::OutOfRange {
                path: join(path, "scheduler"),
                detail: "must not be empty".to_string(),
            });
        }
        let cores = bounded_usize(
            field(map, path, "cores")?,
            &join(path, "cores"),
            1,
            MAX_CORES,
            "core count",
        )?;
        let team_size = match map.get("team_size") {
            Some(v) => Some(bounded_usize(
                v,
                &join(path, "team_size"),
                1,
                MAX_TEAM_SIZE,
                "team size",
            )?),
            None => None,
        };
        Ok(CellSelector {
            workload,
            scheduler,
            cores,
            team_size,
        })
    }

    fn write_into(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workload");
        w.string(&self.workload);
        w.key("scheduler");
        w.string(&self.scheduler);
        w.key("cores");
        w.number_u64(self.cores as u64);
        if let Some(t) = self.team_size {
            w.key("team_size");
            w.number_u64(t as u64);
        }
        w.end_object();
    }
}

impl Assertion {
    /// Decodes one assertion object at `path`, dispatching on its
    /// `kind` tag.
    fn from_json_value(v: &JsonValue, path: &str) -> Result<Assertion, ScenarioError> {
        let map = as_object(v, path)?;
        let kind = str_field(map, path, "kind")?;
        match kind.as_str() {
            "throughput_at_least" => {
                expect_keys(map, path, &["kind", "cell", "min"])?;
                let cell =
                    CellSelector::from_json_value(field(map, path, "cell")?, &join(path, "cell"))?;
                let min = finite(f64_field(map, path, "min")?, &join(path, "min"))?;
                if min < 0.0 {
                    return Err(ScenarioError::OutOfRange {
                        path: join(path, "min"),
                        detail: "throughput bound must be non-negative".to_string(),
                    });
                }
                Ok(Assertion::ThroughputAtLeast { cell, min })
            }
            "metric_within" => {
                expect_keys(map, path, &["kind", "cell", "metric", "min", "max"])?;
                let cell =
                    CellSelector::from_json_value(field(map, path, "cell")?, &join(path, "cell"))?;
                let metric = metric_field(map, path, "metric")?;
                let min = finite(f64_field(map, path, "min")?, &join(path, "min"))?;
                let max = finite(f64_field(map, path, "max")?, &join(path, "max"))?;
                if min > max {
                    return Err(ScenarioError::OutOfRange {
                        path: join(path, "min"),
                        detail: format!("window is inverted (min {min} > max {max})"),
                    });
                }
                Ok(Assertion::MetricWithin {
                    cell,
                    metric,
                    min,
                    max,
                })
            }
            "reduction_at_least" => {
                expect_keys(map, path, &["kind", "metric", "from", "to", "min_percent"])?;
                let metric = metric_field(map, path, "metric")?;
                let from =
                    CellSelector::from_json_value(field(map, path, "from")?, &join(path, "from"))?;
                let to = CellSelector::from_json_value(field(map, path, "to")?, &join(path, "to"))?;
                let min_percent = finite(
                    f64_field(map, path, "min_percent")?,
                    &join(path, "min_percent"),
                )?;
                if !(0.0..=100.0).contains(&min_percent) {
                    return Err(ScenarioError::OutOfRange {
                        path: join(path, "min_percent"),
                        detail: format!("must be in 0..=100, got {min_percent}"),
                    });
                }
                Ok(Assertion::ReductionAtLeast {
                    metric,
                    from,
                    to,
                    min_percent,
                })
            }
            "ratio_at_least" => {
                expect_keys(
                    map,
                    path,
                    &["kind", "metric", "numerator", "denominator", "min"],
                )?;
                let metric = metric_field(map, path, "metric")?;
                let numerator = CellSelector::from_json_value(
                    field(map, path, "numerator")?,
                    &join(path, "numerator"),
                )?;
                let denominator = CellSelector::from_json_value(
                    field(map, path, "denominator")?,
                    &join(path, "denominator"),
                )?;
                let min = finite(f64_field(map, path, "min")?, &join(path, "min"))?;
                if min < 0.0 {
                    return Err(ScenarioError::OutOfRange {
                        path: join(path, "min"),
                        detail: "ratio bound must be non-negative".to_string(),
                    });
                }
                Ok(Assertion::RatioAtLeast {
                    metric,
                    numerator,
                    denominator,
                    min,
                })
            }
            _ => Err(ScenarioError::UnknownName {
                path: join(path, "kind"),
                name: kind,
                known: ASSERTION_KINDS.join(", "),
            }),
        }
    }

    fn write_into(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("kind");
        w.string(self.kind());
        match self {
            Assertion::ThroughputAtLeast { cell, min } => {
                w.key("cell");
                cell.write_into(w);
                w.key("min");
                w.float(*min);
            }
            Assertion::MetricWithin {
                cell,
                metric,
                min,
                max,
            } => {
                w.key("cell");
                cell.write_into(w);
                w.key("metric");
                w.string(metric.key());
                w.key("min");
                w.float(*min);
                w.key("max");
                w.float(*max);
            }
            Assertion::ReductionAtLeast {
                metric,
                from,
                to,
                min_percent,
            } => {
                w.key("metric");
                w.string(metric.key());
                w.key("from");
                from.write_into(w);
                w.key("to");
                to.write_into(w);
                w.key("min_percent");
                w.float(*min_percent);
            }
            Assertion::RatioAtLeast {
                metric,
                numerator,
                denominator,
                min,
            } => {
                w.key("metric");
                w.string(metric.key());
                w.key("numerator");
                numerator.write_into(w);
                w.key("denominator");
                denominator.write_into(w);
                w.key("min");
                w.float(*min);
            }
        }
        w.end_object();
    }
}

impl Matrix {
    fn from_json_value(v: &JsonValue, path: &str) -> Result<Matrix, ScenarioError> {
        let map = as_object(v, path)?;
        expect_keys(
            map,
            path,
            &[
                "workloads",
                "pool",
                "seed",
                "small",
                "schedulers",
                "cores",
                "team_sizes",
            ],
        )?;
        let workloads = vec_field(map, path, "workloads", |v, p| {
            let name = v.as_str().ok_or_else(|| ScenarioError::Mistyped {
                path: p.to_string(),
                expected: "a string",
            })?;
            if workload_kind(name).is_none() {
                return Err(ScenarioError::UnknownName {
                    path: p.to_string(),
                    name: name.to_string(),
                    known: known_workloads(),
                });
            }
            Ok(name.to_string())
        })?;
        let pool = bounded_usize(
            field(map, path, "pool")?,
            &join(path, "pool"),
            1,
            MAX_POOL,
            "pool size",
        )?;
        let seed = u64_field(map, path, "seed")?;
        let small = match map.get("small") {
            Some(v) => v.as_bool().ok_or_else(|| ScenarioError::Mistyped {
                path: join(path, "small"),
                expected: "a boolean",
            })?,
            None => true,
        };
        let schedulers = vec_field(map, path, "schedulers", |v, p| {
            let name = v.as_str().ok_or_else(|| ScenarioError::Mistyped {
                path: p.to_string(),
                expected: "a string",
            })?;
            if name.is_empty() {
                return Err(ScenarioError::OutOfRange {
                    path: p.to_string(),
                    detail: "must not be empty".to_string(),
                });
            }
            Ok(name.to_string())
        })?;
        let cores = vec_field(map, path, "cores", |v, p| {
            bounded_usize(v, p, 1, MAX_CORES, "core count")
        })?;
        let team_sizes = match map.get("team_sizes") {
            Some(_) => Some(vec_field(map, path, "team_sizes", |v, p| {
                bounded_usize(v, p, 1, MAX_TEAM_SIZE, "team size")
            })?),
            None => None,
        };
        Ok(Matrix {
            workloads,
            pool,
            seed,
            small,
            schedulers,
            cores,
            team_sizes,
        })
    }

    fn write_into(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workloads");
        w.begin_array();
        for name in &self.workloads {
            w.string(name);
        }
        w.end_array();
        w.key("pool");
        w.number_u64(self.pool as u64);
        w.key("seed");
        w.number_u64(self.seed);
        w.key("small");
        w.boolean(self.small);
        w.key("schedulers");
        w.begin_array();
        for name in &self.schedulers {
            w.string(name);
        }
        w.end_array();
        w.key("cores");
        w.begin_array();
        for &c in &self.cores {
            w.number_u64(c as u64);
        }
        w.end_array();
        if let Some(team_sizes) = &self.team_sizes {
            w.key("team_sizes");
            w.begin_array();
            for &t in team_sizes {
                w.number_u64(t as u64);
            }
            w.end_array();
        }
        w.end_object();
    }
}

impl Scenario {
    /// Parses and validates a scenario document.
    ///
    /// Strict at every level: malformed JSON, missing fields, wrong
    /// types, unknown fields and out-of-range values are all typed
    /// [`ScenarioError`]s.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        Scenario::from_json_value(&JsonValue::parse(text)?)
    }

    /// [`Scenario::from_json`] over an already-parsed document.
    pub fn from_json_value(doc: &JsonValue) -> Result<Scenario, ScenarioError> {
        let map = as_object(doc, "")?;
        expect_keys(map, "", &["name", "description", "matrix", "assertions"])?;
        let name = str_field(map, "", "name")?;
        if name.is_empty() {
            return Err(ScenarioError::OutOfRange {
                path: "name".to_string(),
                detail: "must not be empty".to_string(),
            });
        }
        let description = match map.get("description") {
            Some(v) => {
                Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ScenarioError::Mistyped {
                            path: "description".to_string(),
                            expected: "a string",
                        })?,
                )
            }
            None => None,
        };
        let matrix = Matrix::from_json_value(field(map, "", "matrix")?, "matrix")?;
        let assertions = vec_field(map, "", "assertions", Assertion::from_json_value)?;
        Ok(Scenario {
            name,
            description,
            matrix,
            assertions,
        })
    }

    /// Serializes the scenario deterministically (fixed key order);
    /// `parse(to_json(s)) == s` for every valid scenario.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string(&self.name);
        if let Some(d) = &self.description {
            w.key("description");
            w.string(d);
        }
        w.key("matrix");
        self.matrix.write_into(&mut w);
        w.key("assertions");
        w.begin_array();
        for a in &self.assertions {
            a.write_into(&mut w);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Generates (or fetches from the process-wide [`WorkloadCache`])
    /// the matrix's workloads, in axis order.
    pub fn workloads(&self) -> Vec<Arc<Workload>> {
        self.matrix
            .workloads
            .iter()
            .map(|name| {
                let kind = workload_kind(name).expect("validated at parse time");
                if self.matrix.small {
                    WorkloadCache::preset_small(kind, self.matrix.pool, self.matrix.seed)
                } else {
                    WorkloadCache::preset(kind, self.matrix.pool, self.matrix.seed)
                }
            })
            .collect()
    }

    /// The declared matrix as a [`Campaign`] over `workloads` (the
    /// vector [`Scenario::workloads`] returns). Run it with
    /// [`Campaign::run`], shard it with
    /// [`Campaign::run_shard`](crate::campaign::Campaign::run_shard) —
    /// the same machinery every other campaign uses, so scenario results
    /// are bit-identical however they are executed.
    pub fn campaign<'w>(&self, workloads: &'w [Arc<Workload>]) -> Campaign<'w> {
        let base = SimConfig::builder()
            .build()
            .expect("the default configuration is valid");
        let mut campaign = Campaign::new(base)
            .over_scheduler_names(self.matrix.schedulers.iter().map(String::as_str))
            .over_workloads(workloads.iter().map(|w| &**w))
            .over_cores(self.matrix.cores.iter().copied());
        if let Some(team_sizes) = &self.matrix.team_sizes {
            campaign = campaign.over_team_sizes(team_sizes.iter().copied());
        }
        campaign
    }

    /// Every assertion's [`Assertion::evaluate`] against `result`, in
    /// declaration order. Never `Err`, and `registry` selects nothing:
    /// both remain so that existing callers keep compiling. New code maps
    /// [`Assertion::evaluate`] over [`Scenario::assertions`] instead.
    pub fn evaluate(
        &self,
        result: &CampaignResult,
        _registry: &EvaluatorRegistry,
    ) -> Result<Vec<AssertionOutcome>, ScenarioError> {
        Ok(self.assertions.iter().map(|a| a.evaluate(result)).collect())
    }
}

// ---------------------------------------------------------------------
// Evaluation: one match over the four assertion kinds.
// ---------------------------------------------------------------------

/// The argument [`Scenario::evaluate`] still takes. There is one
/// evaluator, [`Assertion::evaluate`], so this holds and selects nothing;
/// it remains so that existing callers (the benchmark crate among them)
/// keep compiling.
pub struct EvaluatorRegistry;

impl EvaluatorRegistry {
    /// The registry [`Scenario::evaluate`] takes.
    pub fn with_defaults() -> EvaluatorRegistry {
        EvaluatorRegistry
    }
}

/// Resolves a selector against the result's cells: exactly one match, or
/// the selector and a human-readable refusal (no match, or an ambiguous
/// match).
fn resolve<'r>(
    result: &'r CampaignResult,
    sel: &CellSelector,
) -> Result<(String, &'r Report), (String, String)> {
    let mut matches = result.cells().iter().filter(|c| {
        c.key.workload == sel.workload
            && c.key.scheduler == sel.scheduler
            && c.key.cores == sel.cores
            && sel.team_size.is_none_or(|t| c.key.team_size == t)
    });
    match (matches.next(), matches.next()) {
        (Some(cell), None) => Ok((cell.key.to_string(), &cell.report)),
        (None, _) => Err((sel.to_string(), format!("no cell matches selector {sel}"))),
        (Some(_), Some(_)) => Err((
            sel.to_string(),
            format!("selector {sel} is ambiguous (multiple team sizes match; pin team_size)"),
        )),
    }
}

impl Assertion {
    /// Judges this assertion against `result`. Never fails: a claim that
    /// does not hold, a selector that matches no cell or several, and a
    /// reference value of zero or less are all `passed: false` outcomes
    /// whose `observed` says why.
    pub fn evaluate(&self, result: &CampaignResult) -> AssertionOutcome {
        // Each arm yields the expected bound and either (passed, judged
        // cell, observed) or the selector that did not resolve and why.
        let (expected, verdict) = match self {
            Assertion::ThroughputAtLeast { cell, min } => (
                format!("steady throughput >= {min} txn/cycle"),
                resolve(result, cell).map(|(key, report)| {
                    let observed = report.steady_throughput();
                    (observed >= *min, key, format!("{observed} txn/cycle"))
                }),
            ),
            Assertion::MetricWithin {
                cell,
                metric,
                min,
                max,
            } => (
                format!("{} in [{min}, {max}]", metric.key()),
                resolve(result, cell).map(|(key, report)| {
                    let observed = metric.of(report);
                    (
                        (*min..=*max).contains(&observed),
                        key,
                        format!("{} = {observed}", metric.key()),
                    )
                }),
            ),
            Assertion::ReductionAtLeast {
                metric,
                from,
                to,
                min_percent,
            } => (
                format!("{} reduced by >= {min_percent}% vs {from}", metric.key()),
                resolve(result, from).and_then(|(from_key, from_report)| {
                    let (to_key, to_report) = resolve(result, to)?;
                    let from_value = metric.of(from_report);
                    let to_value = metric.of(to_report);
                    if from_value <= 0.0 {
                        return Ok((
                            false,
                            from_key,
                            format!(
                                "{} = {from_value} at the reference cell (no reduction is computable)",
                                metric.key()
                            ),
                        ));
                    }
                    let reduction = (from_value - to_value) / from_value * 100.0;
                    Ok((
                        reduction >= *min_percent,
                        to_key,
                        format!(
                            "{} = {to_value} vs {from_value} ({reduction:.2}% reduction)",
                            metric.key()
                        ),
                    ))
                }),
            ),
            Assertion::RatioAtLeast {
                metric,
                numerator,
                denominator,
                min,
            } => (
                format!("{} ratio >= {min} vs {denominator}", metric.key()),
                resolve(result, denominator).and_then(|(_, den_report)| {
                    let (num_key, num_report) = resolve(result, numerator)?;
                    let num_value = metric.of(num_report);
                    let den_value = metric.of(den_report);
                    if den_value <= 0.0 {
                        return Ok((
                            false,
                            num_key,
                            format!(
                                "{} = {den_value} at the denominator cell (no ratio is computable)",
                                metric.key()
                            ),
                        ));
                    }
                    let ratio = num_value / den_value;
                    Ok((
                        ratio >= *min,
                        num_key,
                        format!(
                            "{} = {num_value} vs {den_value} (ratio {ratio:.4})",
                            metric.key()
                        ),
                    ))
                }),
            ),
        };
        let (passed, cell, observed) = verdict.unwrap_or_else(|(sel, why)| (false, sel, why));
        AssertionOutcome {
            kind: self.kind().to_string(),
            passed,
            cell,
            expected,
            observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_json() -> String {
        r#"{
            "name": "t",
            "matrix": {
                "workloads": ["TPC-C-1"],
                "pool": 8,
                "seed": 42,
                "schedulers": ["baseline", "strex"],
                "cores": [2]
            },
            "assertions": [
                {"kind": "throughput_at_least",
                 "cell": {"workload": "TPC-C-1", "scheduler": "strex", "cores": 2},
                 "min": 0.0}
            ]
        }"#
        .to_string()
    }

    #[test]
    fn parses_a_minimal_scenario() {
        let s = Scenario::from_json(&minimal_json()).expect("valid scenario");
        assert_eq!(s.name, "t");
        assert_eq!(s.description, None);
        assert_eq!(s.matrix.workloads, ["TPC-C-1"]);
        assert!(s.matrix.small, "small defaults to true");
        assert_eq!(s.matrix.team_sizes, None);
        assert_eq!(s.assertions.len(), 1);
        assert_eq!(s.assertions[0].kind(), "throughput_at_least");
    }

    #[test]
    fn round_trips_through_to_json() {
        let s = Scenario::from_json(&minimal_json()).unwrap();
        let again = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, again);
        assert_eq!(s.to_json(), again.to_json());
    }

    #[test]
    fn unknown_fields_are_typed_errors() {
        let doc = minimal_json().replace("\"name\": \"t\",", "\"name\": \"t\", \"extra\": 1,");
        match Scenario::from_json(&doc) {
            Err(ScenarioError::UnknownField { path }) => assert_eq!(path, "extra"),
            other => panic!("expected UnknownField, got {other:?}"),
        }
        let doc = minimal_json().replace("\"pool\": 8,", "\"pool\": 8, \"poool\": 8,");
        match Scenario::from_json(&doc) {
            Err(ScenarioError::UnknownField { path }) => assert_eq!(path, "matrix.poool"),
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_values_are_typed_errors() {
        let doc = minimal_json().replace("\"pool\": 8,", "\"pool\": 0,");
        assert!(matches!(
            Scenario::from_json(&doc),
            Err(ScenarioError::OutOfRange { .. })
        ));
        let doc = minimal_json().replace("\"cores\": [2]", "\"cores\": [0]");
        assert!(matches!(
            Scenario::from_json(&doc),
            Err(ScenarioError::OutOfRange { .. })
        ));
        let doc = minimal_json().replace("\"cores\": [2]", "\"cores\": []");
        match Scenario::from_json(&doc) {
            Err(ScenarioError::OutOfRange { path, .. }) => assert_eq!(path, "matrix.cores"),
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let doc = minimal_json().replace("[\"TPC-C-1\"]", "[\"TPC-Z\"]");
        match Scenario::from_json(&doc) {
            Err(ScenarioError::UnknownName { path, name, .. }) => {
                assert_eq!(path, "matrix.workloads[0]");
                assert_eq!(name, "TPC-Z");
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
        let doc = minimal_json().replace("throughput_at_least", "throughput_atleast");
        assert!(matches!(
            Scenario::from_json(&doc),
            Err(ScenarioError::UnknownName { .. })
        ));
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(matches!(
            Scenario::from_json("{"),
            Err(ScenarioError::Json(_))
        ));
        assert!(matches!(
            Scenario::from_json("[1,2]"),
            Err(ScenarioError::Mistyped { .. })
        ));
    }

    #[test]
    fn inverted_window_is_rejected() {
        let doc = r#"{
            "name": "t",
            "matrix": {"workloads": ["TPC-E"], "pool": 8, "seed": 1,
                       "schedulers": ["strex"], "cores": [2]},
            "assertions": [
                {"kind": "metric_within",
                 "cell": {"workload": "TPC-E", "scheduler": "strex", "cores": 2},
                 "metric": "i_mpki", "min": 10.0, "max": 2.0}
            ]
        }"#;
        assert!(matches!(
            Scenario::from_json(doc),
            Err(ScenarioError::OutOfRange { .. })
        ));
    }

    #[test]
    fn metric_keys_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_key(m.key()), Some(m));
        }
        assert_eq!(Metric::from_key("nonsense"), None);
    }

    /// A small real result with two cells (baseline and strex) for the
    /// boundary-value evaluator tests; the simulation is deterministic,
    /// so the metric values are stable across runs.
    fn tiny_result() -> CampaignResult {
        use crate::config::SchedulerKind;
        let w = Workload::preset_small(WorkloadKind::TpccW1, 4, 7);
        Campaign::new(SimConfig::builder().build().unwrap())
            .over_schedulers([SchedulerKind::Baseline, SchedulerKind::Strex])
            .over_workloads([&w])
            .over_cores([2])
            .run()
            .expect("tiny matrix is valid")
    }

    fn selector(workload: &str, scheduler: &str, cores: usize) -> CellSelector {
        CellSelector {
            workload: workload.into(),
            scheduler: scheduler.into(),
            cores,
            team_size: None,
        }
    }

    #[test]
    fn selector_resolution_and_ambiguity() {
        let result = tiny_result();
        let sel = selector("TPC-C-1", "strex", 2);
        let (key, _) = resolve(&result, &sel).expect("one match");
        assert!(key.starts_with("TPC-C-1/strex/c2/t"), "{key}");
        let missing = CellSelector {
            cores: 16,
            ..sel.clone()
        };
        let (cell, err) = resolve(&result, &missing).unwrap_err();
        assert_eq!(cell, "TPC-C-1/strex/c16");
        assert!(err.contains("no cell matches"), "{err}");
        assert!(err.contains("TPC-C-1/strex/c16"), "{err}");

        // Two team sizes: a selector that omits `team_size` matches both
        // cells and fails, naming the fix; pinning it resolves.
        use crate::config::SchedulerKind;
        let w = Workload::preset_small(WorkloadKind::TpccW1, 4, 7);
        let two_teams = Campaign::new(SimConfig::builder().build().unwrap())
            .over_schedulers([SchedulerKind::Strex])
            .over_workloads([&w])
            .over_cores([2])
            .over_team_sizes([2, 4])
            .run()
            .expect("two-team matrix is valid");
        let claim = |team_size| Assertion::ThroughputAtLeast {
            cell: CellSelector {
                team_size,
                ..sel.clone()
            },
            min: 0.0,
        };
        let outcome = claim(None).evaluate(&two_teams);
        assert!(!outcome.passed, "{outcome}");
        assert_eq!(outcome.cell, "TPC-C-1/strex/c2");
        assert_eq!(
            outcome.observed,
            "selector TPC-C-1/strex/c2 is ambiguous (multiple team sizes match; pin team_size)"
        );
        let pinned = claim(Some(4)).evaluate(&two_teams);
        assert!(pinned.passed, "{pinned}");
        assert_eq!(pinned.cell, "TPC-C-1/strex/c2/t4");
    }

    #[test]
    fn evaluators_judge_boundaries_inclusively() {
        let result = tiny_result();
        let cell = selector("TPC-C-1", "strex", 2);
        let report = resolve(&result, &cell).unwrap().1;
        let tp = report.steady_throughput();
        let mpki = report.i_mpki();

        // throughput_at_least: exactly at the bound passes.
        let at = Assertion::ThroughputAtLeast {
            cell: cell.clone(),
            min: tp,
        };
        assert!(at.evaluate(&result).passed);
        let above = Assertion::ThroughputAtLeast {
            cell: cell.clone(),
            min: tp * 1.0001 + f64::MIN_POSITIVE,
        };
        let outcome = above.evaluate(&result);
        assert!(!outcome.passed);
        assert!(outcome.observed.contains("txn/cycle"), "{outcome}");

        // metric_within: both bounds are inclusive.
        let window = |min: f64, max: f64| Assertion::MetricWithin {
            cell: cell.clone(),
            metric: Metric::IMpki,
            min,
            max,
        };
        assert!(window(mpki, mpki).evaluate(&result).passed);
        assert!(!window(0.0, mpki * 0.999).evaluate(&result).passed);
        assert!(!window(mpki * 1.001, mpki * 2.0).evaluate(&result).passed);
    }

    #[test]
    fn reduction_and_ratio_compare_cells() {
        let result = tiny_result();
        let base = selector("TPC-C-1", "baseline", 2);
        let strex = selector("TPC-C-1", "strex", 2);
        let base_mpki = Metric::IMpki.of(resolve(&result, &base).unwrap().1);
        let strex_mpki = Metric::IMpki.of(resolve(&result, &strex).unwrap().1);
        let actual = (base_mpki - strex_mpki) / base_mpki * 100.0;
        assert!(actual > 0.0, "STREX reduces I-MPKI even on a tiny pool");

        // Exactly the observed reduction passes; more fails.
        let exact = Assertion::ReductionAtLeast {
            metric: Metric::IMpki,
            from: base.clone(),
            to: strex.clone(),
            min_percent: actual - 1e-9,
        };
        let outcome = exact.evaluate(&result);
        assert!(outcome.passed, "{outcome}");
        assert!(outcome.observed.contains("reduction"), "{outcome}");
        let too_much = Assertion::ReductionAtLeast {
            metric: Metric::IMpki,
            from: base.clone(),
            to: strex.clone(),
            min_percent: (actual + 0.5).min(100.0),
        };
        assert!(!too_much.evaluate(&result).passed);

        // ratio_at_least on the inverse direction.
        let ratio = Assertion::RatioAtLeast {
            metric: Metric::IMpki,
            numerator: base.clone(),
            denominator: strex.clone(),
            min: base_mpki / strex_mpki - 1e-9,
        };
        assert!(ratio.evaluate(&result).passed);
    }

    #[test]
    fn a_zero_reference_value_fails_with_a_diagnostic() {
        // A baseline cell never migrates, so its `migrations` is 0: no
        // reduction from it, and no ratio over it, is computable.
        let result = tiny_result();
        let base = selector("TPC-C-1", "baseline", 2);
        let strex = selector("TPC-C-1", "strex", 2);
        assert_eq!(
            Metric::Migrations.of(resolve(&result, &base).unwrap().1),
            0.0
        );
        let reduction = Assertion::ReductionAtLeast {
            metric: Metric::Migrations,
            from: base.clone(),
            to: strex.clone(),
            min_percent: 0.0,
        }
        .evaluate(&result);
        assert!(!reduction.passed, "{reduction}");
        assert!(
            reduction.cell.starts_with("TPC-C-1/baseline/c2/t"),
            "{reduction}"
        );
        assert_eq!(
            reduction.observed,
            "migrations = 0 at the reference cell (no reduction is computable)"
        );
        let ratio = Assertion::RatioAtLeast {
            metric: Metric::Migrations,
            numerator: strex,
            denominator: base,
            min: 0.0,
        }
        .evaluate(&result);
        assert!(!ratio.passed, "{ratio}");
        assert!(ratio.cell.starts_with("TPC-C-1/strex/c2/t"), "{ratio}");
        assert_eq!(
            ratio.observed,
            "migrations = 0 at the denominator cell (no ratio is computable)"
        );
    }

    #[test]
    fn unresolved_selectors_fail_with_diagnostics_not_errors() {
        let result = tiny_result();
        let a = Assertion::ThroughputAtLeast {
            cell: selector("TPC-E", "strex", 2),
            min: 0.0,
        };
        let outcome = a.evaluate(&result);
        assert!(!outcome.passed);
        assert!(outcome.observed.contains("no cell matches"), "{outcome}");
    }

    #[test]
    fn campaign_matches_declared_matrix() {
        let s = Scenario::from_json(&minimal_json()).unwrap();
        let workloads = s.workloads();
        assert_eq!(workloads.len(), 1);
        let cells = s
            .campaign(&workloads)
            .cells(crate::sched::registry::global())
            .expect("valid matrix");
        // 1 workload x 2 schedulers x 1 core count x 1 (default) team size.
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0.workload, "TPC-C-1");
    }

    #[test]
    fn outcome_display_names_everything() {
        let o = AssertionOutcome {
            kind: "metric_within".into(),
            passed: false,
            cell: "TPC-C-1/strex/c2/t10".into(),
            expected: "i_mpki in [1, 2]".into(),
            observed: "i_mpki = 3".into(),
        };
        let line = o.to_string();
        assert!(line.starts_with("FAIL metric_within @ TPC-C-1/strex/c2/t10"));
        assert!(line.contains("expected i_mpki in [1, 2]"));
        assert!(line.contains("observed i_mpki = 3"));
    }
}
