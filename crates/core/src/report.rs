//! Simulation results: the metrics the paper's figures report.

use strex_sim::ids::Cycle;
use strex_sim::stats::{CoreStats, SharedStats, SystemStats};

use crate::json::JsonWriter;
use crate::jsonval::{JsonValue, WireError};

/// Outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Scheduler name used.
    pub scheduler: String,
    /// Workload name.
    pub workload: String,
    /// Cores simulated.
    pub n_cores: usize,
    /// Cycles to execute the whole pool (makespan).
    pub makespan: Cycle,
    /// Transactions completed.
    pub transactions: usize,
    /// Per-transaction latencies (queue entry to completion), in cycles.
    pub latencies: Vec<Cycle>,
    /// Memory-hierarchy statistics at completion.
    pub stats: SystemStats,
    /// Context switches (STREX) performed.
    pub context_switches: u64,
    /// Migrations (SLICC) performed.
    pub migrations: u64,
    /// Which scheduler a hybrid selected ("STREX"/"SLICC"), if applicable.
    pub hybrid_choice: Option<String>,
}

impl Report {
    /// Throughput as defined in Section 5.1: the inverse of the cycles
    /// required to execute all transactions.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            1.0 / self.makespan as f64
        }
    }

    /// Cycle by which `frac` of the transactions had completed.
    ///
    /// The paper measures a 1.2 B-instruction window of a *continuously
    /// supplied* system; a finite pool instead has a cool-down tail during
    /// which cores idle (batch schedulers idle more, since their last unit
    /// of work is a whole team). Steady-state throughput comparisons use
    /// the 90th-percentile completion time to exclude that artifact.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `(0, 1]`.
    pub fn completion_time(&self, frac: f64) -> Cycle {
        assert!(frac > 0.0 && frac <= 1.0, "fraction out of range");
        if self.latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 * frac).ceil() as usize).clamp(1, sorted.len());
        sorted[idx - 1]
    }

    /// Steady-state throughput: completed transactions per cycle at the
    /// 90th-percentile completion point.
    pub fn steady_throughput(&self) -> f64 {
        let t = self.completion_time(0.9);
        if t == 0 {
            0.0
        } else {
            self.transactions as f64 * 0.9 / t as f64
        }
    }

    /// Throughput relative to a reference report (Figure 6 normalizes to
    /// the 2-core baseline), using steady-state throughput.
    pub fn relative_throughput(&self, reference: &Report) -> f64 {
        let r = reference.steady_throughput();
        if r == 0.0 {
            0.0
        } else {
            self.steady_throughput() / r
        }
    }

    /// System-wide instruction MPKI.
    pub fn i_mpki(&self) -> f64 {
        self.stats.i_mpki()
    }

    /// System-wide data MPKI.
    pub fn d_mpki(&self) -> f64 {
        self.stats.d_mpki()
    }

    /// Mean transaction latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
        }
    }

    /// Serializes the full report — identity, headline metrics, raw
    /// latencies, and every hierarchy counter — as one JSON object.
    ///
    /// Emission is deterministic (fixed key order, `{}` float formatting),
    /// so two reports from identical runs serialize byte-identically;
    /// the campaign determinism tests compare exactly this.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("scheduler");
        w.string(&self.scheduler);
        w.key("workload");
        w.string(&self.workload);
        w.key("n_cores");
        w.number_u64(self.n_cores as u64);
        w.key("makespan");
        w.number_u64(self.makespan);
        w.key("transactions");
        w.number_u64(self.transactions as u64);
        w.key("context_switches");
        w.number_u64(self.context_switches);
        w.key("migrations");
        w.number_u64(self.migrations);
        w.key("hybrid_choice");
        w.opt_string(self.hybrid_choice.as_deref());
        w.key("metrics");
        w.begin_object();
        w.key("i_mpki");
        w.float(self.i_mpki());
        w.key("d_mpki");
        w.float(self.d_mpki());
        w.key("steady_throughput");
        w.float(self.steady_throughput());
        w.key("mean_latency");
        w.float(self.mean_latency());
        w.end_object();
        w.key("latencies");
        w.begin_array();
        for &l in &self.latencies {
            w.number_u64(l);
        }
        w.end_array();
        w.key("stats");
        w.begin_object();
        w.key("aggregate");
        write_core_stats(w, &self.stats.aggregate());
        w.key("shared");
        write_shared_stats(w, &self.stats.shared);
        w.key("cores");
        w.begin_array();
        for c in &self.stats.cores {
            write_core_stats(w, c);
        }
        w.end_array();
        w.end_object();
        w.end_object();
    }

    /// Parses a report back from its [`to_json`](Report::to_json) form —
    /// the form every cell crosses the dispatcher's wire in.
    ///
    /// Only the raw measurement fields are read; the derived `metrics`
    /// and `stats.aggregate` sections are ignored and recomputed on
    /// demand, so a parsed report re-serializes byte-identically to its
    /// source (round-trip-tested in `tests/json_wire.rs`).
    pub fn from_json(text: &str) -> Result<Report, WireError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// [`from_json`](Report::from_json) over an already-parsed value
    /// (e.g. one cell of a campaign document).
    pub fn from_json_value(v: &JsonValue) -> Result<Report, WireError> {
        let latencies = v
            .req_array("latencies")?
            .iter()
            .map(|l| {
                l.as_u64()
                    .ok_or_else(|| WireError::new("`latencies` entry is not an unsigned integer"))
            })
            .collect::<Result<Vec<Cycle>, _>>()?;
        let cores = v
            .req_array("stats.cores")?
            .iter()
            .map(core_stats_from_json)
            .collect::<Result<Vec<CoreStats>, _>>()?;
        let shared = SharedStats {
            l2_accesses: v.req_u64("stats.shared.l2_accesses")?,
            l2_misses: v.req_u64("stats.shared.l2_misses")?,
            writebacks: v.req_u64("stats.shared.writebacks")?,
        };
        let hybrid_choice = match v.req("hybrid_choice")? {
            JsonValue::Null => None,
            JsonValue::String(s) => Some(s.clone()),
            _ => return Err(WireError::new("`hybrid_choice` is not a string or null")),
        };
        Ok(Report {
            scheduler: v.req_str("scheduler")?.to_string(),
            workload: v.req_str("workload")?.to_string(),
            n_cores: v.req_u64("n_cores")? as usize,
            makespan: v.req_u64("makespan")?,
            transactions: v.req_u64("transactions")? as usize,
            latencies,
            stats: SystemStats { cores, shared },
            context_switches: v.req_u64("context_switches")?,
            migrations: v.req_u64("migrations")?,
            hybrid_choice,
        })
    }

    /// Latency histogram over fixed-width bins of `bin_cycles`, returning
    /// `(bin upper edge, fraction)` pairs — Figure 7's distribution.
    pub fn latency_histogram(&self, bin_cycles: u64, n_bins: usize) -> Vec<(u64, f64)> {
        let mut counts = vec![0usize; n_bins + 1];
        for &l in &self.latencies {
            let bin = ((l / bin_cycles.max(1)) as usize).min(n_bins);
            counts[bin] += 1;
        }
        let total = self.latencies.len().max(1) as f64;
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| ((i as u64 + 1) * bin_cycles, c as f64 / total))
            .collect()
    }
}

fn write_core_stats(w: &mut JsonWriter, s: &CoreStats) {
    w.begin_object();
    w.key("instructions");
    w.number_u64(s.instructions);
    w.key("i_accesses");
    w.number_u64(s.i_accesses);
    w.key("i_misses");
    w.number_u64(s.i_misses);
    w.key("i_misses_hidden");
    w.number_u64(s.i_misses_hidden);
    w.key("prefetches");
    w.number_u64(s.prefetches);
    w.key("useful_prefetches");
    w.number_u64(s.useful_prefetches);
    w.key("d_accesses");
    w.number_u64(s.d_accesses);
    w.key("d_misses");
    w.number_u64(s.d_misses);
    w.key("d_coherence_misses");
    w.number_u64(s.d_coherence_misses);
    w.key("upgrade_invalidations");
    w.number_u64(s.upgrade_invalidations);
    w.key("i_stall_cycles");
    w.number_u64(s.i_stall_cycles);
    w.key("d_stall_cycles");
    w.number_u64(s.d_stall_cycles);
    w.end_object();
}

fn write_shared_stats(w: &mut JsonWriter, s: &SharedStats) {
    w.begin_object();
    w.key("l2_accesses");
    w.number_u64(s.l2_accesses);
    w.key("l2_misses");
    w.number_u64(s.l2_misses);
    w.key("writebacks");
    w.number_u64(s.writebacks);
    w.end_object();
}

fn core_stats_from_json(v: &JsonValue) -> Result<CoreStats, WireError> {
    Ok(CoreStats {
        instructions: v.req_u64("instructions")?,
        i_accesses: v.req_u64("i_accesses")?,
        i_misses: v.req_u64("i_misses")?,
        i_misses_hidden: v.req_u64("i_misses_hidden")?,
        prefetches: v.req_u64("prefetches")?,
        useful_prefetches: v.req_u64("useful_prefetches")?,
        d_accesses: v.req_u64("d_accesses")?,
        d_misses: v.req_u64("d_misses")?,
        d_coherence_misses: v.req_u64("d_coherence_misses")?,
        upgrade_invalidations: v.req_u64("upgrade_invalidations")?,
        i_stall_cycles: v.req_u64("i_stall_cycles")?,
        d_stall_cycles: v.req_u64("d_stall_cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan: Cycle, latencies: Vec<Cycle>) -> Report {
        Report {
            scheduler: "test".to_string(),
            workload: "w".to_string(),
            n_cores: 2,
            makespan,
            transactions: latencies.len(),
            latencies,
            stats: SystemStats::new(2),
            context_switches: 0,
            migrations: 0,
            hybrid_choice: None,
        }
    }

    #[test]
    fn throughput_is_inverse_makespan() {
        let r = report(1000, vec![500, 900]);
        assert!((r.throughput() - 1e-3).abs() < 1e-12);
        assert_eq!(report(0, vec![]).throughput(), 0.0);
    }

    #[test]
    fn relative_throughput_ratios() {
        // Same transaction count; the faster system's p90 completion is half.
        let base = report(2000, vec![500, 1000, 2000]);
        let faster = report(1000, vec![250, 500, 1000]);
        assert!((faster.relative_throughput(&base) - 2.0).abs() < 1e-12);
        assert!((base.relative_throughput(&base) - 1.0).abs() < 1e-12);
        // No completions -> zero throughput, no division by zero.
        let empty = report(0, vec![]);
        assert_eq!(empty.steady_throughput(), 0.0);
        assert_eq!(base.relative_throughput(&empty), 0.0);
    }

    #[test]
    fn completion_time_percentiles() {
        let r = report(100, vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(r.completion_time(0.9), 90);
        assert_eq!(r.completion_time(0.5), 50);
        assert_eq!(r.completion_time(1.0), 100);
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn completion_time_validates_fraction() {
        let _ = report(1, vec![1]).completion_time(0.0);
    }

    #[test]
    fn mean_latency() {
        let r = report(100, vec![10, 20, 30]);
        assert!((r.mean_latency() - 20.0).abs() < 1e-12);
        assert_eq!(report(100, vec![]).mean_latency(), 0.0);
    }

    #[test]
    fn json_contains_identity_metrics_and_counters() {
        let r = report(1000, vec![500, 900]);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains(r#""scheduler":"test""#));
        assert!(j.contains(r#""workload":"w""#));
        assert!(j.contains(r#""makespan":1000"#));
        assert!(j.contains(r#""latencies":[500,900]"#));
        assert!(j.contains(r#""hybrid_choice":null"#));
        assert!(j.contains(r#""l2_accesses":0"#));
        // Deterministic: same report, same bytes.
        assert_eq!(j, r.to_json());
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut r = report(1000, vec![500, 900]);
        r.stats.cores[0].instructions = 1234;
        r.stats.cores[1].d_misses = 56;
        r.stats.shared.l2_accesses = 78;
        r.context_switches = 9;
        r.hybrid_choice = Some("STREX".to_string());
        let json = r.to_json();
        let parsed = Report::from_json(&json).expect("own output parses");
        assert_eq!(parsed.to_json(), json, "byte-identical round trip");
        assert_eq!(parsed.hybrid_choice.as_deref(), Some("STREX"));
        assert_eq!(parsed.stats.cores.len(), 2);

        // Structural errors are loud, not panics.
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("not json").is_err());
        let truncated = json.replace(r#""makespan":1000,"#, "");
        assert!(Report::from_json(&truncated).is_err());
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let r = report(100, vec![5, 15, 15, 250]);
        let h = r.latency_histogram(10, 3);
        assert_eq!(h.len(), 4);
        assert!((h[0].1 - 0.25).abs() < 1e-12, "one in first bin");
        assert!((h[1].1 - 0.5).abs() < 1e-12, "two in second bin");
        assert!((h[3].1 - 0.25).abs() < 1e-12, "overflow bin");
        let total: f64 = h.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
