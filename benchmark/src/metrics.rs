//! Named metrics and the two forms they are printed in: one readable line
//! per metric, and the final JSON record.

#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// What the value rests on (sample counts, percentiles), when that is
    /// not obvious from the name.
    pub note: String,
}

pub fn metric(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        value,
        note: String::new(),
    }
}

impl Metric {
    pub fn with_note(mut self, note: impl ToString) -> Metric {
        self.note = note.to_string();
        self
    }
}

/// `fail_ratio` is printed for readers but left out of the JSON record: it
/// is 0 in every accepted run, and the record carries the same figure as
/// `failed` over `attempted`.
pub const READABLE_ONLY: &[&str] = &["fail_ratio"];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations whose outputs were checked, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Extra readable output (histograms, schedules).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation, failing it with `problems` if any.
    pub fn check(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints every readable line, then the JSON record as the last line.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("{note}");
        }
        for p in &self.problems {
            println!("FAILED {workload}: {p}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "metric {workload} {} = {} {} [{} is better]{note}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.better.word()
            );
        }
        let fields: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !READABLE_ONLY.contains(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_value(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Full precision, and always a valid JSON number.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// What a workload's untraced timed phase measured.
pub struct Timed {
    /// Seconds of each set-up pass.
    pub setup_s: Vec<f64>,
    pub setup_note: String,
    /// Seconds and simulated events of each round.
    pub rounds: Vec<f64>,
    pub round_events: Vec<u64>,
    pub round_note: String,
    pub jobs_per_round: usize,
    /// Milliseconds of each job.
    pub job_ms: Vec<f64>,
    pub job_note: String,
    pub rss_mb: f64,
    /// `strex_impki_reduction` and `strex_throughput_ratio`.
    pub claims: (f64, f64),
}

/// The end-to-end metrics, every workload alike. Rates are taken per
/// round and their median reported, like the times.
pub fn end_to_end(t: &Timed, out: &Outcome) -> Vec<Metric> {
    use crate::stats::{median, tail};
    use Better::{Higher, Lower};
    let wall = median(&t.rounds);
    let rates: Vec<f64> = t
        .rounds
        .iter()
        .zip(&t.round_events)
        .map(|(s, e)| *e as f64 / s)
        .collect();
    let job_tail = tail(&t.job_ms);
    let claim_note = format!(
        "4-core cells at reference seed {}",
        crate::docs::REFERENCE_SEED
    );
    vec![
        metric("setup_s", "s", Lower, median(&t.setup_s)).with_note(&t.setup_note),
        metric("wall_s", "s", Lower, wall).with_note(&t.round_note),
        metric("sim_events_per_s", "1/s", Higher, median(&rates)),
        metric("peak_rss_mb", "MB", Lower, t.rss_mb),
        metric("fail_ratio", "ratio", Lower, out.fail_ratio())
            .with_note(format!("{} of {} checks failed", out.failed, out.attempted)),
        metric("job_ms_p50", "ms", Lower, median(&t.job_ms)).with_note(&t.job_note),
        metric("job_ms_tail", "ms", Lower, job_tail.value).with_note(format!(
            "p{:.1} of {} jobs",
            job_tail.percentile, job_tail.samples
        )),
        metric("jobs_per_s", "1/s", Higher, t.jobs_per_round as f64 / wall),
        metric("strex_impki_reduction", "ratio", Higher, t.claims.0).with_note(&claim_note),
        metric("strex_throughput_ratio", "ratio", Higher, t.claims.1).with_note(&claim_note),
    ]
}

/// The traced run's own cost: median traced round over median untraced
/// round of the same run.
pub fn trace_overhead(traced_rounds: &[f64], untraced_rounds: &[f64]) -> Metric {
    use crate::stats::median;
    metric(
        "trace.overhead",
        "ratio",
        Better::Lower,
        median(traced_rounds) / median(untraced_rounds),
    )
    .with_note(format!(
        "median traced round / median untraced round, {} and {} rounds",
        traced_rounds.len(),
        untraced_rounds.len()
    ))
}
