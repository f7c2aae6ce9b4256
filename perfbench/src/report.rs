//! Metrics, run accounting, output checks and the result line.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// The workload (or microbench family) it was measured on.
    pub on: &'static str,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one metric.
    pub fn put(
        &mut self,
        on: &'static str,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
    ) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
            on,
        });
    }

    /// Adds one metric named `<on>.<name>`.
    pub fn put_scoped(&mut self, on: &'static str, name: &str, unit: &'static str, value: f64) {
        self.put(on, format!("{on}.{name}"), unit, value);
    }
}

/// Operations attempted and failed, summed over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Units of work attempted.
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
}

impl Tally {
    /// Adds one batch of attempted units, `failed` of which failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Output checks: every failed expectation is reported on stderr and
/// turns the run's `correct` to false.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u64,
}

impl Checks {
    /// Records `ok`; on failure prints what was expected.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.failures <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// `true` while no expectation has failed.
    pub fn ok(&self) -> bool {
        self.failures == 0
    }
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Prints the human-readable table and, as the last line of stdout, the
/// JSON result object.
pub fn emit(metrics: &Metrics, tally: Tally, correct: bool) {
    for m in &metrics.0 {
        println!("{:<44} {:>16.6} {:<8} [{}]", m.name, m.value, m.unit, m.on);
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
