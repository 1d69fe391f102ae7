//! Metrics as printed: a table for people, then one JSON line.

use crate::stats::Tally;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
    /// Whether `BENCHMARK.json` lists it; an unlisted metric is printed
    /// in the table but left out of the result line.
    pub listed: bool,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) become 0.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            samples,
            listed: true,
        }
    }

    /// A metric for the table only: one that reads 0 in every correct
    /// run of the default configuration, so `BENCHMARK.json` does not
    /// list it.
    pub fn unlisted(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) -> Self {
        Metric {
            listed: false,
            ..Metric::new(name, unit, value, samples)
        }
    }
}

/// The metrics table, one metric a line.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<28} {:>18} {:<6} {:>8}\n",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        out += &format!(
            "{:<28} {:>18.6} {:<6} {:>8}\n",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and every listed
/// metric with all its digits.
pub fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.listed)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_keeps_every_digit() {
        let mut t = Tally::default();
        t.record(true);
        let line = json_line(
            &t,
            &[
                Metric::new("wall_s", "s", 1.234_567_890_123, 3),
                Metric::new("x", "count", f64::NAN, 0),
                Metric::unlisted("fail_pct", "%", 0.0, 1),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \
             \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        assert!(
            json_line(&t, &[]).starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1")
        );
    }
}
