//! What a run reports: named metrics with units and sample counts, the
//! operation tallies, and the one-line JSON result.

use charles_server::Json;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started in the measured loop.
    pub attempted: usize,
    /// Operations that errored, got a non-2xx answer, or failed a check.
    pub failed: usize,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further numbers printed for people but kept out of the result line
    /// (they exist on only some workloads).
    pub extra: Vec<Metric>,
    /// Why operations failed (first few), for the human-readable output.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Count one failed operation, keeping the first reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Failed over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines: one per metric, with unit and sample
    /// count.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .chain(self.extra.iter())
            .map(|m| {
                format!(
                    "{:<32} {:>14.6} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect();
        lines.push(format!(
            "{:<32} {:>14.6} {:<6} (n={})",
            "failed_frac",
            self.failed_frac(),
            "frac",
            self.attempted
        ));
        lines.extend(self.failures.iter().map(|f| format!("failure: {f}")));
        lines
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::num_usize(self.attempted)),
            ("failed", Json::num_usize(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode()
    }
}
