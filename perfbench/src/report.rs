//! Order statistics and the JSON the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank quantile of unsorted samples (0 when there are none).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A latency distribution summary: median, p99 and the sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

impl Latency {
    pub fn of(mut samples: Vec<f64>) -> Latency {
        Latency {
            p50: quantile(&mut samples, 0.5),
            p99: quantile(&mut samples, 0.99),
            samples: samples.len(),
        }
    }
}

/// One named metric with its unit, in print order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics plus free-form facts about the run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Extra `"key": <json>` pairs for the record line.
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fact(&mut self, key: &str, json: impl Into<String>) {
        self.facts.push((key.to_string(), json.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `names` (all
    /// metrics when `None`).
    pub fn metrics_json(&self, names: Option<&[&str]>) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for m in &self.metrics {
            if names.is_some_and(|ns| !ns.contains(&m.name.as_str())) {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
            .unwrap();
        }
        out.push('}');
        out
    }

    /// The facts as one JSON object.
    pub fn facts_json(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust prints (non-finite
/// values, which JSON cannot carry, become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (the benchmark's own strings need no escapes
/// beyond quotes and backslashes).
pub fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
