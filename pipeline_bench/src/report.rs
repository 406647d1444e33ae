//! Metric collection, summary statistics and the result line.

use std::collections::BTreeMap;

/// Named metric values with their units, kept in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records (or overwrites) one metric. Values must be finite: the
    /// result line is JSON.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|(name, &(value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One `name value unit` line per metric.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for (name, &(value, unit)) in &self.values {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }
}

/// The end-to-end figures every workload reports, in the order of
/// [`crate::END_TO_END`].
#[derive(Debug)]
pub struct EndToEnd {
    pub call_p50_ms: f64,
    pub stretch_mean: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Metrics {
        let values = [
            self.call_p50_ms,
            self.stretch_mean,
            self.peak_rss_mb,
            self.setup_s,
        ];
        let mut m = Metrics::default();
        for (&(name, unit), value) in crate::END_TO_END.iter().zip(values) {
            m.set(name, value, unit);
        }
        m
    }
}

/// What one untraced run did and measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: EndToEnd,
    /// Figures printed above the result line, under the names a user of
    /// the workload's path looks for.
    pub report: Metrics,
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `q ∈ (0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        assert_eq!(
            result_line(true, 3, 1, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
