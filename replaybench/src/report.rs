//! The result line: one JSON object with every metric by name and unit.

use crate::replay::Verdict;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A metric; a value that is not finite (no samples) reads 0.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn result_json(v: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted,
        v.failed,
        body.join(", ")
    )
}

/// The metrics as aligned text, for the report on standard error.
pub fn render(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("  {:<32} {:>14.4} {}\n", m.name, m.value, m.unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let v = Verdict {
            attempted: 3,
            ..Verdict::default()
        };
        let m = [metric("a_ms", 1.5, "ms"), metric("b", f64::NAN, "count")];
        assert_eq!(
            result_json(&v, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
