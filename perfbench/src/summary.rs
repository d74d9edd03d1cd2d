//! Sample summaries, the result line, and the regression comparison.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median and quartiles of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` with the quartile rule of Python's
    /// `statistics.quantiles(data, n=4)` (the "exclusive" method), so the
    /// figures printed here match the ones a reader recomputes from the
    /// raw values.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut x = samples.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        let median = if n % 2 == 1 {
            x[n / 2]
        } else {
            (x[n / 2 - 1] + x[n / 2]) / 2.0
        };
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return x[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// One metric of a result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// The reported value.
    pub value: f64,
}

/// The benchmark's one-line verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every output was validated and none failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were shed, or failed validation.
    pub failed: u64,
    /// Reported metrics, in emission order.
    pub metrics: Vec<Metric>,
}

impl ResultLine {
    /// Renders the result as one JSON object on one line. Values keep
    /// every digit Rust's shortest round-trip formatting gives them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line produced by [`ResultLine::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn parse(line: &str) -> Result<ResultLine, String> {
        use aep_serve::json::{parse, Value};
        let root = parse(line)?;
        let obj = root.as_object().ok_or("result is not an object")?;
        let flag = match obj.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing `correct`".into()),
        };
        let count = |key: &str| {
            obj.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let metrics_obj = obj
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing `metrics`")?;
        let mut metrics = Vec::new();
        for (name, entry) in metrics_obj {
            let fields = entry.as_object().ok_or("metric is not an object")?;
            let value = number(fields.get("value"))
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            let unit = fields
                .get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metric `{name}` has no unit"))?;
            metrics.push(Metric {
                name: name.clone(),
                unit: unit.to_string(),
                value,
            });
        }
        Ok(ResultLine {
            correct: flag,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

fn number(value: Option<&aep_serve::json::Value>) -> Option<f64> {
    match value? {
        aep_serve::json::Value::Number(raw) => raw.parse().ok(),
        _ => None,
    }
}

/// The bound a metric may worsen by before a change counts as a
/// regression (a share of the base value).
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Which direction improves.
    pub better: Better,
    /// Allowed worsening, as a share of the base.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of `BENCHMARK.json` text.
///
/// # Errors
///
/// Describes a malformed file.
pub fn bounds_from_benchmark_json(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    use aep_serve::json::{parse, Value};
    let root = parse(text)?;
    let obj = root.as_object().ok_or("BENCHMARK.json is not an object")?;
    let Some(Value::Array(items)) = obj.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = BTreeMap::new();
    for item in items {
        let m = item
            .as_object()
            .ok_or("end_to_end entry is not an object")?;
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("entry has no name")?;
        let better = match m.get("better").and_then(Value::as_str) {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            _ => return Err(format!("`{name}` has no better direction")),
        };
        let bound = number(m.get("bound")).ok_or_else(|| format!("`{name}` has no bound"))?;
        out.insert(name.to_string(), Bound { better, bound });
    }
    Ok(out)
}

/// Why a head result is not acceptable against its base.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// The head run reported failed or unvalidated outputs.
    Incorrect {
        /// Failed operations in the head run.
        failed: u64,
    },
    /// A bounded metric is missing from the head run.
    Missing(String),
    /// A metric worsened by more than its bound.
    Regression {
        /// Metric name.
        metric: String,
        /// Base value.
        base: f64,
        /// Head value.
        head: f64,
        /// Relative worsening (positive = worse).
        worse_by: f64,
        /// The allowed worsening.
        bound: f64,
    },
}

/// Compares a head result against a base result under `bounds`.
/// An empty list means the head is acceptable.
#[must_use]
pub fn compare(
    base: &ResultLine,
    head: &ResultLine,
    bounds: &BTreeMap<String, Bound>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !head.correct || head.failed > 0 {
        findings.push(Finding::Incorrect {
            failed: head.failed,
        });
    }
    let value = |line: &ResultLine, name: &str| {
        line.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    for (name, bound) in bounds {
        let Some(b) = value(base, name) else { continue };
        let Some(h) = value(head, name) else {
            findings.push(Finding::Missing(name.clone()));
            continue;
        };
        let worse_by = match bound.better {
            Better::Lower => (h - b) / b,
            Better::Higher => (b - h) / b,
        };
        if !worse_by.is_finite() || worse_by > bound.bound {
            findings.push(Finding::Regression {
                metric: name.clone(),
                base: b,
                head: h,
                worse_by,
                bound: bound.bound,
            });
        }
    }
    findings
}
