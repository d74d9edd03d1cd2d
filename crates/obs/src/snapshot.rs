//! Machine-readable stats export.
//!
//! A [`StatsSnapshot`] is the serialized form of a [`Registry`](crate::Registry)
//! plus a small metadata block identifying the run (benchmark, scheme, scale,
//! seed). The JSON encoding is hand-rolled so the workspace stays
//! dependency-free, and is laid out one stat per line with keys in sorted
//! order so snapshots are byte-identical across runs, trivially diffable, and
//! easy for `scripts/stats_gate.sh` to perturb in its self-check.
//!
//! Rates are encoded via Rust's shortest-round-trip `f64` `Display`, which
//! parses back to the identical bit pattern; non-finite values are encoded as
//! the JSON strings `"NaN"`, `"inf"`, `"-inf"`.

use crate::json::{self, Value};
use crate::registry::{Registry, StatValue};
use std::collections::BTreeMap;

/// Version tag embedded in every snapshot so future layout changes can be
/// detected instead of silently mis-parsed.
const FORMAT_VERSION: u64 = 1;

/// A frozen, serializable view of a stats registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Run-identifying metadata (benchmark, scheme, scale, seed, ...).
    pub meta: BTreeMap<String, String>,
    /// All published stats, keyed by their full hierarchical name.
    pub stats: BTreeMap<String, StatValue>,
}

impl StatsSnapshot {
    /// Freezes a registry into a snapshot with the given metadata pairs.
    pub fn from_registry(registry: Registry, meta: &[(&str, &str)]) -> Self {
        Self {
            meta: meta
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            stats: registry.into_entries(),
        }
    }

    /// Looks up a stat by full key.
    pub fn get(&self, key: &str) -> Option<&StatValue> {
        self.stats.get(key)
    }

    /// Looks up a counter stat by full key (`None` if absent or a rate).
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        match self.stats.get(key)? {
            StatValue::Counter(n) => Some(*n),
            StatValue::Rate(_) => None,
        }
    }

    /// Looks up a rate stat by full key (`None` if absent or a counter).
    pub fn rate_value(&self, key: &str) -> Option<f64> {
        match self.stats.get(key)? {
            StatValue::Rate(x) => Some(*x),
            StatValue::Counter(_) => None,
        }
    }

    /// Serializes to the stable one-stat-per-line JSON layout.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * (self.stats.len() + self.meta.len() + 4));
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
        out.push_str("  \"meta\": {\n");
        let mut first = true;
        for (k, v) in &self.meta {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("    {}: {}", json::escape(k), json::escape(v)));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"stats\": {\n");
        let mut first = true;
        for (k, v) in &self.stats {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let value = match v {
                StatValue::Counter(n) => format!("{{ \"kind\": \"counter\", \"value\": {n} }}"),
                StatValue::Rate(x) => {
                    format!("{{ \"kind\": \"rate\", \"value\": {} }}", json_f64(*x))
                }
            };
            out.push_str(&format!("    {}: {value}", json::escape(k)));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a snapshot previously produced by [`StatsSnapshot::to_json`].
    ///
    /// Accepts arbitrary whitespace and key order (a repeated key keeps
    /// its last value); returns a descriptive error for malformed input
    /// or an unknown format version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let Value::Object(fields) = json::parse(text)? else {
            return Err("snapshot root is not a JSON object".into());
        };
        let mut snap = Self::default();
        let mut version = None;
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("version", Value::Number(raw)) => {
                    version = Some(
                        raw.parse::<u64>()
                            .map_err(|_| format!("bad version number: {raw}"))?,
                    );
                }
                ("version", _) => return Err("version is not a number".into()),
                ("meta", Value::Object(pairs)) => {
                    for (k, v) in pairs {
                        let Value::String(s) = v else {
                            return Err(format!("meta value for {k:?} is not a string"));
                        };
                        snap.meta.insert(k, s);
                    }
                }
                ("meta", _) => return Err("meta is not an object".into()),
                ("stats", Value::Object(pairs)) => {
                    for (k, v) in pairs {
                        snap.stats.insert(k, parse_stat(v)?);
                    }
                }
                ("stats", _) => return Err("stats is not an object".into()),
                (other, _) => return Err(format!("unknown top-level key {other:?}")),
            }
        }
        match version {
            Some(FORMAT_VERSION) => Ok(snap),
            Some(v) => Err(format!("unsupported snapshot version {v}")),
            None => Err("snapshot missing version".into()),
        }
    }
}

fn parse_stat(value: Value) -> Result<StatValue, String> {
    let Value::Object(mut fields) = value else {
        return Err("stat entry is not an object".into());
    };
    let (Some(Value::String(kind)), Some(raw)) = (fields.remove("kind"), fields.remove("value"))
    else {
        return Err("stat entry missing kind or value".into());
    };
    if let Some(other) = fields.keys().next() {
        return Err(format!("unknown stat field {other:?}"));
    }
    match (kind.as_str(), raw) {
        ("counter", Value::Number(n)) => n
            .parse::<u64>()
            .map(StatValue::Counter)
            .map_err(|_| format!("bad counter value: {n}")),
        ("rate", Value::Number(n)) => n
            .parse::<f64>()
            .map(StatValue::Rate)
            .map_err(|_| format!("bad rate value: {n}")),
        ("rate", Value::String(s)) => match s.as_str() {
            "NaN" => Ok(StatValue::Rate(f64::NAN)),
            "inf" => Ok(StatValue::Rate(f64::INFINITY)),
            "-inf" => Ok(StatValue::Rate(f64::NEG_INFINITY)),
            other => Err(format!("bad non-finite rate: {other:?}")),
        },
        (kind, _) => Err(format!("bad stat kind/value combination for kind {kind:?}")),
    }
}

/// Encodes an `f64` so that parsing the text recovers the identical value.
fn json_f64(x: f64) -> String {
    if x.is_nan() {
        "\"NaN\"".into()
    } else if x == f64::INFINITY {
        "\"inf\"".into()
    } else if x == f64::NEG_INFINITY {
        "\"-inf\"".into()
    } else {
        // Rust's Display prints the shortest decimal that round-trips.
        // Negative zero prints as "-0" which parses back to -0.0.
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            // Keep rates visually distinct from counters in the file.
            format!("{s}.0")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsSnapshot {
        let mut reg = Registry::new();
        reg.scoped("cpu", |r| {
            r.counter("committed", 70_164);
            r.rate("ipc", 1.403_28);
        });
        reg.rate("weird", -0.0);
        StatsSnapshot::from_registry(reg, &[("benchmark", "gap"), ("scheme", "proposed:1048576")])
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_json();
        let back = StatsSnapshot::from_json(&text).expect("parse");
        assert_eq!(snap, back);
        // Re-serializing is byte-identical (stable layout).
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn non_finite_rates_round_trip() {
        let mut reg = Registry::new();
        reg.rate("nan", f64::NAN);
        reg.rate("pinf", f64::INFINITY);
        reg.rate("ninf", f64::NEG_INFINITY);
        let snap = StatsSnapshot::from_registry(reg, &[]);
        let back = StatsSnapshot::from_json(&snap.to_json()).expect("parse");
        assert!(matches!(back.get("nan"), Some(StatValue::Rate(x)) if x.is_nan()));
        assert_eq!(back.get("pinf"), Some(&StatValue::Rate(f64::INFINITY)));
        assert_eq!(back.get("ninf"), Some(&StatValue::Rate(f64::NEG_INFINITY)));
    }

    #[test]
    fn rejects_unknown_version() {
        let text = sample()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        assert!(StatsSnapshot::from_json(&text)
            .unwrap_err()
            .contains("unsupported snapshot version"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(StatsSnapshot::from_json("not json").is_err());
        assert!(StatsSnapshot::from_json("{\"version\": 1").is_err());
        assert!(StatsSnapshot::from_json("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(StatsSnapshot::from_json(&"{\"a\":".repeat(13_000)).is_err());
    }
}
