//! Deterministic frontier reports and the lossless point-record format.
//!
//! Three human-facing renderings (JSON, CSV, markdown) share one
//! [`Analysis`] so they can never disagree about what is on the frontier,
//! and all formatting is a pure function of its inputs — no timestamps,
//! no hash-map iteration, no locale — so explorer output is byte-identical
//! across runs and worker counts.
//!
//! Human formats round-trip floats through `Display`, which is shortest
//! round-trip in Rust but still a decimal detour; the machine-facing
//! record format ([`write_records`] / [`parse_records`]) therefore stores
//! every objective as raw `f64` bits in hex, exactly like the run cache,
//! so `explore frontier` can re-analyse persisted grids bit-for-bit.

use aep_core::{parse_scheme_slug, scheme_slug};
use aep_obs::json::escape;
use aep_sim::Scale;
use aep_workloads::Workload;

use crate::driver::EvaluatedPoint;
use crate::objective::ObjectiveVector;
use crate::objective::{ObjectiveKey, ObjectiveSpec};
use crate::pareto::{constrained_best, frontier_indices, knee_index, Constraint};
use crate::space::{ExplorePoint, Geometry};

/// The shared non-dominated analysis of one evaluated batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Indices of frontier points, in evaluation order.
    pub frontier: Vec<usize>,
    /// The frontier's knee point, if the frontier is non-empty.
    pub knee: Option<usize>,
    /// The canonical constraint query — min area such that IPC stays
    /// within 99 % of the best observed — when the spec carries both
    /// axes.
    pub constrained: Option<usize>,
}

/// The IPC floor of the canonical constraint query, as a fraction of the
/// best observed IPC.
pub const IPC_FLOOR_FRACTION: f64 = 0.99;

/// Runs the frontier / knee / constraint analysis once for all report
/// formats.
#[must_use]
pub fn analyze(spec: &ObjectiveSpec, evaluated: &[EvaluatedPoint]) -> Analysis {
    let vectors: Vec<ObjectiveVector> = evaluated.iter().map(|e| e.objectives.clone()).collect();
    let frontier = frontier_indices(spec, &vectors);
    let knee = knee_index(spec, &vectors, &frontier);
    let constrained = (|| {
        let ipc_i = spec.index_of(ObjectiveKey::Ipc)?;
        spec.index_of(ObjectiveKey::AreaBits)?;
        let best_ipc = vectors
            .iter()
            .map(|v| v.values[ipc_i])
            .filter(|v| v.is_finite())
            .reduce(f64::max)?;
        constrained_best(
            spec,
            &vectors,
            ObjectiveKey::AreaBits,
            &[Constraint {
                key: ObjectiveKey::Ipc,
                min: Some(best_ipc * IPC_FLOOR_FRACTION),
                max: None,
            }],
        )
    })();
    Analysis {
        frontier,
        knee,
        constrained,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn scrub_field(p: &ExplorePoint) -> String {
    match p.scrub_period {
        Some(period) => format!("{period}"),
        None => "none".to_owned(),
    }
}

/// Renders the evaluated batch as deterministic JSON: every point with
/// its objective values, frontier membership, and the knee / constraint
/// verdicts. Non-finite values serialise as `null`.
#[must_use]
pub fn frontier_json(
    scale: &str,
    spec: &ObjectiveSpec,
    evaluated: &[EvaluatedPoint],
    analysis: &Analysis,
) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": 2,");
    let _ = writeln!(out, "  \"scale\": {},", escape(scale));
    let names: Vec<String> = spec.keys().iter().map(|k| escape(k.name())).collect();
    let _ = writeln!(out, "  \"objectives\": [{}],", names.join(", "));
    out.push_str("  \"points\": [\n");
    for (i, e) in evaluated.iter().enumerate() {
        let p = &e.point;
        let values: Vec<String> = spec
            .keys()
            .iter()
            .zip(&e.objectives.values)
            .map(|(k, &v)| format!("{}: {}", escape(k.name()), json_number(v)))
            .collect();
        let _ = write!(
            out,
            "    {{\"id\": {}, \"benchmark\": {}, \"scheme\": {}, \
             \"scrub\": {}, \"geometry\": {}, \"interleave\": {}, {}, \
             \"frontier\": {}, \"knee\": {}}}",
            escape(&p.id()),
            escape(&p.benchmark.name()),
            escape(&scheme_slug(p.scheme)),
            match p.scrub_period {
                Some(period) => format!("{period}"),
                None => "null".to_owned(),
            },
            escape(&p.geometry.slug()),
            p.interleave,
            values.join(", "),
            analysis.frontier.contains(&i),
            analysis.knee == Some(i),
        );
        out.push_str(if i + 1 < evaluated.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    match analysis.constrained {
        Some(i) => {
            let _ = writeln!(
                out,
                "  \"constraint\": {{\"query\": \"min area s.t. ipc >= 99% of best\", \
                 \"id\": {}}}",
                escape(&evaluated[i].point.id())
            );
        }
        None => {
            let _ = writeln!(out, "  \"constraint\": null");
        }
    }
    out.push_str("}\n");
    out
}

/// Renders every evaluated point as CSV with `on_frontier` / `knee`
/// columns, in evaluation order.
#[must_use]
pub fn points_csv(
    spec: &ObjectiveSpec,
    evaluated: &[EvaluatedPoint],
    analysis: &Analysis,
) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let names: Vec<&str> = spec.keys().iter().map(|k| k.name()).collect();
    let _ = writeln!(
        out,
        "id,benchmark,scheme,scrub,geometry,interleave,{},on_frontier,knee",
        names.join(",")
    );
    for (i, e) in evaluated.iter().enumerate() {
        let p = &e.point;
        let values: Vec<String> = e.objectives.values.iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            p.id(),
            p.benchmark.name(),
            scheme_slug(p.scheme),
            scrub_field(p),
            p.geometry.slug(),
            p.interleave,
            values.join(","),
            analysis.frontier.contains(&i),
            analysis.knee == Some(i),
        );
    }
    out
}

/// Renders only the frontier as CSV, in evaluation order.
#[must_use]
pub fn frontier_csv(
    spec: &ObjectiveSpec,
    evaluated: &[EvaluatedPoint],
    analysis: &Analysis,
) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let names: Vec<&str> = spec.keys().iter().map(|k| k.name()).collect();
    let _ = writeln!(
        out,
        "id,benchmark,scheme,scrub,geometry,interleave,{}",
        names.join(",")
    );
    for &i in &analysis.frontier {
        let e = &evaluated[i];
        let p = &e.point;
        let values: Vec<String> = e.objectives.values.iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            p.id(),
            p.benchmark.name(),
            scheme_slug(p.scheme),
            scrub_field(p),
            p.geometry.slug(),
            p.interleave,
            values.join(","),
        );
    }
    out
}

/// Renders the frontier as a markdown table, marking the knee point and
/// appending the canonical constraint verdict.
#[must_use]
pub fn frontier_markdown(
    scale: &str,
    spec: &ObjectiveSpec,
    evaluated: &[EvaluatedPoint],
    analysis: &Analysis,
) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Pareto frontier ({} of {} points, scale {scale})\n",
        analysis.frontier.len(),
        evaluated.len()
    );
    let names: Vec<&str> = spec.keys().iter().map(|k| k.name()).collect();
    let _ = writeln!(out, "| point | {} | knee |", names.join(" | "));
    let _ = writeln!(out, "|---|{}---|", "---|".repeat(spec.keys().len()));
    for &i in &analysis.frontier {
        let e = &evaluated[i];
        let values: Vec<String> = e
            .objectives
            .values
            .iter()
            .map(|v| {
                if v.is_finite() {
                    format!("{v:.4}")
                } else {
                    "—".to_owned()
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "| {} | {} | {} |",
            e.point.id(),
            values.join(" | "),
            if analysis.knee == Some(i) { "◆" } else { "" },
        );
    }
    out.push('\n');
    match analysis.constrained {
        Some(i) => {
            let _ = writeln!(
                out,
                "Min area s.t. IPC ≥ 99 % of best: **{}**",
                evaluated[i].point.id()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "Min-area-at-IPC-floor query needs both `ipc` and `area` objectives."
            );
        }
    }
    out
}

fn hex_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Serialises an evaluated batch losslessly, one line per point, with
/// objectives as raw `f64` bits — the format [`parse_records`] reads
/// back bit-for-bit.
#[must_use]
pub fn write_records(scale: Scale, spec: &ObjectiveSpec, evaluated: &[EvaluatedPoint]) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dse v2 scale={} objectives={}",
        scale.name(),
        spec.to_string_spec()
    );
    for e in evaluated {
        let p = &e.point;
        let bits: Vec<String> = e.objectives.values.iter().map(|&v| hex_bits(v)).collect();
        let _ = writeln!(
            out,
            "point={}|{}|{}|{}|{}|{}|{}",
            p.id(),
            p.benchmark.name(),
            scheme_slug(p.scheme),
            scrub_field(p),
            p.geometry.slug(),
            p.interleave,
            bits.join(","),
        );
    }
    out
}

/// Why a `.dse` records file did not parse: the line and the field at
/// fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError {
    /// 1-based line number.
    pub line: usize,
    /// The field that is missing or malformed (`header`, `scale`,
    /// `scheme`, …).
    pub field: &'static str,
}

impl core::fmt::Display for RecordError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: bad {}", self.line, self.field)
    }
}

impl std::error::Error for RecordError {}

/// Parses [`write_records`] output. Any malformed header, point or value
/// is an error naming its line and field, so a truncated file never
/// yields a partial batch.
///
/// # Errors
///
/// The first malformed line and field.
pub fn parse_records(
    text: &str,
) -> Result<(Scale, ObjectiveSpec, Vec<EvaluatedPoint>), RecordError> {
    let bad = |line, field| RecordError { line, field };
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let rest = header
        .strip_prefix("dse v2 scale=")
        .ok_or(bad(1, "header"))?;
    let (scale, objectives) = rest.split_once(" objectives=").ok_or(bad(1, "header"))?;
    let scale = Scale::parse(scale).ok_or(bad(1, "scale"))?;
    let spec = ObjectiveSpec::parse(objectives).map_err(|_| bad(1, "objectives"))?;
    let mut evaluated = Vec::new();
    for (i, line) in lines.enumerate().filter(|(_, l)| !l.is_empty()) {
        let line_no = i + 2;
        let field = |name| move || bad(line_no, name);
        let body = line.strip_prefix("point=").ok_or_else(field("point"))?;
        let mut fields = body.split('|');
        let _id = fields.next().ok_or_else(field("id"))?;
        let benchmark = fields
            .next()
            .and_then(Workload::parse)
            .ok_or_else(field("benchmark"))?;
        let scheme = fields
            .next()
            .and_then(parse_scheme_slug)
            .ok_or_else(field("scheme"))?;
        let scrub_period = match fields.next().ok_or_else(field("scrub"))? {
            "none" => None,
            s => Some(s.parse().map_err(|_| field("scrub")())?),
        };
        let geometry = fields
            .next()
            .and_then(Geometry::parse)
            .ok_or_else(field("geometry"))?;
        let interleave: usize = fields
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(field("interleave"))?;
        let values = fields
            .next()
            .ok_or_else(field("objectives"))?
            .split(',')
            .map(|h| u64::from_str_radix(h, 16).ok().map(f64::from_bits))
            .collect::<Option<Vec<f64>>>()
            .filter(|v| v.len() == spec.keys().len())
            .ok_or_else(field("objectives"))?;
        if fields.next().is_some() {
            return Err(field("trailing field")());
        }
        evaluated.push(EvaluatedPoint {
            point: ExplorePoint {
                benchmark,
                scheme,
                scrub_period,
                geometry,
                interleave,
            },
            objectives: ObjectiveVector { values },
        });
    }
    Ok((scale, spec, evaluated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_core::SchemeKind;

    fn batch() -> (ObjectiveSpec, Vec<EvaluatedPoint>) {
        let spec = ObjectiveSpec::parse("ipc,area").unwrap();
        let mk = |scheme, ipc: f64, area: f64| EvaluatedPoint {
            point: ExplorePoint::new(aep_workloads::Benchmark::Gzip, scheme),
            objectives: ObjectiveVector {
                values: vec![ipc, area],
            },
        };
        let evaluated = vec![
            mk(SchemeKind::Uniform, 1.0, 132.0),
            mk(
                SchemeKind::Proposed {
                    cleaning_interval: 1024 * 1024,
                },
                0.999,
                54.0,
            ),
            mk(SchemeKind::ParityOnly, 0.5, 54.0),
        ];
        (spec, evaluated)
    }

    #[test]
    fn analysis_finds_frontier_knee_and_constraint() {
        let (spec, evaluated) = batch();
        let a = analyze(&spec, &evaluated);
        // Uniform (best ipc) and proposed (best area) survive; parity is
        // dominated by proposed (same area, worse ipc).
        assert_eq!(a.frontier, vec![0, 1]);
        assert_eq!(a.knee, Some(1));
        // Proposed is within 1 % of uniform's IPC at less than half the
        // area: the constraint query picks it.
        assert_eq!(a.constrained, Some(1));
    }

    #[test]
    fn json_is_deterministic_and_marks_the_frontier() {
        let (spec, evaluated) = batch();
        let a = analyze(&spec, &evaluated);
        let one = frontier_json("quick", &spec, &evaluated, &a);
        let two = frontier_json("quick", &spec, &evaluated, &a);
        assert_eq!(one, two);
        assert!(one.contains("\"id\": \"gzip-proposed_1048576\""));
        assert!(one.contains("\"frontier\": false")); // parity
        assert!(one.contains("\"constraint\": {"));
        // Balanced braces as a cheap well-formedness check.
        let opens = one.matches('{').count();
        assert_eq!(opens, one.matches('}').count());
    }

    #[test]
    fn csv_and_markdown_cover_the_frontier() {
        let (spec, evaluated) = batch();
        let a = analyze(&spec, &evaluated);
        let csv = frontier_csv(&spec, &evaluated, &a);
        assert_eq!(csv.lines().count(), 1 + a.frontier.len());
        let all = points_csv(&spec, &evaluated, &a);
        assert_eq!(all.lines().count(), 1 + evaluated.len());
        let md = frontier_markdown("quick", &spec, &evaluated, &a);
        assert!(md.contains("◆"));
        assert!(md.contains("min area s.t. IPC ≥ 99 %".replace("min", "Min").as_str()));
    }

    #[test]
    fn records_roundtrip_bit_for_bit() {
        let (spec, mut evaluated) = batch();
        // Exercise the lossless path with values Display would mangle.
        evaluated[0].objectives.values[0] = 0.1 + 0.2;
        evaluated[1].objectives.values[1] = f64::NAN;
        let text = write_records(Scale::Smoke, &spec, &evaluated);
        let (scale, spec2, parsed) = parse_records(&text).expect("roundtrip");
        assert_eq!(scale, Scale::Smoke);
        assert_eq!(spec2, spec);
        assert_eq!(parsed.len(), evaluated.len());
        for (a, b) in parsed.iter().zip(&evaluated) {
            assert_eq!(a.point, b.point);
            for (x, y) in a.objectives.values.iter().zip(&b.objectives.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Corruption never yields a partial parse, and pre-interleave v1
        // files are rejected outright rather than misread.
        let err = |text: &str| parse_records(text).expect_err("malformed").to_string();
        assert_eq!(err(&text.replace("point=", "pt=")), "line 2: bad point");
        assert_eq!(err("dse v2 nope"), "line 1: bad header");
        assert_eq!(err(""), "line 1: bad header");
        assert_eq!(err(&text.replace("dse v2", "dse v1")), "line 1: bad header");
        // The scale names output files, so it must be one of the scales.
        assert_eq!(
            err(&text.replace("scale=smoke", "scale=../x")),
            "line 1: bad scale"
        );
        assert_eq!(
            err(&text.replace("|gzip|", "|nosuch|")),
            "line 2: bad benchmark"
        );
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[2].push_str("|x");
        assert_eq!(err(&lines.join("\n")), "line 3: bad trailing field");
    }
}
