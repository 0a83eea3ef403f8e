//! Versioned machine-readable bench reports (`BENCH_<name>.json`) and
//! the comparison logic behind the `bench-diff` binary.
//!
//! Every figure/scaling binary can emit one [`BenchReport`]: its
//! headline simulation results (`sim.*` key/value metrics), the wall
//! time, and — when recording was on — the critical-path attribution
//! summary from [`fred_telemetry::analysis`]. Two reports from
//! different commits are compared leaf by leaf with a relative
//! threshold, turning every figure into a regression test.
//!
//! The workspace is dependency-free, so reading reports back uses the
//! minimal recursive-descent JSON parser shared with the snapshot
//! machinery ([`fred_core::codec::parse`], re-exported here) — it
//! supports exactly the JSON this workspace emits (objects, arrays,
//! numbers, strings, booleans, null).

use std::fmt;
use std::io;
use std::path::Path;

use fred_telemetry::analysis::Analysis;
use fred_telemetry::json::{push_num, push_str_lit};

/// Current report schema version. Bump when the report shape changes
/// incompatibly; `bench-diff` refuses to compare mismatched versions.
pub const SCHEMA_VERSION: f64 = 1.0;

/// Relative tolerance for the attribution-sum invariant
/// (`Σ buckets == total makespan`).
pub const SUM_TOLERANCE: f64 = 1e-6;

/// One machine-readable bench report.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Report name (the figure binary, e.g. `"fig9"`).
    pub name: String,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Headline simulation metrics, in insertion order. Keys should be
    /// stable across commits (they are the regression surface).
    pub sim: Vec<(String, f64)>,
    /// Critical-path attribution, when the run recorded a trace.
    pub analysis: Option<Analysis>,
    /// Host-side profiler sites, pre-rendered with
    /// [`fred_telemetry::prof::to_json`] (wall-clock — not diffed).
    pub prof_json: Option<String>,
    /// Flight-recorder snapshot, pre-rendered with
    /// [`fred_telemetry::timeseries::FlightSnapshot::to_json`]
    /// (time-series archive — not diffed leaf-by-leaf).
    pub timeseries_json: Option<String>,
}

impl BenchReport {
    /// Creates an empty report for `name`.
    pub fn new(name: impl Into<String>) -> BenchReport {
        BenchReport {
            name: name.into(),
            ..BenchReport::default()
        }
    }

    /// Records one headline metric. Re-recording a key overwrites it.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        match self.sim.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.sim.push((key, value)),
        }
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\"schema_version\":");
        push_num(&mut s, SCHEMA_VERSION);
        s.push_str(",\"name\":");
        push_str_lit(&mut s, &self.name);
        s.push_str(",\"wall_secs\":");
        push_num(&mut s, self.wall_secs);
        s.push_str(",\"sim\":{");
        for (i, (k, v)) in self.sim.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_str_lit(&mut s, k);
            s.push(':');
            push_num(&mut s, *v);
        }
        s.push('}');
        if let Some(a) = &self.analysis {
            s.push_str(",\"analysis\":");
            s.push_str(&a.to_json());
        }
        // Additive sections under the same schema version: self_check
        // tolerates unknown fields and collect_leaves only walks sim.*
        // and analysis, so old bench-diff binaries still compare these
        // reports.
        if let Some(p) = &self.prof_json {
            s.push_str(",\"prof\":");
            s.push_str(p);
        }
        if let Some(t) = &self.timeseries_json {
            s.push_str(",\"timeseries\":");
            s.push_str(t);
        }
        s.push('}');
        s
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

// ---------------------------------------------------------------------
// JSON value + parser: shared with the snapshot codec in `fred-core`.
// ---------------------------------------------------------------------

pub use fred_core::codec::{parse, Value};

// ---------------------------------------------------------------------
// Self-check and diff.
// ---------------------------------------------------------------------

/// Validates one parsed report: schema version, required fields, an
/// untruncated trace behind the analysis, and the attribution-sum
/// invariant (`Σ buckets == makespan` within [`SUM_TOLERANCE`]
/// relative, per run and in aggregate). Returns human-readable info
/// lines on success.
pub fn self_check(report: &Value) -> Result<Vec<String>, String> {
    let mut info = Vec::new();
    let version = report
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    let name = report
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing name")?;
    let wall = report
        .get("wall_secs")
        .and_then(Value::as_f64)
        .ok_or("missing wall_secs")?;
    if wall.is_nan() || wall < 0.0 {
        return Err(format!("wall_secs {wall} is not a non-negative number"));
    }
    let sim = report.get("sim").ok_or("missing sim object")?;
    let Value::Obj(sim_fields) = sim else {
        return Err("sim is not an object".into());
    };
    for (k, v) in sim_fields {
        if v.as_f64().is_none() {
            return Err(format!("sim metric `{k}` is not a number"));
        }
    }
    info.push(format!(
        "{name}: schema v{version}, {} sim metric(s), wall {wall:.3}s",
        sim_fields.len()
    ));

    if let Some(analysis) = report.get("analysis") {
        let truncated = analysis
            .get("trace_truncated")
            .and_then(Value::as_bool)
            .ok_or("analysis missing trace_truncated")?;
        if truncated {
            let dropped = analysis
                .get("dropped_events")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            return Err(format!(
                "trace truncated ({dropped} events dropped): the attribution \
                 misses events and cannot be trusted"
            ));
        }
        check_attribution_sum(analysis, "analysis", &mut info)?;
        if let Some(Value::Arr(runs)) = analysis.get("runs") {
            for (i, run) in runs.iter().enumerate() {
                check_run_sum(run, i)?;
            }
            info.push(format!(
                "attribution invariant holds over {} run(s)",
                runs.len()
            ));
        }
    }
    Ok(info)
}

fn attribution_total(node: &Value, ctx: &str) -> Result<f64, String> {
    let attr = node
        .get("attribution")
        .ok_or_else(|| format!("{ctx}: missing attribution"))?;
    let Value::Obj(buckets) = attr else {
        return Err(format!("{ctx}: attribution is not an object"));
    };
    let mut total = 0.0;
    for (k, v) in buckets {
        total += v
            .as_f64()
            .ok_or_else(|| format!("{ctx}: bucket `{k}` is not a number"))?;
    }
    Ok(total)
}

fn check_attribution_sum(node: &Value, ctx: &str, info: &mut Vec<String>) -> Result<(), String> {
    let total = attribution_total(node, ctx)?;
    let makespan = node
        .get("total_makespan_secs")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing total_makespan_secs"))?;
    let denom = makespan.abs().max(f64::MIN_POSITIVE);
    let rel = (total - makespan).abs() / denom;
    if rel > SUM_TOLERANCE {
        return Err(format!(
            "{ctx}: attribution sum {total} != makespan {makespan} \
             (relative error {rel:.3e} > {SUM_TOLERANCE:.0e})"
        ));
    }
    info.push(format!(
        "{ctx}: attribution sums to makespan ({makespan:.6}s, rel err {rel:.1e})"
    ));
    Ok(())
}

fn check_run_sum(run: &Value, i: usize) -> Result<(), String> {
    let ctx = format!("run[{i}]");
    let total = attribution_total(run, &ctx)?;
    let makespan = run
        .get("makespan_secs")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing makespan_secs"))?;
    let denom = makespan.abs().max(f64::MIN_POSITIVE);
    let rel = (total - makespan).abs() / denom;
    if rel > SUM_TOLERANCE {
        return Err(format!(
            "{ctx}: attribution sum {total} != makespan {makespan} \
             (relative error {rel:.3e})"
        ));
    }
    Ok(())
}

/// One compared leaf of two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path of the leaf (e.g. `sim.fig9/mesh/MP/secs`).
    pub key: String,
    /// Value in the baseline report (`NaN` when missing).
    pub a: f64,
    /// Value in the candidate report (`NaN` when missing).
    pub b: f64,
    /// Relative difference `|b - a| / max(|a|, |b|, ε)`.
    pub rel: f64,
}

impl DiffEntry {
    /// Whether this entry exceeds `threshold` (missing keys always
    /// do).
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.a.is_nan() || self.b.is_nan() || self.rel > threshold
    }
}

impl fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.a.is_nan() {
            write!(
                f,
                "{}: missing in baseline (candidate {})",
                self.key, self.b
            )
        } else if self.b.is_nan() {
            write!(
                f,
                "{}: missing in candidate (baseline {})",
                self.key, self.a
            )
        } else {
            write!(
                f,
                "{}: {} -> {} ({:+.2}%)",
                self.key,
                self.a,
                self.b,
                100.0 * (self.b - self.a) / self.a.abs().max(f64::MIN_POSITIVE)
            )
        }
    }
}

/// Compares two parsed reports leaf by leaf over the regression
/// surface: every `sim.*` metric plus the analysis attribution buckets
/// and total makespan (wall time is excluded — too noisy to gate on).
/// Returns every compared entry; filter with
/// [`DiffEntry::exceeds`].
pub fn diff(a: &Value, b: &Value) -> Result<Vec<DiffEntry>, String> {
    for (label, v) in [("baseline", a), ("candidate", b)] {
        let version = v
            .get("schema_version")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{label}: missing schema_version"))?;
        if version != SCHEMA_VERSION {
            return Err(format!("{label}: unsupported schema_version {version}"));
        }
    }
    let mut leaves_a = Vec::new();
    let mut leaves_b = Vec::new();
    collect_leaves(a, &mut leaves_a);
    collect_leaves(b, &mut leaves_b);

    let mut out = Vec::new();
    for (key, va) in &leaves_a {
        let vb = leaves_b.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        let (va, vb) = (*va, vb.unwrap_or(f64::NAN));
        let rel = if vb.is_nan() {
            f64::INFINITY
        } else {
            (vb - va).abs() / va.abs().max(vb.abs()).max(f64::MIN_POSITIVE)
        };
        out.push(DiffEntry {
            key: key.clone(),
            a: va,
            b: vb,
            rel,
        });
    }
    for (key, vb) in &leaves_b {
        if !leaves_a.iter().any(|(k, _)| k == key) {
            out.push(DiffEntry {
                key: key.clone(),
                a: f64::NAN,
                b: *vb,
                rel: f64::INFINITY,
            });
        }
    }
    out.sort_by(|x, y| y.rel.total_cmp(&x.rel).then(x.key.cmp(&y.key)));
    Ok(out)
}

/// The numeric leaves two reports are compared over.
fn collect_leaves(report: &Value, out: &mut Vec<(String, f64)>) {
    if let Some(Value::Obj(sim)) = report.get("sim") {
        for (k, v) in sim {
            if let Some(n) = v.as_f64() {
                out.push((format!("sim.{k}"), n));
            }
        }
    }
    if let Some(analysis) = report.get("analysis") {
        if let Some(n) = analysis.get("total_makespan_secs").and_then(Value::as_f64) {
            out.push(("analysis.total_makespan_secs".into(), n));
        }
        if let Some(Value::Obj(buckets)) = analysis.get("attribution") {
            for (k, v) in buckets {
                if let Some(n) = v.as_f64() {
                    out.push((format!("analysis.attribution.{k}"), n));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let mut r = BenchReport::new("figX");
        r.wall_secs = 0.25;
        r.metric("mesh/MP/secs", 1.5);
        r.metric("fredd/MP/secs", 0.75);
        r
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let r = sample_report();
        let v = parse(&r.to_json()).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("figX"));
        assert_eq!(
            v.get("schema_version").and_then(Value::as_f64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            v.get("sim")
                .and_then(|s| s.get("mesh/MP/secs"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
        assert!(self_check(&v).is_ok());
    }

    #[test]
    fn metric_overwrites_existing_key() {
        let mut r = sample_report();
        r.metric("mesh/MP/secs", 2.0);
        assert_eq!(r.sim.iter().filter(|(k, _)| k == "mesh/MP/secs").count(), 1);
        assert_eq!(r.sim[0].1, 2.0);
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v =
            parse(r#"{"a": [1, -2.5e3, true, null], "s": "x\"y\nA", "o": {"k": 0.125}}"#).unwrap();
        let Value::Arr(a) = v.get("a").unwrap() else {
            panic!()
        };
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Value::Null);
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\"y\nA"));
        assert_eq!(
            v.get("o").and_then(|o| o.get("k")).and_then(Value::as_f64),
            Some(0.125)
        );
        assert!(parse("{\"unterminated\": ").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn identical_reports_diff_clean() {
        let v = parse(&sample_report().to_json()).unwrap();
        let entries = diff(&v, &v).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|e| !e.exceeds(0.0)));
    }

    #[test]
    fn diff_flags_changes_beyond_threshold() {
        let a = parse(&sample_report().to_json()).unwrap();
        let mut changed = sample_report();
        changed.metric("mesh/MP/secs", 1.65); // +10%
        let b = parse(&changed.to_json()).unwrap();
        let entries = diff(&a, &b).unwrap();
        let bad: Vec<_> = entries.iter().filter(|e| e.exceeds(0.05)).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, "sim.mesh/MP/secs");
        // A 20% threshold passes.
        assert!(entries.iter().all(|e| !e.exceeds(0.2)));
    }

    #[test]
    fn diff_flags_missing_keys() {
        let a = parse(&sample_report().to_json()).unwrap();
        let mut fewer = BenchReport::new("figX");
        fewer.metric("mesh/MP/secs", 1.5);
        let b = parse(&fewer.to_json()).unwrap();
        let entries = diff(&a, &b).unwrap();
        assert!(entries
            .iter()
            .any(|e| e.key == "sim.fredd/MP/secs" && e.exceeds(f64::INFINITY)));
    }

    #[test]
    fn self_check_rejects_broken_invariant() {
        // Attribution that does not sum to the makespan.
        let doc = r#"{"schema_version":1,"name":"x","wall_secs":0,"sim":{},
            "analysis":{"trace_truncated":false,"dropped_events":0,
            "total_makespan_secs":2.0,
            "attribution":{"compute":1.0,"contention":0.5},"runs":[]}}"#;
        let v = parse(doc).unwrap();
        let err = self_check(&v).unwrap_err();
        assert!(err.contains("attribution sum"), "{err}");
    }

    #[test]
    fn self_check_rejects_truncated_trace() {
        let doc = |truncated: bool| {
            format!(
                r#"{{"schema_version":1,"name":"x","wall_secs":0.1,"sim":{{"m":1}},
                "analysis":{{"trace_truncated":{truncated},"dropped_events":9,
                "total_makespan_secs":1.5,
                "attribution":{{"compute":1.0,"contention":0.5}},
                "runs":[{{"makespan_secs":1.5,
                         "attribution":{{"compute":1.0,"contention":0.5}}}}]}}}}"#
            )
        };
        assert!(self_check(&parse(&doc(false)).unwrap()).is_ok());
        let err = self_check(&parse(&doc(true)).unwrap()).unwrap_err();
        assert!(err.contains("trace truncated"), "{err}");
    }

    #[test]
    fn self_check_rejects_wrong_schema_version() {
        let v = parse(r#"{"schema_version":99,"name":"x","wall_secs":0,"sim":{}}"#).unwrap();
        assert!(self_check(&v).is_err());
    }

    #[test]
    fn report_with_analysis_passes_self_check() {
        use fred_telemetry::event::{TraceEvent, Track};
        let mut r = sample_report();
        let evs = [
            TraceEvent::PhaseBegin {
                t: 0.0,
                track: Track::Compute,
                span: 1,
                label: "c".into(),
                bytes: 0.0,
                npus: 0,
                tag: 0,
            },
            TraceEvent::PhaseEnd {
                t: 2.0,
                track: Track::Compute,
                span: 1,
            },
        ];
        r.analysis = Some(Analysis::from_events(&evs));
        let v = parse(&r.to_json()).unwrap();
        let info = self_check(&v).unwrap();
        assert!(
            info.iter().any(|l| l.contains("sums to makespan")),
            "{info:?}"
        );
    }
}
