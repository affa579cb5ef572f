//! The metric tables, read from `BENCHMARK.json` (the one place names,
//! units, directions and bounds are written down), and the result line
//! the driver reads.

use dspsim::minijson::{quote, Parser, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The benchmark's declaration, compiled in: the harness cannot disagree
/// with the file the driver reads.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One declared metric.  `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen (per-layer metrics carry 0).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// What a user of the system sees.
    pub end_to_end: Vec<MetricDef>,
    /// Single-layer metrics, measured by the harness around public calls.
    pub per_layer: Vec<MetricDef>,
}

fn parse_declared(text: &str) -> Result<Declared, String> {
    let doc = Parser::new(text).parse()?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key).ok_or(format!("no {key}"))?.as_arr(key)
    };
    let text_of = |v: &Value, key: &str| -> Result<String, String> {
        Ok(v.get(key)
            .ok_or(format!("no {key}"))?
            .as_str(key)?
            .to_string())
    };
    let metric = |v: &Value| -> Result<MetricDef, String> {
        Ok(MetricDef {
            name: text_of(v, "name")?,
            unit: text_of(v, "unit")?,
            better: match text_of(v, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("better: {other:?}")),
            },
            bound: v.get("bound").map_or(Ok(0.0), |b| b.as_f64("bound"))?,
        })
    };
    Ok(Declared {
        run_seconds: doc
            .get("run_seconds")
            .ok_or("no run_seconds")?
            .as_u64("run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()?,
    })
}

/// The declaration, parsed once.
pub fn declared() -> &'static Declared {
    static DECLARED: OnceLock<Declared> = OnceLock::new();
    DECLARED.get_or_init(|| {
        parse_declared(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

/// End-to-end metrics on the simulated clock: deterministic in
/// `(seed, plan)`, so `--check-repeat` compares them for equality (their
/// declared bound only has to cover the spread *between seeds*).
pub fn is_simulated(name: &str) -> bool {
    name.starts_with("sim_")
}

/// The declared per-layer metric `<family>.<member>` (families indexed
/// by a phase name or an oracle tag).  Panics if the table lacks it: the
/// self-tests keep the table complete.
pub fn per_layer_member(family: &str, member: &str) -> &'static str {
    declared()
        .per_layer
        .iter()
        .map(|d| d.name.as_str())
        .find(|name| {
            name.strip_prefix(family)
                .and_then(|rest| rest.strip_prefix('.'))
                == Some(member)
        })
        .unwrap_or_else(|| panic!("no per-layer metric {family}.{member}"))
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record a metric.  Every metric has one producer per run: a second
    /// value for the same name is a harness bug, not something to
    /// resolve silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let earlier = self.0.insert(name, value);
        assert!(earlier.is_none(), "metric {name} was measured twice");
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Check the recorded set against a declared table: every declared
    /// metric measured, finite, and nothing undeclared.
    pub fn check_against(&self, defs: &[MetricDef]) -> Result<(), String> {
        for d in defs {
            match self.0.get(d.name.as_str()) {
                None => return Err(format!("metric {} was not measured", d.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric {} is not finite: {v}", d.name))
                }
                Some(_) => {}
            }
        }
        match self.0.keys().find(|k| defs.iter().all(|d| d.name != **k)) {
            Some(extra) => Err(format!("metric {extra} is not declared")),
            None => Ok(()),
        }
    }

    /// `{"name": {"value": v, "unit": u}, …}` in table order.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut s = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let v = self.0[d.name.as_str()];
            let _ = write!(
                s,
                "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                quote(&d.name),
                quote(&d.unit)
            );
        }
        s.push('}');
        s
    }
}

/// The one-line result the driver reads from the end of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    defs: &[MetricDef],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json(defs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_declaration_stays_inside_the_drivers_contract() {
        let d = declared();
        let mut seen = std::collections::BTreeSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(name_ok(&m.name), "bad metric name {}", m.name);
            assert!(unit_ok(&m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(&m.name), "duplicate metric {}", m.name);
        }
        for w in &d.workloads {
            assert!(name_ok(w) && seen.insert(w), "bad workload name {w}");
        }
        assert!((2..=8).contains(&d.workloads.len()));
        assert!((1..=16).contains(&d.end_to_end.len()));
        assert!((1..=128).contains(&d.per_layer.len()));
        assert!((1..=60).contains(&d.run_seconds));
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(d.end_to_end.iter().all(|m| m.bound <= setup.bound));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn a_malformed_declaration_is_refused() {
        assert!(parse_declared("{}").is_err());
        let bad = BENCHMARK_JSON.replacen("\"lower\"", "\"sideways\"", 1);
        assert!(parse_declared(&bad).is_err());
    }

    #[test]
    fn per_layer_table_names_every_oracle_and_device_phase() {
        for o in conformance::OracleKind::ALL {
            let name = per_layer_member("conformance.case_ms_p50", o.tag());
            assert!(name.ends_with(o.tag()));
        }
        for p in dspsim::Phase::ALL.into_iter().filter(|p| !p.is_host_side()) {
            let name = per_layer_member("dspsim.sim_phase_s", p.name());
            assert!(name.ends_with(p.name()));
        }
    }

    #[test]
    fn result_line_is_well_formed_and_complete() {
        let defs = &declared().end_to_end;
        let mut m = Metrics::default();
        for (i, d) in defs.iter().enumerate() {
            m.set(&d.name, 1.5 + i as f64 * 1e-7);
        }
        m.check_against(defs).unwrap();
        let line = result_line(true, 120, 0, &m, defs);
        assert!(!line.contains('\n'));
        // minijson has no booleans; everything else must parse.
        let doc = Parser::new(&line.replace("true", "1")).parse().unwrap();
        let keys: Vec<&str> = doc
            .as_obj("result")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj("metrics").unwrap();
        assert_eq!(metrics.len(), defs.len());
        for (d, (k, v)) in defs.iter().zip(metrics) {
            assert_eq!(k, &d.name);
            assert_eq!(v.get("unit").unwrap().as_str("unit").unwrap(), d.unit);
            assert!(v.get("value").unwrap().as_f64("value").unwrap() > 0.0);
        }
        // An unmeasured, undeclared or non-finite metric is refused.
        let mut missing = m.clone();
        missing.0.remove("setup_s");
        assert!(missing.check_against(defs).is_err());
        let mut extra = m.clone();
        extra.set("bogus", 1.0);
        assert!(extra.check_against(defs).is_err());
        let mut nan = missing;
        nan.set("setup_s", f64::NAN);
        assert!(nan.check_against(defs).is_err());
    }

    #[test]
    #[should_panic(expected = "measured twice")]
    fn a_metric_has_one_producer() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        m.set("setup_s", 2.0);
    }
}
