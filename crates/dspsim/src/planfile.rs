//! JSON round-tripping for [`FaultPlan`] so chaos scenarios can live in
//! fixture files instead of being constructed in code.
//!
//! The document is written through [`crate::minijson::Writer`] and decoded
//! through [`crate::minijson::Fields`], so it is *strict* in the module's
//! one sense: an unknown or duplicated key — at the top level or inside
//! any fault object — is an error, so a typoed fixture fails loudly
//! instead of silently injecting nothing.  Every top-level key is
//! optional (an absent array injects nothing; an absent `seed` is 0);
//! every key of a fault object is required.  Numbers keep their source
//! text in the reader, so `u64` seeds survive beyond the 2^53 range where
//! an `f64` detour would silently round.
//!
//! ```
//! use dspsim::{DmaPath, FaultPlan};
//! let plan = FaultPlan::new(7).corrupt_dma(DmaPath::DdrToAm, 2);
//! let text = plan.to_json();
//! assert_eq!(FaultPlan::from_json(&text).unwrap(), plan);
//! ```

use crate::fault::{ClusterFailure, CoreFailure, CpuFailure, CpuSlowdown, DmaFault, MemFault};
use crate::minijson::{Fields, Parser, Value, Writer};
use crate::{DmaFaultKind, DmaPath, FaultPlan, MemTarget};

/// Every DMA path with its name in the document.
const DMA_PATHS: [(DmaPath, &str); 9] = [
    (DmaPath::DdrToGsm, "DdrToGsm"),
    (DmaPath::GsmToDdr, "GsmToDdr"),
    (DmaPath::DdrToSm, "DdrToSm"),
    (DmaPath::DdrToAm, "DdrToAm"),
    (DmaPath::SmToDdr, "SmToDdr"),
    (DmaPath::AmToDdr, "AmToDdr"),
    (DmaPath::GsmToSm, "GsmToSm"),
    (DmaPath::GsmToAm, "GsmToAm"),
    (DmaPath::AmToGsm, "AmToGsm"),
];

/// Every DMA fault kind with its name in the document.
const DMA_KINDS: [(DmaFaultKind, &str); 2] = [
    (DmaFaultKind::Corrupt, "Corrupt"),
    (DmaFaultKind::Timeout, "Timeout"),
];

fn name_of<T: PartialEq>(table: &[(T, &'static str)], value: &T) -> &'static str {
    let (_, name) = table
        .iter()
        .find(|(v, _)| v == value)
        .expect("the name tables list every variant");
    name
}

fn from_name<T: Copy>(table: &[(T, &str)], name: &str, what: &str) -> Result<T, String> {
    table
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(v, _)| *v)
        .ok_or_else(|| format!("unknown {what} {name:?}"))
}

/// Write `"key": [ {..}, .. ]` with one object per item, `fields` filling
/// each object.
fn write_faults<T>(w: &mut Writer, key: &str, items: &[T], fields: impl Fn(&mut Writer, &T)) {
    w.key(key).begin_arr();
    for item in items {
        w.begin_obj();
        fields(w, item);
        w.end_obj();
    }
    w.end_arr();
}

/// Decode the optional top-level array `key`, one `what` object per item.
fn read_faults<T>(
    top: &mut Fields,
    key: &str,
    what: &str,
    item: impl Fn(&mut Fields) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Some(v) = top.opt(key) else {
        return Ok(Vec::new());
    };
    v.as_arr(key)?
        .iter()
        .map(|v| {
            let mut f = Fields::new(v, what)?;
            let fault = item(&mut f)?;
            f.finish()?;
            Ok(fault)
        })
        .collect()
}

fn read_target(v: &Value) -> Result<MemTarget, String> {
    let mut f = Fields::new(v, "target")?;
    let target = match f.str("kind")? {
        "Gsm" => MemTarget::Gsm,
        "Sm" => MemTarget::Sm(f.usize("core")?),
        "Am" => MemTarget::Am(f.usize("core")?),
        other => return Err(format!("unknown mem target {other:?}")),
    };
    f.finish()?;
    Ok(target)
}

impl FaultPlan {
    /// Serialise the plan as pretty-printed JSON (stable field order, one
    /// fault per line, so fixtures diff cleanly).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(2);
        w.begin_obj();
        w.key("seed").u64(self.seed);
        w.key("timeout_s").f64(self.timeout_s);
        write_faults(&mut w, "dma", &self.dma, |w, f| {
            w.key("path").str(name_of(&DMA_PATHS, &f.path));
            w.key("nth").u64(f.nth);
            w.key("kind").str(name_of(&DMA_KINDS, &f.kind));
        });
        write_faults(&mut w, "mem", &self.mem, |w, f| {
            w.key("target").begin_obj();
            match f.target {
                MemTarget::Gsm => w.key("kind").str("Gsm"),
                MemTarget::Sm(c) => w.key("kind").str("Sm").key("core").u64(c as u64),
                MemTarget::Am(c) => w.key("kind").str("Am").key("core").u64(c as u64),
            };
            w.end_obj();
            w.key("nth_read").u64(f.nth_read);
        });
        write_faults(&mut w, "cores", &self.cores, |w, f| {
            w.key("core").u64(f.core as u64);
            w.key("at_seconds").f64(f.at_seconds);
        });
        write_faults(&mut w, "clusters", &self.clusters, |w, f| {
            w.key("at_seconds").f64(f.at_seconds);
        });
        write_faults(&mut w, "cpu_slowdowns", &self.cpu_slowdowns, |w, f| {
            w.key("factor").f64(f.factor);
        });
        write_faults(&mut w, "cpu_failures", &self.cpu_failures, |w, f| {
            w.key("nth").u64(f.nth);
        });
        w.end_obj();
        w.finish()
    }

    /// Parse a plan from JSON as produced by [`FaultPlan::to_json`] (or
    /// written by hand).  Strict: unknown and duplicated keys are errors.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = Parser::new(text).parse()?;
        let mut top = Fields::new(&value, "plan")?;
        let mut plan = FaultPlan::new(0);
        if let Some(v) = top.opt("seed") {
            plan.seed = v.as_u64("seed")?;
        }
        if let Some(v) = top.opt("timeout_s") {
            plan.timeout_s = v.as_f64_or_inf("timeout_s")?;
        }
        plan.dma = read_faults(&mut top, "dma", "dma fault", |f| {
            Ok(DmaFault {
                path: from_name(&DMA_PATHS, f.str("path")?, "DMA path")?,
                nth: f.u64("nth")?,
                kind: from_name(&DMA_KINDS, f.str("kind")?, "DMA fault kind")?,
            })
        })?;
        plan.mem = read_faults(&mut top, "mem", "mem fault", |f| {
            Ok(MemFault {
                target: read_target(f.req("target")?)?,
                nth_read: f.u64("nth_read")?,
            })
        })?;
        plan.cores = read_faults(&mut top, "cores", "core failure", |f| {
            Ok(CoreFailure {
                core: f.usize("core")?,
                at_seconds: f.f64("at_seconds")?,
            })
        })?;
        plan.clusters = read_faults(&mut top, "clusters", "cluster failure", |f| {
            Ok(ClusterFailure {
                at_seconds: f.f64("at_seconds")?,
            })
        })?;
        plan.cpu_slowdowns = read_faults(&mut top, "cpu_slowdowns", "cpu slowdown", |f| {
            Ok(CpuSlowdown {
                factor: f.f64("factor")?,
            })
        })?;
        plan.cpu_failures = read_faults(&mut top, "cpu_failures", "cpu failure", |f| {
            Ok(CpuFailure { nth: f.u64("nth")? })
        })?;
        top.finish()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_plan() -> FaultPlan {
        let mut p = FaultPlan::new(u64::MAX - 3)
            .corrupt_dma(DmaPath::DdrToAm, 2)
            .timeout_dma(DmaPath::GsmToSm, 7)
            .flip_bit(MemTarget::Gsm, 3)
            .flip_bit(MemTarget::Sm(1), 4)
            .flip_bit(MemTarget::Am(6), 9)
            .kill_core(5, 1.25e-3)
            .kill_cluster(3.5e-3)
            .cpu_slowdown(2.5)
            .fail_cpu(3);
        p.timeout_s = 2.5e-4;
        p
    }

    #[test]
    fn json_round_trip_is_exact() {
        let plan = rich_plan();
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(back, plan);
        // Seeds beyond 2^53 survive (no f64 detour).
        assert_eq!(back.seed, u64::MAX - 3);
        // And the encoding itself is stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::new(0);
        assert_eq!(FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
    }

    #[test]
    fn handwritten_fixture_parses() {
        let text = r#"{
            "seed": 11,
            "dma": [ { "path": "DdrToAm", "nth": 2, "kind": "Corrupt" } ],
            "mem": [ { "target": { "kind": "Sm", "core": 0 }, "nth_read": 1 } ]
        }"#;
        let plan = FaultPlan::from_json(text).unwrap();
        assert_eq!(plan.seed, 11);
        assert_eq!(plan.timeout_s, FaultPlan::new(0).timeout_s);
        assert_eq!(plan.dma.len(), 1);
        assert_eq!(plan.mem[0].target, MemTarget::Sm(0));
        assert!(plan.clusters.is_empty());
    }

    #[test]
    fn cluster_kill_round_trips() {
        let plan = FaultPlan::new(9).kill_cluster(1.5e-3).kill_cluster(7e-4);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.clusters.len(), 2);
        assert_eq!(back.clusters[1].at_seconds, 7e-4);

        let hand = r#"{ "seed": 4, "clusters": [ { "at_seconds": 2e-3 } ] }"#;
        let plan = FaultPlan::from_json(hand).unwrap();
        assert_eq!(plan.clusters[0].at_seconds, 2e-3);
    }

    #[test]
    fn cpu_faults_round_trip() {
        let plan = FaultPlan::new(13).cpu_slowdown(4.0).fail_cpu(1).fail_cpu(5);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.cpu_slowdowns[0].factor, 4.0);
        assert_eq!(back.cpu_failures[1].nth, 5);

        let hand = r#"{
            "seed": 2,
            "cpu_slowdowns": [ { "factor": 1.5 } ],
            "cpu_failures": [ { "nth": 2 } ]
        }"#;
        let plan = FaultPlan::from_json(hand).unwrap();
        assert_eq!(plan.cpu_slowdowns[0].factor, 1.5);
        assert_eq!(plan.cpu_failures[0].nth, 2);
    }

    #[test]
    fn bad_fixtures_fail_loudly() {
        for (text, needle) in [
            ("{ \"sed\": 1 }", "unknown plan key"),
            ("{ \"seed\": 1 } trailing", "trailing data"),
            (
                "{ \"dma\": [ { \"path\": \"DdrToXm\", \"nth\": 1, \"kind\": \"Corrupt\" } ] }",
                "unknown DMA path",
            ),
            (
                "{ \"dma\": [ { \"path\": \"DdrToAm\", \"kind\": \"Corrupt\" } ] }",
                "missing \"nth\"",
            ),
            ("{ \"seed\": -1 }", "bad integer"),
            (
                "{ \"mem\": [ { \"target\": { \"kind\": \"Sm\" }, \"nth_read\": 1 } ] }",
                "missing \"core\"",
            ),
            (
                "{ \"clusters\": [ { \"at_seconds\": 1e-3, \"at\": 1e-3 } ] }",
                "unknown cluster failure key",
            ),
            ("{ \"clusters\": [ { } ] }", "missing \"at_seconds\""),
            (
                "{ \"cpu_slowdowns\": [ { \"factor\": 2.0, \"nth\": 1 } ] }",
                "unknown cpu slowdown key",
            ),
            ("{ \"cpu_failures\": [ { } ] }", "missing \"nth\""),
            // A repeated key is never first-wins, last-wins or a merge.
            (
                "{ \"seed\": 1, \"seed\": 2 }",
                "duplicate plan key \"seed\"",
            ),
            ("{ \"dma\": [], \"dma\": [] }", "duplicate plan key \"dma\""),
            (
                "{ \"cpu_failures\": [ { \"nth\": 1, \"nth\": 1 } ] }",
                "duplicate cpu failure key",
            ),
        ] {
            let err = FaultPlan::from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text}: got {err:?}");
        }
    }
}
