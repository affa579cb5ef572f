//! JSON round-tripping for [`FaultPlan`] so chaos scenarios can live in
//! fixture files instead of being constructed in code.
//!
//! The workspace builds offline with no serialisation framework, so this
//! module carries its own tiny JSON writer and reads back through the
//! shared [`crate::minijson`] reader (numbers keep
//! their source text there, so `u64` seeds survive beyond the 2^53 range
//! where an `f64` detour would silently round).
//!
//! ```
//! use dspsim::{DmaPath, FaultPlan};
//! let plan = FaultPlan::new(7).corrupt_dma(DmaPath::DdrToAm, 2);
//! let text = plan.to_json();
//! assert_eq!(FaultPlan::from_json(&text).unwrap(), plan);
//! ```

use crate::fault::{ClusterFailure, CoreFailure, CpuFailure, CpuSlowdown, DmaFault, MemFault};
use crate::minijson::{Parser, Value};
use crate::{DmaFaultKind, DmaPath, FaultPlan, MemTarget};
use std::fmt::Write as _;

// ---------------------------------------------------------------- writing

fn dma_path_name(p: DmaPath) -> &'static str {
    match p {
        DmaPath::DdrToGsm => "DdrToGsm",
        DmaPath::GsmToDdr => "GsmToDdr",
        DmaPath::DdrToSm => "DdrToSm",
        DmaPath::DdrToAm => "DdrToAm",
        DmaPath::SmToDdr => "SmToDdr",
        DmaPath::AmToDdr => "AmToDdr",
        DmaPath::GsmToSm => "GsmToSm",
        DmaPath::GsmToAm => "GsmToAm",
        DmaPath::AmToGsm => "AmToGsm",
    }
}

fn dma_path_from_name(s: &str) -> Result<DmaPath, String> {
    Ok(match s {
        "DdrToGsm" => DmaPath::DdrToGsm,
        "GsmToDdr" => DmaPath::GsmToDdr,
        "DdrToSm" => DmaPath::DdrToSm,
        "DdrToAm" => DmaPath::DdrToAm,
        "SmToDdr" => DmaPath::SmToDdr,
        "AmToDdr" => DmaPath::AmToDdr,
        "GsmToSm" => DmaPath::GsmToSm,
        "GsmToAm" => DmaPath::GsmToAm,
        "AmToGsm" => DmaPath::AmToGsm,
        other => return Err(format!("unknown DMA path {other:?}")),
    })
}

impl FaultPlan {
    /// Serialise the plan as pretty-printed JSON (stable field order, so
    /// fixtures diff cleanly).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"timeout_s\": {:?},", self.timeout_s);
        s.push_str("  \"dma\": [");
        for (i, f) in self.dma.iter().enumerate() {
            let kind = match f.kind {
                DmaFaultKind::Corrupt => "Corrupt",
                DmaFaultKind::Timeout => "Timeout",
            };
            let _ = write!(
                s,
                "{}\n    {{ \"path\": \"{}\", \"nth\": {}, \"kind\": \"{}\" }}",
                if i == 0 { "" } else { "," },
                dma_path_name(f.path),
                f.nth,
                kind
            );
        }
        s.push_str(if self.dma.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"mem\": [");
        for (i, f) in self.mem.iter().enumerate() {
            let target = match f.target {
                MemTarget::Gsm => "{ \"kind\": \"Gsm\" }".to_string(),
                MemTarget::Sm(c) => format!("{{ \"kind\": \"Sm\", \"core\": {c} }}"),
                MemTarget::Am(c) => format!("{{ \"kind\": \"Am\", \"core\": {c} }}"),
            };
            let _ = write!(
                s,
                "{}\n    {{ \"target\": {target}, \"nth_read\": {} }}",
                if i == 0 { "" } else { "," },
                f.nth_read
            );
        }
        s.push_str(if self.mem.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"cores\": [");
        for (i, f) in self.cores.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{ \"core\": {}, \"at_seconds\": {:?} }}",
                if i == 0 { "" } else { "," },
                f.core,
                f.at_seconds
            );
        }
        s.push_str(if self.cores.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"clusters\": [");
        for (i, f) in self.clusters.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{ \"at_seconds\": {:?} }}",
                if i == 0 { "" } else { "," },
                f.at_seconds
            );
        }
        s.push_str(if self.clusters.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"cpu_slowdowns\": [");
        for (i, f) in self.cpu_slowdowns.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{ \"factor\": {:?} }}",
                if i == 0 { "" } else { "," },
                f.factor
            );
        }
        s.push_str(if self.cpu_slowdowns.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"cpu_failures\": [");
        for (i, f) in self.cpu_failures.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{ \"nth\": {} }}",
                if i == 0 { "" } else { "," },
                f.nth
            );
        }
        s.push_str(if self.cpu_failures.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push('}');
        s
    }

    /// Parse a plan from JSON as produced by [`FaultPlan::to_json`] (or
    /// written by hand).  Unknown keys are rejected so a typoed fixture
    /// fails loudly instead of silently injecting nothing.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = Parser::new(text).parse()?;
        let obj = value.as_obj("plan")?;
        let mut plan = FaultPlan::new(0);
        for (key, v) in obj {
            match key.as_str() {
                "seed" => plan.seed = v.as_u64("seed")?,
                "timeout_s" => plan.timeout_s = v.as_f64("timeout_s")?,
                "dma" => {
                    for item in v.as_arr("dma")? {
                        plan.dma.push(parse_dma_fault(item)?);
                    }
                }
                "mem" => {
                    for item in v.as_arr("mem")? {
                        plan.mem.push(parse_mem_fault(item)?);
                    }
                }
                "cores" => {
                    for item in v.as_arr("cores")? {
                        plan.cores.push(parse_core_failure(item)?);
                    }
                }
                "clusters" => {
                    for item in v.as_arr("clusters")? {
                        plan.clusters.push(parse_cluster_failure(item)?);
                    }
                }
                "cpu_slowdowns" => {
                    for item in v.as_arr("cpu_slowdowns")? {
                        plan.cpu_slowdowns.push(parse_cpu_slowdown(item)?);
                    }
                }
                "cpu_failures" => {
                    for item in v.as_arr("cpu_failures")? {
                        plan.cpu_failures.push(parse_cpu_failure(item)?);
                    }
                }
                other => return Err(format!("unknown plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_dma_fault(v: &Value) -> Result<DmaFault, String> {
    let obj = v.as_obj("dma fault")?;
    let (mut path, mut nth, mut kind) = (None, None, None);
    for (key, v) in obj {
        match key.as_str() {
            "path" => path = Some(dma_path_from_name(v.as_str("path")?)?),
            "nth" => nth = Some(v.as_u64("nth")?),
            "kind" => {
                kind = Some(match v.as_str("kind")? {
                    "Corrupt" => DmaFaultKind::Corrupt,
                    "Timeout" => DmaFaultKind::Timeout,
                    other => return Err(format!("unknown DMA fault kind {other:?}")),
                })
            }
            other => return Err(format!("unknown dma fault key {other:?}")),
        }
    }
    Ok(DmaFault {
        path: path.ok_or("dma fault missing \"path\"")?,
        nth: nth.ok_or("dma fault missing \"nth\"")?,
        kind: kind.ok_or("dma fault missing \"kind\"")?,
    })
}

fn parse_mem_fault(v: &Value) -> Result<MemFault, String> {
    let obj = v.as_obj("mem fault")?;
    let (mut target, mut nth_read) = (None, None);
    for (key, v) in obj {
        match key.as_str() {
            "target" => {
                let t = v.as_obj("target")?;
                let (mut kind, mut core) = (None, None);
                for (k, v) in t {
                    match k.as_str() {
                        "kind" => kind = Some(v.as_str("target.kind")?.to_string()),
                        "core" => core = Some(v.as_u64("target.core")? as usize),
                        other => return Err(format!("unknown target key {other:?}")),
                    }
                }
                target = Some(match kind.as_deref() {
                    Some("Gsm") => MemTarget::Gsm,
                    Some("Sm") => MemTarget::Sm(core.ok_or("Sm target missing \"core\"")?),
                    Some("Am") => MemTarget::Am(core.ok_or("Am target missing \"core\"")?),
                    Some(other) => return Err(format!("unknown mem target {other:?}")),
                    None => return Err("target missing \"kind\"".into()),
                });
            }
            "nth_read" => nth_read = Some(v.as_u64("nth_read")?),
            other => return Err(format!("unknown mem fault key {other:?}")),
        }
    }
    Ok(MemFault {
        target: target.ok_or("mem fault missing \"target\"")?,
        nth_read: nth_read.ok_or("mem fault missing \"nth_read\"")?,
    })
}

fn parse_core_failure(v: &Value) -> Result<CoreFailure, String> {
    let obj = v.as_obj("core failure")?;
    let (mut core, mut at) = (None, None);
    for (key, v) in obj {
        match key.as_str() {
            "core" => core = Some(v.as_u64("core")? as usize),
            "at_seconds" => at = Some(v.as_f64("at_seconds")?),
            other => return Err(format!("unknown core failure key {other:?}")),
        }
    }
    Ok(CoreFailure {
        core: core.ok_or("core failure missing \"core\"")?,
        at_seconds: at.ok_or("core failure missing \"at_seconds\"")?,
    })
}

fn parse_cluster_failure(v: &Value) -> Result<ClusterFailure, String> {
    let obj = v.as_obj("cluster failure")?;
    let mut at = None;
    for (key, v) in obj {
        match key.as_str() {
            "at_seconds" => at = Some(v.as_f64("at_seconds")?),
            other => return Err(format!("unknown cluster failure key {other:?}")),
        }
    }
    Ok(ClusterFailure {
        at_seconds: at.ok_or("cluster failure missing \"at_seconds\"")?,
    })
}

fn parse_cpu_slowdown(v: &Value) -> Result<CpuSlowdown, String> {
    let obj = v.as_obj("cpu slowdown")?;
    let mut factor = None;
    for (key, v) in obj {
        match key.as_str() {
            "factor" => factor = Some(v.as_f64("factor")?),
            other => return Err(format!("unknown cpu slowdown key {other:?}")),
        }
    }
    Ok(CpuSlowdown {
        factor: factor.ok_or("cpu slowdown missing \"factor\"")?,
    })
}

fn parse_cpu_failure(v: &Value) -> Result<CpuFailure, String> {
    let obj = v.as_obj("cpu failure")?;
    let mut nth = None;
    for (key, v) in obj {
        match key.as_str() {
            "nth" => nth = Some(v.as_u64("nth")?),
            other => return Err(format!("unknown cpu failure key {other:?}")),
        }
    }
    Ok(CpuFailure {
        nth: nth.ok_or("cpu failure missing \"nth\"")?,
    })
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
                "{ \"clusters\": [ { \"at\": 1e-3 } ] }",
                "unknown cluster failure key",
            ),
            ("{ \"clusters\": [ { } ] }", "missing \"at_seconds\""),
            (
                "{ \"cpu_slowdowns\": [ { \"nth\": 1 } ] }",
                "unknown cpu slowdown key",
            ),
            ("{ \"cpu_failures\": [ { } ] }", "missing \"nth\""),
        ] {
            let err = FaultPlan::from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text}: got {err:?}");
        }
    }
}
